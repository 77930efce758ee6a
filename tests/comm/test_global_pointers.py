"""Remote accesses through a global pointer keep their meaning under -O.

Each program reads or writes a heap object through a global pointer in
a way the optimizer moves or blocks: a global as a ``blkmov`` endpoint
(its points-to set must stay visible, not be shadowed by an empty local
holder), a write sunk to the end of a function, a read hoisted to the
top, and a scalar deref through a global ``int *``.  Selection looks a
base pointer's type up among the function's variables first and the
program's globals second.
"""

import pytest

from repro.__main__ import main
from repro.config import RunConfig
from repro.earth.interpreter import ENGINES
from repro.harness.pipeline import compile_earthc, execute

NODE = "struct node { int v; int w; struct node *next; };\n"

#: name -> (source, the value every engine computes with and without -O)
PROGRAMS = {
    "blkmov-endpoint": (NODE + """
        struct node *g;
        int main() {
            struct node *p;
            struct node tmp;
            int x; int y;
            p = (struct node *) malloc(sizeof(struct node)) @ 1;
            p->v = 1;
            g = p;
            x = p->v;
            tmp = *g;
            g->v = 7;
            y = p->v;
            return x * 100 + y + tmp.w;
        }
    """, 107),
    "moved-write": (NODE + """
        struct node *g;
        int poke(struct node *p) {
            int x; int y;
            p->w = 2;
            g = p;
            g->v = 7;
            x = p->w;
            y = x * 2;
            return y * 100;
        }
        int main() {
            struct node *p;
            int r;
            p = (struct node *) malloc(sizeof(struct node)) @ 1;
            r = poke(p);
            return r + p->v;
        }
    """, 407),
    "moved-read": (NODE + """
        struct node *g;
        int main() {
            struct node *p;
            int x; int y;
            p = (struct node *) malloc(sizeof(struct node)) @ 1;
            p->v = 1;
            g = p;
            x = p->v;
            y = g->v;
            g->v = 7;
            return x * 100 + y + p->v;
        }
    """, 108),
    "int-deref": ("""
        int *gp;
        int main() {
            int *p;
            int x; int y;
            p = (int *) malloc(sizeof(int)) @ 1;
            *p = 3;
            gp = p;
            x = *p;
            y = *gp;
            *gp = 9;
            return x * 100 + y * 10 + *p;
        }
    """, 339),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_optimized_value_equals_unoptimized(name, engine):
    source, expected = PROGRAMS[name]
    config = RunConfig(nodes=2, engine=engine)
    for optimize in (False, True):
        compiled = compile_earthc(source, f"{name}.ec", optimize=optimize)
        assert execute(compiled, config=config).value == expected, optimize


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_cli_runs_it_optimized(name, tmp_path, capsys):
    source, expected = PROGRAMS[name]
    path = tmp_path / f"{name}.ec"
    path.write_text(source)
    assert main([str(path), "-O", "--run", "--nodes", "2"]) == 0
    assert f"result  = {expected}" in capsys.readouterr().out


def test_the_optimizer_moves_each_global_access():
    """The programs exercise what they name: every one of them has an
    access moved to a new statement."""
    for name, (source, _) in PROGRAMS.items():
        counters = compile_earthc(source, f"{name}.ec",
                                  optimize=True).report.pass_counters()
        assert counters["pipelined_reads"] + counters["pipelined_writes"], \
            name
