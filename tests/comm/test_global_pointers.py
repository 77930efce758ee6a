"""Remote accesses through a global pointer keep their meaning under -O.

Each program reads or writes a heap object through a global pointer in
a way the optimizer moves or blocks: a global as a ``blkmov`` endpoint
(its points-to set must stay visible, not be shadowed by an empty local
holder), a write sunk to the end of a function, a read hoisted to the
top, and a scalar deref through a global ``int *``.  Selection looks a
base pointer's type up among the function's variables first and the
program's globals second.

A remote read *into* a global is never split-phase: a pending value
lands in the frame, so selection gives such a read a comm variable and
the residual marking leaves it blocking.
"""

import pytest

from repro.__main__ import main
from repro.comm.optimizer import CommConfig
from repro.config import RunConfig
from repro.earth.interpreter import ENGINES
from repro.harness.pipeline import compile_earthc, execute
from repro.simple import nodes as s

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


#: ``g = p->val`` reads a remote word into a global; ``main(5)`` is 5.
READ_INTO_GLOBAL = """
struct node { int val; struct node *next; };
int g;
int get(struct node *p) { g = p->val; return 0; }
int main(int n) {
    struct node *p;
    p = (struct node *) malloc(sizeof(struct node)) @ 1;
    p->val = n; get(p); return g;
}
"""


@pytest.mark.parametrize("placement, hoisted", [
    (True, True),     # selection: through a comm variable
    (False, False),   # residual marking only: stays blocking
], ids=["selection", "residual"])
def test_read_into_a_global_is_never_split_phase(placement, hoisted):
    compiled = compile_earthc(
        READ_INTO_GLOBAL, "global.ec", optimize=True,
        config=CommConfig(enable_placement=placement))
    reads = [stmt for stmt in compiled.simple.function("get").body.walk()
             if isinstance(stmt, s.AssignStmt)
             and isinstance(stmt.rhs, s.FieldReadRhs)]
    assert len(reads) == 1
    assert isinstance(reads[0].lhs, s.VarLV)
    assert (reads[0].lhs.name != "g") == hoisted
    assert reads[0].split_phase == hoisted
    for engine in ENGINES:
        config = RunConfig(nodes=2, args=(5,), engine=engine)
        assert execute(compiled, config=config).value == 5, engine
