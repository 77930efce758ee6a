"""Golden snapshot of the codegen engine's emitted Python source.

The codegen engine (``repro.earth.codegen``) turns each SIMPLE
function into specialized Python text; the emitted source *is* the
engine's behaviour, so accidental drift (a reordered check, a lost
fusion, a changed yield point) should be visible in review as a plain
text diff.  This pins the complete emitted source for one small
split-phase function covering the main shapes: one statement-counter
charge per straight-line run, fused local stretches, split-phase remote
reads landing a Slot (or, complete at issue, the coerced value) in a
local, sync-on-use with coercion, checked reads, and the inlined
return epilogue of a function that carries no ``_out`` list.

Statement labels embed in the source (``'read@N'``); they are
numbered per compilation, so the text is a function of the program
alone -- which is also what lets a recompile of the same source reuse
the cached code objects (last test).
"""

from __future__ import annotations

import re
import textwrap

from repro.earth import codegen
from repro.earth.codegen import CodegenEngine
from repro.earth.interpreter import Interpreter
from repro.earth.machine import Machine
from repro.earth.params import MachineParams
from repro.harness.pipeline import compile_earthc
from repro.olden.loader import get_benchmark

SOURCE = """
struct cell { int value; struct cell *next; };

struct cell *make_cell(int value, int where) {
    struct cell *c;
    c = (struct cell *) malloc(sizeof(struct cell)) @ where;
    c->value = value;
    c->next = NULL;
    return c;
}

int sum_chain(struct cell *head) {
    int total;
    total = 0;
    while (head != NULL) {
        total = total + head->value;
        head = head->next;
    }
    return total;
}

int main() {
    struct cell *a;
    struct cell *b;
    a = make_cell(40, 0);
    b = make_cell(2, 1);
    a->next = b;
    return sum_chain(a);
}
"""

GOLDEN_SUM_CHAIN = textwrap.dedent("""\
    # codegen for SIMPLE function 'sum_chain'
    def invoke(args, node, result_slot=None):
        if len(args) != 1:
            raise InterpreterError('sum_chain: expected 1 args, got %d' % (len(args),))
        v_head = int(args[0])
        v_total = 0
        v_temp_1 = 0
        v_comm1 = 0
        _stats.basic_stmts_executed += 1
        if _stats.basic_stmts_executed >= 200000000:
            raise InterpreterError(_BUDGET_MSG)
        _clk[0] += 60.0
        v_total = 0
        while True:
            _clk[0] += 60.0
            if not (v_head != 0):
                break
            _stats.basic_stmts_executed += 4
            if _stats.basic_stmts_executed >= 200000000:
                raise InterpreterError(_BUDGET_MSG)
            _clk[0] += 60.0
            _t1 = v_head
            _t2 = (_t1 + 1 if _t1 != 0 else 0)
            _t3 = _t2 // _NODE_SPAN if _t2 != 0 else node
            _t4 = _issue("read", _t3, 1, ("read", _t2), 'read@26', _t2)
            v_comm1 = _t4 if type(_t4) is Slot else int(_t4)
            _clk[0] += 60.0
            _t5 = v_head
            _t6 = _t5 // _NODE_SPAN if _t5 != 0 else node
            _t7 = _issue("read", _t6, 1, ("read", _t5), 'read@10', _t5)
            v_temp_1 = _t7 if type(_t7) is Slot else int(_t7)
            if type(v_temp_1) is Slot:
                v_temp_1 = v_temp_1.value if v_temp_1.ready else (yield v_temp_1)
                v_temp_1 = v_temp_1 if isinstance(v_temp_1, list) else int(v_temp_1)
            _clk[0] += 60.0
            v_total = (v_total + _chkread(v_temp_1, 'temp_1'))
            if type(v_comm1) is Slot:
                v_comm1 = v_comm1.value if v_comm1.ready else (yield v_comm1)
                v_comm1 = v_comm1 if isinstance(v_comm1, list) else int(v_comm1)
            _clk[0] += 60.0
            v_head = _chkread(v_comm1, 'comm1')
        _stats.basic_stmts_executed += 1
        if _stats.basic_stmts_executed >= 200000000:
            raise InterpreterError(_BUDGET_MSG)
        _clk[0] += 60.0
        _ret = v_total
        if result_slot is not None:
            _fulfill(result_slot, _ret)
        return _ret
        _ret = 0
        if result_slot is not None:
            _fulfill(result_slot, _ret)
        return _ret
        yield  # unreachable; keeps this a generator
""")


def _engine_of(compiled, nodes_count=4):
    interp = Interpreter(compiled.simple,
                         Machine(nodes_count, MachineParams()),
                         engine="codegen")
    interp._init_globals()
    return CodegenEngine(interp)


def _engine_for(source):
    return _engine_of(compile_earthc(source, optimize=True))


def test_sum_chain_emitted_source_is_pinned():
    engine = _engine_for(SOURCE)
    engine.function("sum_chain")
    assert engine.sources["sum_chain"] == GOLDEN_SUM_CHAIN


def test_every_function_generates():
    engine = _engine_for(SOURCE)
    for name in engine.interp.program.functions:
        engine.function(name)
    assert set(engine.sources) == set(engine.interp.program.functions)


def test_recompiling_the_same_source_reproduces_listing_and_code():
    """Two compilations of one source in one process: byte-identical
    SIMPLE listing, byte-identical emitted source, and therefore no
    second CPython ``compile()`` -- the code cache is hit."""
    first = compile_earthc(SOURCE, optimize=True)
    # Another program in between must not shift the numbering.
    compile_earthc("int main() { return 7; }", optimize=True)
    second = compile_earthc(SOURCE, optimize=True)
    assert first.listing() == second.listing()

    def generate(compiled):
        engine = _engine_of(compiled)
        for name in compiled.simple.functions:
            engine.function(name)
        return engine.sources

    sources = generate(first)
    cached = dict(codegen._CODE_CACHE)
    assert generate(second) == sources
    assert dict(codegen._CODE_CACHE) == cached
    assert all(text in cached for text in sources.values())


def test_build_tree_builds_no_slot_for_a_completed_operation():
    """An operation that completes at issue returns its value, so no
    write or malloc lands in a ``Slot``, and the statement counter is
    charged once per straight-line run (23 charges for these seven
    issues when every issue ended a count)."""
    spec = get_benchmark("treeadd")
    engine = _engine_of(compile_earthc(spec.source(), spec.filename,
                                       optimize=True, inline=spec.inline))
    source = engine.function("build_tree").source
    assert re.search(r"Slot\(['\"](write|malloc)['\"]\)", source) is None
    assert "_stmts_left" not in source
    assert source.count("_issue(") == 7
    assert source.count("basic_stmts_executed +=") <= 8
