"""The codegen engine emits each function once per program and emit
context (``SimpleProgram.codegen_memo``, keyed on
``codegen.EmitContext``).

A repeat run binds the code a previous run emitted, so the memo must
never hand a run code emitted for different run facts: every run of
one compiled program, under each fact the emitted text bakes in, is
held bit-identical to the same run on a fresh compile of the same
source.  Runs that differ only in what the text does not bake in --
fault plans, the remote-data cache -- emit nothing.
"""

import copy
import pickle

import pytest

from repro.config import RunConfig
from repro.earth import codegen
from repro.earth.faults import FaultPlan
from repro.earth.params import MachineParams
from repro.errors import InterpreterError
from repro.harness.pipeline import compile_earthc, execute
from repro.olden.loader import get_benchmark

#: Bakes in every context field: ``num_nodes()`` and ``malloc @ i``
#: (``% N``), the statement budget, callsite updates under a tracer,
#: local statements, calls, and forall / par joins.
SOURCE = """
struct node { int v; struct node *next; };

int weigh(struct node local *p) { return p->v * 2; }

int main(int n) {
    struct node *head; struct node *p;
    int i; int nn; int a; int b;
    shared int total;
    nn = num_nodes();
    head = NULL;
    for (i = 0; i < n; i++) {
        p = (struct node *) malloc(sizeof(struct node)) @ i;
        p->v = i + nn;
        p->next = head;
        head = p;
    }
    writeto(&total, 0);
    forall (p = head; p != NULL; p = p->next) {
        int w;
        w = weigh(p) @ OWNER_OF(p);
        addto(&total, w);
    }
    {^ a = weigh(head) @ OWNER_OF(head);
       b = weigh(head->next) @ OWNER_OF(head->next); ^}
    printf("nodes=%d", nn);
    return valueof(&total) + a + b;
}
"""

BASE = RunConfig(nodes=4, args=(20,))

#: One compiled program runs these in turn.  Each changes the base run
#: in one way; the last three move one cost each through a live
#: ``MachineParams`` override, since the ``sequential-c`` preset moves
#: two at once and none moves ``local_stmt_ns``.
STEPS = [
    ("nodes-4", BASE, None),
    ("nodes-16", BASE.replace(nodes=16), None),
    ("max-stmts-60", BASE.replace(max_stmts=60), None),
    ("traced", BASE.replace(trace=True), None),
    ("sequential-c", BASE.replace(params="sequential-c"), None),
    ("local-stmt-ns", BASE, MachineParams(local_stmt_ns=90.0)),
    ("call-overhead-ns", BASE, MachineParams(call_overhead_ns=330.0)),
    ("join-ns", BASE, MachineParams(join_ns=170.0)),
]


def _outcome(compiled, config, params=None):
    try:
        result = execute(compiled, config=config, params=params)
    except InterpreterError as exc:
        return ("error", str(exc))
    tracer = result.tracer
    return (result.value, result.output, result.time_ns,
            result.stats.snapshot(),
            None if tracer is None else list(tracer.events))


@pytest.fixture()
def emits(monkeypatch):
    """The functions ``_CodeGenerator.generate`` is called for."""
    names = []
    original = codegen._CodeGenerator.generate

    def counting(self):
        names.append(self.func.name)
        return original(self)

    monkeypatch.setattr(codegen._CodeGenerator, "generate", counting)
    return names


def test_each_run_equals_a_run_on_a_fresh_compile():
    """No step is handed code emitted for an earlier step's facts."""
    shared = compile_earthc(SOURCE, "memo.ec", optimize=True)
    outcomes = {}
    for label, config, params in STEPS:
        fresh = compile_earthc(SOURCE, "memo.ec", optimize=True)
        outcomes[label] = _outcome(shared, config, params)
        assert outcomes[label] == _outcome(fresh, config, params), label
    # Every step moves something observable, so the check has teeth.
    assert outcomes["max-stmts-60"][0] == "error"
    assert len({repr(outcome) for outcome in outcomes.values()}) \
        == len(STEPS)
    memo = shared.simple.codegen_memo
    assert len({key[1] for key in memo}) == len(STEPS)


def test_warm_run_emits_nothing_and_equals_the_cold_run(emits):
    power = get_benchmark("power")
    compiled = compile_earthc(power.source(), power.filename,
                              optimize=True, inline=power.inline)
    config = RunConfig(nodes=4, args=tuple(power.small_args), trace=True)
    cold = _outcome(compiled, config)
    assert emits
    emits.clear()
    assert _outcome(compiled, config) == cold
    assert emits == []


def test_faults_and_rcache_share_the_clean_run_entries(emits):
    compiled = compile_earthc(SOURCE, "memo.ec", optimize=True)
    clean = _outcome(compiled, BASE)
    emits.clear()
    variant = BASE.replace(faults=FaultPlan.from_profile("chaos", 6).spec(),
                           rcache_capacity=8)
    assert _outcome(compiled, variant)[0] == clean[0]
    assert emits == []


def test_memo_is_neither_pickled_nor_copied():
    compiled = compile_earthc(SOURCE, "memo.ec", optimize=True)
    execute(compiled, config=BASE)
    program = compiled.simple
    assert program.codegen_memo
    for twin in (pickle.loads(pickle.dumps(program)),
                 copy.deepcopy(program)):
        assert twin.codegen_memo == {}
        assert set(twin.functions) == set(program.functions)
