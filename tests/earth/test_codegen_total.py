"""The codegen engine emits every function of a validated program.

There is no per-function fallback to the walker: one engine runs the
whole program.  Every Olden function is emitted, and so is a
non-finite float constant in every operand position; a construct
validated SIMPLE cannot contain -- here built by hand into an
unvalidated program -- is an ``InterpreterError`` naming the function
and the construct, raised when the function is bound.
"""

import pytest

from repro.config import RunConfig
from repro.earth.codegen import CodegenEngine
from repro.errors import InterpreterError
from repro.frontend.types import INT, FieldPath
from repro.harness.pipeline import compile_earthc, execute, make_interpreter
from repro.olden.loader import catalog, get_benchmark
from repro.simple import nodes as s


@pytest.mark.parametrize("name", [spec.name for spec in catalog()])
def test_every_olden_function_is_emitted(name):
    spec = get_benchmark(name)
    compiled = compile_earthc(spec.source(), spec.filename,
                              optimize=True, inline=spec.inline)
    interp = make_interpreter(compiled, RunConfig(nodes=4))
    interp._init_globals()
    engine = CodegenEngine(interp)
    for function in compiled.simple.functions:
        assert engine.function(function).source.startswith(
            f"# codegen for SIMPLE function {function!r}")
    assert set(engine.sources) == set(compiled.simple.functions)


#: id -> a ``main`` body with a non-finite constant where one operand
#: emitter puts it; each returns 1.
NON_FINITE = {
    "assign": "d = 1e400; return d > 1e300;",
    "unary": "d = -1e400; return d < 0.0;",
    "binary": "d = 2.0 * 1e400; return d > 1e300;",
    "nan": "d = 1e400 - 1e400; return d != d;",
    "condition": "d = 1e400; if (d == 1e400) return 1; return 0;",
    "loop": "d = 0.0; while (d < 1e400) d = d + 1e400; return 1;",
    "argument": "return id(1e400) > 1e300;",
    "remote-store": "c->d = -1e400; return c->d < 0.0;",
    "global": "big = 1e400; return big > 1e300;",
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_constants_are_emitted_as_values(case):
    """``repr(inf)`` is not a Python expression; the constant is
    emitted as ``float('inf')`` (this used to send the function to the
    walker), and both engines agree to the bit."""
    source = ("struct cell { double d; struct cell *next; };\n"
              "double big;\n"
              "double id(double x) { return x; }\n"
              "int main() { double d; struct cell *c;\n"
              "c = (struct cell *) malloc(sizeof(struct cell)) @ 1;\n"
              + NON_FINITE[case] + " }")
    compiled = compile_earthc(source, f"{case}.ec", optimize=True)
    results = {engine: execute(compiled, config=RunConfig(
        nodes=2, engine=engine)) for engine in ("codegen", "ast")}
    assert results["codegen"].value == results["ast"].value == 1
    assert results["codegen"].time_ns == results["ast"].time_ns
    assert results["codegen"].stats.snapshot() \
        == results["ast"].stats.snapshot()
    interp = make_interpreter(compiled, RunConfig(nodes=2))
    interp._init_globals()
    assert "float('" in CodegenEngine(interp).function("main").source


SOURCE = """
struct pt { int x; int y; };
int g;
int main(int n) {
    struct pt *p;
    p = (struct pt *) malloc(sizeof(struct pt));
    p->x = n;
    return n;
}
"""

X = FieldPath.single("x")


def _declare_bad_name(function):
    function.declare("not-an-id", INT)
    return s.NopStmt()


#: id -> (builds the statement put first in ``main``, what the error
#: names).  Each is something validation, the type checker or the front
#: end keeps out of a compiled program.
HAND_BUILT = {
    "split-read-into-global": (
        lambda f: s.AssignStmt(s.VarLV("g"), s.FieldReadRhs("p", X, True),
                               split_phase=True),
        "a split-phase read into non-local 'g'"),
    "unknown-variable": (
        lambda f: s.AssignStmt(s.VarLV("n"),
                               s.OperandRhs(s.VarUse("ghost"))),
        "unknown variable 'ghost'"),
    "store-to-unknown": (
        lambda f: s.AssignStmt(s.VarLV("ghost"), s.OperandRhs(s.Const(1))),
        "a store to unknown variable 'ghost'"),
    "unknown-callee": (
        lambda f: s.CallStmt(None, "nosuch", []),
        "a call to unknown function 'nosuch'"),
    "placement": (
        lambda f: s.CallStmt(None, "main", [s.VarUse("n")], ("bogus",)),
        "placement ('bogus',)"),
    "operator": (
        lambda f: s.AssignStmt(s.VarLV("n"), s.BinaryRhs(
            "**", s.VarUse("n"), s.Const(2))),
        "operator '**'"),
    "unary-operator": (
        lambda f: s.AssignStmt(s.VarLV("n"),
                               s.UnaryRhs("+", s.VarUse("n"))),
        "unary operator '+'"),
    "constant": (
        lambda f: s.AssignStmt(s.VarLV("n"), s.OperandRhs(s.Const("one"))),
        "constant 'one'"),
    "address-of-local": (
        lambda f: s.AssignStmt(s.VarLV("n"), s.AddrOfRhs("n")),
        "the address of non-global 'n'"),
    "global-struct-field": (
        lambda f: s.AssignStmt(s.StructFieldWriteLV("g", X),
                               s.OperandRhs(s.Const(1))),
        "a field store to non-local struct 'g'"),
    "blkmov-into-global": (
        lambda f: s.BlkmovStmt(("ptr", "p", 0), ("local", "g", 0), 2),
        "blkmov endpoint 'g', not a local struct"),
    "variable-name": (_declare_bad_name, "variable name 'not-an-id'"),
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_a_construct_outside_validated_simple_is_a_named_error(case):
    build, what = HAND_BUILT[case]
    compiled = compile_earthc(SOURCE, "bad.ec")
    main = compiled.simple.function("main")
    main.body.stmts.insert(0, build(main))
    with pytest.raises(InterpreterError) as refused:
        execute(compiled, config=RunConfig(engine="codegen"))
    assert str(refused.value) == f"main: codegen cannot emit {what}"
