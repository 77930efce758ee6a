"""Exception hierarchy for the repro compiler and simulator.

Every error raised by the package derives from :class:`ReproError`, so
callers can catch one type.  Frontend errors carry source locations;
simulator errors carry simulated time and node ids where available.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SourceLocation:
    """A position in an EARTH-C source file (1-based line and column)."""

    __slots__ = ("filename", "line", "column")

    def __init__(self, filename: str = "<input>", line: int = 0, column: int = 0):
        self.filename = filename
        self.line = line
        self.column = column

    def __repr__(self) -> str:
        return f"SourceLocation({self.filename!r}, {self.line}, {self.column})"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourceLocation):
            return NotImplemented
        return (self.filename, self.line, self.column) == (
            other.filename,
            other.line,
            other.column,
        )

    def __hash__(self) -> int:
        return hash((self.filename, self.line, self.column))


class FrontendError(ReproError):
    """An error detected while lexing, parsing, or type-checking EARTH-C."""

    def __init__(self, message: str, location: "SourceLocation | None" = None):
        self.location = location
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


class LexError(FrontendError):
    """Invalid token in EARTH-C source."""


class ParseError(FrontendError):
    """Invalid syntax in EARTH-C source."""


class TypeError_(FrontendError):
    """EARTH-C type error (named with a trailing underscore to avoid
    shadowing the builtin)."""


class SimplifyError(ReproError):
    """The AST could not be lowered to SIMPLE form."""


class AnalysisError(ReproError):
    """An analysis precondition was violated (e.g. unvalidated SIMPLE)."""


class TransformError(ReproError):
    """A program transformation produced or encountered an invalid state."""


class SimulatorError(ReproError):
    """Base class for errors raised by the EARTH-MANNA simulator."""


class MemoryFault(SimulatorError):
    """An access to an unmapped or freed global address."""

    def __init__(self, message: str, node: "int | None" = None,
                 address: "int | None" = None):
        self.node = node
        self.address = address
        if node is not None:
            message = f"node {node}: {message}"
        super().__init__(message)


class InterpreterError(SimulatorError):
    """Dynamic error while executing a SIMPLE program (nil dereference
    outside speculative mode, unknown function, bad operand types...)."""


class FaultPlanError(SimulatorError):
    """Invalid fault-injection configuration (bad probability, reused
    plan, unknown profile...)."""


class ShardError(SimulatorError):
    """Sharded-simulation failure: a worker process died, a barrier
    round timed out, or an operation crossed shards in a way the
    partition cannot serve (e.g. a dual-remote blkmov whose source
    lives on a third shard)."""


class UsageError(ReproError):
    """Invalid flag values or flag combinations detected past argparse
    (e.g. ``--shards`` larger than the node count).  Maps to the same
    exit code argparse uses for bad flags."""


class ServiceError(ReproError):
    """Compile-service failure: malformed job, unreachable server,
    worker crash budget exhausted, cache corruption...  ``code`` is
    its exit code when that is not the class's own: a failed job
    raised as an error keeps the job's."""

    def __init__(self, message: str, code: "int | None" = None):
        super().__init__(message)
        self.code = code


# -- CLI exit codes -----------------------------------------------------------
#
# ``python -m repro`` exits with a *distinct* code per failure class so
# scripts and the batch layer can react without parsing stderr.

EXIT_OK = 0
EXIT_ERROR = 1        # other ReproError (bad --function, harness errors...)
EXIT_USAGE = 2        # bad flags / flag combinations (argparse uses 2 too)
EXIT_COMPILE = 3      # frontend errors: lex, parse, type check, simplify
EXIT_RUNTIME = 4      # simulator errors: memory faults, fault-plan misuse
EXIT_IO = 5           # unreadable input or unwritable output files
EXIT_SERVICE = 6      # service errors: server unreachable, job failed


#: HTTP status the fleet gateway answers with for each CLI exit code:
#: the one failure-class vocabulary (``exit_code_for``) serves both
#: front ends, so a compile error is code 3 on the CLI and 422 over
#: HTTP without a second mapping to maintain.
HTTP_STATUS_FOR_EXIT = {
    EXIT_OK: 200,
    EXIT_ERROR: 500,
    EXIT_USAGE: 400,      # malformed request / job spec
    EXIT_COMPILE: 422,    # well-formed job, uncompilable program
    EXIT_RUNTIME: 422,    # well-formed job, failing run
    EXIT_IO: 500,
    EXIT_SERVICE: 503,    # busy, worker budget exhausted, store down
}


def error_body(error_type: str, message: str, code: int = EXIT_SERVICE,
               retry: bool = False) -> dict:
    """The one structured error every entry answers with -- the CLI's
    ``--json`` line, an admission refusal, an HTTP error body."""
    body = {"ok": False,
            "error": {"type": error_type, "message": message,
                      "code": code}}
    if retry:
        body["retry"] = True
    return body


def shown(value: object) -> str:
    """``repr(value)`` for a message that echoes a caller's value.  An
    int past Python's digit limit for printing (4,300 by default), or
    a container holding one, has no repr: it is named by its type."""
    try:
        return repr(value)
    except ValueError:
        return f"a {type(value).__name__} too large to print"


def http_status_for(code: int) -> int:
    """The HTTP status for a CLI exit code (500 for anything unknown)."""
    return HTTP_STATUS_FOR_EXIT.get(code, 500)


def exit_code_for(exc: BaseException) -> int:
    """The CLI exit code for an exception (most specific class wins)."""
    if isinstance(exc, (FrontendError, SimplifyError)):
        return EXIT_COMPILE
    if isinstance(exc, UsageError):
        return EXIT_USAGE
    if isinstance(exc, ServiceError):
        return exc.code or EXIT_SERVICE
    if isinstance(exc, SimulatorError):
        return EXIT_RUNTIME
    if isinstance(exc, OSError):
        return EXIT_IO
    if isinstance(exc, ReproError):
        return EXIT_ERROR
    raise TypeError(f"no exit code mapping for {type(exc).__name__}")
