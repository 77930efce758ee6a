"""Guard: fault-injection support must not tax the zero-fault path.

Every split-phase request takes the machine's one request path, with
or without a FaultPlan; its fault steps sit under ``faults is not
None`` tests, so with ``faults=None`` they cost one attribute test each
(the golden tests pin the *simulated* results bit-for-bit).  This
module guards the *host-time* side with a deliberately generous
throughput floor -- the interpreter sustains roughly half a million
SIMPLE statements per second on a development machine, so a 50k floor
only trips on a real hot-path regression, not on CI noise.
"""

import time

from repro.earth.faults import FaultPlan
from repro.harness.pipeline import compile_earthc, execute
from repro.olden.loader import get_benchmark
from repro.config import RunConfig

MIN_STMTS_PER_SEC = 50_000


def _best_run_seconds(compiled, spec, repeats=3, plan=None):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = execute(compiled,
                         faults=plan.clone() if plan is not None else None,
                         config=RunConfig(nodes=4,
                                          args=tuple(spec.small_args)))
        best = min(best, time.perf_counter() - start)
    return best, result


def test_zero_fault_throughput_floor():
    spec = get_benchmark("power")
    compiled = compile_earthc(spec.source(), spec.filename,
                              optimize=True, inline=spec.inline)
    _best_run_seconds(compiled, spec, repeats=1)  # warm caches
    best, result = _best_run_seconds(compiled, spec)
    throughput = result.stats.basic_stmts_executed / best
    assert throughput > MIN_STMTS_PER_SEC, (
        f"{throughput:,.0f} stmts/s on the faults-disabled path "
        f"(floor {MIN_STMTS_PER_SEC:,})")


def test_null_plan_overhead_is_bounded():
    """Even *with* the resilient protocol active (null plan: no drops,
    no jitter, no windows), a small run stays within an order of
    magnitude of the clean path -- catches accidental per-message
    blowups like unbounded buffering."""
    spec = get_benchmark("power")
    compiled = compile_earthc(spec.source(), spec.filename,
                              optimize=True, inline=spec.inline)
    _best_run_seconds(compiled, spec, repeats=1)  # warm caches
    clean, _ = _best_run_seconds(compiled, spec)
    faulty, result = _best_run_seconds(
        compiled, spec, plan=FaultPlan(0))
    assert result.stats.net_drops == 0
    assert faulty < clean * 10 + 0.05
