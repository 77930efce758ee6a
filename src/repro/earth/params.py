"""Machine timing parameters, calibrated to the paper's Table I.

The decomposition: each remote operation has an **issue cost** (EU
occupancy; equals Table I's *pipelined* figure, which is the back-to-back
throughput), a **one-way network latency**, and an **SU service time**
at the target node.  A synchronizing operation additionally waits for
the reply, so its total is::

    sequential = issue + one_way + su_service + one_way

We fix ``su_service`` and derive per-operation one-way latencies so the
sequential totals reproduce Table I exactly when uncontended:

* read:   7109 = 1908 + 2*one_way + 600          -> one_way = 2300.5
* write:  6458 = 1749 + 2*one_way + 600          -> one_way = 2054.5
* blkmov: 9700 = 2602 + 2*one_way + 600 + 80*1   -> one_way = 3209.0

(The slightly different effective latencies absorb per-operation
protocol differences of the real runtime.)  The blkmov *issue* cost is
flat -- the EU only hands the request to the SU; the per-word transfer
time (80 ns/word, ~ the 50 MB/s MANNA link) is paid at the servicing
SU, so large blocks cost the issuing EU no more than small ones.

Other constants model the EARTH node (50 MHz i860: ~3 cycles/SIMPLE
statement), the runtime's threading overheads, and the cost of an EARTH
remote operation that happens to hit local memory (still a runtime
call, far cheaper than the network path -- this is what makes the
paper's 1-processor "simple" runs slower than pure sequential C).
"""

from __future__ import annotations

from repro.earth.rcache import DEFAULT_LINE_WORDS


class MachineParams:
    """Timing knobs of the simulated EARTH-MANNA machine (nanoseconds)."""

    def __init__(
        self,
        # EU
        local_stmt_ns: float = 60.0,
        call_overhead_ns: float = 200.0,
        ctx_switch_ns: float = 400.0,
        spawn_ns: float = 800.0,
        join_ns: float = 200.0,
        # remote scalar reads
        read_issue_ns: float = 1908.0,
        read_one_way_ns: float = 2300.5,
        # remote scalar writes
        write_issue_ns: float = 1749.0,
        write_one_way_ns: float = 2054.5,
        # block moves
        blkmov_issue_base_ns: float = 2602.0,
        blkmov_issue_per_word_ns: float = 0.0,
        blkmov_one_way_ns: float = 3209.0,
        # SU
        su_service_ns: float = 600.0,
        su_blkmov_per_word_ns: float = 80.0,
        # EARTH ops that hit local memory (runtime call, no network)
        local_remote_op_ns: float = 350.0,
        local_blkmov_base_ns: float = 350.0,
        local_blkmov_per_word_ns: float = 30.0,
        # shared-variable atomic ops
        shared_op_ns: float = 900.0,
        # allocation
        malloc_ns: float = 300.0,
        remote_malloc_extra_ns: float = 4000.0,
        # split-phase resilience (only consulted when a FaultPlan is
        # attached; the zero-fault path never reads these)
        retry_timeout_ns: float = 30_000.0,
        retry_backoff: float = 2.0,
        retry_max_attempts: int = 10,
        # per-node remote-data cache (paper §7 further work; capacity 0
        # disables it and keeps the machine byte-identical to the
        # uncached simulator)
        rcache_capacity: int = 0,
        rcache_line_words: int = DEFAULT_LINE_WORDS,
        rcache_hit_ns: float = 150.0,
        # Third-party cached copies are dropped this long after the
        # store's side effect lands in global memory (the invalidation
        # message crossing the network); the writer's own copies still
        # drop at issue time.  Defaults to the write one-way latency.
        rcache_inval_ns: float = 2054.5,
    ):
        self.local_stmt_ns = local_stmt_ns
        self.call_overhead_ns = call_overhead_ns
        self.ctx_switch_ns = ctx_switch_ns
        self.spawn_ns = spawn_ns
        self.join_ns = join_ns
        self.read_issue_ns = read_issue_ns
        self.read_one_way_ns = read_one_way_ns
        self.write_issue_ns = write_issue_ns
        self.write_one_way_ns = write_one_way_ns
        self.blkmov_issue_base_ns = blkmov_issue_base_ns
        self.blkmov_issue_per_word_ns = blkmov_issue_per_word_ns
        self.blkmov_one_way_ns = blkmov_one_way_ns
        self.su_service_ns = su_service_ns
        self.su_blkmov_per_word_ns = su_blkmov_per_word_ns
        self.local_remote_op_ns = local_remote_op_ns
        self.local_blkmov_base_ns = local_blkmov_base_ns
        self.local_blkmov_per_word_ns = local_blkmov_per_word_ns
        self.shared_op_ns = shared_op_ns
        self.malloc_ns = malloc_ns
        self.remote_malloc_extra_ns = remote_malloc_extra_ns
        if retry_timeout_ns <= 0:
            raise ValueError("retry_timeout_ns must be positive")
        if retry_backoff < 1.0:
            raise ValueError("retry_backoff must be >= 1")
        if retry_max_attempts < 1:
            raise ValueError("retry_max_attempts must be >= 1")
        self.retry_timeout_ns = retry_timeout_ns
        self.retry_backoff = retry_backoff
        self.retry_max_attempts = retry_max_attempts
        if rcache_capacity < 0:
            raise ValueError("rcache_capacity must be >= 0 (0 disables)")
        if rcache_line_words < 1:
            raise ValueError("rcache_line_words must be >= 1")
        if rcache_hit_ns < 0:
            raise ValueError("rcache_hit_ns must be >= 0")
        if rcache_inval_ns <= 0:
            raise ValueError("rcache_inval_ns must be positive")
        self.rcache_capacity = rcache_capacity
        self.rcache_line_words = rcache_line_words
        self.rcache_hit_ns = rcache_hit_ns
        self.rcache_inval_ns = rcache_inval_ns

    # -- derived costs ----------------------------------------------------------

    def issue_cost(self, kind: str, words: int = 1) -> float:
        if kind == "read":
            return self.read_issue_ns
        if kind == "write":
            return self.write_issue_ns
        if kind == "blkmov":
            return (self.blkmov_issue_base_ns
                    + self.blkmov_issue_per_word_ns * words)
        raise ValueError(kind)

    def one_way_latency(self, kind: str) -> float:
        if kind == "read":
            return self.read_one_way_ns
        if kind == "write":
            return self.write_one_way_ns
        if kind == "blkmov":
            return self.blkmov_one_way_ns
        raise ValueError(kind)

    def local_op_cost(self, kind: str, words: int = 1) -> float:
        """Cost of an EARTH remote operation whose target turns out to
        be the local node (runtime call, no network round trip)."""
        if kind == "blkmov":
            return (self.local_blkmov_base_ns
                    + self.local_blkmov_per_word_ns * words)
        return self.local_remote_op_ns

    def shard_window_ns(self) -> float:
        """Length of the conservative time window for sharded runs.

        Every effect that crosses simulated nodes -- and therefore
        potentially crosses shard processes -- is delayed by at least
        one of these latencies past the event that produced it, so a
        shard may safely simulate one whole window before exchanging
        messages at a barrier.  (A fault plan only adds non-negative
        jitter and stalls, and timeouts/retries fire on the origin
        shard, so the bound survives fault injection.)
        """
        window = min(self.read_one_way_ns, self.write_one_way_ns,
                     self.blkmov_one_way_ns)
        if self.rcache_capacity > 0:
            window = min(window, self.rcache_inval_ns)
        return window

    @classmethod
    def sequential_c(cls) -> "MachineParams":
        """The 'truly sequential program with no extra overhead' of
        Table III's first column: direct memory accesses, no runtime
        calls, no threading costs."""
        return cls(
            local_stmt_ns=60.0,
            call_overhead_ns=120.0,
            ctx_switch_ns=0.0,
            spawn_ns=0.0,
            join_ns=0.0,
            local_remote_op_ns=60.0,
            local_blkmov_base_ns=60.0,
            local_blkmov_per_word_ns=20.0,
            shared_op_ns=60.0,
            malloc_ns=150.0,
            remote_malloc_extra_ns=0.0,
        )
