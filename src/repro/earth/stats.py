"""Dynamic operation counters for simulated runs.

These feed the paper's Figure 10 (dynamic communication counts split
into read-data / write-data / blkmov) and general reporting.  Truly
remote operations (target node differs from the issuing node) are
counted separately from EARTH operations that hit local memory.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Tuple


class MachineStats:
    def __init__(self):
        # Truly remote (cross-node) operations.
        self.remote_reads = 0
        self.remote_writes = 0
        self.remote_blkmovs = 0
        self.remote_blkmov_words = 0
        # EARTH operations that turned out to target local memory.
        self.local_reads = 0
        self.local_writes = 0
        self.local_blkmovs = 0
        # Shared-variable atomic operations.
        self.shared_ops = 0
        # Threading.
        self.fibers_spawned = 0
        self.context_switches = 0
        self.remote_calls = 0
        # Interpreter volume.
        self.basic_stmts_executed = 0
        # Speculative reads that hit nil (allowed unless strict).
        self.speculative_nil_reads = 0
        # Fault injection & resilience (all zero unless a FaultPlan is
        # attached to the machine).
        self.net_drops = 0            # network legs lost
        self.op_timeouts = 0          # timeouts fired on incomplete ops
        self.op_retries = 0           # requests re-sent after a timeout
        self.dedup_replays = 0        # duplicate requests absorbed at the SU
        self.dup_replies = 0          # duplicate replies discarded at origin
        self.ooo_holds = 0            # requests parked behind a lost predecessor
        # Remote-data cache (all zero unless rcache_capacity > 0).
        self.rcache_hits = 0          # remote reads served from the cache
        self.rcache_misses = 0        # remote reads that went to the network
        self.rcache_evictions = 0     # lines displaced by capacity pressure
        self.rcache_invalidations = 0  # cached lines dropped by writes
        # Attempts-to-completion histogram: str(attempts) -> ops that
        # completed after that many sends (the retry/timeout histogram;
        # a Counter so merge() sums per-bucket).
        self.op_attempts_histogram = Counter()

    # -- derived ---------------------------------------------------------------

    @property
    def total_remote_ops(self) -> int:
        return self.remote_reads + self.remote_writes + self.remote_blkmovs

    @property
    def total_comm_ops(self) -> int:
        """All EARTH communication operations, local-hitting included --
        the quantity Figure 10 normalizes."""
        return (self.total_remote_ops + self.local_reads
                + self.local_writes + self.local_blkmovs)

    def comm_breakdown(self) -> Dict[str, int]:
        """read-data / write-data / blkmov counts (local + remote), the
        three segments of the paper's Figure 10 bars."""
        return {
            "read_data": self.remote_reads + self.local_reads,
            "write_data": self.remote_writes + self.local_writes,
            "blkmov": self.remote_blkmovs + self.local_blkmovs,
        }

    def counter_names(self) -> Tuple[str, ...]:
        """Every public counter attribute, in declaration order."""
        return tuple(name for name in self.__dict__
                     if not name.startswith("_"))

    def snapshot(self) -> Dict[str, int]:
        """All public counters as a dict.

        Derived from the instance attributes so a newly added counter
        can never be forgotten here (tests/earth/test_stats_contract.py
        pins this invariant).
        """
        snapshot: Dict[str, int] = {}
        for name in self.counter_names():
            value = getattr(self, name)
            if isinstance(value, dict):
                value = dict(value)  # detach histograms from the live stats
            snapshot[name] = value
        return snapshot

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, int]) -> "MachineStats":
        """Rebuild stats from a :meth:`snapshot` dict (the JSON leg of
        cross-process transport: a served run returns its counters as a
        snapshot, this turns them back into a live object).  Unknown
        keys are rejected so schema drift fails loudly."""
        stats = cls()
        known = set(stats.counter_names())
        unknown = set(snapshot) - known
        if unknown:
            raise ValueError(
                f"unknown MachineStats counters: {sorted(unknown)}")
        for name, value in snapshot.items():
            if isinstance(getattr(stats, name), Counter):
                setattr(stats, name, Counter(value))
            else:
                setattr(stats, name, value)
        return stats

    def merge(self, other: "MachineStats") -> "MachineStats":
        """Accumulate another run's counters into this one (in place;
        returns self).  Used by multi-run harnesses to aggregate stats
        across repetitions or shards."""
        for name in self.counter_names():
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def __repr__(self) -> str:
        return (f"MachineStats(reads={self.remote_reads}, "
                f"writes={self.remote_writes}, "
                f"blkmovs={self.remote_blkmovs}, "
                f"local={self.local_reads + self.local_writes + self.local_blkmovs}, "
                f"stmts={self.basic_stmts_executed})")
