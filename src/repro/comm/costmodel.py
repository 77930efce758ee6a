"""Communication cost model (Table I of the paper) and the
pipelining-vs-blocking decision.

Measured EARTH-MANNA costs (paper, Table I, nanoseconds):

===========  ==========  =========
operation    sequential  pipelined
===========  ==========  =========
read word       7109        1908
write word      6458        1749
blkmov word     9700        2602
===========  ==========  =========

The *pipelined* figure is the per-operation throughput cost when
operations are issued back-to-back (EU-bound); *sequential* adds the
round-trip latency plus context switching.  We decompose each row into
an **issue cost** (EU occupancy; the pipelined figure) and a constant
**synchronization extra** (sequential minus pipelined), and give
``blkmov`` a small per-word slope so larger blocks cost more but much
less than the per-word scalar cost:

* the blkmov issue cost is flat (2602 ns, Table I's pipelined figure):
  the EU merely hands the descriptor to the SU, which does the per-word
  copying.  One block move therefore beats three pipelined scalar reads
  (3 x 1908 = 5724 ns of EU time) -- the hardware behaviour behind the
  paper's rule that "a block-move is better when three or more words
  can be moved together".

The *decision* between pipelining and blocking follows the paper's
experimental setup: a threshold of **three accesses** ("pipelining is
better for two remote accesses, but blocked communication is better for
three or more"), with the spurious-field correction ("if the structure
being read is very large compared to the number of fields actually
required, the tradeoff shifts slightly towards pipelined").
"""

from __future__ import annotations


class CommCostModel:
    """EARTH-MANNA communication costs and blocking decisions."""

    def __init__(
        self,
        read_pipelined_ns: float = 1908.0,
        read_sequential_ns: float = 7109.0,
        write_pipelined_ns: float = 1749.0,
        write_sequential_ns: float = 6458.0,
        blkmov_base_ns: float = 2602.0,
        blkmov_per_word_ns: float = 0.0,
        blkmov_sequential_extra_ns: float = 7098.0,
        block_access_threshold: int = 3,
        min_expected_accesses: float = 2.0,
        max_spurious_ratio: float = 4.0,
    ):
        self.read_pipelined_ns = read_pipelined_ns
        self.read_sequential_ns = read_sequential_ns
        self.write_pipelined_ns = write_pipelined_ns
        self.write_sequential_ns = write_sequential_ns
        self.blkmov_base_ns = blkmov_base_ns
        self.blkmov_per_word_ns = blkmov_per_word_ns
        self.blkmov_sequential_extra_ns = blkmov_sequential_extra_ns
        self.block_access_threshold = block_access_threshold
        self.min_expected_accesses = min_expected_accesses
        self.max_spurious_ratio = max_spurious_ratio

    @classmethod
    def from_opt(cls, opt) -> "CommCostModel":
        """A cost model whose decision thresholds come from an
        :class:`~repro.comm.optconfig.OptConfig` (Table I hardware
        costs are fixed; only the blocking-decision knobs vary)."""
        return cls(block_access_threshold=opt.block_access_threshold,
                   min_expected_accesses=opt.min_expected_accesses,
                   max_spurious_ratio=opt.max_spurious_ratio)

    # -- cost queries ---------------------------------------------------------

    def read_cost(self, pipelined: bool) -> float:
        return self.read_pipelined_ns if pipelined \
            else self.read_sequential_ns

    def write_cost(self, pipelined: bool) -> float:
        return self.write_pipelined_ns if pipelined \
            else self.write_sequential_ns

    def blkmov_issue_ns(self, words: int) -> float:
        return self.blkmov_base_ns + self.blkmov_per_word_ns * words

    def blkmov_cost(self, words: int, pipelined: bool) -> float:
        cost = self.blkmov_issue_ns(words)
        if not pipelined:
            cost += self.blkmov_sequential_extra_ns
        return cost

    def read_sync_extra_ns(self) -> float:
        return self.read_sequential_ns - self.read_pipelined_ns

    def write_sync_extra_ns(self) -> float:
        return self.write_sequential_ns - self.write_pipelined_ns

    # -- blocking decision ---------------------------------------------------------

    def should_block(self, num_accesses: int, expected_accesses: float,
                     words_needed: int, struct_words: int) -> bool:
        """Choose blocked communication for a group of accesses through
        one pointer.

        ``num_accesses`` is the number of distinct field locations the
        block move would serve -- the paper's "threshold of three"
        operates on this count (its Fig. 11b blocks sum_adjacent, whose
        switch-arm reads each carry adjusted frequency well below 1).
        ``expected_accesses`` (frequencies capped at 1, summed) guards
        profitability: a blkmov costs about 1.4 scalar reads of EU time,
        so it must be expected to replace at least
        ``min_expected_accesses`` scalar operations per execution.
        """
        if num_accesses < self.block_access_threshold:
            return False
        if expected_accesses < self.min_expected_accesses - 1e-9:
            return False
        if words_needed <= 0:
            return False
        if struct_words > self.max_spurious_ratio * words_needed:
            return False
        return True

    def __repr__(self) -> str:
        return (f"CommCostModel(read={self.read_pipelined_ns}/"
                f"{self.read_sequential_ns}, write={self.write_pipelined_ns}/"
                f"{self.write_sequential_ns}, "
                f"threshold={self.block_access_threshold})")
