"""The optimizer's fixed weights and its two heuristic presets.

The paper fixes its profitability weights: ``adjustFrequency`` scales
a tuple's frequency x10 out of a loop and /2 out of an ``if`` arm
(:data:`LOOP_WEIGHT`, :data:`BRANCH_WEIGHT`), a tuple is selected on
its own when its frequency is at least one (:data:`STRONG_FREQ`), and
blocked communication pays for three or more accesses unless the
struct dwarfs the fields read (:data:`MAX_SPURIOUS_RATIO`).  Those are
module constants; no preset changes them.

:class:`OptConfig` carries the one choice a caller makes: the
``legacy`` preset (the paper's heuristics, the default) or the
``probabilistic`` one, which admits two-field block moves and lets a
group of accesses none of which is certain block when their summed
expected accesses reach one (see DESIGN.md section 18).  Both are one
blocking rule, :meth:`OptConfig.should_block`.  The object nests
inside :class:`~repro.comm.optimizer.CommConfig` (field ``opt``), so
the preset flows through the service's content-addressed cache keys,
the CLI's ``--opt-preset`` and job specs' ``comm``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict

from repro.errors import UsageError, shown

#: Frequency multiplier per enclosing loop (the paper: x10).
LOOP_WEIGHT = 10.0
#: Frequency multiplier per conditional arm (the paper: /2).
BRANCH_WEIGHT = 0.5
#: A tuple is "strong" (certain to execute, selected on its own) when
#: its frequency is at least one, up to float rounding.
STRONG_FREQ = 1.0 - 1e-9
#: A struct more than this many times larger than the fields actually
#: read is not worth moving (spurious-data guard).
MAX_SPURIOUS_RATIO = 4.0

#: The preset names, indexed by ``OptConfig.probabilistic``.
OPT_PRESETS = ("legacy", "probabilistic")


@dataclass(frozen=True)
class OptConfig:
    """Which heuristic preset the communication optimizer uses.

    Frozen and hashable-by-value, like :class:`RunConfig`: two equal
    configs produce byte-identical compiled programs, which is the
    contract the service cache key needs.  The preset only ever affects
    one *profitability* choice, what to block
    (:meth:`should_block`); the placement kill predicates are soundness
    conditions and take no preset.
    """

    #: Block two-field groups, and accept a group whose summed expected
    #: accesses (frequencies capped at one) clear
    #: :attr:`min_expected_accesses` even when no single access is
    #: certain.
    probabilistic: bool = False

    def __post_init__(self):
        # A job spec arrives as JSON, where "no" and 1 are truthy.
        if type(self.probabilistic) is not bool:
            raise UsageError(f"probabilistic must be a bool, got "
                             f"{shown(self.probabilistic)}")

    @property
    def preset(self) -> str:
        """The preset's name (:data:`OPT_PRESETS`)."""
        return OPT_PRESETS[self.probabilistic]

    @property
    def block_access_threshold(self) -> int:
        """Minimum distinct field locations before a block move is
        considered: the paper's three, two under ``probabilistic``."""
        return 2 if self.probabilistic else 3

    @property
    def min_expected_accesses(self) -> float:
        """Minimum expected scalar accesses a block move must replace."""
        return 1.0 if self.probabilistic else 2.0

    def should_block(self, num_accesses: int, expected_accesses: float,
                     words_needed: int, struct_words: int, *,
                     certain: bool) -> bool:
        """Choose blocked communication for a group of accesses through
        one pointer (the paper: "pipelining is better for two remote
        accesses, but blocked communication is better for three or
        more", shifting back towards pipelined when the struct is very
        large compared to the fields actually required).

        ``num_accesses`` is the number of distinct field locations the
        block move would serve -- the paper's "threshold of three"
        operates on this count (its Fig. 11b blocks sum_adjacent, whose
        switch-arm reads each carry adjusted frequency well below 1).
        ``expected_accesses`` (frequencies capped at 1, summed) guards
        profitability: a blkmov costs about 1.4 scalar reads of EU time
        (Table I: 2602 ns against 1908 ns pipelined), so it must be
        expected to replace at least ``min_expected_accesses`` scalar
        operations per execution.

        ``certain`` says one access of the group is certain to execute
        (frequency at least one).  ``legacy`` demands it; under
        ``probabilistic`` the floor of one expected access already
        holds for any group with a certain access, and admits a group
        of uncertain ones whose expectations sum to one (three
        half-likely branch arms justify one blkmov).
        """
        if not certain and not self.probabilistic:
            return False
        if num_accesses < self.block_access_threshold:
            return False
        if expected_accesses < self.min_expected_accesses - 1e-9:
            return False
        if words_needed <= 0:
            return False
        if struct_words > MAX_SPURIOUS_RATIO * words_needed:
            return False
        return True

    # -- serialization -----------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """Stable JSON form; hashed into service cache keys via
        :meth:`CommConfig.to_json`."""
        return {"probabilistic": self.probabilistic}

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "OptConfig":
        """Inverse of :meth:`to_json`; unknown keys are rejected so
        schema drift between service peers fails loudly."""
        if not isinstance(data, dict):
            raise UsageError(f"opt config must be an object, got "
                             f"{type(data).__name__}")
        known = {spec.name for spec in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise UsageError(
                f"unknown opt config fields: {sorted(unknown)}")
        return cls(**{key: value for key, value in data.items()
                      if value is not None})

    def __str__(self) -> str:
        return f"OptConfig({self.preset})"


def resolve_opt(value) -> "OptConfig | None":
    """Normalize the loose forms an opt config travels as -- ``None``,
    a preset name, a JSON dict, or an :class:`OptConfig` -- into the
    probabilistic :class:`OptConfig`, or None for the legacy preset
    however it is spelled: one preset, one cache address."""
    if isinstance(value, str):
        if value not in OPT_PRESETS:
            raise UsageError(f"unknown opt preset {value!r} "
                             f"(known: {', '.join(OPT_PRESETS)})")
        value = OptConfig(probabilistic=value == "probabilistic")
    elif isinstance(value, dict):
        value = OptConfig.from_json(value)
    elif value is not None and not isinstance(value, OptConfig):
        raise UsageError(f"opt config must be None, a preset name, an "
                         f"object, or an OptConfig, got "
                         f"{type(value).__name__}")
    return value if value is not None and value.probabilistic else None


__all__ = ["OptConfig", "resolve_opt", "OPT_PRESETS", "LOOP_WEIGHT",
           "BRANCH_WEIGHT", "STRONG_FREQ", "MAX_SPURIOUS_RATIO"]
