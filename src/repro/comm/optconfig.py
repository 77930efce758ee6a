"""The one options object for the communication optimizer's heuristics.

Historically the optimizer's tuning knobs were scattered module-level
constants: ``placement.LOOP_FREQUENCY_FACTOR`` (the paper's x10-per-loop
frequency adjustment), ``selection.FREQ_EPS`` (the strong-tuple
tolerance), ``reorder.LOOP_WEIGHT``, and the cost model's
threshold-of-three.  Trying a heuristic variant meant editing source,
and nothing downstream -- service cache keys, report labels, job specs
-- could tell two variants apart.

:class:`OptConfig` collapses that surface the same way
:class:`repro.config.RunConfig` collapsed the run kwargs: a frozen,
JSON-round-trippable value object naming every heuristic knob.  The
**default construction is the legacy behaviour bit-for-bit**: an
``OptConfig()`` (or no config at all) must compile every program to
exactly the output the scattered constants produced.  The
``probabilistic`` preset switches the selection pass from the paper's
fixed-multiplier frequencies to the probability channel carried on
:class:`repro.comm.tuples.CommTuple` (see DESIGN.md section 18) and
turns on private-line invalidation skipping in the remote-data cache.

The object nests inside :class:`~repro.config.RunConfig` (field
``opt``), so heuristic variants flow through ``config_digest``, the
service's content-addressed cache keys, CLI ``--opt-*`` flags, and
fleet job specs -- cacheable, reportable, sweepable configurations
instead of code edits.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict

from repro.errors import UsageError

#: Block-move shape policies for read localization regions:
#: ``prefix`` (legacy) moves the struct prefix up to the last field
#: actually read (``span_end``); ``full`` only ever moves whole
#: structs.
BLKMOV_SHAPES = ("prefix", "full")

#: Named heuristic presets ``resolve_opt`` accepts.
OPT_PRESETS = ("legacy", "probabilistic")

#: The Python types each field annotation admits (type(), not
#: isinstance(): a bool is no number here).
_TYPES = {"float": (int, float), "int": (int,), "bool": (bool,),
          "str": (str,)}


@dataclass(frozen=True)
class OptConfig:
    """How the communication optimizer weighs its decisions.

    Frozen and hashable-by-value, like :class:`RunConfig`: two equal
    configs produce byte-identical compiled programs, which is the
    contract the service cache key needs.  Every field only ever
    affects *profitability* choices (what to pipeline, what to block,
    how to weight frequencies); the placement kill predicates are
    soundness conditions and deliberately take no knob.
    """

    #: Frequency multiplier per enclosing loop (paper: x10).
    loop_weight: float = 10.0
    #: Frequency multiplier per conditional arm (paper: /2).  Also the
    #: per-arm execution probability the tuple ``prob`` channel and the
    #: probabilistic points-to lattice propagate.
    branch_weight: float = 0.5
    #: Switch selection from fixed-multiplier frequencies to the
    #: probability channel: expected access counts become summed
    #: execution probabilities (weighted by the probabilistic
    #: points-to lattice), and the blocking gate accepts groups whose
    #: summed probability clears ``min_expected_accesses`` even when no
    #: single access is certain.
    probabilistic: bool = False
    #: A tuple is "strong" (certain to execute) when its frequency is
    #: at least ``1 - freq_eps``.
    freq_eps: float = 1e-9
    #: Minimum distinct field locations before a block move is
    #: considered (paper: three).
    block_access_threshold: int = 3
    #: Minimum expected scalar accesses a block move must replace.
    min_expected_accesses: float = 2.0
    #: A struct more than this many times larger than the fields
    #: actually read is not worth moving (spurious-data guard).
    max_spurious_ratio: float = 4.0
    #: Shape policy for read block moves (see :data:`BLKMOV_SHAPES`).
    blkmov_shape: str = "prefix"
    #: Mark provably-private allocation sites so the remote-data cache
    #: skips write-through invalidation for them (value-identical;
    #: saves invalidation traffic).
    private_lines: bool = False

    def __post_init__(self):
        # Types first, as RunConfig does: a job spec arrives as JSON,
        # where "no" is truthy and true is an int to isinstance().
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if type(value) not in _TYPES[spec.type]:
                raise UsageError(f"{spec.name} must be a {spec.type}, "
                                 f"got {value!r}")
            if spec.type == "float":
                # One value, one cache key: 4 and 4.0 serialize apart.
                object.__setattr__(self, spec.name, float(value))
        if self.loop_weight < 1.0:
            raise UsageError(
                f"loop_weight must be >= 1, got {self.loop_weight}")
        if not 0.0 < self.branch_weight <= 1.0:
            raise UsageError(
                f"branch_weight must be in (0, 1], got "
                f"{self.branch_weight}")
        if self.freq_eps < 0.0:
            raise UsageError(
                f"freq_eps must be >= 0, got {self.freq_eps}")
        if self.block_access_threshold < 1:
            raise UsageError(
                f"block_access_threshold must be >= 1, got "
                f"{self.block_access_threshold}")
        if self.min_expected_accesses < 0.0:
            raise UsageError(
                f"min_expected_accesses must be >= 0, got "
                f"{self.min_expected_accesses}")
        if self.max_spurious_ratio < 1.0:
            raise UsageError(
                f"max_spurious_ratio must be >= 1, got "
                f"{self.max_spurious_ratio}")
        if self.blkmov_shape not in BLKMOV_SHAPES:
            raise UsageError(
                f"unknown blkmov_shape {self.blkmov_shape!r} "
                f"(known: {', '.join(BLKMOV_SHAPES)})")

    # -- presets -----------------------------------------------------------

    @classmethod
    def legacy(cls) -> "OptConfig":
        """The paper's fixed-multiplier heuristics -- identical to the
        pre-OptConfig module constants, and to ``OptConfig()``."""
        return cls()

    @classmethod
    def probabilistic_defaults(cls) -> "OptConfig":
        """The probability-weighted heuristics: selection driven by the
        tuple probability channel, two-field block moves admitted when
        both accesses are certain, private-line invalidation skipping
        on.  Tuned so remote-operation counts never increase on the
        Olden suite (values are engine-identical by construction)."""
        return cls(probabilistic=True,
                   block_access_threshold=2,
                   min_expected_accesses=1.0,
                   private_lines=True)

    def replace(self, **changes) -> "OptConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def is_strong(self, freq: float) -> bool:
        """Is a tuple with this frequency certain to execute?"""
        return freq >= 1.0 - self.freq_eps

    def should_block(self, num_accesses: int, expected_accesses: float,
                     words_needed: int, struct_words: int) -> bool:
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

    # -- serialization -----------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """Stable JSON form; hashed into service cache keys via
        :meth:`RunConfig.to_json`, so every field changes the key."""
        return {spec.name: getattr(self, spec.name)
                for spec in dataclasses.fields(self)}

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
        parts = []
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if value != spec.default:
                parts.append(f"{spec.name}={value}")
        return f"OptConfig({', '.join(parts) or 'legacy'})"


def resolve_opt(value) -> "OptConfig | None":
    """Normalize the loose forms an opt config travels as -- ``None``,
    a preset name, a JSON dict, or an :class:`OptConfig` -- into an
    :class:`OptConfig` (or None for "legacy default, unset")."""
    if value is None or isinstance(value, OptConfig):
        return value
    if isinstance(value, str):
        if value == "legacy":
            return OptConfig.legacy()
        if value == "probabilistic":
            return OptConfig.probabilistic_defaults()
        raise UsageError(f"unknown opt preset {value!r} "
                         f"(known: {', '.join(OPT_PRESETS)})")
    if isinstance(value, dict):
        return OptConfig.from_json(value)
    raise UsageError(f"opt config must be None, a preset name, an "
                     f"object, or an OptConfig, got "
                     f"{type(value).__name__}")


__all__ = ["OptConfig", "resolve_opt", "OPT_PRESETS", "BLKMOV_SHAPES"]
