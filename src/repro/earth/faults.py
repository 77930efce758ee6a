"""Deterministic fault injection for the EARTH-MANNA simulator.

A :class:`FaultPlan` makes the simulated machine *unreliable* in a
fully reproducible way: given the same seed, configuration, and
program, every injected fault lands on exactly the same message at
exactly the same simulated instant.  The plan owns its PRNG (it never
touches the global :mod:`random` state) and the machine consults it at
three injection points:

* **network legs** -- each request and each reply crossing the network
  independently draws a drop decision and a latency jitter
  (:meth:`FaultPlan.leg`).  Jitter also reorders messages: two requests
  issued back-to-back can arrive out of order;
* **SU slowdown windows** -- per-node time windows during which the
  Synchronization Unit services requests ``su_slowdown_factor`` times
  slower (:meth:`FaultPlan.su_scale`);
* **transient node stalls** -- per-node windows during which arriving
  messages are deferred to the end of the window
  (:meth:`FaultPlan.stall_until`), modeling a node that briefly stops
  responding.

Determinism is *stateless*: every injection point derives its draws
from a string seed naming the thing being faulted.  A network leg is
keyed by ``(seed, leg kind, origin, target, channel sequence,
attempt)`` and window layouts by ``(seed, node, kind)`` -- stable
across platforms and Python versions, independent of event processing
order, and therefore identical whether the machine runs in one process
or partitioned across shard workers (each worker rebuilds the same
plan from the same spec and computes the same fates for the legs it
owns).

Because EARTH-C's non-interference contract makes program *values*
independent of message timing, any fault schedule that changes a
program's result or output exposes a simulator or compiler bug.  The
chaos-differential suite (``tests/chaos/``) exploits exactly this: it
runs programs under sampled plans and asserts that only timing and
fault statistics move.

A plan is consumed by one machine: attaching it advances its PRNG, so
:class:`~repro.earth.machine.Machine` refuses to bind a used plan.
Use :meth:`FaultPlan.clone` to replay the identical fault schedule in
another run.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from repro.errors import FaultPlanError

#: Named configurations for the CLI's ``--fault-profile`` and the chaos
#: test suite.  All are moderate enough that the default retry policy
#: (:class:`~repro.earth.params.MachineParams`) delivers every message.
PROFILES: Dict[str, Dict[str, float]] = {
    "mild": {"drop_prob": 0.02, "jitter_ns": 1000.0},
    "lossy": {"drop_prob": 0.15, "jitter_ns": 2000.0},
    "jittery": {"drop_prob": 0.0, "jitter_ns": 10000.0},
    "slow-su": {"jitter_ns": 500.0, "su_slowdown_factor": 8.0,
                "su_slowdown_windows": 3},
    "stally": {"jitter_ns": 500.0, "stall_windows": 3},
    "chaos": {"drop_prob": 0.08, "jitter_ns": 6000.0,
              "su_slowdown_factor": 4.0, "su_slowdown_windows": 2,
              "stall_windows": 2},
}


#: A fault spec's fields, in :meth:`FaultPlan.spec` order.
_SPEC_FIELDS = ("seed", "drop_prob", "jitter_ns", "su_slowdown_factor",
                "su_slowdown_windows", "su_slowdown_window_ns",
                "stall_windows", "stall_ns", "horizon_ns")
#: The spec fields that count something; the rest are real numbers.
_COUNTS = ("seed", "su_slowdown_windows", "stall_windows")


class FaultPlan:
    """A seeded, reproducible schedule of machine faults.

    ``drop_prob``
        Probability that any single network leg (request *or* reply)
        is lost.  The resilience layer retries until the bounded
        attempt budget is exhausted.
    ``jitter_ns``
        Maximum extra one-way latency per leg, drawn uniformly from
        ``[0, jitter_ns)``.
    ``su_slowdown_factor`` / ``su_slowdown_windows`` /
    ``su_slowdown_window_ns``
        Each node gets ``su_slowdown_windows`` windows (mean length
        ``su_slowdown_window_ns``) inside ``[0, horizon_ns)`` during
        which its SU services requests ``su_slowdown_factor`` times
        slower.
    ``stall_windows`` / ``stall_ns``
        Each node gets ``stall_windows`` windows (mean length
        ``stall_ns``) during which arriving messages are parked until
        the window ends.
    ``horizon_ns``
        Windows are laid out inside ``[0, horizon_ns)``; past the
        horizon the machine runs clean (drops/jitter still apply).
    """

    __slots__ = ("seed", "drop_prob", "jitter_ns", "su_slowdown_factor",
                 "su_slowdown_windows", "su_slowdown_window_ns",
                 "stall_windows", "stall_ns", "horizon_ns",
                 "_bound", "_su_windows", "_stall_windows")

    #: The most windows of one kind a node gets: twenty times what any
    #: profile asks for.  Every node's windows are drawn when the plan
    #: is bound, so an unbounded count is a memory request.
    MAX_WINDOWS = 64

    def __init__(self, seed: int, *,
                 drop_prob: float = 0.0,
                 jitter_ns: float = 0.0,
                 su_slowdown_factor: float = 1.0,
                 su_slowdown_windows: int = 0,
                 su_slowdown_window_ns: float = 2_000_000.0,
                 stall_windows: int = 0,
                 stall_ns: float = 500_000.0,
                 horizon_ns: float = 50_000_000.0):
        # NaN passes every range test below, and a spec is hashed as
        # JSON, which has neither NaN nor Infinity.
        for name, value in (("jitter_ns", jitter_ns),
                            ("su_slowdown_factor", su_slowdown_factor),
                            ("su_slowdown_window_ns", su_slowdown_window_ns),
                            ("stall_ns", stall_ns),
                            ("horizon_ns", horizon_ns)):
            if not math.isfinite(value):
                raise FaultPlanError(f"{name} must be finite, got {value}")
        if not 0.0 <= drop_prob <= 1.0:
            raise FaultPlanError(
                f"drop_prob must be in [0, 1], got {drop_prob}")
        if jitter_ns < 0.0:
            raise FaultPlanError(
                f"jitter_ns must be >= 0, got {jitter_ns}")
        if su_slowdown_factor < 1.0:
            raise FaultPlanError(
                f"su_slowdown_factor must be >= 1, got "
                f"{su_slowdown_factor}")
        if su_slowdown_windows < 0 or stall_windows < 0:
            raise FaultPlanError("window counts must be >= 0")
        if max(su_slowdown_windows, stall_windows) > self.MAX_WINDOWS:
            raise FaultPlanError(f"window counts must be <= "
                                 f"{self.MAX_WINDOWS}")
        if su_slowdown_window_ns < 0 or stall_ns < 0 or horizon_ns <= 0:
            raise FaultPlanError("window durations must be positive")
        self.seed = int(seed)
        self.drop_prob = float(drop_prob)
        self.jitter_ns = float(jitter_ns)
        self.su_slowdown_factor = float(su_slowdown_factor)
        self.su_slowdown_windows = int(su_slowdown_windows)
        self.su_slowdown_window_ns = float(su_slowdown_window_ns)
        self.stall_windows = int(stall_windows)
        self.stall_ns = float(stall_ns)
        self.horizon_ns = float(horizon_ns)
        self._bound = False
        self._su_windows: List[List[Tuple[float, float]]] = []
        self._stall_windows: List[List[Tuple[float, float]]] = []

    @classmethod
    def from_profile(cls, name: str, seed: int, **overrides
                     ) -> "FaultPlan":
        """Build a plan from a named profile, with keyword overrides."""
        base = PROFILES.get(name)
        if base is None:
            raise FaultPlanError(
                f"unknown fault profile {name!r} "
                f"(known: {', '.join(sorted(PROFILES))})")
        config = dict(base)
        config.update(overrides)
        return cls(seed, **config)

    # -- lifecycle ---------------------------------------------------------

    def bind(self, num_nodes: int) -> None:
        """Attach the plan to a machine with ``num_nodes`` nodes.

        A plan's PRNG is consumed by the run, so binding twice would
        silently produce a *different* (though still deterministic)
        fault schedule; refuse instead."""
        if self._bound:
            raise FaultPlanError(
                "FaultPlan already attached to a machine; use clone() "
                "to replay the same schedule in another run")
        self._bound = True
        self._su_windows = [
            self._make_windows(node, "su", self.su_slowdown_windows,
                               self.su_slowdown_window_ns)
            for node in range(num_nodes)]
        self._stall_windows = [
            self._make_windows(node, "stall", self.stall_windows,
                               self.stall_ns)
            for node in range(num_nodes)]

    def _make_windows(self, node: int, kind: str, count: int,
                      mean_ns: float) -> List[Tuple[float, float]]:
        rng = random.Random(f"faultplan:{self.seed}:{kind}:{node}")
        windows = []
        for _ in range(count):
            start = rng.random() * self.horizon_ns
            length = mean_ns * (0.5 + rng.random())
            windows.append((start, start + length))
        windows.sort()
        return windows

    def clone(self) -> "FaultPlan":
        """A fresh, unbound plan with the same seed and configuration
        (replays the identical fault schedule given the same run)."""
        return FaultPlan(
            self.seed,
            drop_prob=self.drop_prob,
            jitter_ns=self.jitter_ns,
            su_slowdown_factor=self.su_slowdown_factor,
            su_slowdown_windows=self.su_slowdown_windows,
            su_slowdown_window_ns=self.su_slowdown_window_ns,
            stall_windows=self.stall_windows,
            stall_ns=self.stall_ns,
            horizon_ns=self.horizon_ns)

    # -- injection points --------------------------------------------------

    def leg(self, kind: str, origin: int, target: int, chan_seq: int,
            attempt: int) -> Tuple[bool, float]:
        """Fate of one network leg: ``(dropped, extra_latency_ns)``.

        ``kind`` is ``"request"`` or ``"reply"``; ``(origin, target,
        chan_seq)`` names the operation on its reliable channel and
        ``attempt`` the send number (for replies, the reply number).
        The fate is a pure function of those coordinates and the seed:
        string-seeded, stateless, and identical no matter which process
        computes it or in what order legs are evaluated."""
        rng = random.Random(
            f"faultplan:{self.seed}:leg:{kind}:{origin}:{target}:"
            f"{chan_seq}:{attempt}")
        dropped = rng.random() < self.drop_prob
        extra = rng.random() * self.jitter_ns
        return dropped, extra

    def su_scale(self, node: int, time: float) -> float:
        """SU service-time multiplier at ``time`` on ``node``."""
        for start, end in self._su_windows[node]:
            if start <= time < end:
                return self.su_slowdown_factor
            if start > time:
                break
        return 1.0

    def stall_until(self, node: int, time: float) -> float:
        """Defer an arrival at ``time`` on ``node`` past any active
        stall window."""
        for start, end in self._stall_windows[node]:
            if start <= time < end:
                return end
            if start > time:
                break
        return time

    # -- serialization -----------------------------------------------------

    def spec(self) -> Dict[str, object]:
        """The complete constructor configuration as a JSON-friendly
        dict.  Unlike :meth:`describe` (a summary for reports), this is
        lossless: ``FaultPlan.from_spec(plan.spec())`` replays the
        identical fault schedule -- the JSON leg of shipping a plan to
        a worker process."""
        return {name: getattr(self, name) for name in _SPEC_FIELDS}

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "FaultPlan":
        """Rebuild an unbound plan from :meth:`spec` output, or from
        any subset of it that names the seed.  A field of the wrong
        type is refused by name, not rounded: a spec arrives as JSON,
        where ``"3"`` and ``3.7`` are spellable and neither is a
        seed."""
        unknown = sorted(set(spec) - set(_SPEC_FIELDS))
        if unknown:
            raise FaultPlanError(f"bad fault spec: unknown fields "
                                 f"{unknown}")
        if "seed" not in spec:
            raise FaultPlanError("fault spec is missing 'seed'")
        for name, value in spec.items():
            # type(), not isinstance(): a bool is an int to isinstance.
            if type(value) is int \
                    or (type(value) is float and name not in _COUNTS):
                continue
            kind = "an integer" if name in _COUNTS else "a number"
            raise FaultPlanError(f"fault spec field {name!r} must be "
                                 f"{kind}, got {value!r}")
        return cls(**spec)

    # -- reporting ---------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """JSON-friendly summary of the plan's configuration."""
        return {
            "seed": self.seed,
            "drop_prob": self.drop_prob,
            "jitter_ns": self.jitter_ns,
            "su_slowdown_factor": self.su_slowdown_factor,
            "su_slowdown_windows": self.su_slowdown_windows,
            "stall_windows": self.stall_windows,
            "horizon_ns": self.horizon_ns,
        }

    def __repr__(self) -> str:
        return (f"FaultPlan(seed={self.seed}, drop={self.drop_prob}, "
                f"jitter={self.jitter_ns}ns)")


def plan_from_cli(seed: int, profile: Optional[str],
                  drop: Optional[float],
                  jitter: Optional[float]) -> FaultPlan:
    """Build the plan the CLI flags describe: a profile base (if any)
    with explicit ``--fault-drop`` / ``--fault-jitter`` overrides."""
    overrides: Dict[str, float] = {}
    if drop is not None:
        overrides["drop_prob"] = drop
    if jitter is not None:
        overrides["jitter_ns"] = jitter
    if profile is not None:
        return FaultPlan.from_profile(profile, seed, **overrides)
    return FaultPlan(seed, **overrides)
