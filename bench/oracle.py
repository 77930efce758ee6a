"""Reference outputs from a path the measured one does not share.

Every timed op is checked against what the *unoptimized* program
computes on *one* node with sequential-C costs under the AST walker:
no communication optimizer, no multi-node machine, no compiled engine.
``bench/expected.json`` commits those answers for the ten Olden
programs, the mst512 scenario and the default seed's generated
programs; other seeds get theirs from the same path once the
benchmark has stopped timing.

Regenerate the file (only when a program or the default seed changes):

    python3 bench/oracle.py
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Sequence

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


def reference(source: str, filename: str, args: Sequence,
              inline=False, **run_options) -> Dict[str, object]:
    """``{"value", "output"}`` from the independent path;
    ``run_options`` are further ``RunConfig`` fields (``max_stmts``)."""
    from repro import MachineParams, RunConfig, compile_source, execute

    compiled = compile_source(source, filename, optimize=False,
                              inline=inline)
    result = execute(compiled, params=MachineParams.sequential_c(),
                     config=RunConfig(nodes=1, args=tuple(args),
                                      engine="ast", **run_options))
    return {"value": result.value, "output": list(result.output)}


def program_key(source: str, args: Sequence) -> str:
    """Name of a generated program's entry in ``expected.json``."""
    text = json.dumps([source, list(args)])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def _norm(value):
    # The pipeline's own cross-configuration rule: float sums may differ
    # in the last digits with the order nodes contribute them.
    return round(value, 6) if isinstance(value, float) else value


def matches(expected: Dict[str, object], value, output) -> bool:
    return _norm(value) == _norm(expected["value"]) \
        and list(output) == list(expected["output"])


class Expected:
    """The committed answers, with the oracle behind them for programs
    the file does not hold."""

    def __init__(self, path: str = EXPECTED_PATH):
        with open(path) as handle:
            data = json.load(handle)
        self.olden: Dict[str, Dict[str, object]] = data["olden"]
        self.scenarios: Dict[str, object] = data["scenarios"]
        self.generated: Dict[str, object] = data["generated"]
        self.oracle_runs = 0

    def olden_ref(self, name: str, size: str) -> Dict[str, object]:
        """``size`` is ``"default"`` or ``"small"`` (the catalog's two
        argument sets)."""
        return self.olden[name][size]

    def generated_ref(self, source: str, filename: str,
                      args: Sequence) -> Dict[str, object]:
        key = program_key(source, args)
        found = self.generated.get(key)
        if found is None:
            found = reference(source, filename, args)
            self.generated[key] = found
            self.oracle_runs += 1
        return found


def _write_expected(seed: int) -> None:
    """Run the oracle over everything the default seed touches."""
    from bench import workloads
    from repro.olden.loader import catalog
    from repro.shard.scenarios import SCENARIOS

    olden = {}
    for spec in catalog():
        source = spec.source()
        olden[spec.name] = {
            size: reference(source, spec.filename, args,
                            inline=spec.inline, max_stmts=spec.max_stmts)
            for size, args in (("default", spec.default_args),
                               ("small", spec.small_args))}
    scenario = SCENARIOS[workloads.SHARD_SCENARIO]
    spec = next(s for s in catalog() if s.name == scenario.program)
    scenarios = {scenario.name: reference(
        spec.source(), spec.filename, scenario.args, inline=spec.inline,
        max_stmts=spec.max_stmts)}
    generated = {}
    for program in workloads.default_seed_programs(seed):
        generated[program_key(program.source, program.args)] = reference(
            program.source, program.filename, program.args)
    with open(EXPECTED_PATH, "w") as handle:
        json.dump({"seed": seed, "olden": olden, "scenarios": scenarios,
                   "generated": generated}, handle, indent=0,
                  sort_keys=True)
        handle.write("\n")
    print(f"wrote {EXPECTED_PATH}: {len(olden)} Olden x 2 sizes, "
          f"{len(scenarios)} scenario, {len(generated)} generated")


if __name__ == "__main__":
    import sys
    ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from bench.run import DEFAULT_SEED
    _write_expected(DEFAULT_SEED)
