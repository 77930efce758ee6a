"""Compare two result files written by ``bench/run.py``.

    python3 bench/compare.py bench/out/A.json bench/out/B.json
    python3 bench/compare.py --summary bench/out/A.json > bench/baseline.json

A is the base, B the candidate.  One row per workload and end-to-end
metric with both medians, judged by the metric's bound in
``BENCHMARK.json``; the two simulated ratios must be equal exactly;
``sim_digest`` is reported equal or different (an optimizer change may
move it, a simulator speed-up must not).  Results from different hosts,
or from ``--quick`` runs, are refused.  Exit code 1 if anything got
worse than its bound or any op failed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [path for path in (ROOT,) if path not in sys.path]

from bench import stats  # noqa: E402

#: Deterministic simulated results: any difference is a change.
EXACT = ("comm.sim_speedup_gmean", "comm.remote_ops_ratio_gmean")


def _load(path: str) -> dict:
    with open(path) as handle:
        document = json.load(handle)
    if document.get("quick") or any(
            not run.get("comparable", False) for run in document["runs"]):
        sys.exit(f"compare: {path} holds --quick runs, which are not "
                 f"comparable")
    return document


def _machine(document: dict) -> dict:
    machines = {json.dumps(run["host"]["machine"], sort_keys=True)
                for run in document["runs"]}
    if len(machines) != 1:
        sys.exit("compare: one result file mixes several hosts")
    return json.loads(machines.pop())


def _by_workload(document: dict, trace: int) -> Dict[str, List[dict]]:
    grouped: Dict[str, List[dict]] = {}
    for run in document["runs"]:
        if run.get("trace") == trace:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def compare(base: dict, new: dict, manifest: dict) -> int:
    machine_a, machine_b = _machine(base), _machine(new)
    if machine_a != machine_b:
        print("compare: refusing to compare different hosts:")
        print(f"  A: {machine_a}\n  B: {machine_b}")
        return 2
    bad = 0
    a_runs, b_runs = _by_workload(base, 0), _by_workload(new, 0)
    print(f"{'workload':14} {'metric':14} {'unit':5} {'A median':>12} "
          f"{'B median':>12} {'worse by':>9} {'bound':>6}  verdict")
    for workload in [w["name"] for w in manifest["workloads"]]:
        ours, theirs = a_runs.get(workload), b_runs.get(workload)
        if not ours or not theirs:
            print(f"{workload:14} missing from "
                  f"{'A' if not ours else 'B'}")
            bad += 1
            continue
        for spec in manifest["end_to_end"]:
            name = spec["name"]
            a = statistics.median(r["summary"][name] for r in ours)
            b = statistics.median(r["summary"][name] for r in theirs)
            worse = stats.worsening(a, b, spec["better"])
            ok = stats.within_bound(a, b, spec["better"], spec["bound"])
            bad += not ok
            print(f"{workload:14} {name:14} {spec['unit']:5} {a:12.4f} "
                  f"{b:12.4f} {worse:>+9.1%} {spec['bound']:>6.2f}  "
                  f"{'ok' if ok else 'WORSE'} "
                  f"(n={len(ours)}/{len(theirs)})")
        failed = [sum(r["summary"]["failed"] for r in runs)
                  for runs in (ours, theirs)]
        ok = failed == [0, 0]
        bad += not ok
        print(f"{workload:14} {'failed ops':14} {'count':5} "
              f"{failed[0]:12d} {failed[1]:12d} {'':>9} {'0':>6}  "
              f"{'ok' if ok else 'FAILED OPS'}")
        digests = [{r["extras"].get("sim_digest") for r in runs}
                   for runs in (ours, theirs)]
        if digests[0] != {None}:
            same = digests[0] == digests[1] and len(digests[0]) == 1
            print(f"{workload:14} sim_digest     "
                  f"{'equal' if same else 'DIFFERENT'} "
                  f"(informational: an optimizer change may move it, a "
                  f"simulator-only change must not)")

    a_traced, b_traced = _by_workload(base, 1), _by_workload(new, 1)
    for workload in a_traced:
        if workload not in b_traced:
            continue
        for name in EXACT:
            a = {r["per_layer"]["values"][name] for r in a_traced[workload]}
            b = {r["per_layer"]["values"][name] for r in b_traced[workload]}
            ok = a == b and len(a) == 1
            bad += not ok
            print(f"{workload:14} {name:30} A {sorted(a)} B {sorted(b)}  "
                  f"{'exact' if ok else 'CHANGED'}")
    print("compare:", "no metric worse than its bound" if not bad
          else f"{bad} row(s) out of bounds")
    return 1 if bad else 0


def summarise(document: dict, manifest: dict) -> dict:
    """Median and quartile spread of every end-to-end metric per
    workload, with the host record: what ``bench/baseline.json`` is."""
    first = document["runs"][0]["host"]
    summary = {"host": {key: first[key] for key in
                        ("machine", "commit", "dirty", "pipeline_version",
                         "engines", "default_engine")},
               "seeds": sorted({run["seed"] for run in document["runs"]}),
               "run_seconds": document["seconds"], "workloads": {}}
    for workload, runs in _by_workload(document, 0).items():
        rows = {}
        for spec in manifest["end_to_end"]:
            values = [run["summary"][spec["name"]] for run in runs]
            rows[spec["name"]] = {
                "unit": spec["unit"], "runs": len(values),
                "median": statistics.median(values),
                "quartile_spread": stats.quartile_spread(values)
                if len(values) > 1 else None}
        rows["failed_ops"] = sum(run["summary"]["failed"] for run in runs)
        digests = {run["extras"].get("sim_digest") for run in runs}
        if digests != {None}:
            rows["sim_digest"] = sorted(digests)
        summary["workloads"][workload] = rows
    return summary


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    if len(argv) == 2 and argv[0] == "--summary":
        json.dump(summarise(_load(argv[1]), manifest), sys.stdout, indent=1)
        print()
        return 0
    if len(argv) != 2:
        sys.exit(__doc__)
    return compare(_load(argv[0]), _load(argv[1]), manifest)


if __name__ == "__main__":
    sys.exit(main())
