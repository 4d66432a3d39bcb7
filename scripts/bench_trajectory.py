#!/usr/bin/env python3
"""Fold benchmark result files into one BENCH_<label>.json of per-workload medians.

    python scripts/bench_trajectory.py --label v1 --seeds 41-50 --machine "2-core VM"

Reads ``<results>/<workload>-seed<n>-trace<t>.json``, the files that
``dtwbench/run.py`` writes, for the given seeds, and writes the median of
every metric over the runs of each workload: end to end (``--trace 0``)
and per layer (``--trace 1``), with the run count, the seeds, the commit
and a note on the machine. ``setup_s`` is printed by ``run.py`` but not
kept in these files, so it is not folded. A workload and trace setting
with fewer than MIN_RUNS runs is an error. ``--results`` and ``--commit``
fold runs made in another checkout, such as a parent commit's.
"""
import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_RUNS = 5
NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")


def seeds(text: str) -> set:
    """'41-50,777' -> {41, ..., 50, 777}."""
    out = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.update(range(int(lo), int(hi or lo) + 1))
    return out


def fold(results: Path, wanted: set) -> dict:
    """{"trace0": {workload: {...}}, "trace1": {...}}: each metric's median over the wanted seeds' runs."""
    runs = {}
    for path in sorted(results.glob("*.json")):
        match = NAME.fullmatch(path.name)
        if match and int(match["seed"]) in wanted:
            key = (f"trace{match['trace']}", match["workload"])
            runs.setdefault(key, []).append((int(match["seed"]), json.loads(path.read_text())["metrics"]))
    out = {}
    for (trace, workload), found in sorted(runs.items()):
        if len(found) < MIN_RUNS:
            raise SystemExit(f"{workload} {trace}: {len(found)} runs, fewer than {MIN_RUNS}")
        names = sorted(set().union(*(metrics for _, metrics in found)))
        out.setdefault(trace, {})[workload] = {
            "runs": len(found),
            "seeds": sorted(seed for seed, _ in found),
            "median": {name: statistics.median(m[name] for _, m in found if name in m) for name in names},
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    ap.add_argument("--seeds", required=True, type=seeds, help="runs to fold, e.g. 41-50,61-65")
    ap.add_argument("--machine", required=True, help="a note on the machine the runs were made on")
    ap.add_argument("--results", type=Path, default=ROOT / "results" / "dtwbench")
    ap.add_argument("--commit", help="the commit measured (default: HEAD of this checkout)")
    args = ap.parse_args(argv)
    commit = args.commit or subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    doc = {
        "label": args.label,
        "commit": commit,
        "machine": f"{args.machine} ({platform.machine()}, Python {platform.python_version()})",
        **fold(args.results, args.seeds),
    }
    if "trace0" not in doc and "trace1" not in doc:
        print(f"no result files for seeds {sorted(args.seeds)} in {args.results}", file=sys.stderr)
        return 1
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
