"""Run one benchmark workload and print its metrics as one JSON line.

    python3 dtwbench/run.py --workload search-easy --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it measures the program under ``src/``
there. The run happens in a fresh worker process whose BLAS and OpenMP
pools are pinned to one thread. With ``--trace 0`` it also times separate
set-ups (interpreter start, ``import dtwsearch``, inputs written and read
back as CSV), half before the measured run and half after it so that they
see more of the machine's slow swings, and reports their median as
``setup_s``. With ``--trace 1`` the worker reports the per-layer metrics
instead. This file uses the standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_RUNS = 3  # before the measured run, and as many after it
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_TIMEOUT_S = 20
RUN_TIMEOUT_S = 170


def setup_seconds(command: list, env: dict, timeout: float) -> float:
    """Wall time from starting a worker until it could issue its first query."""
    start = time.perf_counter()
    done = subprocess.run(command + ["--probe"], env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"set-up exited with code {done.returncode}")
    # The worker prints the monotonic clock, which all processes share, when it is ready.
    return float(done.stdout.strip().splitlines()[-1]) - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dtwsearch" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'dtwsearch'} is missing", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONHASHSEED="0", **{name: "1" for name in PINNED})
    command = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setup_runs = SETUP_RUNS if args.trace == 0 else 0
    try:
        setups = [setup_seconds(command, env, SETUP_TIMEOUT_S) for _ in range(setup_runs)]
        done = subprocess.run(
            command + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic() - setup_runs * 5),
        )
        if done.returncode == 0:
            setups += [setup_seconds(command, env, SETUP_TIMEOUT_S) for _ in range(setup_runs)]
    except (subprocess.TimeoutExpired, RuntimeError, ValueError) as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"{args.workload}: worker exited with code {done.returncode}", file=sys.stderr)
        return done.returncode
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if setups:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": spec.END_TO_END["setup_s"]}
    want = spec.PER_LAYER if args.trace else spec.END_TO_END
    if set(result["metrics"]) != set(want):
        print(f"{args.workload}: metrics {sorted(result['metrics'])} differ from {sorted(want)}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
