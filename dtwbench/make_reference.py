"""Make the stored brute-force reference table anew.

    python3 dtwbench/make_reference.py

For every query of every workload it computes the DTW of every placement with
the benchmark's own recurrence (``oracle.dtw_table``) and stores the
optimum and its tie set, or the k smallest distances, together with a
fingerprint of the generated inputs. It imports nothing from the program.
The whole table takes about three minutes.
"""
from __future__ import annotations

import json
import sys
import time

import numpy as np

import checks
import inputs
import oracle


def reference_for(workload: inputs.Workload) -> dict:
    arrays = inputs.series_for(workload)
    seen = [oracle.zscore(x) for x in arrays] if workload.normalize == "zscore" else arrays
    queries = {}
    for qid, ia, ib in inputs.queries_for(workload):
        t0 = time.perf_counter()
        table = oracle.dtw_table(seen[ia], seen[ib], workload.window_a, workload.window_b, workload.band_radius)
        if workload.kind == "search":
            optimum = float(table.min())
            tied = table <= optimum + oracle.ABS_TOL + oracle.REL_TOL * optimum
            gap = float(table[~tied].min() - optimum)
            if gap <= 1e3 * (oracle.ABS_TOL + oracle.REL_TOL * optimum):
                print(f"warning: {workload.name} {qid}: the runner-up is only {gap:.3g} above the optimum", file=sys.stderr)
            ties = (np.argwhere(tied) + 1).tolist()
            queries[qid] = {"optimum": optimum, "ties": ties, "runner_up_gap": gap}
        else:
            k = workload.k
            queries[qid] = {"k_smallest": np.sort(np.partition(table.ravel(), k - 1)[:k]).tolist()}
        print(f"{workload.name} {qid}: {table.size} placements in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return {"inputs_sha256": inputs.digest(arrays), "queries": queries}


def main() -> int:
    table = {name: reference_for(workload) for name, workload in inputs.WORKLOADS.items()}
    checks.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
