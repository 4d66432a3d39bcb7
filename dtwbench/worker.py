"""One workload in one fresh process: set-up, warm-up, the timed loop, checks.

Started by ``run.py``, which pins the thread pools and reads the set-up
time; see the README. With ``--probe`` it only sets up, prints the
monotonic clock at the moment the first query could be issued, and exits.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import checks
import inputs
import oracle
import spans
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "results" / "dtwbench"


def load_program() -> dict:
    """The program's modules, imported from this checkout's ``src`` only."""
    sys.path.insert(0, str(SRC))
    modules = {
        name: importlib.import_module(f"dtwsearch.{name}")
        for name in ("core", "cli", "search", "bounds", "evaluation")
    }
    origin = Path(modules["core"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"dtwsearch was imported from {origin}, not from {SRC}")
    return modules


def set_up(program: dict, arrays: list, workdir: Path) -> list:
    """Write every input series with ``cli.emit_csv`` and read it back."""
    cli, core = program["cli"], program["core"]
    workdir.mkdir(parents=True, exist_ok=True)
    series = []
    for i, values in enumerate(arrays):
        path = workdir / f"series{i}.csv"
        cli.emit_csv(core.TimeSeries(values=values), path)
        series.append(cli.ingest_csv(path))
    return series


class Runner:
    """Issues queries one at a time and times them; ``check`` checks the answers.

    The answers are checked after the timed loop, so that the checker's own
    time and memory stay out of ``queries_per_s`` and ``peak_rss_mb``. An
    answer equal to one already given for the same query is not kept again;
    the one kept stands for it, so every answer is checked.
    """

    def __init__(self, program, workload, series, checker, tracer=None):
        self.program = program
        self.workload = workload
        self.series = series
        self.checker = checker
        self.tracer = tracer
        search = program["search"]
        self.options = search.SearchOptions(normalize=workload.normalize, band_radius=workload.band_radius)
        self.windows = program["core"].WindowPair(workload.window_a, workload.window_b)
        self.records: list = []  # one dict per counted query
        self.answers: list = []  # distinct answers: {"query", "key", "result", "cells", "problems"}
        self.layers: list = []  # (answer index, per-layer figures) of each traced query
        self.peaks: list = []  # tracemalloc peak of each query run under it, MB
        self.reported: set = set()

    def call(self, ia: int, ib: int):
        """One query, exactly as the program's own commands issue it."""
        search, wl = self.program["search"], self.workload
        u, w = self.series[ia], self.series[ib]
        if wl.kind == "search":
            return search.infer_most_similar(u, w, self.windows, self.options), None
        result = search.top_k_search(u, w, self.windows, wl.k, self.options)
        pairs = [(m.a, m.b) for m in result.matches]
        key, back = checks.member_key(ia, ib), checks.member_key(ib, ia)
        cells = self.program["evaluation"].lead_difference({key: pairs, back: [(b, a) for a, b in pairs]})
        return result, cells

    def issue(self, query, phase="plain"):
        """Run and time one query; phase is plain, traced, memory or warm-up.

        Only plain and traced queries are counted, so that a run attempts
        whole rounds of the query list.
        """
        qid, ia, ib = query
        gc.collect()
        tracer = self.tracer if phase == "traced" else None
        with tracer or contextlib.nullcontext():
            root = tracer.begin_query(len(self.records)) if tracer else None
            first = len(tracer.spans) - 1 if tracer else 0
            if phase == "memory":
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            t0 = time.perf_counter()
            try:
                answer = self.call(ia, ib)
            except Exception as exc:  # a query that raises counts as failed; the run goes on
                answer = exc
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.end_query(root)
        if phase == "memory":
            self.peaks.append((tracemalloc.get_traced_memory()[1] - base) / spans.MB)
        record = {"query": qid, "ms": elapsed * 1e3, "phase": phase, "raised": False, "wrong": False}
        if phase in ("plain", "traced"):
            self.records.append(record)
        if isinstance(answer, Exception):
            record["raised"] = True
            self._report(qid, f"raised {type(answer).__name__}: {answer}")
        else:
            record["answer"] = self._keep(query, *answer)
            if tracer:
                self.layers.append((record["answer"], self._layers(tracer, first, root, answer[0])))
        if tracer:
            tracer.held.clear()  # let the grids go before the next query

    def _keep(self, query, result, cells) -> int:
        """The index of this answer among the distinct answers kept."""
        if self.workload.kind == "search":
            key = (result.shortest_dist, result.solutions)
        else:
            key = (result.truncated, result.matches, cells)
        for i, kept in enumerate(self.answers):
            if kept["query"] == query and kept["key"] == key:
                return i
        self.answers.append({"query": query, "key": key, "result": result, "cells": cells})
        return len(self.answers) - 1

    def check(self):
        """Check every distinct answer and mark the queries that gave a wrong one."""
        for kept in self.answers:
            qid, ia, ib = kept["query"]
            if self.workload.kind == "search":
                kept["problems"] = self.checker.search(qid, ia, ib, kept["result"])
            else:
                kept["problems"] = self.checker.topk(qid, ia, ib, kept["result"], kept["cells"])
            if kept["problems"]:
                self._report(qid, "; ".join(kept["problems"]))
        for record in self.records:
            if "answer" in record:
                record["wrong"] = bool(self.answers[record["answer"]]["problems"])
        self.layers = [(i, layers) for i, layers in self.layers if not self.answers[i]["problems"]]

    def _report(self, qid: str, message: str):
        if qid not in self.reported:
            self.reported.add(qid)
            print(f"{self.workload.name} {qid}: {message}", file=sys.stderr)

    def _layers(self, tracer, first, root, result) -> dict:
        """Per-layer figures of one traced query, with the ratios its answer allows."""
        out = spans.query_layers(tracer.spans[first:], root)
        placements = result.stats.pairs_total
        evaluations = out["dtw.evaluations"]
        if self.workload.kind == "search":
            best = final = result.shortest_dist
            a, b = min(result.solutions)
        else:
            best, final = result.matches[0].distance, result.matches[-1].distance
            a, b = result.matches[0].a, result.matches[0].b
        lbs = tracer.held.get("candidate_lbs")
        necessary = int((lbs <= final + oracle.ABS_TOL + oracle.REL_TOL * final).sum()) if lbs is not None else 0
        min_path = tracer.held.get("min_path")
        out.update(
            {
                "search.placements": placements,
                "search.prune_kept_ratio": out["search.candidates"] / placements,
                "search.evaluated_ratio": evaluations / placements,
                "search.necessary_ratio": necessary / evaluations if evaluations else 0.0,
                "bounds.lb_tightness": float(min_path[a - 1, b - 1]) / best if min_path is not None else 0.0,
            }
        )
        return out

    def rounds(self, queries: list, seed: int, seconds: float, trace: bool):
        """Whole rounds of the query list, each in a seed-shuffled order; returns the loop's wall time in s.

        Rounds go on while that ends the loop nearer to ``seconds`` than
        stopping would. With tracing, rounds alternate untraced and traced
        and go by pairs, so the two kinds are issued equally often.
        """
        rng = random.Random(seed)
        step = 2 if trace else 1
        start = time.perf_counter()
        done = 0
        while True:
            for _ in range(step):
                order = list(queries)
                rng.shuffle(order)
                for query in order:
                    self.issue(query, "traced" if trace and done % 2 else "plain")
                done += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / done * step / 2 > seconds:
                return elapsed


def peak_alloc_mb(runner: Runner, query) -> float:
    """The tracemalloc peak one query allocates, in MB.

    It is taken on one query only, uncounted, because tracemalloc makes the
    kernel's many small allocations several times slower.
    """
    tracemalloc.start()
    try:
        runner.issue(query, "memory")
    finally:
        tracemalloc.stop()
    return runner.peaks[0] if runner.peaks else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    program = load_program()
    workload = inputs.WORKLOADS[args.workload]
    arrays = inputs.series_for(workload)
    workdir = OUT / f"inputs-{args.workload}-{args.seed}-{time.monotonic_ns()}"
    tracer = spans.Tracer(program) if args.trace else None
    try:
        if tracer:
            with tracer:
                series = set_up(program, arrays, workdir)
            ingest_ms = sum(s.ms for s in tracer.spans if s.name == "cli.ingest_csv")
            tracer.spans.clear()
        else:
            series = set_up(program, arrays, workdir)
        if args.probe:
            print(repr(time.perf_counter()), flush=True)
            return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    try:
        reference = checks.load_reference(workload, arrays)
    except LookupError as exc:
        print(f"cannot check answers: {exc}", file=sys.stderr)
        return 2
    checker = checks.Checker(workload, arrays, reference)
    queries = inputs.queries_for(workload)
    runner = Runner(program, workload, series, checker, tracer)
    runner.issue(queries[0], "warm-up")

    metrics = {}
    if args.trace:
        metrics["query.peak_alloc_mb"] = peak_alloc_mb(runner, queries[-1])
        runner.rounds(queries, args.seed, args.seconds, trace=True)
        runner.check()
        plain = [r["ms"] for r in runner.records if r["phase"] == "plain" and not r["raised"]]
        traced = [r["ms"] for r in runner.records if r["phase"] == "traced" and not r["raised"]]
        if not (runner.layers and plain and traced):
            print(f"{args.workload}: no query gave a right answer under tracing", file=sys.stderr)
            return 1
        for name in runner.layers[0][1]:
            metrics[name] = statistics.fmean(layers[name] for _, layers in runner.layers)
        metrics["cli.ingest_ms"] = ingest_ms
        metrics["trace.overhead_ms"] = statistics.median(traced) - statistics.median(plain)
    else:
        loop_s = runner.rounds(queries, args.seed, args.seconds, trace=False)
        # Read before the checks, which hold oracle arrays of their own.
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runner.check()
        done = [r["ms"] for r in runner.records if not r["raised"]]
        if not done:
            print(f"{args.workload}: every query raised", file=sys.stderr)
            return 1
        metrics["query_p50_ms"] = statistics.median(done)
        metrics["queries_per_s"] = len(done) / loop_s

    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({"queries": runner.records, "metrics": metrics}, indent=1) + "\n")
    if tracer:
        Path(f"{stem}.spans.json").write_text(json.dumps(spans.spans_json(tracer.spans)) + "\n")

    units = spec.PER_LAYER if args.trace else {k: v for k, v in spec.END_TO_END.items() if k != "setup_s"}
    result = {
        "correct": not any(r["wrong"] for r in runner.records),
        "attempted": len(runner.records),
        "failed": sum(r["raised"] or r["wrong"] for r in runner.records),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
