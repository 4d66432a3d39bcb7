"""Command-line surface: file ingestion, search/topk/simulate/evaluate/lead,
and the benchmark sweep harness. The only module with side effects.

Commands write their artifacts and exit 0, or print a machine-readable
error JSON to stderr and exit nonzero. Diagnostics go through the
``dtwsearch`` logger, which main prints to stderr. All randomness flows
from the user-visible --seed values, so identical invocations produce
identical artifacts (runtime fields aside).
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import logging
import statistics
import sys
from pathlib import Path

import numpy as np

from .core import (
    STAGE_FIELDS,
    DtwSearchError,
    EmptyFile,
    InvalidSpec,
    NonFiniteValue,
    ParseError,
    RaggedRows,
    SearchStats,
    TimeSeries,
    WindowPair,
)
from .bounds import compute_bounds
from .dtw import default_band_radius
from .evaluation import lead_difference, score_intervals
from .search import (
    SearchOptions,
    _start,
    brute_force_search,
    infer_most_similar,
    result_to_json_dict,
    top_k_search,
    topk_to_json_list,
)
from .simgen import GroundTruth, SimulationSpec, generate_pair

# Each bench method: the search it runs, and whether it runs under the band.
BENCH_METHODS = {
    "bruteforce": (brute_force_search, False),
    "sakoe_chiba": (brute_force_search, True),
    "sp": (infer_most_similar, False),
    "sp_sakoe_chiba": (infer_most_similar, True),
}

log = logging.getLogger("dtwsearch")


def ingest_csv(path) -> TimeSeries:
    """Parse a CSV of rows=time steps, columns=dimensions.

    A single non-numeric first row is treated as a header. Ragged rows
    and non-finite values are rejected with the offending line cited.
    """
    text = Path(path).read_text()
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip() == "":
            continue
        rows.append((lineno, [cell.strip() for cell in line.split(",")]))
    if not rows:
        raise EmptyFile(f"{path}: no data rows")

    def as_floats(cells):
        try:
            return [float(c) for c in cells]
        except ValueError:
            return None

    if as_floats(rows[0][1]) is None:
        rows = rows[1:]
        if not rows:
            raise EmptyFile(f"{path}: header but no data rows")

    width = len(rows[0][1])
    data = np.empty((len(rows), width))
    for r, (lineno, cells) in enumerate(rows):
        if len(cells) != width:
            raise RaggedRows(f"{path}:{lineno}: expected {width} columns, got {len(cells)}")
        for c, cell in enumerate(cells):
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: column {c + 1}: not a number: {cell!r}") from None
            if not np.isfinite(v):
                raise NonFiniteValue(f"{path}:{lineno}: column {c + 1}: non-finite value {cell!r}")
            data[r, c] = v
    return TimeSeries(values=data)


def emit_csv(ts: TimeSeries, path):
    """Write a series as CSV with full round-trip precision."""
    _write_grid_csv(ts.values, path)


def _write_json(obj, path):
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def _write_grid_csv(grid: np.ndarray, path, comments=()):
    lines = [f"# {c}" for c in comments]
    lines += [",".join(map(repr, row)) for row in grid.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def _search_options(args: argparse.Namespace, exclusion: int = 0) -> SearchOptions:
    return SearchOptions(normalize=args.normalize, band_radius=args.band, exclusion=exclusion)


def run_search(args: argparse.Namespace) -> int:
    u = ingest_csv(args.a)
    w = ingest_csv(args.b)
    wp = WindowPair(omega_u=args.wa, omega_w=args.wb)
    result = infer_most_similar(u, w, wp, _search_options(args))
    _write_json(result_to_json_dict(result), args.out)
    if args.dump_bounds:
        _dump_bounds(u, w, wp, args, args.dump_bounds)
    return 0


def _dump_bounds(u, w, wp, args: argparse.Namespace, prefix):
    _, m, wu, ww, swapped = _start(u, w, wp, _search_options(args))  # the search's own prologue
    bm = compute_bounds(m, wu, ww, radius=args.band)
    note = "series were swapped (omega_b > omega_a): rows index --b, cols index --a" if swapped else "rows index --a, cols index --b"
    for name, grid in (("minpath", bm.min_path), ("maxpath", bm.max_path)):
        _write_grid_csv(
            grid,
            f"{prefix}.{name}.csv",
            comments=(
                f"{name}: row r, col c (1-based) = placement start pair (r, c)",
                note,
            ),
        )


def run_topk(args: argparse.Namespace) -> int:
    u = ingest_csv(args.a)
    w = ingest_csv(args.b)
    wp = WindowPair(omega_u=args.wa, omega_w=args.wb)
    result = top_k_search(u, w, wp, args.k, _search_options(args, exclusion=args.exclusion))
    if result.truncated:
        log.warning("warning: fewer than k=%d matches exist; returning %d", args.k, len(result.matches))
    _write_json(topk_to_json_list(result), args.out)
    return 0


def run_simulate(args: argparse.Namespace) -> int:
    spec = SimulationSpec(
        length_u=args.len_a,
        length_w=args.len_b,
        motif_len_u=args.motif_a,
        motif_len_w=args.motif_b,
        delay=args.delay,
        gamma=args.gamma,
        seed=args.seed,
        dims=args.dims,
    )
    u, w, gt = generate_pair(spec)
    emit_csv(u, args.out_a)
    emit_csv(w, args.out_b)
    _write_json(
        {
            "interval_u": list(gt.interval_u),
            "interval_w": list(gt.interval_w),
            "spec": dataclasses.asdict(spec),
        },
        args.out_gt,
    )
    return 0


def _intervals_from_pred(pred: dict):
    if "interval_u" in pred and "interval_w" in pred:
        return tuple(pred["interval_u"]), tuple(pred["interval_w"])
    if "solutions" in pred:
        sols = sorted((s["a"], s["b"]) for s in pred["solutions"])
        if not sols:
            raise InvalidSpec("prediction JSON has an empty solution list")
        a, b = sols[0]
        wa, wb = pred["window_a"], pred["window_b"]
        return (a, a + wa - 1), (b, b + wb - 1)
    raise InvalidSpec("prediction JSON must carry intervals or a search result")


def run_evaluate(args: argparse.Namespace) -> int:
    pred = json.loads(Path(args.pred).read_text())
    gt_doc = json.loads(Path(args.gt).read_text())
    pred_u, pred_w = _intervals_from_pred(pred)
    gt = GroundTruth(interval_u=tuple(gt_doc["interval_u"]), interval_w=tuple(gt_doc["interval_w"]))
    _write_json(dataclasses.asdict(score_intervals(pred_u, pred_w, gt)), args.out)
    return 0


def run_lead(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    files = sorted(p for p in directory.iterdir() if p.suffix == ".csv")
    if not files:
        raise EmptyFile(f"{directory}: no CSV files")
    ids = [p.stem for p in files]
    lo, hi = args.from_step, args.to_step
    if not 1 <= lo <= hi:
        raise InvalidSpec(f"--from/--to must satisfy 1 <= from <= to, got ({lo},{hi})")
    series = {}
    for p, sid in zip(files, ids):
        ts = ingest_csv(p)
        if hi > ts.length:
            raise InvalidSpec(f"{p}: --to {hi} exceeds series length {ts.length}")
        series[sid] = TimeSeries(values=ts.values[lo - 1 : hi])

    wp = WindowPair(omega_u=args.window, omega_w=args.window)
    opts = SearchOptions(normalize=args.normalize)
    matches_by_pair = {}
    for i, j in itertools.combinations(range(len(ids)), 2):
        res = top_k_search(series[ids[i]], series[ids[j]], wp, args.k, opts)
        pairs = [(m.a, m.b) for m in res.matches]
        matches_by_pair[(ids[i], ids[j])] = pairs
        matches_by_pair[(ids[j], ids[i])] = [(b, a) for a, b in pairs]
    cells = lead_difference(matches_by_pair)

    lines = ["leader," + ",".join(ids)]
    for li in ids:
        row = [li]
        for fj in ids:
            row.append("0" if li == fj else str(cells[(li, fj)].difference))
        lines.append(",".join(row))
    Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def _parse_window_token(token: str):
    if "x" in token:
        wa, wb = token.split("x", 1)
        return int(wa), int(wb)
    w = int(token)
    return w, w


def run_bench(args: argparse.Namespace) -> int:
    lengths = [int(t) for t in args.lengths.split(",")]
    windows = [_parse_window_token(t) for t in args.windows.split(",")]
    gammas = [float(t) for t in args.gammas.split(",")]
    methods = args.methods.split(",")
    seeds = [int(t) for t in args.seeds.split(",")]
    warmup, reps = args.warmup, args.reps
    if reps < 1 or warmup < 0:
        raise InvalidSpec(f"--reps must be at least 1 and --warmup at least 0, got {reps} and {warmup}")
    if args.band is not None and args.band < 1:
        raise InvalidSpec(f"--band must be at least 1, got {args.band}")
    for method in methods:
        if method not in BENCH_METHODS:
            raise InvalidSpec(f"unknown bench method {method!r}; choose from {', '.join(BENCH_METHODS)}")

    # Counters come from the last rep, timings are the median over reps.
    stat_names = [f.name for f in dataclasses.fields(SearchStats)]
    timed = ("runtime_ms",) + STAGE_FIELDS
    lines = [",".join(["method", "length", "window_a", "window_b", "gamma", "seed", "band_radius", *stat_names])]
    for length, (wa, wb), gamma, seed in itertools.product(lengths, windows, gammas, seeds):
        spec = SimulationSpec(
            length_u=length, length_w=length, motif_len_u=wa, motif_len_w=wb,
            gamma=gamma, seed=seed,
        )
        u, w, gt = generate_pair(spec)
        wp = WindowPair(omega_u=wa, omega_w=wb)
        radius = args.band or default_band_radius(wa, wb)
        for method in methods:
            search, banded = BENCH_METHODS[method]
            opts = SearchOptions(band_radius=radius if banded else None)
            for _ in range(warmup):
                search(u, w, wp, opts)
            runs = [dataclasses.asdict(search(u, w, wp, opts).stats) for _ in range(reps)]
            stats = [statistics.median(r[f] for r in runs) if f in timed else runs[-1][f] for f in stat_names]
            row = (method, length, wa, wb, gamma, seed, radius if banded else "", *stats)
            lines.append(",".join(map(str, row)))
    Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtwsearch",
        description="Exact most-similar-subsequence search between two time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_query_flags(p):
        p.add_argument("--a", required=True, help="CSV of the first series")
        p.add_argument("--b", required=True, help="CSV of the second series")
        p.add_argument("--wa", required=True, type=int, help="window length on the first series")
        p.add_argument("--wb", required=True, type=int, help="window length on the second series")
        p.add_argument("--normalize", choices=("zscore", "none"), default="none")
        p.add_argument("--band", type=int, default=None, help="Sakoe-Chiba band radius (omit for exact DTW)")

    p = sub.add_parser("search", help="find the most similar subsequence pair")
    add_query_flags(p)
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--dump-bounds", default=None, metavar="PREFIX",
                   help="also write PREFIX.minpath.csv / PREFIX.maxpath.csv")

    p = sub.add_parser("topk", help="rank the k most similar subsequence pairs")
    add_query_flags(p)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--exclusion", type=int, default=0,
                   help="suppress matches within this Chebyshev start distance of a ranked match")
    p.add_argument("--out", required=True, help="output JSON path")

    p = sub.add_parser("simulate", help="generate a series pair with a planted motif")
    p.add_argument("--len-a", required=True, type=int)
    p.add_argument("--len-b", required=True, type=int)
    p.add_argument("--motif-a", type=int, default=60)
    p.add_argument("--motif-b", type=int, default=80)
    p.add_argument("--delay", type=int, default=20)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", type=int, default=1)
    p.add_argument("--out-a", required=True)
    p.add_argument("--out-b", required=True)
    p.add_argument("--out-gt", required=True)

    p = sub.add_parser("evaluate", help="score a prediction against ground truth")
    p.add_argument("--pred", required=True, help="search-result JSON or {interval_u, interval_w} JSON")
    p.add_argument("--gt", required=True, help="ground-truth JSON from simulate")
    p.add_argument("--out", required=True)

    p = sub.add_parser("lead", help="lead-difference grid over a directory of per-individual CSVs")
    p.add_argument("--dir", required=True)
    p.add_argument("--window", required=True, type=int)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--from", dest="from_step", required=True, type=int)
    p.add_argument("--to", dest="to_step", required=True, type=int)
    p.add_argument("--normalize", choices=("zscore", "none"), default="none")
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="runtime/counter sweep over methods and settings")
    p.add_argument("--lengths", required=True, help="comma list, e.g. 500,1000,2000")
    p.add_argument("--windows", required=True, help="comma list of W or WAxWB, e.g. 60x80,40")
    p.add_argument("--gammas", required=True, help="comma list, e.g. 0.0,0.1")
    p.add_argument("--methods", required=True, help=f"comma list from: {','.join(BENCH_METHODS)}")
    p.add_argument("--seeds", required=True, help="comma list, e.g. 0,1,2")
    p.add_argument("--band", type=int, default=None, help="band radius for the banded methods")
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--out", required=True)

    return parser


# Flags naming files the command reads, and files it writes.
_INPUT_FLAGS = ("a", "b", "pred", "gt", "dir")
_OUTPUT_FLAGS = ("out", "out_a", "out_b", "out_gt")


def _check_paths(args: argparse.Namespace):
    """Inputs must exist and outputs must go to an existing directory."""
    for name in _INPUT_FLAGS:
        path = getattr(args, name, None)
        if path is not None and not Path(path).exists():
            raise InvalidSpec(f"input path does not exist: {path}")
    for name in _OUTPUT_FLAGS:
        path = getattr(args, name, None)
        if path is not None and not Path(path).resolve().parent.is_dir():
            raise InvalidSpec(f"output directory does not exist: {Path(path).resolve().parent}")


_RUNNERS = {
    "search": run_search,
    "topk": run_topk,
    "simulate": run_simulate,
    "evaluate": run_evaluate,
    "lead": run_lead,
    "bench": run_bench,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(format="%(message)s")  # diagnostics go to stderr as bare lines
    try:
        _check_paths(args)
        return _RUNNERS[args.command](args)
    except (DtwSearchError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
