"""Names the benchmark prints, kept free of imports so every file can share them."""

WORKLOADS = ("search-easy", "search-banded-grid", "topk-lead")

# name -> unit, printed by a run with --trace 0.
END_TO_END = {
    "query_p50_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# name -> unit, printed by a run with --trace 1. Times and counts are per
# query (the mean over the traced queries) unless the README says otherwise.
PER_LAYER = {
    "cli.ingest_ms": "ms",
    "metrics.normalize_ms": "ms",
    "metrics.distance_ms": "ms",
    "bounds.ms": "ms",
    "bounds.min_pool_ms": "ms",
    "bounds.lower_ms": "ms",
    "bounds.upper_ms": "ms",
    "bounds.grid_mb": "MB",
    "bounds.lb_tightness": "ratio",
    "search.candidates_ms": "ms",
    "search.evaluate_ms": "ms",
    "search.evaluate_self_ms": "ms",
    "search.placements": "count",
    "search.candidates": "count",
    "search.prune_kept_ratio": "ratio",
    "search.evaluated_ratio": "ratio",
    "search.necessary_ratio": "ratio",
    "dtw.batch_ms": "ms",
    "dtw.batch_calls": "count",
    "dtw.evaluations": "count",
    "dtw.cells": "count",
    "dtw.cells_per_s": "1/s",
    "evaluation.lead_ms": "ms",
    "query.peak_alloc_mb": "MB",
    "trace.query_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.coverage": "ratio",
}
