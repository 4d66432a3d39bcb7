"""The benchmark's tracer (dtwbench/spans.py) still sees every layer it counts.

The tracer wraps package functions by module attribute and reads work
counts from their arguments and results. When one of them is renamed or
changes shape, a benchmark run only prints "cannot count work of ..." and
reads 0 for that layer; these tests fail instead.
"""
import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from dtwsearch import SearchOptions, TimeSeries, WindowPair

# The benchmark's modules import each other by plain name.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "dtwbench"))
import spans  # noqa: E402
import worker  # noqa: E402


def traced(call):
    modules = {
        name: importlib.import_module(f"dtwsearch.{name}") for name in ("cli", "search", "bounds", "evaluation")
    }
    tracer = spans.Tracer(modules)
    with tracer:
        root = tracer.begin_query(0)
        result = call(modules["search"])
        tracer.end_query(root)
    return tracer, root, result


@pytest.mark.parametrize(
    "call",
    [
        lambda search, u, w: search.infer_most_similar(u, w, WindowPair(8, 6)),
        lambda search, u, w: search.infer_most_similar(u, w, WindowPair(8, 6), SearchOptions(band_radius=2)),
        lambda search, u, w: search.top_k_search(u, w, WindowPair(8, 6), 5),
        # More than one round, each carrying the seed's and the last round's distances.
        lambda search, u, w: search.top_k_search(u, w, WindowPair(8, 6), 5, SearchOptions(exclusion=2)),
    ],
    ids=["infer_most_similar", "infer_most_similar-banded", "top_k_search", "top_k_search-exclusion"],
)
def test_tracer_counts_every_layer(rng, call):
    u = TimeSeries(values=rng.normal(size=(40, 2)))
    w = TimeSeries(values=rng.normal(size=(36, 2)))
    tracer, root, result = traced(lambda search: call(search, u, w))
    assert not tracer.unobserved
    batches = [s for s in tracer.spans if s.name == "dtw.dtw_batch"]
    assert batches and all(s.counts["cells"] > 0 for s in batches)
    filters = [s for s in tracer.spans if s.name == "search.find_candidates"]
    # pairs_after_prune is len() of the last candidate list the search built
    assert filters and filters[-1].counts["candidates"] == result.stats.pairs_after_prune
    # The search builds its bounds by row blocks, through no function the
    # tracer wraps, so the tracer holds no bound grid: its bound tightness
    # and grid size read 0 until it reads them from SearchStats.
    runner = SimpleNamespace(workload=SimpleNamespace(kind="topk" if hasattr(result, "matches") else "search"))
    layers = worker.Runner._layers(runner, tracer, 0, root, result)
    assert layers["bounds.lb_tightness"] == 0 == layers["bounds.grid_mb"]
    assert result.stats.lb_tightness > 0 and result.stats.peak_grid_bytes > 0
