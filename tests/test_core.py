import numpy as np
import pytest

from dtwsearch import (
    DimensionMismatch,
    InvalidSpec,
    NonFiniteValue,
    SearchResult,
    SearchStats,
    TimeSeries,
    WarpingPath,
    WindowPair,
    WindowTooLarge,
    validate_query,
)


def ts(values):
    return TimeSeries(values=values)


def test_validate_query_accepts_fitting_windows():
    assert validate_query(ts(np.zeros((10, 2))), ts(np.zeros((8, 2))), WindowPair(4, 3)) is None


def test_validate_query_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        validate_query(ts(np.zeros((10, 2))), ts(np.zeros((8, 3))), WindowPair(4, 3))


def test_validate_query_window_too_large():
    with pytest.raises(WindowTooLarge):
        validate_query(ts(np.zeros((10, 2))), ts(np.zeros((8, 2))), WindowPair(11, 3))
    with pytest.raises(WindowTooLarge):
        validate_query(ts(np.zeros((10, 2))), ts(np.zeros((8, 2))), WindowPair(4, 9))


def test_time_series_rejects_non_finite():
    with pytest.raises(NonFiniteValue):
        ts([1.0, np.nan])
    with pytest.raises(NonFiniteValue):
        ts([1.0, np.inf])


def test_time_series_rejects_empty():
    with pytest.raises(InvalidSpec):
        ts(np.zeros((0, 2)))


def test_time_series_promotes_1d_and_is_immutable():
    x = ts([1.0, 2.0])
    assert x.values.shape == (2, 1) and x.length == 2 and x.dims == 1
    with pytest.raises(ValueError):
        x.values[0, 0] = 5.0


def test_window_pair_rejects_nonpositive():
    with pytest.raises(InvalidSpec):
        WindowPair(0, 3)
    with pytest.raises(InvalidSpec):
        WindowPair(3, -1)
    with pytest.raises(InvalidSpec):
        WindowPair(True, 3)  # a bool is not a window length, though True == 1


def test_warping_path_validates_steps():
    WarpingPath(steps=((1, 1), (2, 1), (2, 2), (3, 3)))
    with pytest.raises(InvalidSpec):
        WarpingPath(steps=((1, 1), (3, 1)))  # jump of 2
    with pytest.raises(InvalidSpec):
        WarpingPath(steps=((2, 2), (1, 2)))  # not monotone
    with pytest.raises(InvalidSpec):
        WarpingPath(steps=())


def test_search_stats_counter_ordering_enforced():
    SearchStats(pairs_total=10, pairs_after_prune=5, dtw_evaluations=3, runtime_ms=0.1)
    with pytest.raises(InvalidSpec):
        SearchStats(pairs_total=10, pairs_after_prune=11, dtw_evaluations=3, runtime_ms=0.1)
    with pytest.raises(InvalidSpec):
        SearchStats(pairs_total=10, pairs_after_prune=5, dtw_evaluations=6, runtime_ms=0.1)


def test_search_result_requires_solutions():
    stats = SearchStats(pairs_total=1, pairs_after_prune=1, dtw_evaluations=1, runtime_ms=0.0)
    with pytest.raises(InvalidSpec):
        SearchResult(
            solutions=frozenset(), shortest_dist=0.0, swapped=False, stats=stats,
            window_a=1, window_b=1,
        )
