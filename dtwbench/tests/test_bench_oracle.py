"""The benchmark's own recurrence against hand-worked cases and path enumeration."""
import itertools

import numpy as np
import pytest

import oracle
from dtwsearch import dtw_banded, dtw_path_oracle, distance_matrix, TimeSeries


def col(*values):
    return np.array(values, dtype=float)[:, None]


def test_hand_worked_three_by_two():
    # costs |a_p - b_q|: rows [0, 2], [1, 1], [2, 0]
    # D: [0, 2], [1, 1], [3, 1]  ->  DTW = 1
    a, b = col(0, 1, 2), col(0, 2)
    assert oracle.dtw_at(a, b, 3, 2, [(0, 0)])[0] == 1.0


def test_hand_worked_two_dims_uses_euclidean_cells():
    # One cell per side: the distance between (0, 0) and (3, 4) is 5.
    a = np.array([[0.0, 0.0]])
    b = np.array([[3.0, 4.0]])
    assert oracle.dtw_at(a, b, 1, 1, [(0, 0)])[0] == 5.0


def test_hand_worked_band_forbids_the_cheap_detour():
    # a = [0, 9, 9, 9], b = [0, 0, 0, 9]: unconstrained, the path runs along
    # row 0 over b's zeros, then down column 3, for a total of 0. Radius 1
    # keeps |q - p| <= 1, so the path must meet one 9 against a 0 on the
    # way: (0,0) (0,1) (1,2) (2,3) (3,3) costs 0 + 0 + 9 + 0 + 0.
    a, b = col(0, 9, 9, 9), col(0, 0, 0, 9)
    assert oracle.dtw_at(a, b, 4, 4, [(0, 0)])[0] == 0.0
    assert oracle.dtw_at(a, b, 4, 4, [(0, 0)], radius=1)[0] == 9.0


def test_band_mask_follows_the_definition():
    mask = oracle.band_mask(5, 3, 1)
    # |q * 4 - p * 2| <= 4
    want = [[abs(q * 4 - p * 2) <= 4 for q in range(3)] for p in range(5)]
    assert mask.tolist() == want
    assert oracle.band_mask(7, 4, None).all()


def paths(wu, ww):
    """Every warping path of a wu x ww window, by literal enumeration."""
    def extend(path):
        p, q = path[-1]
        if (p, q) == (wu - 1, ww - 1):
            yield path
            return
        for dp, dq in ((1, 0), (0, 1), (1, 1)):
            if p + dp < wu and q + dq < ww:
                yield from extend(path + [(p + dp, q + dq)])

    yield from extend([(0, 0)])


@pytest.mark.parametrize("radius", [None, 1, 2])
def test_agrees_with_enumerated_paths_inside_the_band(radius):
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(9, 2)), rng.normal(size=(8, 2))
    wu, ww = 5, 4
    cost = oracle.point_distances(a, b)
    mask = oracle.band_mask(wu, ww, radius)
    for i, j in itertools.product(range(a.shape[0] - wu + 1), range(b.shape[0] - ww + 1)):
        best = min(
            sum(cost[i + p, j + q] for p, q in path)
            for path in paths(wu, ww)
            if all(mask[p, q] for p, q in path)
        )
        assert oracle.dtw_at(a, b, wu, ww, [(i, j)], radius)[0] == pytest.approx(best, rel=1e-12)


def test_agrees_with_the_programs_path_oracle_on_tiny_windows():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(12, 2)), rng.normal(size=(11, 2))
    m = distance_matrix(TimeSeries(values=a), TimeSeries(values=b)).entries
    for wu, ww in ((1, 1), (3, 2), (4, 4), (6, 5)):
        table = oracle.dtw_table(a, b, wu, ww)
        for i in range(0, a.shape[0] - wu + 1, 3):
            for j in range(0, b.shape[0] - ww + 1, 2):
                want, _ = dtw_path_oracle(m, wu, ww, (i + 1, j + 1))
                assert table[i, j] == pytest.approx(want, rel=1e-12)


def test_band_matches_the_programs_documented_band():
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=(30, 2)), rng.normal(size=(30, 2))
    m = distance_matrix(TimeSeries(values=a), TimeSeries(values=b)).entries
    for wu, ww, radius in ((10, 7, 1), (10, 7, 3), (8, 8, 2)):
        table = oracle.dtw_table(a, b, wu, ww, radius)
        for i, j in ((0, 0), (5, 9), (19, 21)):
            assert table[i, j] == pytest.approx(dtw_banded(m, wu, ww, (i + 1, j + 1), radius), rel=1e-12)


def test_table_equals_batch_at_every_placement():
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=(20, 3)), rng.normal(size=(17, 3))
    table = oracle.dtw_table(a, b, 6, 4, radius=2, cells=50)  # several row blocks
    starts = list(itertools.product(range(15), range(14)))
    assert np.array_equal(oracle.dtw_at(a, b, 6, 4, starts, radius=2, chunk=37), table.ravel())


def test_disconnected_band_is_an_error():
    a, b = col(*range(10)), col(*range(10))
    with pytest.raises(ValueError):
        oracle.dtw_at(a, b, 2, 9, [(0, 0)], radius=1)
