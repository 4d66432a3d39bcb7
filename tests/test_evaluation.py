import pytest

from dtwsearch import GroundTruth, IntervalOutOfBounds, lead_difference, score_intervals


def gt(iu, iw):
    return GroundTruth(interval_u=iu, interval_w=iw)


def test_perfect_prediction():
    counts = score_intervals((10, 19), (5, 14), gt((10, 19), (5, 14)))
    assert counts.tp == 20 and counts.fp == 0 and counts.fn == 0
    assert counts.f1 == 1.0


def test_disjoint_prediction():
    counts = score_intervals((1, 5), (1, 5), gt((10, 14), (10, 14)))
    assert counts.tp == 0
    assert counts.f1 == 0.0


def test_worked_example_pooled_counts():
    counts = score_intervals((130, 189), (200, 279), gt((100, 159), (200, 279)))
    assert counts.tp == 110 and counts.fp == 30 and counts.fn == 30
    assert counts.precision == pytest.approx(110 / 140)
    assert counts.recall == pytest.approx(110 / 140)
    assert counts.f1 == pytest.approx(110 / 140)


def test_swapping_pred_and_gt_swaps_fp_fn():
    a = score_intervals((130, 189), (180, 260), gt((100, 159), (200, 279)))
    b = score_intervals((100, 159), (200, 279), gt((130, 189), (180, 260)))
    assert a.tp == b.tp
    assert a.fp == b.fn and a.fn == b.fp


def test_f1_range_and_identity(rng):
    for _ in range(50):
        s1, s2 = sorted(rng.integers(1, 80, size=2).tolist())
        t1, t2 = sorted(rng.integers(1, 80, size=2).tolist())
        counts = score_intervals((s1, s2 + 1), (t1, t2 + 1), gt((10, 30), (40, 70)))
        assert 0.0 <= counts.f1 <= 1.0
        if counts.f1 == 1.0:
            assert (s1, s2 + 1) == (10, 30) and (t1, t2 + 1) == (40, 70)


def test_interval_bounds_checked():
    with pytest.raises(IntervalOutOfBounds):
        score_intervals((5, 4), (1, 2), gt((1, 2), (1, 2)))


def test_lead_difference_worked_example():
    cells = lead_difference({("x", "y"): [(1, 5), (3, 2), (4, 9)]})
    cell = cells[("x", "y")]
    assert cell.lead_count == 2 and cell.follow_count == 1 and cell.difference == 1


def test_lead_difference_pure_leading():
    matches = [(i, i + 3) for i in range(1, 8)]
    cell = lead_difference({("a", "b"): matches})[("a", "b")]
    assert cell.difference == len(matches)


def test_lead_difference_symmetric_matches_cancel():
    matches = [(1, 5), (5, 1), (2, 9), (9, 2)]
    cell = lead_difference({("a", "b"): matches})[("a", "b")]
    assert cell.difference == 0


def test_equal_starts_count_for_neither():
    cell = lead_difference({("a", "b"): [(4, 4), (2, 7)]})[("a", "b")]
    assert cell.lead_count == 1 and cell.follow_count == 0


def test_role_exchange_antisymmetry(rng):
    matches = [tuple(p) for p in rng.integers(1, 50, size=(40, 2)).tolist()]
    mirrored = [(b, a) for a, b in matches]
    cells = lead_difference({("i", "j"): matches, ("j", "i"): mirrored})
    assert cells[("i", "j")].difference == -cells[("j", "i")].difference


def test_lead_difference_accepts_ranked_matches():
    from dtwsearch import RankedMatch

    matches = [RankedMatch(a=1, b=4, distance=0.5, rank=1), RankedMatch(a=6, b=2, distance=0.7, rank=2)]
    cell = lead_difference({("p", "q"): matches})[("p", "q")]
    assert cell.lead_count == 1 and cell.follow_count == 1 and cell.difference == 0
