import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from dtwsearch import (
    STAGE_FIELDS,
    CoarseBounds,
    InvalidSpec,
    RankedMatch,
    SearchOptions,
    SearchStats,
    TimeSeries,
    WindowPair,
    brute_force_search,
    distance_matrix,
    dtw_batch,
    dtw_matrix_full,
    find_candidates,
    infer_most_similar,
    result_to_json_dict,
    top_k_search,
    topk_to_json_list,
    upper_bound_matrix,
    z_normalize,
)
from dtwsearch.core import prune_limit
from dtwsearch.dtw import window_cells
from dtwsearch import bounds, search
from dtwsearch.search import Candidates, _evaluate
from oracles import argmin_seed, block_lower_bound, naive_dtw, whole_grid_candidates

U3 = TimeSeries(values=[0.0, 1.0, 3.0])
W2 = TimeSeries(values=[0.0, 2.0])


def brute_table(u, w, wp, opts=SearchOptions()):
    """Every placement's distance as brute force computes it, indexed (start in u, start in w).

    Brute force normalizes when asked and swaps the series when
    omega_w > omega_u. A band is not symmetric under the swap, so the
    table is computed in the swapped orientation and transposed back.
    """
    if opts.normalize == "zscore":
        u, w = z_normalize(u), z_normalize(w)
    if wp.omega_w > wp.omega_u:
        return dtw_matrix_full(distance_matrix(w, u), wp.omega_w, wp.omega_u, radius=opts.band_radius).T
    return dtw_matrix_full(distance_matrix(u, w), wp.omega_u, wp.omega_w, radius=opts.band_radius)


def random_pair(rng, n, m, dims=1):
    return (
        TimeSeries(values=rng.normal(size=(n, dims))),
        TimeSeries(values=rng.normal(size=(m, dims))),
    )


def test_find_candidates_worked_example():
    m = distance_matrix(U3, W2)
    cands = find_candidates(CoarseBounds(m, 2, 2), threshold=upper_bound_matrix(m, 2, 2).min())
    assert len(cands) == 1
    assert (cands.a[0], cands.b[0], cands.lower_bounds[0]) == (1, 1, 1.0)


def test_find_candidates_all_zero_keeps_everything():
    zeros = np.zeros((6, 5))
    cands = find_candidates(CoarseBounds(zeros, 3, 2), threshold=upper_bound_matrix(zeros, 3, 2).min())
    assert len(cands) == (6 - 3 + 1) * (5 - 2 + 1)
    lbs = cands.lower_bounds
    assert np.all(lbs == 0.0)


def test_find_candidates_planted_zero_diagonal_leaves_one():
    # one placement with an all-zero alignment, everything else expensive
    mat = np.full((8, 8), 10.0)
    for k in range(3):
        mat[2 + k, 4 + k] = 0.0
    cands = find_candidates(CoarseBounds(mat, 3, 3), threshold=upper_bound_matrix(mat, 3, 3).min())
    assert len(cands) == 1 and (cands.a[0], cands.b[0]) == (3, 5)


def test_find_candidates_in_start_order(rng):
    mat = np.abs(rng.normal(size=(20, 18)))
    lower = block_lower_bound(mat, 4, 3)
    threshold = upper_bound_matrix(mat, 4, 3).min()
    cands = find_candidates(CoarseBounds(mat, 4, 3), threshold=threshold)
    starts = list(zip(cands.a.tolist(), cands.b.tolist()))
    assert all(p < q for p, q in zip(starts, starts[1:]))  # strictly increasing (a, b)
    ii, jj = np.nonzero(lower <= prune_limit(threshold))
    assert starts == sorted(zip((ii + 1).tolist(), (jj + 1).tolist()))
    assert cands.lower_bounds.tolist() == [lower[a - 1, b - 1] for a, b in starts]


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_find_candidates_equal_the_whole_grid_scan(rng, scale):
    # Rows 10-19 and 35-44 of the matrix hold cheap columns, so two runs of
    # rows of placements hold the small lower bounds, with rows between them
    # whose minimum is far larger: a threshold leaves two runs of rows to
    # scan, or one, or none.
    mat = rng.uniform(5.0, 6.0, size=(60, 70)) * scale
    mat[10:20, 20:30] = rng.uniform(0.0, 1.0, size=(10, 10)) * scale
    mat[35:45, 50:60] = rng.uniform(0.0, 1.0, size=(10, 10)) * scale
    lower = block_lower_bound(mat, 8, 6)
    values = np.unique(lower)
    thresholds = [
        values[0] / 2,  # below every entry
        values[0],  # exactly the smallest entry
        values[3],  # exactly an entry
        (values[40] + values[41]) / 2,  # between entries
        np.sort(np.array(lower).min(axis=1))[12],  # exactly a row's minimum, with rows of both runs
        np.median(values),
        np.inf,
    ]
    runs = []
    for threshold in thresholds:
        cands = find_candidates(CoarseBounds(mat, 8, 6), threshold=threshold)
        a, b, lbs = whole_grid_candidates(lower, prune_limit(threshold))
        assert cands.a.tobytes() == a.tobytes() and cands.b.tobytes() == b.tobytes()
        assert cands.lower_bounds.tobytes() == lbs.tobytes()
        live = np.unique(a)
        runs.append(int(np.count_nonzero(np.diff(live) > 1)) + 1 if live.size else 0)
    assert runs[0] == 0 and max(runs) > 1 and runs[-1] == 1
    assert len(find_candidates(CoarseBounds(mat, 8, 6), threshold=np.inf)) == lower.size


@pytest.mark.parametrize("count", [1, 16, 40, 53])
def test_seed_at_one_per_row_equals_the_argmin_scan(rng, count):
    # 53 rows of placements: fewer seeds than rows, and exactly one per row.
    # Rounded costs tie many row minima, so the choice among ties must match too.
    for mat in (rng.uniform(size=(60, 70)), np.round(rng.uniform(0, 2, size=(60, 70)))):
        lower = block_lower_bound(mat, 8, 6)
        assert lower.shape[0] == 53
        assert search._seed(CoarseBounds(mat, 8, 6), count).tobytes() == argmin_seed(lower, count).tobytes()


def test_seed_refines_a_block_whose_coarse_minimum_ties_its_last_seed():
    # Windows (2, 1): row blocks {0, 1} and {2, 3}. Block 1's coarse minimum
    # (0) is below block 0's (2), so it is refined first; its best row, 2,
    # has minimum 2, which ties block 0's coarse minimum. Row 0 also has
    # minimum 2 and, as the lower row, is the seed: block 0 must be refined
    # before the seed is chosen.
    mat = np.array([[0.0, 9.0], [2.0, 9.0], [2.0, 0.0], [0.0, 2.0], [9.0, 9.0]])
    cb = CoarseBounds(mat, 2, 1)
    assert cb.block_min.tolist() == [2.0, 0.0]
    lower = block_lower_bound(mat, 2, 1)
    assert np.array(lower).min(axis=1).tolist() == [2.0, 4.0, 2.0, 9.0]
    assert search._seed(cb, 1).tolist() == argmin_seed(lower, 1).tolist() == [0]
    # One row per block (omega_u = 1), and row minima that tie in runs: the
    # lowest rows of the tied ones are the seeds.
    minima = np.array([2, 1, 1, 0, 0, 0, 0, 0, 0, 2, 1, 2, 1, 1, 2, 2, 1, 1, 1, 2], dtype=float)
    mat = np.stack([minima + 1, minima], axis=1)
    for count in (2, 7, 12):
        expected = argmin_seed(block_lower_bound(mat, 1, 1), count)
        assert search._seed(CoarseBounds(mat, 1, 1), count).tobytes() == expected.tobytes()


def test_exclusion_rounds_filter_only_when_the_threshold_rises(rng, monkeypatch):
    # The first round's threshold, the larger lower bound of the seed, lies
    # above the next rounds' kk-th smallest lower bound, so those rounds keep
    # the candidate list; the grid is filtered again only at +inf.
    u, w = TimeSeries(values=rng.normal(size=(40, 2))), TimeSeries(values=rng.normal(size=(36, 2)))
    wp, opts, k = WindowPair(8, 6), SearchOptions(exclusion=4), 20
    thresholds, walks = [], []

    def counted(bm, **kw):
        thresholds.append(kw["threshold"])
        return find_candidates(bm, **kw)

    def walked(*args, **kw):
        walks.append(args)
        return _evaluate(*args, **kw)

    monkeypatch.setattr(search, "find_candidates", counted)
    monkeypatch.setattr(search, "_evaluate", walked)
    tk = top_k_search(u, w, wp, k, opts)
    assert len(walks) > 2
    assert len(thresholds) == 2 and thresholds[0] < thresholds[1] == np.inf
    ranking = brute_ranking(u, w, wp, SearchOptions())
    assert [(m.distance, m.a, m.b) for m in tk.matches] == greedy_exclusion(ranking, 4, k)


def test_find_optimal_solutions_worked_example():
    m = distance_matrix(U3, W2)
    # Both placements are seeds, so the filter runs at the larger lower bound.
    cands = find_candidates(CoarseBounds(m, 2, 2), threshold=block_lower_bound(m.entries, 2, 2).max())
    res = infer_most_similar(U3, W2, WindowPair(2, 2))
    assert res.solutions == frozenset({(1, 1)})
    assert res.shortest_dist == 1.0
    assert res.stats.pairs_after_prune == len(cands)


def test_self_match_full_window():
    x = TimeSeries(values=np.linspace(0, 1, 12)[:, None])
    res = infer_most_similar(x, x, WindowPair(12, 12))
    assert res.solutions == frozenset({(1, 1)})
    assert res.shortest_dist == 0.0


def test_duplicate_motifs_tie(rng):
    base = rng.normal(size=20)
    vals = rng.normal(size=60) * 8
    vals[5:25] = base
    vals[35:55] = base
    u = TimeSeries(values=vals)
    w = TimeSeries(values=base)
    res = infer_most_similar(u, w, WindowPair(20, 20))
    assert res.shortest_dist == 0.0
    assert res.solutions == frozenset({(6, 1), (36, 1)})
    bf = brute_force_search(u, w, WindowPair(20, 20))
    assert bf.solutions == res.solutions


def test_infer_worked_example_and_stats():
    res = infer_most_similar(U3, W2, WindowPair(2, 2))
    assert res.solutions == frozenset({(1, 1)})
    assert res.shortest_dist == 1.0
    assert res.swapped is False
    assert res.stats.pairs_total == 2
    # Both placements are seeds: each is evaluated once and is a candidate.
    assert res.stats.pairs_after_prune == 2
    assert res.stats.dtw_evaluations == 2


def test_exchanged_arguments_mirror_solutions():
    res = infer_most_similar(W2, U3, WindowPair(2, 2))
    assert res.swapped is False  # equal windows never swap
    assert res.solutions == frozenset({(1, 1)})
    assert res.shortest_dist == 1.0


def test_full_windows_single_placement(rng):
    u, w = random_pair(rng, 9, 7)
    res = infer_most_similar(u, w, WindowPair(9, 7))
    m = distance_matrix(u, w)
    assert res.solutions == frozenset({(1, 1)})
    assert res.shortest_dist == naive_dtw(m.entries, 9, 7, (1, 1))


def test_swap_correctness(rng):
    for _ in range(10):
        u, w = random_pair(rng, 25, 31, dims=2)
        wu, ww = 4, 9  # forces a swap one way
        r1 = infer_most_similar(u, w, WindowPair(wu, ww))
        r2 = infer_most_similar(w, u, WindowPair(ww, wu))
        assert r1.swapped and not r2.swapped
        assert abs(r1.shortest_dist - r2.shortest_dist) <= 1e-12
        assert r1.solutions == frozenset((b, a) for a, b in r2.solutions)


def test_theorem_equivalence_sample(rng):
    for _ in range(25):
        n = int(rng.integers(20, 80))
        m = int(rng.integers(20, 80))
        dims = int(rng.choice([1, 3]))
        wu = int(rng.integers(3, 13))
        ww = int(rng.integers(3, 13))
        u, w = random_pair(rng, n, m, dims)
        sp = infer_most_similar(u, w, WindowPair(wu, ww))
        bf = brute_force_search(u, w, WindowPair(wu, ww))
        assert abs(sp.shortest_dist - bf.shortest_dist) <= 1e-9 * max(1.0, bf.shortest_dist)
        assert sp.solutions == bf.solutions


def test_counter_monotonicity_and_strict_pruning(rng):
    u, w = random_pair(rng, 60, 60)
    sp = infer_most_similar(u, w, WindowPair(8, 8))
    s = sp.stats
    assert s.dtw_evaluations <= s.pairs_after_prune <= s.pairs_total
    # planted exact duplicate: the zero-distance incumbent prunes hard
    vals = rng.normal(size=(120, 1)) * 6
    motif = rng.normal(size=(10, 1))
    vals[10:20] = motif
    w2 = TimeSeries(values=motif)
    u2 = TimeSeries(values=vals)
    res = infer_most_similar(u2, w2, WindowPair(10, 10))
    assert res.shortest_dist == 0.0
    assert res.stats.dtw_evaluations < res.stats.pairs_total


def test_early_exit_soundness(rng):
    # The filter keeps exactly the placements that the seed's best distance,
    # or its largest lower bound, admits; the walk evaluates only seeds and
    # placements whose lower bound the seed's best distance admits.
    for _ in range(8):
        u, w = random_pair(rng, 40, 35, dims=2)
        m = distance_matrix(u, w)
        lower = block_lower_bound(m.entries, 6, 5)
        seed = search._seed(CoarseBounds(m, 6, 5), search._SEED_MIN)
        first = dtw_batch(m, 6, 5, seed // lower.shape[1], seed % lower.shape[1])[0].min()
        threshold = max(first, lower.ravel()[seed].max())
        admitted = set(seed.tolist()) | set(np.flatnonzero(lower <= prune_limit(first)).tolist())
        fast = infer_most_similar(u, w, WindowPair(6, 5))
        bf = brute_force_search(u, w, WindowPair(6, 5))
        assert fast.solutions == bf.solutions
        assert fast.shortest_dist == bf.shortest_dist
        assert fast.stats.pairs_after_prune == np.count_nonzero(lower <= prune_limit(threshold))
        assert fast.stats.dtw_evaluations <= len(admitted)


def test_large_magnitude_search_matches_brute_force():
    # Whole-series prefix sums raised WindowOrderViolated here in 3 of 6
    # seeds at 3e4 and in 6 of 6 at 1e5 and 1e6, unbanded and at radius 1.
    wp = WindowPair(3, 2)
    for magnitude in (3e4, 1e5, 1e6):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            u = TimeSeries(values=rng.uniform(0, magnitude, 1500))
            w = TimeSeries(values=rng.uniform(0, magnitude, 1500))
            for radius in (None, 1):
                opts = SearchOptions(band_radius=radius)
                sp = infer_most_similar(u, w, wp, opts)
                bf = brute_force_search(u, w, wp, opts)
                assert sp.solutions == bf.solutions
                assert sp.shortest_dist == bf.shortest_dist


@pytest.mark.parametrize(
    "seed, magnitude, omega_w, radius",
    [
        (37, 1e4, 1, None),
        (59, 1e4, 1, None),
        (73, 1e6, 1, None),
        (138, 1e6, 1, None),
        (59, 1e4, 3, 2),
        (37, 1e4, 5, 3),
        (13, 1e4, 3, None),
        (6, 1e4, 5, 3),
    ],
)
def test_prune_pad_scales_with_magnitude(seed, magnitude, omega_w, radius):
    # The two pure windows of u hold the same costs in reverse order, so
    # they tie in exact arithmetic; their lower bounds and DTW values round
    # apart by more than the absolute 1e-9 once the sums reach about 1e5.
    # An absolute pad dropped the (241, .) ties here, and at seed 73 it
    # returned the wrong optimum. Seeds 13 and 6 need the pad on the kernel's
    # threshold too: with an absolute one, the trimmed rows of a tied
    # placement lose a cell of its path, and the tie is lost.
    rng = np.random.default_rng(seed)
    ramp = magnitude * (1 + rng.uniform(size=200))
    peak = magnitude * (50 + rng.uniform(size=40))
    u = TimeSeries(values=np.concatenate([ramp, peak, ramp[::-1]]))
    w = TimeSeries(values=np.zeros(omega_w + 1))
    wp, opts = WindowPair(200, omega_w), SearchOptions(band_radius=radius)
    sp = infer_most_similar(u, w, wp, opts)
    bf = brute_force_search(u, w, wp, opts)
    assert any(a == 241 for a, _ in bf.solutions)  # the reversed window is optimal
    assert sp.solutions == bf.solutions
    assert sp.shortest_dist == bf.shortest_dist


@pytest.mark.parametrize("seed, magnitude, omega_w, radius", [(9, 1e4, 3, None), (4, 1e4, 5, 3), (1, 1e7, 3, None)])
def test_search_without_exclusion_runs_one_round(monkeypatch, seed, magnitude, omega_w, radius):
    # The k-th upper bound rounds a few ulps below the k-th distance here, so
    # no distance falls at or below the first threshold. The ranking must
    # still come from the first round: one that ranked fewer than k
    # placements fell into the exclusion rounds, which evaluate every
    # survivor of a raised bound. The inputs are test_prune_pad_scales_with_magnitude's.
    rng = np.random.default_rng(seed)
    ramp = magnitude * (1 + rng.uniform(size=200))
    peak = magnitude * (50 + rng.uniform(size=40))
    u = TimeSeries(values=np.concatenate([ramp, peak, ramp[::-1]]))
    w = TimeSeries(values=np.zeros(omega_w + 1))
    wp, opts = WindowPair(200, omega_w), SearchOptions(band_radius=radius)
    rounds = []

    def counted(bm, **kw):
        rounds.append(find_candidates(bm, **kw))
        return rounds[-1]

    monkeypatch.setattr(search, "find_candidates", counted)
    sp = infer_most_similar(u, w, wp, opts)
    assert len(rounds) == 1
    bf = brute_force_search(u, w, wp, opts)
    assert sp.solutions == bf.solutions and sp.shortest_dist == bf.shortest_dist
    tk = top_k_search(u, w, wp, 2, opts)
    assert len(rounds) == 2
    assert [(m.distance, m.a, m.b) for m in tk.matches] == brute_ranking(u, w, wp, opts)[:2]


def test_redo_reruns_a_placement_inside_the_scaled_pad():
    # An earlier round abandoned placement (31, 41) (d is +inf there); its
    # lower bound sits above the threshold by more than the absolute 1e-9
    # but within prune_limit's pad, which is about 1e-5 at distances near
    # 1e7. It is the exact twin of the incumbent (1, 1), so re-run it must
    # come back finite and equal. An absolute pad would leave it +inf.
    rng = np.random.default_rng(0)
    wu, ww = 20, 16
    mat = rng.uniform(0.0, 1e6, size=(60, 70))
    mat[30 : 30 + wu, 40 : 40 + ww] = mat[:wu, :ww]
    cb = CoarseBounds(mat, wu, ww)
    cb.refine_all()  # the kernel reads the min-pool in every candidate's rows
    best = naive_dtw(mat, wu, ww, (1, 1))
    lb = best + (prune_limit(best) - best) / 2
    assert best + 1e-9 < lb <= prune_limit(best)
    cands = Candidates(a=np.array([1, 31]), b=np.array([1, 41]), lower_bounds=np.array([best / 2, lb]))
    d, thr, cells = _evaluate(mat, wu, ww, cands, cb, 1, np.inf, None, d=np.array([best, np.inf]))
    assert thr == best and cells > 0
    assert d.tolist() == [best, best]


def twin_motif_pair(rng, n=110, m=90, motif_len=24):
    """u holds one motif twice, w a noisy copy of it: every placement inside
    the first copy has a twin 50 steps later with the same distance."""
    motif = rng.normal(size=(motif_len, 2))
    u = rng.normal(size=(n, 2)) * 3
    u[10 : 10 + motif_len] = motif
    u[60 : 60 + motif_len] = motif
    w = rng.normal(size=(m, 2)) * 3
    w[30 : 30 + motif_len] = motif + rng.normal(scale=0.1, size=(motif_len, 2))
    return TimeSeries(values=u), TimeSeries(values=w)


def brute_ranking(u, w, wp, opts):
    table = brute_table(u, w, wp, opts)
    return sorted((table[i, j], i + 1, j + 1) for i in range(table.shape[0]) for j in range(table.shape[1]))


@pytest.mark.parametrize("radius", [None, 3])
def test_abandoning_keeps_exact_tie_set(rng, radius):
    # 20x16 windows have 35 anti-diagonals, so placements are checked for abandoning eight times.
    wp, opts = WindowPair(20, 16), SearchOptions(band_radius=radius)
    for _ in range(3):
        u, w = twin_motif_pair(rng)
        sp = infer_most_similar(u, w, wp, opts)
        bf = brute_force_search(u, w, wp, opts)
        assert len(bf.solutions) >= 2
        assert sp.solutions == bf.solutions
        assert sp.shortest_dist == bf.shortest_dist
        assert sp.stats.dp_cells < sp.stats.dtw_evaluations * window_cells(20, 16, radius)
        assert bf.stats.dp_cells == bf.stats.pairs_total * window_cells(20, 16, radius)


@pytest.mark.parametrize("radius", [None, 3])
def test_abandoning_top_k_equals_brute_ranking(rng, radius):
    wp, opts = WindowPair(20, 16), SearchOptions(band_radius=radius)
    u, w = twin_motif_pair(rng)
    tk = top_k_search(u, w, wp, 40, opts)
    assert [(m.distance, m.a, m.b) for m in tk.matches] == brute_ranking(u, w, wp, opts)[:40]
    assert tk.stats.dp_cells < tk.stats.dtw_evaluations * window_cells(20, 16, radius)


def greedy_exclusion(ranking, exclusion, k):
    accepted = []
    for d, a, b in ranking:
        if all(max(abs(a - x), abs(b - y)) > exclusion for _, x, y in accepted):
            accepted.append((d, a, b))
        if len(accepted) == k:
            break
    return accepted


def test_abandoning_exclusion_equals_greedy_over_brute_ranking(rng):
    wp, opts, k = WindowPair(20, 16), SearchOptions(exclusion=6), 8
    u, w = twin_motif_pair(rng)
    ranking = brute_ranking(u, w, wp, SearchOptions())
    # The k best placements crowd together, so the ranked prefix must grow.
    assert len(greedy_exclusion(ranking[:k], 6, k)) < k
    tk = top_k_search(u, w, wp, k, opts)
    assert [(m.distance, m.a, m.b) for m in tk.matches] == greedy_exclusion(ranking, 6, k)
    assert tk.stats.dp_cells < tk.stats.dtw_evaluations * window_cells(20, 16)


def test_search_builds_no_upper_bound(rng, monkeypatch):
    # The seed's exact distances are the only threshold source: with the
    # upper-bound grid unbuildable, every entry point still answers exactly.
    def refuse(*args, **kwargs):
        raise AssertionError("the search built the upper-bound grid")

    monkeypatch.setattr(bounds, "upper_bound_matrix", refuse)
    u, w = twin_motif_pair(rng)
    wp = WindowPair(20, 16)
    for radius in (None, 3):
        opts = SearchOptions(band_radius=radius)
        sp, bf = infer_most_similar(u, w, wp, opts), brute_force_search(u, w, wp, opts)
        assert sp.solutions == bf.solutions and sp.shortest_dist == bf.shortest_dist
    ranking = brute_ranking(u, w, wp, SearchOptions())
    for exclusion in (0, 6):
        tk = top_k_search(u, w, wp, 8, SearchOptions(exclusion=exclusion))
        assert [(m.distance, m.a, m.b) for m in tk.matches] == greedy_exclusion(ranking, exclusion, 8)


def constant_pair(rng):
    return TimeSeries(values=np.full(30, 2.5)), TimeSeries(values=np.full(25, 2.5))


# Placements are rows x columns of the grid the search builds, and the seed
# is S = max(16, 4k) of them, q = ceil(S / rows) from each row.
@pytest.mark.parametrize(
    "pair, wp, k, opts",
    [
        pytest.param(lambda rng: (U3, W2), WindowPair(2, 2), 2, SearchOptions(), id="seeds-cover-every-placement"),
        pytest.param(lambda rng: random_pair(rng, 20, 60), WindowPair(12, 9), 5, SearchOptions(), id="q-above-one"),
        pytest.param(lambda rng: random_pair(rng, 10, 7), WindowPair(6, 4), 2, SearchOptions(), id="q-equals-columns"),
        pytest.param(constant_pair, WindowPair(6, 4), 10, SearchOptions(), id="every-lower-bound-ties"),
        pytest.param(lambda rng: random_pair(rng, 40, 36), WindowPair(6, 9), 5, SearchOptions(band_radius=3), id="banded"),
        pytest.param(
            lambda rng: random_pair(rng, 20, 20), WindowPair(5, 5), 20, SearchOptions(exclusion=5),
            id="rounds-reach-every-placement",
        ),
    ],
)
def test_seed_edge_cases_equal_brute_force(rng, monkeypatch, pair, wp, k, opts):
    # 2x1 placements, all seeds; 9x52 with q = 2 and 3; 5x4 with q = 4; 25x22
    # tied at 0; 28x35 banded and swapped; and 16x16 where exclusion leaves
    # fewer than k picks, so the rounds end at a threshold of +inf.
    u, w = pair(rng)
    rounds = []

    def counted(bm, **kw):
        rounds.append(find_candidates(bm, **kw))
        return rounds[-1]

    monkeypatch.setattr(search, "find_candidates", counted)
    tk = top_k_search(u, w, wp, k, opts)
    expected = greedy_exclusion(brute_ranking(u, w, wp, SearchOptions(band_radius=opts.band_radius)), opts.exclusion, k)
    assert [(m.distance, m.a, m.b) for m in tk.matches] == expected
    assert tk.truncated == (len(expected) < k)
    assert tk.stats.pairs_after_prune == len(rounds[-1])
    if tk.truncated:  # the last round ran at +inf
        assert len(rounds[-1]) == tk.stats.pairs_total
    sp, bf = infer_most_similar(u, w, wp, opts), brute_force_search(u, w, wp, opts)
    assert sp.solutions == bf.solutions and sp.shortest_dist == bf.shortest_dist
    for stats in (tk.stats, sp.stats):
        assert SearchStats(**asdict(stats)) == stats  # the ordering check passes
        assert stats.dtw_evaluations <= stats.pairs_after_prune <= stats.pairs_total
        if stats.pairs_total <= search._SEED_MIN:
            assert stats.dtw_evaluations == stats.pairs_after_prune == stats.pairs_total


def periodic_pair(rng):
    """u is four copies of one noise block, w is noise: every placement has
    twins 30 steps apart with the same distance, and the bound is loose."""
    u = TimeSeries(values=np.tile(rng.normal(size=(30, 1)), (4, 1)))
    return u, TimeSeries(values=rng.normal(size=(100, 1)))


@pytest.mark.parametrize("radius", [None, 2])
@pytest.mark.parametrize("exclusion", [0, 3])
@pytest.mark.parametrize("k", [1, 50])
def test_seeded_walk_equals_brute_force(rng, monkeypatch, k, exclusion, radius):
    wp, opts = WindowPair(12, 9), SearchOptions(band_radius=radius, exclusion=exclusion)
    u, w = periodic_pair(rng)
    rounds, walks = [], []

    def counted(bm, **kw):
        rounds.append(find_candidates(bm, **kw))
        return rounds[-1]

    def walked(*args, **kw):
        walks.append(args)
        return _evaluate(*args, **kw)

    monkeypatch.setattr(search, "find_candidates", counted)
    monkeypatch.setattr(search, "_evaluate", walked)
    tk = top_k_search(u, w, wp, k, opts)
    # The walk crosses a chunk boundary after the seed.
    assert len(rounds[0]) > max(search._SEED_MIN, search._SEED_PER_K * k) + search._CHUNK
    if k == 50 and exclusion:
        assert len(walks) > 1  # a round that carries the first one's distances
    ranking = brute_ranking(u, w, wp, SearchOptions(band_radius=radius))
    assert [(m.distance, m.a, m.b) for m in tk.matches] == greedy_exclusion(ranking, exclusion, k)
    if k == 1:
        sp = infer_most_similar(u, w, wp, opts)
        bf = brute_force_search(u, w, wp, opts)
        assert len(bf.solutions) > 1
        assert sp.solutions == bf.solutions
        assert sp.shortest_dist == bf.shortest_dist == tk.matches[0].distance


@pytest.mark.parametrize("seed", [1, 2, 7, 9, 10])
def test_seeded_optimum_evaluates_only_what_its_bound_admits(seed):
    # The walk's threshold falls from the seed's best distance to the
    # optimum, so it evaluates the seeds, every placement whose lower bound
    # the optimum admits, and no placement whose lower bound the seed's best
    # distance does not admit. Where a seed is a tied optimum (seeds 1 and
    # 10) the two sets are one. The filter keeps exactly what the seed's
    # best distance, or its largest lower bound, admits.
    u, w = twin_motif_pair(np.random.default_rng(seed))
    m = distance_matrix(u, w)
    sp = infer_most_similar(u, w, WindowPair(20, 16))
    lower = block_lower_bound(m.entries, 20, 16)
    seeds = search._seed(CoarseBounds(m, 20, 16), search._SEED_MIN)
    first = dtw_batch(m, 20, 16, seeds // lower.shape[1], seeds % lower.shape[1])[0].min()
    assert (first == sp.shortest_dist) == (seed in (1, 10))
    least, most = (np.union1d(seeds, np.flatnonzero(lower <= prune_limit(x))).size for x in (sp.shortest_dist, first))
    assert least >= search._SEED_MIN
    assert least <= sp.stats.dtw_evaluations <= most
    threshold = max(first, lower.ravel()[seeds].max())
    assert sp.stats.pairs_after_prune == np.count_nonzero(lower <= prune_limit(threshold))


def test_banded_search_matches_banded_brute(rng):
    for _ in range(6):
        u, w = random_pair(rng, 40, 46)
        opts = SearchOptions(band_radius=3)
        sp = infer_most_similar(u, w, WindowPair(9, 6), opts)
        bf = brute_force_search(u, w, WindowPair(9, 6), opts)
        assert sp.solutions == bf.solutions
        assert abs(sp.shortest_dist - bf.shortest_dist) <= 1e-9
        assert sp.band_radius == 3
        # the band can only raise the distance
        exact = brute_force_search(u, w, WindowPair(9, 6))
        assert sp.shortest_dist >= exact.shortest_dist - 1e-12


def test_brute_force_worked_example_table():
    res = brute_force_search(U3, W2, WindowPair(2, 2))
    assert res.solutions == frozenset({(1, 1)}) and res.shortest_dist == 1.0
    assert brute_table(U3, W2, WindowPair(2, 2)).ravel().tolist() == [1.0, 2.0]


def test_brute_force_constant_series_all_tie():
    u = TimeSeries(values=np.full(6, 2.5))
    w = TimeSeries(values=np.full(5, 2.5))
    res = brute_force_search(u, w, WindowPair(3, 2))
    assert res.shortest_dist == 0.0
    assert len(res.solutions) == (6 - 3 + 1) * (5 - 2 + 1)


def test_brute_force_table_orientation_under_swap(rng):
    # Brute force swaps the series; its solutions come back in the caller's
    # orientation, where they are the minima of the transposed-back table.
    # The band is laid out in the swapped orientation, (7, 4) windows over w x u.
    u, w = random_pair(rng, 20, 26)
    wp = WindowPair(4, 7)
    for radius in (None, 2):
        opts = SearchOptions(band_radius=radius)
        res = brute_force_search(u, w, wp, opts)
        table = brute_table(u, w, wp, opts)
        assert res.swapped
        assert table.shape == (20 - 4 + 1, 26 - 7 + 1)
        ii, jj = np.nonzero(table <= table.min() + 1e-9)
        assert res.solutions == frozenset(zip((ii + 1).tolist(), (jj + 1).tolist()))
        assert res.shortest_dist == table.min()
        assert table[2, 3] == naive_dtw(distance_matrix(w, u).entries, 7, 4, (4, 3), radius)


def test_top_k_head_matches_most_similar(rng):
    # plain, swapped (omega_w > omega_u) and banded
    for wp, radius in ((WindowPair(5, 5), None), (WindowPair(4, 7), None), (WindowPair(7, 5), 2)):
        u, w = random_pair(rng, 30, 30, dims=2)
        opts = SearchOptions(band_radius=radius)
        best = infer_most_similar(u, w, wp, opts)
        tk = top_k_search(u, w, wp, 1, opts)
        assert best.swapped == (wp.omega_w > wp.omega_u)
        assert tk.matches[0].distance == best.shortest_dist
        assert (tk.matches[0].a, tk.matches[0].b) in best.solutions
        for field in ("pairs_after_prune", "dtw_evaluations", "dp_cells"):
            assert getattr(tk.stats, field) == getattr(best.stats, field), (wp, radius, field)


def test_top_k_worked_example():
    tk = top_k_search(U3, W2, WindowPair(2, 2), 2)
    got = [(m.rank, m.a, m.b, m.distance) for m in tk.matches]
    assert got == [(1, 1, 1, 1.0), (2, 2, 1, 2.0)]


def test_top_k_full_ranking_equals_sorted_brute_table(rng):
    u, w = random_pair(rng, 24, 21)
    table = brute_table(u, w, WindowPair(6, 4))
    total = table.size
    tk = top_k_search(u, w, WindowPair(6, 4), total)
    expected = sorted(
        (table[i, j], i + 1, j + 1)
        for i in range(table.shape[0])
        for j in range(table.shape[1])
    )
    got = [(m.distance, m.a, m.b) for m in tk.matches]
    assert got == expected
    assert [m.rank for m in tk.matches] == list(range(1, total + 1))


def test_top_k_truncates_with_flag(rng):
    u, w = random_pair(rng, 10, 10)
    tk = top_k_search(u, w, WindowPair(8, 8), 50)
    assert tk.truncated
    assert len(tk.matches) == (10 - 8 + 1) ** 2


def test_top_k_swapped_orientation(rng):
    u, w = random_pair(rng, 28, 22, dims=2)
    t1 = top_k_search(u, w, WindowPair(4, 7), 5)
    t2 = top_k_search(w, u, WindowPair(7, 4), 5)
    assert [(m.a, m.b, m.distance) for m in t1.matches] == [
        (m.b, m.a, m.distance) for m in t2.matches
    ]


def test_top_k_exclusion_spaces_matches(rng):
    u, w = random_pair(rng, 40, 40)
    excl = 3
    tk = top_k_search(u, w, WindowPair(6, 6), 8, SearchOptions(exclusion=excl))
    starts = [(m.a, m.b) for m in tk.matches]
    for i, (a1, b1) in enumerate(starts):
        for a2, b2 in starts[i + 1 :]:
            assert max(abs(a1 - a2), abs(b1 - b2)) > excl
    # the first accepted match is still the global optimum
    best = infer_most_similar(u, w, WindowPair(6, 6))
    assert tk.matches[0].distance == best.shortest_dist


def test_top_k_exclusion_equals_greedy_over_full_ranking(rng):
    u, w = random_pair(rng, 26, 24)
    wp = WindowPair(5, 5)
    excl = 2
    full = top_k_search(u, w, wp, (26 - 5 + 1) * (24 - 5 + 1))
    accepted = []
    for m in full.matches:
        if all(max(abs(m.a - a), abs(m.b - b)) > excl for a, b in accepted):
            accepted.append((m.a, m.b))
        if len(accepted) == 6:
            break
    tk = top_k_search(u, w, wp, 6, SearchOptions(exclusion=excl))
    assert [(m.a, m.b) for m in tk.matches] == accepted


@pytest.mark.parametrize("exclusion", [1.5, None, "2", -1, True, False])
def test_exclusion_must_be_a_nonnegative_integer(exclusion):
    with pytest.raises(InvalidSpec, match="exclusion"):
        SearchOptions(exclusion=exclusion)


@pytest.mark.parametrize("radius", [0, -1, 2.0, "3", True])
def test_band_radius_must_be_none_or_a_positive_integer(radius):
    with pytest.raises(InvalidSpec, match="band_radius"):
        SearchOptions(band_radius=radius)


def test_numpy_integer_options_serialize_as_json(rng):
    u, w = random_pair(rng, 40, 30)
    opts = SearchOptions(band_radius=np.int64(3), exclusion=np.int32(2))
    assert (type(opts.band_radius), type(opts.exclusion)) == (int, int)
    doc = json.loads(json.dumps(result_to_json_dict(infer_most_similar(u, w, WindowPair(8, 6), opts))))
    assert doc["band_radius"] == 3


@pytest.mark.parametrize("k", [0, -1, 2.0, "3", True, None])
def test_top_k_count_must_be_a_positive_integer(k):
    with pytest.raises(InvalidSpec, match="k must"):
        top_k_search(U3, W2, WindowPair(2, 2), k)


def test_result_json_schema():
    res = infer_most_similar(U3, W2, WindowPair(2, 2))
    doc = result_to_json_dict(res)
    assert set(doc) == {
        "shortest_dist", "solutions", "swapped", "window_a", "window_b",
        "normalized", "band_radius", "stats",
    }
    assert doc["solutions"] == [{"a": 1, "b": 1}]
    assert set(doc["stats"]) == {
        "pairs_total", "pairs_after_prune", "dtw_evaluations", "dp_cells", "runtime_ms",
        "normalize_ms", "distance_ms", "bounds_ms", "candidates_ms", "evaluate_ms",
        "lb_tightness", "peak_grid_bytes",
    }
    # The stats serialize from SearchStats itself, in its field order.
    assert list(doc["stats"]) == [f.name for f in fields(SearchStats)]
    assert doc["stats"]["dp_cells"] == 8  # both 2x2 placements are seeds, each evaluated once
    tk = top_k_search(U3, W2, WindowPair(2, 2), 2)
    arr = topk_to_json_list(tk)
    assert arr[0] == {"rank": 1, "a": 1, "b": 1, "distance": 1.0}
    assert all(list(obj) == [f.name for f in fields(RankedMatch)] for obj in arr)


def test_stage_timings_split_runtime(rng):
    u, w = random_pair(rng, 60, 50, dims=2)
    wp = WindowPair(8, 6)
    runs = {
        "search": infer_most_similar(u, w, wp, SearchOptions(normalize="zscore")),
        "topk": top_k_search(u, w, wp, 5, SearchOptions(exclusion=2)),
        "brute": brute_force_search(u, w, wp),
    }
    for name, res in runs.items():
        stages = [getattr(res.stats, f) for f in STAGE_FIELDS]
        assert min(stages) >= 0.0, name
        assert sum(stages) <= res.stats.runtime_ms, name
    # Every stage of the pruned pipeline runs, and brute force has no bounds or candidates.
    assert min(getattr(runs["search"].stats, f) for f in STAGE_FIELDS) > 0.0
    assert runs["brute"].stats.bounds_ms == runs["brute"].stats.candidates_ms == 0.0


def test_normalized_search_flag(rng):
    u, w = random_pair(rng, 30, 30)
    res = infer_most_similar(u, w, WindowPair(6, 6), SearchOptions(normalize="zscore"))
    assert res.normalized
    bf = brute_force_search(u, w, WindowPair(6, 6), SearchOptions(normalize="zscore"))
    assert res.solutions == bf.solutions
