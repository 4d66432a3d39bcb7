import numpy as np
import pytest

from dtwsearch import (
    SearchOptions,
    TimeSeries,
    WindowPair,
    brute_force_search,
    compute_bounds,
    distance_matrix,
    find_candidates,
    find_optimal_solutions,
    infer_most_similar,
    result_to_json_dict,
    top_k_search,
    topk_to_json_list,
)
from dtwsearch.dtw import window_cells
from oracles import naive_dtw

U3 = TimeSeries(values=[0.0, 1.0, 3.0])
W2 = TimeSeries(values=[0.0, 2.0])


def random_pair(rng, n, m, dims=1):
    return (
        TimeSeries(values=rng.normal(size=(n, dims))),
        TimeSeries(values=rng.normal(size=(m, dims))),
    )


def test_find_candidates_worked_example():
    m = distance_matrix(U3, W2)
    bm = compute_bounds(m, 2, 2)
    cands = find_candidates(bm)
    assert len(cands) == 1
    assert (cands.a[0], cands.b[0], cands.lower_bounds[0]) == (1, 1, 1.0)


def test_find_candidates_all_zero_keeps_everything():
    bm = compute_bounds(np.zeros((6, 5)), 3, 2)
    cands = find_candidates(bm)
    assert len(cands) == (6 - 3 + 1) * (5 - 2 + 1)
    lbs = cands.lower_bounds
    assert np.all(lbs == 0.0)


def test_find_candidates_planted_zero_diagonal_leaves_one():
    # one placement with an all-zero alignment, everything else expensive
    mat = np.full((8, 8), 10.0)
    for k in range(3):
        mat[2 + k, 4 + k] = 0.0
    bm = compute_bounds(mat, 3, 3)
    cands = find_candidates(bm)
    assert len(cands) == 1 and (cands.a[0], cands.b[0]) == (3, 5)


def test_find_candidates_sorted_by_lower_bound(rng):
    mat = np.abs(rng.normal(size=(20, 18)))
    bm = compute_bounds(mat, 4, 3)
    cands = find_candidates(bm)
    lbs = cands.lower_bounds
    assert np.all(np.diff(lbs) >= 0)


def test_find_optimal_solutions_worked_example():
    m = distance_matrix(U3, W2)
    bm = compute_bounds(m, 2, 2)
    cands = find_candidates(bm)
    res = find_optimal_solutions(m.entries, 2, 2, cands, bm)
    assert res.solutions == frozenset({(1, 1)})
    assert res.shortest_dist == 1.0


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
    assert res.stats.pairs_after_prune == 1
    assert res.stats.dtw_evaluations == 1


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
    for _ in range(8):
        u, w = random_pair(rng, 40, 35, dims=2)
        m = distance_matrix(u, w)
        bm = compute_bounds(m, 6, 5)
        cands = find_candidates(bm)
        fast = find_optimal_solutions(m.entries, 6, 5, cands, bm)
        bf = brute_force_search(u, w, WindowPair(6, 5))
        assert fast.solutions == bf.solutions
        assert fast.shortest_dist == bf.shortest_dist
        assert fast.stats.dtw_evaluations <= len(cands)


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
    _, table = brute_force_search(u, w, wp, opts, return_table=True)
    return sorted((table[i, j], i + 1, j + 1) for i in range(table.shape[0]) for j in range(table.shape[1]))


@pytest.mark.parametrize("radius", [None, 3])
def test_abandoning_keeps_exact_tie_set(rng, radius):
    # 20-row windows, so placements are checked for abandoning four times.
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
    res, table = brute_force_search(U3, W2, WindowPair(2, 2), return_table=True)
    assert res.solutions == frozenset({(1, 1)}) and res.shortest_dist == 1.0
    assert table.ravel().tolist() == [1.0, 2.0]


def test_brute_force_constant_series_all_tie():
    u = TimeSeries(values=np.full(6, 2.5))
    w = TimeSeries(values=np.full(5, 2.5))
    res = brute_force_search(u, w, WindowPair(3, 2))
    assert res.shortest_dist == 0.0
    assert len(res.solutions) == (6 - 3 + 1) * (5 - 2 + 1)


def test_brute_force_table_orientation_under_swap(rng):
    u, w = random_pair(rng, 20, 26)
    res, table = brute_force_search(u, w, WindowPair(4, 7), return_table=True)
    assert res.swapped
    assert table.shape == (20 - 4 + 1, 26 - 7 + 1)
    m = distance_matrix(u, w)
    assert table[2, 3] == naive_dtw(m.entries, 4, 7, (3, 4))


def test_top_k_head_matches_most_similar(rng):
    u, w = random_pair(rng, 30, 30, dims=2)
    best = infer_most_similar(u, w, WindowPair(5, 5))
    tk = top_k_search(u, w, WindowPair(5, 5), 1)
    assert tk.matches[0].distance == best.shortest_dist
    assert (tk.matches[0].a, tk.matches[0].b) in best.solutions


def test_top_k_worked_example():
    tk = top_k_search(U3, W2, WindowPair(2, 2), 2)
    got = [(m.rank, m.a, m.b, m.distance) for m in tk.matches]
    assert got == [(1, 1, 1, 1.0), (2, 2, 1, 2.0)]


def test_top_k_full_ranking_equals_sorted_brute_table(rng):
    u, w = random_pair(rng, 24, 21)
    bf, table = brute_force_search(u, w, WindowPair(6, 4), return_table=True)
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
    }
    assert doc["stats"]["dp_cells"] == 4  # one 2x2 placement evaluated
    tk = top_k_search(U3, W2, WindowPair(2, 2), 2)
    arr = topk_to_json_list(tk)
    assert arr[0] == {"rank": 1, "a": 1, "b": 1, "distance": 1.0}


def test_normalized_search_flag(rng):
    u, w = random_pair(rng, 30, 30)
    res = infer_most_similar(u, w, WindowPair(6, 6), SearchOptions(normalize="zscore"))
    assert res.normalized
    bf = brute_force_search(u, w, WindowPair(6, 6), SearchOptions(normalize="zscore"))
    assert res.solutions == bf.solutions
