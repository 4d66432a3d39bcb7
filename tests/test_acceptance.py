"""Acceptance gate: one test per numbered criterion, each printing a
PASS/FAIL line (run with -s to see them). Criteria 7 and 8 depend on
real-world fixtures under data/ and skip with a warning when absent.
"""
import statistics
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from dtwsearch import (
    SearchOptions,
    SimulationSpec,
    TimeSeries,
    WindowPair,
    brute_force_search,
    compute_bounds,
    default_band_radius,
    distance_matrix,
    dtw_batch,
    dtw_path_oracle,
    generate_pair,
    infer_most_similar,
    lead_difference,
    score_intervals,
    top_k_search,
    upper_bound_matrix,
)
from dtwsearch.cli import ingest_csv

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
REL_TOL = 1e-9
TIE_GROUP = 1e-9


def _report(name: str, ok: bool, detail: str = "") -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" — {detail}"
    print(line)
    return ok


def test_criterion_1_exactness_on_200_random_instances():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(20, 121))
        m = int(rng.integers(20, 121))
        dims = int(rng.choice([1, 3]))
        wu = int(rng.integers(3, 16))
        ww = int(rng.integers(3, 16))
        u = TimeSeries(values=rng.normal(size=(n, dims)))
        w = TimeSeries(values=rng.normal(size=(m, dims)))
        sp = infer_most_similar(u, w, WindowPair(wu, ww))
        bf = brute_force_search(u, w, WindowPair(wu, ww))
        assert abs(sp.shortest_dist - bf.shortest_dist) <= REL_TOL * max(1.0, abs(bf.shortest_dist))
        assert sp.solutions == bf.solutions
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    assert _report(
        "criterion 1: pruned search equals brute force on 200 random instances",
        ok,
        f"{elapsed:.1f}s, tie grouping {TIE_GROUP}",
    )


def test_criterion_2_bound_sandwich_10000_samples():
    rng = np.random.default_rng(202)
    checked = 0
    violations = 0
    while checked < 10_000:
        n = int(rng.integers(30, 100))
        m = int(rng.integers(30, 100))
        dims = int(rng.choice([1, 2]))
        ww = int(rng.integers(2, 12))
        wu = int(rng.integers(ww, 15))
        if wu > n or ww > m:
            continue
        u = TimeSeries(values=rng.normal(size=(n, dims)))
        w = TimeSeries(values=rng.normal(size=(m, dims)))
        mat = distance_matrix(u, w)
        bm = compute_bounds(mat, wu, ww)
        pa, pb = bm.min_path.shape
        count = min(200, pa * pb)
        ii = rng.integers(0, pa, size=count)
        jj = rng.integers(0, pb, size=count)
        exact, _ = dtw_batch(mat, wu, ww, ii, jj)
        low = bm.min_path[ii, jj]
        up = upper_bound_matrix(mat, wu, ww)[ii, jj]
        violations += int(np.sum(low > exact * (1 + REL_TOL) + REL_TOL))
        violations += int(np.sum(exact > up * (1 + REL_TOL) + REL_TOL))
        checked += count
    ok = violations == 0
    assert _report(
        "criterion 2: lower bound <= exact DTW <= upper bound on 10,000 samples",
        ok,
        f"{checked} samples, {violations} violations",
    )


def test_criterion_3_recurrence_equals_path_enumeration():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(6, 10))
        m = int(rng.integers(6, 10))
        mat = np.abs(rng.normal(size=(n, m)))
        for wu in range(1, 7):
            for ww in range(1, 7):
                a = int(rng.integers(1, n - wu + 2))
                b = int(rng.integers(1, m - ww + 2))
                oracle_val, _ = dtw_path_oracle(mat, wu, ww, (a, b))
                diff = abs(dtw_batch(mat, wu, ww, [a - 1], [b - 1])[0][0] - oracle_val)
                worst = max(worst, diff)
                assert diff <= 1e-12
    assert _report(
        "criterion 3: DP recurrence equals literal path enumeration (all windows <= 6, 500 matrices)",
        True,
        f"max |diff| = {worst:.2e}",
    )


def test_criterion_4_speedup_at_scale():
    spec = SimulationSpec(
        length_u=2000, length_w=2000, motif_len_u=60, motif_len_w=80,
        delay=20, gamma=0.1, seed=7, dims=2,
    )
    u, w, gt = generate_pair(spec)
    wp = WindowPair(60, 80)
    sp_times, bf_times = [], []
    sp_res = bf_res = None
    for _ in range(3):
        sp_res = infer_most_similar(u, w, wp)
        sp_times.append(sp_res.stats.runtime_ms)
        bf_res = brute_force_search(u, w, wp)
        bf_times.append(bf_res.stats.runtime_ms)
    assert sp_res.solutions == bf_res.solutions
    sp_med = statistics.median(sp_times)
    bf_med = statistics.median(bf_times)
    eval_frac = sp_res.stats.dtw_evaluations / sp_res.stats.pairs_total
    ok = sp_med <= 0.5 * bf_med and eval_frac <= 0.2
    assert _report(
        "criterion 4: pruned search at n=m=2000 within half the brute-force time",
        ok,
        f"median SP {sp_med/1e3:.1f}s vs brute {bf_med/1e3:.1f}s "
        f"(ratio {sp_med/bf_med:.3f}); DTW evaluations {eval_frac:.3f} of all pairs",
    )


def test_criterion_5_noise_robustness_trend():
    gammas = (0.1, 0.2, 0.3, 0.4, 0.5)
    means = {}
    for gamma in gammas:
        f1s = []
        for seed in range(20):
            spec = SimulationSpec(
                length_u=400, length_w=400, motif_len_u=60, motif_len_w=80,
                delay=20, gamma=gamma, seed=seed, dims=2,
            )
            u, w, gt = generate_pair(spec)
            res = infer_most_similar(u, w, WindowPair(60, 80))
            a, b = sorted(res.solutions)[0]
            f1s.append(score_intervals((a, a + 59), (b, b + 79), gt).f1)
        means[gamma] = float(np.mean(f1s))
    low_noise_mean = float(np.mean([means[0.1], means[0.2]]))
    ok = means[0.1] >= means[0.5] and low_noise_mean >= 0.7
    assert _report(
        "criterion 5: F1 degrades with noise, high at gamma <= 0.2",
        ok,
        "mean F1 per gamma: " + ", ".join(f"{g}: {means[g]:.3f}" for g in gammas),
    )


def test_criterion_6_window_sweep_identical_optima():
    rows = []
    ok = True
    for window in (40, 80, 120, 200):
        spec = SimulationSpec(
            length_u=400, length_w=400, motif_len_u=window, motif_len_w=window,
            delay=20, gamma=0.1, seed=11, dims=2,
        )
        u, w, gt = generate_pair(spec)
        wp = WindowPair(window, window)
        radius = default_band_radius(window, window)
        bf = brute_force_search(u, w, wp)
        sp = infer_most_similar(u, w, wp)
        sc = brute_force_search(u, w, wp, SearchOptions(band_radius=radius))
        sp_sc = infer_most_similar(u, w, wp, SearchOptions(band_radius=radius))
        same = (
            sp.solutions == bf.solutions
            and abs(sp.shortest_dist - bf.shortest_dist) <= REL_TOL * max(1.0, bf.shortest_dist)
        )
        same_banded = sc.solutions == sp_sc.solutions
        ok = ok and same and same_banded
        rows.append(
            f"w={window}: brute {bf.stats.runtime_ms/1e3:.2f}s, sc {sc.stats.runtime_ms/1e3:.2f}s, "
            f"sp {sp.stats.runtime_ms/1e3:.2f}s, sp+sc {sp_sc.stats.runtime_ms/1e3:.2f}s"
        )
    print("window sweep curves (length 400):")
    for row in rows:
        print("  " + row)
    assert _report("criterion 6: every exact method agrees across the window sweep", ok)


def test_criterion_7_stock_case_study():
    stocks = DATA_DIR / "stocks"
    paths = {name: stocks / f"{name}.csv" for name in ("NVDA", "VSH", "TSN")}
    if not all(p.exists() for p in paths.values()):
        print("[SKIP] criterion 7: stock fixtures absent (see data/README.md)")
        pytest.skip("stock fixtures not present under data/stocks/")
    series = {name: ingest_csv(p) for name, p in paths.items()}
    opts = SearchOptions(normalize="zscore")
    wp = WindowPair(90, 90)
    related = infer_most_similar(series["NVDA"], series["VSH"], wp, opts)
    unrelated = infer_most_similar(series["NVDA"], series["TSN"], wp, opts)
    ok = related.shortest_dist < unrelated.shortest_dist
    near_paper = (
        abs(related.shortest_dist - 1.601) <= 0.05
        and abs(unrelated.shortest_dist - 1.856) <= 0.05
    )
    assert _report(
        "criterion 7: related-sector pair closer than unrelated-sector pair",
        ok,
        f"NVDA-VSH {related.shortest_dist:.3f} vs NVDA-TSN {unrelated.shortest_dist:.3f}"
        + ("; matches published values within 0.05" if near_paper else ""),
    )


def test_criterion_8_baboon_case_study():
    baboons = DATA_DIR / "baboons"
    files = sorted(baboons.glob("ID*.csv")) if baboons.is_dir() else []
    if len(files) != 16:
        print("[SKIP] criterion 8: baboon fixtures absent (see data/README.md)")
        pytest.skip("baboon fixtures not present under data/baboons/")
    series = {p.stem: ingest_csv(p) for p in files}
    ids = sorted(series)
    wp = WindowPair(60, 60)

    def row_sums(lo, hi):
        sliced = {sid: TimeSeries(values=ts.values[lo - 1 : hi]) for sid, ts in series.items()}
        matches = {}
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                res = top_k_search(sliced[ids[i]], sliced[ids[j]], wp, 1000)
                pairs = [(m.a, m.b) for m in res.matches]
                matches[(ids[i], ids[j])] = pairs
                matches[(ids[j], ids[i])] = [(b, a) for a, b in pairs]
        cells = lead_difference(matches)
        return {
            leader: sum(cells[(leader, f)].difference for f in ids if f != leader)
            for leader in ids
        }

    first = row_sums(1, 100)
    last = row_sums(101, 600)
    lead_first = max(first, key=first.get)
    lead_last = max(last, key=last.get)
    ok = lead_first == "ID3" and lead_last == "ID1"
    assert _report(
        "criterion 8: ID3 leads the first 100 s, ID1 the last 500 s",
        ok,
        f"first segment leader {lead_first}, last segment leader {lead_last}",
    )


def test_criterion_9_property_suites_seeded():
    prof = settings()
    ok = prof.derandomize and prof.max_examples >= 10
    assert _report(
        "criterion 9: property suites run derandomized in this session",
        ok,
        f"max_examples={prof.max_examples}; the module property tests execute in the same pytest run",
    )
