import numpy as np
import pytest

from dtwsearch import (
    InvalidGamma,
    InvalidSpec,
    SimulationSpec,
    TimeSeries,
    WindowPair,
    add_noise,
    brute_force_search,
    distance_matrix,
    dtw_windowed,
    generate_pair,
    infer_most_similar,
)
from dtwsearch.evaluation import score_intervals


def test_determinism_is_bitwise():
    spec = SimulationSpec(length_u=300, length_w=280, gamma=0.3, seed=42, dims=2)
    u1, w1, g1 = generate_pair(spec)
    u2, w2, g2 = generate_pair(spec)
    assert np.array_equal(u1.values, u2.values)
    assert np.array_equal(w1.values, w2.values)
    assert g1 == g2


def test_different_seeds_differ():
    a = generate_pair(SimulationSpec(length_u=200, length_w=200, seed=1))
    b = generate_pair(SimulationSpec(length_u=200, length_w=200, seed=2))
    assert not np.array_equal(a[0].values, b[0].values)


def test_ground_truth_records_motif_lengths():
    spec = SimulationSpec(length_u=500, length_w=500, motif_len_u=60, motif_len_w=80, seed=9)
    u, w, gt = generate_pair(spec)
    assert gt.interval_u[1] - gt.interval_u[0] + 1 == 60
    assert gt.interval_w[1] - gt.interval_w[0] + 1 == 80
    # the planted segment really is the unit sine
    s, e = gt.interval_u
    expected = np.sin(2 * np.pi * np.arange(60) / 60)
    assert np.allclose(u.values[s - 1 : e, 0], expected)


def test_motif_spanning_whole_series():
    spec = SimulationSpec(length_u=64, length_w=64, motif_len_u=64, motif_len_w=64, seed=5)
    u, w, gt = generate_pair(spec)
    assert gt.interval_u == (1, 64)
    assert gt.interval_w == (1, 64)


def test_delay_offsets_motif_when_room():
    spec = SimulationSpec(length_u=400, length_w=400, motif_len_u=40, motif_len_w=40, delay=25, seed=3)
    _, _, gt = generate_pair(spec)
    assert gt.interval_w[0] - gt.interval_u[0] == 25


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        SimulationSpec(length_u=50, length_w=50, motif_len_u=60)
    with pytest.raises(InvalidSpec):
        SimulationSpec(length_u=50, length_w=50, gamma=1.5)


def test_add_noise_gamma_zero_identity(rng):
    w = TimeSeries(values=rng.normal(size=(50, 2)))
    assert np.array_equal(add_noise(w, 0.0, 7).values, w.values)


def test_add_noise_gamma_one_within_bounds(rng):
    w = TimeSeries(values=rng.normal(size=(80, 2)))
    noisy = add_noise(w, 1.0, 7)
    for d in range(2):
        col = w.values[:, d]
        assert noisy.values[:, d].min() >= col.min() - 1e-12
        assert noisy.values[:, d].max() <= col.max() + 1e-12


def test_add_noise_constant_series_stays_constant():
    w = TimeSeries(values=np.full(30, 7.0))
    noisy = add_noise(w, 0.5, 11)
    assert np.all(noisy.values == noisy.values[0, 0])
    assert noisy.values[0, 0] == 7.0


def test_add_noise_mix_bounds_property(rng):
    w = TimeSeries(values=rng.normal(size=(60, 3)))
    gamma = 0.4
    noisy = add_noise(w, gamma, 13)
    for d in range(3):
        col = w.values[:, d]
        lo, hi = col.min(), col.max()
        mixed_lo = np.minimum((1 - gamma) * col + gamma * lo, (1 - gamma) * col + gamma * hi).min()
        mixed_hi = np.maximum((1 - gamma) * col + gamma * lo, (1 - gamma) * col + gamma * hi).max()
        assert noisy.values[:, d].min() >= mixed_lo - 1e-12
        assert noisy.values[:, d].max() <= mixed_hi + 1e-12


def test_add_noise_rejects_bad_gamma(rng):
    w = TimeSeries(values=rng.normal(size=(10, 1)))
    with pytest.raises(InvalidGamma):
        add_noise(w, -0.1, 1)
    with pytest.raises(InvalidGamma):
        add_noise(w, 1.1, 1)


def test_planted_segments_beat_random_placements():
    # clean motif pair distance sits below the median of random placements
    below = 0
    for seed in range(20):
        spec = SimulationSpec(length_u=300, length_w=300, motif_len_u=30, motif_len_w=40, seed=seed)
        u, w, gt = generate_pair(spec)
        m = distance_matrix(u, w)
        motif_d = dtw_windowed(m, 30, 40, (gt.interval_u[0], gt.interval_w[0]))
        rng = np.random.default_rng(seed)
        sample = [
            dtw_windowed(m, 30, 40, (int(rng.integers(1, 300 - 30 + 2)), int(rng.integers(1, 300 - 40 + 2))))
            for _ in range(30)
        ]
        if motif_d < np.median(sample):
            below += 1
    assert below == 20


def test_end_to_end_recovery_clean():
    spec = SimulationSpec(length_u=2000, length_w=2000, motif_len_u=60, motif_len_w=80, gamma=0.0, seed=12, dims=2)
    u, w, gt = generate_pair(spec)
    res = infer_most_similar(u, w, WindowPair(60, 80))
    a, b = sorted(res.solutions)[0]
    counts = score_intervals((a, a + 59), (b, b + 79), gt)
    assert counts.f1 >= 0.9


def test_end_to_end_matches_brute_force():
    spec = SimulationSpec(length_u=350, length_w=350, motif_len_u=60, motif_len_w=80, gamma=0.0, seed=4, dims=2)
    u, w, gt = generate_pair(spec)
    sp = infer_most_similar(u, w, WindowPair(60, 80))
    bf = brute_force_search(u, w, WindowPair(60, 80))
    assert sp.solutions == bf.solutions
    assert abs(sp.shortest_dist - bf.shortest_dist) <= 1e-9
