"""The benchmark's inputs: the series it generates and the fixed query lists.

The generator lives here, not in the program, so that the inputs (and the
stored reference table computed from them) stay the same whatever the
program's own simulator does. It follows the model the program documents:
an order-20 moving-average background of N(0, 4) innovations, a single
period of a unit sine planted as the motif, and a convex mix with uniform
noise over each dimension's [min, max].

Each workload issues the same fixed list of queries in every run; the
run's ``--seed`` only sets the order in which each round issues them, so
every run does the same work and every answer can be checked against the
stored brute-force table.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

MA_ORDER = 20
DIMS = 2
MOTIF_DELAY = 20  # steps by which the motif in b follows the one in a
JITTER = 0.15  # sd of each troop member's own steps


@dataclass(frozen=True)
class PairSpec:
    """Two simulated series sharing a planted motif as long as the workload's windows."""

    seed: int
    length_a: int
    length_b: int
    gamma: float


@dataclass(frozen=True)
class TroopSpec:
    """A small group of 2-dim step tracks; each follows a shared route with a lag."""

    seed: int
    lengths: tuple
    lags: tuple


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    kind is "search" (``infer_most_similar`` on each pair) or "topk"
    (``top_k_search`` on every pair of one troop, folded through
    ``lead_difference``).
    """

    name: str
    kind: str
    window_a: int
    window_b: int
    pairs: tuple = ()
    troop: TroopSpec | None = None
    band_radius: int | None = None
    normalize: str = "none"
    k: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="search-easy",
            kind="search",
            window_a=80,
            window_b=60,
            pairs=(
                PairSpec(seed=11, length_a=760, length_b=700, gamma=0.1),
                PairSpec(seed=12, length_a=820, length_b=760, gamma=0.1),
                PairSpec(seed=13, length_a=880, length_b=820, gamma=0.1),
            ),
        ),
        Workload(
            name="search-banded-grid",
            kind="search",
            window_a=80,
            window_b=60,
            band_radius=8,
            pairs=(
                PairSpec(seed=21, length_a=1900, length_b=1860, gamma=0.05),
                PairSpec(seed=22, length_a=1950, length_b=1900, gamma=0.05),
                PairSpec(seed=23, length_a=2000, length_b=1940, gamma=0.05),
            ),
        ),
        Workload(
            name="topk-lead",
            kind="topk",
            window_a=60,
            window_b=60,
            normalize="zscore",
            k=1000,
            troop=TroopSpec(seed=31, lengths=(270, 280, 290, 300), lags=(0, 5, 11, 18)),
        ),
    )
}


def _ma_background(rng: np.random.Generator, length: int) -> np.ndarray:
    innovations = rng.normal(0.0, 2.0, size=(length + MA_ORDER - 1, DIMS))
    kernel = np.ones(MA_ORDER)
    return np.column_stack(
        [np.convolve(innovations[:, d], kernel, mode="valid") for d in range(DIMS)]
    )


def _mix_noise(rng: np.random.Generator, vals: np.ndarray, gamma: float) -> np.ndarray:
    if gamma == 0.0:
        return vals
    noise = rng.uniform(vals.min(axis=0), vals.max(axis=0), size=vals.shape)
    return (1.0 - gamma) * vals + gamma * noise


def make_pair(spec: PairSpec, motif_a: int, motif_b: int):
    """(a, b) float64 arrays of shape (length, DIMS) for one pair spec."""
    rng = np.random.default_rng(spec.seed)
    a = _ma_background(rng, spec.length_a)
    b = _ma_background(rng, spec.length_b)
    pos_a = int(rng.integers(0, spec.length_a - motif_a + 1))
    pos_b = int(np.clip(pos_a + MOTIF_DELAY, 0, spec.length_b - motif_b))
    for vals, pos, length in ((a, pos_a, motif_a), (b, pos_b, motif_b)):
        wave = np.sin(2.0 * np.pi * np.arange(length) / length)
        vals[pos : pos + length] = wave[:, None]
    return _mix_noise(rng, a, spec.gamma), _mix_noise(rng, b, spec.gamma)


def make_troop(spec: TroopSpec) -> list:
    """One float64 array of shape (length, DIMS) per member of the troop.

    Each member's series is its step (velocity) track: the steps of one
    shared route, lagged by lags[i], plus the member's own jitter. The
    route's steps are a smooth moving average, but the jitter makes every
    window resemble many others, which is the case where the top-k
    threshold keeps almost every placement.
    """
    rng = np.random.default_rng(spec.seed)
    total = max(spec.lengths) + max(spec.lags)
    route = _ma_background(rng, total) / MA_ORDER
    out = []
    for length, lag in zip(spec.lengths, spec.lags):
        steps = route[max(spec.lags) - lag :][:length]
        out.append(steps + rng.normal(0.0, JITTER, size=steps.shape))
    return out


def series_for(workload: Workload) -> list:
    """Every series of a workload, in a fixed order (pairs flattened a, b)."""
    if workload.kind == "topk":
        return make_troop(workload.troop)
    out = []
    for spec in workload.pairs:
        out.extend(make_pair(spec, workload.window_a, workload.window_b))
    return out


def queries_for(workload: Workload) -> list:
    """The fixed query list as (query id, index of series a, index of series b)."""
    if workload.kind == "topk":
        n = len(workload.troop.lengths)
        return [(f"pair{i}-{j}", i, j) for i in range(n) for j in range(i + 1, n)]
    return [(f"pair{p}", 2 * p, 2 * p + 1) for p in range(len(workload.pairs))]


def digest(arrays) -> str:
    """A fingerprint of the generated inputs, stored with the reference table."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()
