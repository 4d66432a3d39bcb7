"""Synthetic series with planted variable-length motifs and mixed noise.

Backgrounds follow an order-20 moving-average model: each value is the
unnormalized sum of the last 20 i.i.d. N(0, 4) innovations, drawn
independently per series. The second series' motif is planted at the
first motif's position shifted by `delay` (clamped to fit). Motifs are
single-period sines of amplitude 1 written over the background, so the
ground-truth interval is unambiguous.

Two deliberate choices keep the planted pair the unique strong match.
The MA sum is not normalized by its order, so background excursions dwarf
the motif amplitude and any background-to-background alignment costs far
more than the motif pair. And each series draws its own innovations:
lag-sharing one background would make the shared segments self-match
almost as well as the motifs, leaving recovery ill-posed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InvalidGamma, InvalidSpec, TimeSeries, is_integer

MA_ORDER = 20
INNOVATION_VARIANCE = 4.0


@dataclass(frozen=True)
class SimulationSpec:
    """Parameters of one simulated series pair; the innovation variance is fixed (INNOVATION_VARIANCE)."""

    length_u: int
    length_w: int
    motif_len_u: int = 60
    motif_len_w: int = 80
    delay: int = 20
    gamma: float = 0.0
    seed: int = 0
    dims: int = 1

    def __post_init__(self):
        for name in ("length_u", "length_w", "motif_len_u", "motif_len_w", "dims"):
            v = getattr(self, name)
            if not is_integer(v) or v < 1:
                raise InvalidSpec(f"{name} must be a positive integer, got {v!r}")
        if self.motif_len_u > self.length_u or self.motif_len_w > self.length_w:
            raise InvalidSpec("motif lengths must not exceed series lengths")
        if not 0.0 <= self.gamma <= 1.0:
            raise InvalidSpec(f"gamma must lie in [0, 1], got {self.gamma}")


@dataclass(frozen=True)
class GroundTruth:
    """Planted motif intervals, 1-based inclusive (start, end)."""

    interval_u: tuple
    interval_w: tuple

    def __post_init__(self):
        for name in ("interval_u", "interval_w"):
            s, e = getattr(self, name)
            if not (1 <= s <= e):
                raise InvalidSpec(f"{name} must satisfy 1 <= start <= end, got ({s},{e})")
            object.__setattr__(self, name, (int(s), int(e)))


def _ma_background(rng: np.random.Generator, length: int, dims: int) -> np.ndarray:
    innovations = rng.normal(0.0, np.sqrt(INNOVATION_VARIANCE), size=(length + MA_ORDER - 1, dims))
    kernel = np.ones(MA_ORDER)
    return np.column_stack(
        [np.convolve(innovations[:, d], kernel, mode="valid") for d in range(dims)]
    )


def _sine_motif(length: int, dims: int) -> np.ndarray:
    wave = np.sin(2.0 * np.pi * np.arange(length) / length)
    return np.repeat(wave[:, None], dims, axis=1)


def generate_pair(spec: SimulationSpec):
    """Deterministic (U, W, ground truth) for one simulation spec.

    The motif position in U is drawn uniformly; the position in W is the
    U position shifted by spec.delay and clamped into range. With
    gamma > 0, both series are independently mixed with uniform noise.
    """
    rng = np.random.default_rng(spec.seed)
    u_vals = _ma_background(rng, spec.length_u, spec.dims)
    w_vals = _ma_background(rng, spec.length_w, spec.dims)

    pos_u = int(rng.integers(0, spec.length_u - spec.motif_len_u + 1))
    pos_w = int(np.clip(pos_u + spec.delay, 0, spec.length_w - spec.motif_len_w))
    u_vals[pos_u : pos_u + spec.motif_len_u] = _sine_motif(spec.motif_len_u, spec.dims)
    w_vals[pos_w : pos_w + spec.motif_len_w] = _sine_motif(spec.motif_len_w, spec.dims)

    u = TimeSeries(values=u_vals)
    w = TimeSeries(values=w_vals)
    if spec.gamma > 0:
        noise_seeds = rng.integers(0, 2**63 - 1, size=2)
        u = add_noise(u, spec.gamma, int(noise_seeds[0]))
        w = add_noise(w, spec.gamma, int(noise_seeds[1]))

    gt = GroundTruth(
        interval_u=(pos_u + 1, pos_u + spec.motif_len_u),
        interval_w=(pos_w + 1, pos_w + spec.motif_len_w),
    )
    return u, w, gt


def add_noise(w: TimeSeries, gamma: float, seed: int) -> TimeSeries:
    """Convex mix of a series with per-dimension uniform noise.

    Noise is drawn over [min, max] of each dimension of the clean series,
    which keeps gamma comparable across differently scaled series. The
    output is (1-gamma)*w + gamma*noise, deterministic given the seed.
    """
    if not 0.0 <= gamma <= 1.0:
        raise InvalidGamma(f"gamma must lie in [0, 1], got {gamma}")
    if gamma == 0.0:
        return w
    rng = np.random.default_rng(seed)
    vals = w.values
    lo = vals.min(axis=0)
    hi = vals.max(axis=0)
    noise = rng.uniform(lo, hi, size=vals.shape)
    return TimeSeries(values=(1.0 - gamma) * vals + gamma * noise)
