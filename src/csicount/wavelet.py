"""Daubechies-4 wavelet decomposition and energy/variance features.

One cascade, dwt_decompose, splits a signal (or every column of a matrix,
or of a stack, at once) along axis 0 into detail coefficients at levels
1..L (level 1 = highest frequency band) plus a final approximation, using
the 4-tap orthonormal Daubechies filter with periodic boundary handling.
Whenever every level splits an even-length signal the cascade is an
orthonormal linear map: energy is conserved exactly and no information is
lost.  Only the analysis direction exists, since the activity features
read band energies and never synthesise a signal.

Feature extraction summarizes each level over fixed windows of the original
time axis: detail coefficient n at level l sits at sample n * 2^l, and each
128-sample window contributes the mean of the squared coefficients it covers
(an energy row) and their variance (a variance row), giving a 2L x n_windows
matrix (20 rows for 10 levels), averaged over columns decomposed together.
The window is 2^7 samples so that the levels tile it: each window holds
2^(7-l) coefficients of level l <= 7, and above level 7 one coefficient
spans 2^(l-7) windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SQRT3 = np.sqrt(3.0)
# Orthonormal scaling filter: sums to sqrt(2), unit energy.
D4_LOWPASS = np.array(
    [1.0 + _SQRT3, 3.0 + _SQRT3, 3.0 - _SQRT3, 1.0 - _SQRT3]
) / (4.0 * np.sqrt(2.0))
# Quadrature mirror: g[k] = (-1)^k h[3-k]; sums to zero.
D4_HIGHPASS = np.array(
    [D4_LOWPASS[3], -D4_LOWPASS[2], D4_LOWPASS[1], -D4_LOWPASS[0]]
)
WINDOW_LEVEL = 7
FEATURE_WINDOW = 2**WINDOW_LEVEL  # samples summarised per feature column


@dataclass(frozen=True)
class WaveletDecomposition:
    """Details per level (level 1 first), final approximation, input length."""

    details: tuple
    approx: np.ndarray
    signal_len: int


def _analyze(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One periodic analysis step along axis 0: x -> (approx, detail), halving it."""
    n = x.shape[0]
    taps = [x[(np.arange(0, n, 2) + k) % n] for k in range(4)]
    approx = sum(h * tap for h, tap in zip(D4_LOWPASS, taps))
    return approx, sum(g * tap for g, tap in zip(D4_HIGHPASS, taps))


def dwt_decompose(signal, levels: int = 10) -> WaveletDecomposition:
    """Run the analysis cascade along axis 0 for `levels` levels.

    `signal` is one signal, a matrix whose columns are decomposed at once,
    or any stack with time on axis 0.  Requires at least 2^levels samples
    and finite values.  Level l has ceil(n / 2^l) coefficients; when n is
    divisible by 2^levels every split is exact and the transform is
    orthonormal.
    """
    x = np.asarray(signal, dtype=np.float64)
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if x.ndim < 1 or x.shape[0] < 2**levels:
        raise ValueError(f"signal of shape {x.shape} is shorter than 2^{levels} = {2**levels}")
    if not np.isfinite(x).all():
        raise ValueError("signal contains non-finite values")
    n0 = x.shape[0]
    details = []
    for _ in range(levels):
        x, d = _analyze(x)
        details.append(d)
    return WaveletDecomposition(tuple(details), x, n0)


def extract_features(decomp: WaveletDecomposition) -> np.ndarray:
    """Per-level energy and variance of squared details over time windows.

    Returns a (2 * levels, n_windows) matrix: row l-1 is the energy of level
    l, row levels + l - 1 its variance.

    Window j covers original samples [j * 128, (j + 1) * 128); detail
    coefficient n at level l is assigned to the window containing sample
    n * 2^l.  Up to level 7 (128 = 2^7) each window holds 2^(7-l)
    coefficients, reshaped into a row per window; above it a coefficient
    starts every 2^(l-7)-th window and the windows up to the next repeat
    its square, with variance 0.  Only complete windows are kept.  Details
    of shape (n_l, k), a cascade over k columns, give the mean of the k
    columns' matrices; details of shape (n_l, B, k) give B of them.
    """
    n_windows = decomp.signal_len // FEATURE_WINDOW
    if n_windows < 1:
        raise ValueError("signal shorter than one feature window")
    batch = decomp.details[0].shape[1:-1]
    energy, variance = [], []
    for lv, detail in enumerate(decomp.details, start=1):
        sq = detail.reshape(detail.shape[0], *batch, -1) ** 2
        if lv <= WINDOW_LEVEL:
            sq = sq[: n_windows * FEATURE_WINDOW >> lv].reshape(n_windows, -1, *sq.shape[1:])
            energy.append(sq.mean(axis=1))
            variance.append(sq.var(axis=1))
        else:
            energy.append(np.repeat(sq, 2 ** (lv - WINDOW_LEVEL), axis=0)[:n_windows])
            variance.append(np.zeros_like(energy[-1]))
    values = np.stack(energy + variance).mean(axis=-1)
    return np.moveaxis(values, (0, 1), (-2, -1))


def feature_matrix_from_components(components: np.ndarray, levels: int = 10) -> np.ndarray:
    """Average the feature matrices of several component signals.

    `components` is (n_samples, n_components); one dwt_decompose call
    decomposes all columns at once and extract_features averages their
    matrices, yielding one (2 * levels, n_windows) matrix for the whole set.
    A (..., n_samples, n_components) stack yields one matrix per set from
    the same call.
    """
    comp = np.asarray(components, dtype=np.float64)
    if comp.shape[-1] < 1:
        raise ValueError("need at least one component")
    return extract_features(dwt_decompose(np.moveaxis(comp, -2, 0), levels))
