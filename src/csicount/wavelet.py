"""Daubechies-4 wavelet decomposition and energy/variance features.

The cascade splits a signal (or every column of a matrix at once) into
detail coefficients at levels 1..L (level 1 = highest frequency band) plus a
final approximation, using the 4-tap orthonormal Daubechies filter with
periodic boundary handling, so energy is conserved exactly and the transform
inverts perfectly whenever every level splits an even-length signal.

Feature extraction summarizes each level over fixed windows of the original
time axis: detail coefficient n at level l sits at sample n * 2^l, and each
128-sample window contributes the mean of the squared coefficients it covers
(an energy row) and their variance (a variance row), giving a 2L x n_windows
matrix (20 rows for 10 levels), averaged over columns decomposed together.
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


@dataclass(frozen=True)
class WaveletDecomposition:
    """Details per level (level 1 first), final approximation, input length."""

    details: tuple
    approx: np.ndarray
    signal_len: int

    @property
    def levels(self) -> int:
        return len(self.details)


def _analyze(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One periodic analysis step along axis 0: x -> (approx, detail), halving it."""
    n = x.shape[0]
    taps = [x[(np.arange(0, n, 2) + k) % n] for k in range(4)]
    approx = sum(h * tap for h, tap in zip(D4_LOWPASS, taps))
    return approx, sum(g * tap for g, tap in zip(D4_HIGHPASS, taps))


def _synthesize(approx: np.ndarray, detail: np.ndarray) -> np.ndarray:
    """Inverse of _analyze for even-length signals."""
    half = approx.shape[0]
    n = 2 * half
    idx = (2 * np.arange(half)[:, None] + np.arange(4)[None, :]) % n
    out = np.zeros(n)
    np.add.at(out, idx, approx[:, None] * D4_LOWPASS[None, :])
    np.add.at(out, idx, detail[:, None] * D4_HIGHPASS[None, :])
    return out


def _cascade(x: np.ndarray, levels: int) -> WaveletDecomposition:
    """Validated analysis cascade along axis 0 (shared by both entry points)."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if x.shape[0] < 2**levels:
        raise ValueError(
            f"signal length {x.shape[0]} is shorter than 2^{levels} = {2**levels}"
        )
    if not np.isfinite(x).all():
        raise ValueError("signal contains non-finite values")
    n0 = x.shape[0]
    details = []
    for _ in range(levels):
        x, d = _analyze(x)
        details.append(d)
    return WaveletDecomposition(tuple(details), x, n0)


def dwt_decompose(signal, levels: int = 10) -> WaveletDecomposition:
    """Run the analysis cascade for `levels` levels.

    Requires len(signal) >= 2^levels.  Level l has ceil(len / 2^l)
    coefficients; when the length is divisible by 2^levels every split is
    exact and the transform is orthonormal.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("expected a 1-D signal")
    return _cascade(x, levels)


def dwt_reconstruct(decomp: WaveletDecomposition) -> np.ndarray:
    """Invert a decomposition whose every level split an even length."""
    x = np.asarray(decomp.approx, dtype=np.float64)
    for d in reversed(decomp.details):
        if d.shape[0] != x.shape[0]:
            raise ValueError(
                "inconsistent level lengths (decomposition of a length not "
                "divisible by 2^levels cannot be inverted)"
            )
        x = _synthesize(x, d)
    if x.shape[0] != decomp.signal_len:
        raise ValueError("reconstruction length disagrees with the original signal")
    return x


def extract_features(decomp: WaveletDecomposition, window: int = 128) -> np.ndarray:
    """Per-level energy and variance of squared details over time windows.

    Returns a (2 * levels, n_windows) matrix: row l-1 is the energy of level
    l, row levels + l - 1 its variance.

    Window j covers original samples [j * window, (j + 1) * window); detail
    coefficient n at level l is assigned to the window containing sample
    n * 2^l.  Windows that receive no coefficient at a level carry the
    level's last defined value forward.  Only complete windows are kept.
    Details of shape (n_l, k), a cascade over k columns, give the mean of
    the k columns' matrices; details of shape (n_l, B, k) give B of them.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    n_windows = decomp.signal_len // window
    if n_windows < 1:
        raise ValueError("signal shorter than one feature window")
    levels = decomp.levels
    batch = decomp.details[0].shape[1:-1]
    values = np.zeros((2 * levels, n_windows) + batch)
    for lv, detail in enumerate(decomp.details, start=1):
        pos = np.arange(detail.shape[0]) * (2**lv) // window
        pos = pos[pos < n_windows]
        starts = np.flatnonzero(np.diff(pos, prepend=-1))
        counts = np.diff(starts, append=pos.size)
        sq = detail[: pos.size].reshape(pos.size, *batch, -1) ** 2
        per_run = counts.reshape(-1, *(1,) * (sq.ndim - 1))
        energy = np.add.reduceat(sq, starts, axis=0) / per_run
        dev = (sq - np.repeat(energy, counts, axis=0)) ** 2
        variance = np.add.reduceat(dev, starts, axis=0) / per_run
        fill = np.searchsorted(pos[starts], np.arange(n_windows), side="right")
        for row, runs in ((lv - 1, energy), (levels + lv - 1, variance)):
            values[row] = np.concatenate([np.zeros_like(runs[:1]), runs])[fill].mean(axis=-1)
    return np.moveaxis(values, (0, 1), (-2, -1))


def feature_matrix_from_components(
    components: np.ndarray, levels: int = 10, window: int = 128
) -> np.ndarray:
    """Average the feature matrices of several component signals.

    `components` is (n_samples, n_components); one cascade decomposes all
    columns at once and extract_features averages their matrices, yielding
    one (2 * levels, n_windows) matrix for the whole set.  A (..., n_samples,
    n_components) stack yields one matrix per set from the same cascade.
    """
    comp = np.asarray(components, dtype=np.float64)
    comp = comp[:, None] if comp.ndim == 1 else comp
    if comp.shape[-1] < 1:
        raise ValueError("need at least one component")
    return extract_features(_cascade(np.moveaxis(comp, -2, 0), levels), window)
