"""Signal conditioning for the two recognition branches.

Activity branch: zero-phase Butterworth low-pass, then PCA across the 180
CSI columns (drop the first principal component, keep the next few, median
filter).  Counting branch: weighted moving average over amplitudes, phase
sanitization, and assembly of standardized fixed-length samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BUTTERWORTH_ORDER = 4
WMA_TAPS = 100
PCA_KEEP = 10


def _fast_len(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= n, from O(log(n)**2) candidates."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def lowpass_pad(rate_hz: float, cutoff_hz: float) -> int:
    """Rows of reflection butterworth_lowpass adds at each end of a long signal."""
    return max(int(3 * rate_hz / cutoff_hz), 16)


def butterworth_lowpass(series, rate_hz: float, cutoff_hz: float):
    """Zero-phase Butterworth low-pass of order BUTTERWORTH_ORDER (4) along
    axis 0 (of any number of axes).

    Realized in the frequency domain with the squared analog magnitude
    response 1 / (1 + (f / cutoff)^(2 * order)) - the zero-phase equivalent
    of running the filter forward and backward - so the attenuation of a
    tone at frequency f matches the analytic curve exactly.  DC gain is 1.
    Reflection padding suppresses circular wrap-around at the ends; unless
    it spans the whole signal, the padded sequence repeats its own samples
    across the wrap point, half from each side, up to _fast_len.
    """
    x = np.asarray(series, dtype=np.float64)
    if not 0 < cutoff_hz < rate_hz / 2:
        raise ValueError("cutoff must lie strictly between 0 and the Nyquist rate")
    shape = x.shape
    x = x.reshape(shape[0], -1)
    n = x.shape[0]
    if n < 2:
        return x.reshape(shape).copy()
    pad = min(n - 1, lowpass_pad(rate_hz, cutoff_hz))
    top = x[1 : pad + 1][::-1]
    bottom = x[-pad - 1 : -1][::-1]
    ext = np.concatenate([2 * x[0] - top, x, 2 * x[-1] - bottom])
    m = ext.shape[0]
    grow = _fast_len(m) - m if pad < n - 1 else 0
    ext = np.concatenate([ext, ext[: grow // 2], ext[m - (grow - grow // 2) :]])
    freqs = np.fft.rfftfreq(ext.shape[0], d=1.0 / rate_hz)
    gain = 1.0 / (1.0 + (freqs / cutoff_hz) ** (2 * BUTTERWORTH_ORDER))
    out = np.fft.irfft(np.fft.rfft(ext, axis=0) * gain[:, None], n=ext.shape[0], axis=0)
    return out[pad : pad + n].reshape(shape)


def pca_denoise(matrix: np.ndarray, keep: int = PCA_KEEP) -> np.ndarray:
    """Drop the dominant component, keep the next `keep`, median filter.

    The first principal component concentrates the common-mode variation
    shared by all CSI columns and is discarded; the returned matrix holds
    components 2 .. keep+1, each smoothed with a 5-point median filter.
    A (..., n, d) stack of matrices is denoised matrix by matrix.
    """
    h = np.asarray(matrix, dtype=np.float64)
    if h.ndim < 2 or h.shape[-2] < 2:
        raise ValueError("need a 2-D matrix with at least two rows")
    d = h.shape[-1]
    if not 1 <= keep <= d - 1:
        raise ValueError(f"keep must be in 1..{d - 1}")
    h = h - h.mean(axis=-2, keepdims=True)
    # eigh sorts ascending: the kept vectors, strongest first, are columns d-2, d-3, ..
    q = np.linalg.eigh(np.swapaxes(h, -1, -2) @ h)[1][..., np.arange(d - 2, d - 2 - keep, -1)]
    # a 5-point median down each component, the ends extended by their edge rows
    edges = np.pad(h @ q, [(0, 0)] * (h.ndim - 2) + [(2, 2), (0, 0)], mode="edge")
    return np.partition(sliding_window_view(edges, 5, axis=-2), 2, axis=-1)[..., 2]


def weighted_moving_average(series):
    """Descending-weight moving average along axis 0, over m = WMA_TAPS (100).

    Output t averages the m most recent samples with weights m, m-1, .., 1
    (newest heaviest).  Early samples where fewer than m values exist use
    the same descending weights over the available prefix, so the output
    length equals the input length.
    """
    x = np.asarray(series, dtype=np.float64)
    m = WMA_TAPS
    shape = x.shape
    x = x.reshape(shape[0], -1)
    n = x.shape[0]
    size = _fast_len(n + m - 1)  # long enough that the convolution does not wrap
    kernel = np.fft.rfft(np.arange(m, 0, -1, dtype=np.float64), size)  # weight m on lag 0
    num = np.fft.irfft(np.fft.rfft(x, size, axis=0) * kernel[:, None], size, axis=0)[:n]
    lags = np.minimum(np.arange(n), m - 1)
    denom = m * (lags + 1) - lags * (lags + 1) / 2.0  # sum of m, m-1, .., m-lags
    return (num / denom[:, None]).reshape(shape)


def sanitize_phase(phase_matrix: np.ndarray, n_streams: int = 6, n_sub: int = 30) -> np.ndarray:
    """Remove the linear-in-subcarrier phase error from every time sample.

    For each time sample: unwrap each stream's phases along the subcarrier
    axis, average the unwrapped phases across streams, fit a degree-1
    polynomial against the subcarrier index, and subtract the slope term
    (only) from every stream.  The constant offset is deliberately kept.
    Input and output are (n_frames, n_streams * n_sub), stream-major.
    """
    p = np.asarray(phase_matrix, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != n_streams * n_sub:
        raise ValueError(f"expected (n_frames, {n_streams * n_sub}), got {p.shape}")
    if n_sub < 2:
        raise ValueError("need at least two subcarriers to fit a slope")
    t = p.shape[0]
    # np.unwrap(axis=2) bit for bit, its wrap arithmetic done only where |step| >= pi
    u = p.reshape(t, n_streams, n_sub).copy()
    step = np.diff(u, axis=2)
    wraps = ~(np.abs(step) < np.pi)
    jump = step[wraps]
    folded = np.mod(jump + np.pi, 2 * np.pi) - np.pi
    folded[(folded == -np.pi) & (jump > 0)] = np.pi
    correction = np.zeros_like(step)
    correction[wraps] = folded - jump
    u[..., 1:] += correction.cumsum(axis=2)
    y = u.mean(axis=1)  # (t, n_sub)
    x = np.arange(n_sub, dtype=np.float64)
    xc = x - x.mean()
    slope = (y @ xc) / (xc @ xc)
    out = u - slope[:, None, None] * x[None, None, :]
    return out.reshape(t, n_streams * n_sub)


@dataclass(frozen=True)
class CsiWindow:
    """One network-ready sample: a standardized (frames, 360) matrix.

    values       per-column standardized [amplitude | sanitized phase]
    column_mean  the 360 column means removed, a summary network's input
    """

    values: np.ndarray
    column_mean: np.ndarray


def build_count_sample(amp_window: np.ndarray, phase_window: np.ndarray) -> CsiWindow:
    """Stack smoothed amplitudes and sanitized phases, standardize per column.

    Both inputs must be (frames, k) with the same shape; the output is
    (frames, 2k) with column means removed and unit variance, except
    that constant columns become all zeros.
    """
    a = np.asarray(amp_window, dtype=np.float64)
    p = np.asarray(phase_window, dtype=np.float64)
    if a.shape != p.shape or a.ndim != 2:
        raise ValueError(f"amplitude {a.shape} and phase {p.shape} windows must match")
    stacked = np.hstack([a, p])
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)
    safe = np.where(std > 1e-12, std, 1.0)
    values = np.where(std > 1e-12, (stacked - mean) / safe, 0.0)
    return CsiWindow(values, mean)
