"""Signal conditioning for the two recognition branches.

Activity branch: zero-phase Butterworth low-pass, then PCA across the 180
CSI columns (drop the first principal component, keep the next few, median
filter; through a stack, certified warm starts in place of eigh).  Counting
branch: weighted moving average over amplitudes, phase sanitization, and
assembly of standardized fixed-length samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BUTTERWORTH_ORDER = 4
WMA_TAPS = 100
WMA_BLOCK = 200  # output rows per moving-average matmul: one count window
PCA_KEEP = 10
PCA_WARM_STEPS = 6  # (g @ g, QR) steps a warm start may take before eigh
PCA_DAVIS_KAHAN = 1e-8  # largest residual / gap a warm Ritz pair may have


# _WMA_WEIGHTS[i, j]: the weight of a block's input row j (its m - 1 earlier
# rows first) in its output row i, m - k at lag k = i + m - 1 - j < m
_LAG = np.arange(WMA_BLOCK)[:, None] + WMA_TAPS - 1 - np.arange(WMA_BLOCK + WMA_TAPS - 1)
_WMA_WEIGHTS = np.where((_LAG >= 0) & (_LAG < WMA_TAPS), WMA_TAPS - _LAG, 0).astype(np.float64)


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


def _warm_span(g: np.ndarray, span: np.ndarray, top: int):
    """Ritz vectors of g, ascending, by subspace iteration on g @ g from `span`;
    None unless they are certified (see pca_denoise)."""
    frob, gv = np.vdot(g, g), g @ span
    for _ in range(PCA_WARM_STEPS):
        span = np.linalg.qr(g @ gv)[0]
        gv = g @ span
        theta, w = np.linalg.eigh(span.T @ gv)  # Rayleigh-Ritz
        span = span @ w
        residual = np.linalg.norm(gv @ w - span * theta, axis=0)
        gap = np.diff(theta, prepend=-np.inf, append=np.inf)
        gap = np.minimum(gap[:-1], gap[1:])
        pinned = (residual <= 1e-12 * theta[-1]) & (residual < PCA_DAVIS_KAHAN * gap)
        p = np.argmin(np.append(pinned[:0:-1], False))  # leading pinned pairs, < len
        if p >= top and frob - theta @ theta + theta[-p - 1] ** 2 < theta[-top] ** 2:
            return span
    return None


def pca_denoise(matrix: np.ndarray, keep: int = PCA_KEEP, warm: list | None = None) -> np.ndarray:
    """Drop the dominant component, keep the next `keep`, median filter.

    The first principal component concentrates the common-mode variation
    shared by all CSI columns and is discarded; the returned matrix holds
    components 2 .. keep+1, each smoothed with a 5-point median filter.
    A (..., n, d) stack is denoised one matrix at a time, centered in one
    reused buffer.  A 2-D matrix and a stack's first take np.linalg.eigh of
    G, the Gram matrix, unless `warm` holds a span: `warm` is a list a
    caller keeps across calls, left holding the last matrix's span.  A
    later matrix iterates from the previous one's top keep + 13 vectors and
    keeps the Ritz pairs if the top p >= keep + 1 have residual <= 1e-12 *
    theta_1 and residual / gap to the nearest other Ritz value
    (Davis-Kahan) < PCA_DAVIS_KAHAN, and ||G||_F^2 - sum(theta^2) +
    theta_(p+1)^2 < theta_(keep+1)^2: by interlacing, no eigenvalue outside
    the span reaches theta_(keep+1).  Else eigh.  A warm component may
    differ in sign from eigh's; the features are sign-invariant.
    """
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim < 2 or x.shape[-2] < 2:
        raise ValueError("need a 2-D matrix with at least two rows")
    n, cols = x.shape[-2:]
    if not 1 <= keep <= cols - 1:
        raise ValueError(f"keep must be in 1..{cols - 1}")
    h, edges, span = np.empty((n, cols)), np.empty((n + 4, keep)), warm[0] if warm else None
    out = np.empty(x.shape[:-1] + (keep,))
    for x1, out1 in zip(x.reshape(-1, n, cols), out.reshape(-1, n, keep)):
        np.subtract(x1, x1.mean(axis=0), out=h)
        g = h.T @ h
        if span is None or cols <= keep + 13 or (vecs := _warm_span(g, span, keep + 1)) is None:
            vecs = np.linalg.eigh(g)[1]
        span, k = vecs[:, -keep - 13 :], vecs.shape[1]
        # ascending order: the kept vectors, strongest first, are columns k-2, k-3, ..
        edges[2:-2] = h @ vecs[:, np.arange(k - 2, k - 2 - keep, -1)]
        edges[:2], edges[-2:] = edges[2], edges[-3]  # the ends extended by their edge rows
        a, b, c, d, e = (edges[i : i + n] for i in range(5))  # a 5-point median network
        lo = np.maximum(np.minimum(a, b), np.minimum(c, d))
        hi = np.minimum(np.maximum(a, b), np.maximum(c, d))
        np.maximum(np.minimum(lo, hi), np.minimum(np.maximum(lo, hi), e), out=out1)
    if warm is not None:
        warm[:] = [span]
    return out


def weighted_moving_average(series, prior=()):
    """Descending-weight moving average along axis 0, over m = WMA_TAPS (100).

    Output t averages the m most recent samples with weights m, m-1, .., 1
    (newest heaviest).  Early samples where fewer than m values exist use
    the same descending weights over the available prefix, so the output
    length equals the input length.  `prior` holds the rows before series:
    all of them, or at least the last m - 1.

    An exact causal FIR: each block of WMA_BLOCK rows from series' first is
    one (WMA_BLOCK x WMA_BLOCK + m - 1) Toeplitz matmul over its rows and
    the m - 1 before them (zeros before the first ever).  A stream cut at
    multiples of WMA_BLOCK, each part given the rows before it, therefore
    gives the same bits as one call over the whole stream.
    """
    x = np.asarray(series, dtype=np.float64)
    m = WMA_TAPS
    shape = x.shape
    x = x.reshape(shape[0], -1)
    n, cols = x.shape
    before = np.reshape(prior, (-1, cols))[-(m - 1) :]
    ext = np.concatenate([np.zeros((m - 1 - len(before), cols)), before, x])
    out = np.empty_like(x)
    for start in range(0, n, WMA_BLOCK):
        rows = min(WMA_BLOCK, n - start)
        np.matmul(
            _WMA_WEIGHTS[:rows, : rows + m - 1], ext[start : start + rows + m - 1],
            out=out[start : start + rows],
        )
    lags = np.minimum(np.arange(len(before), len(before) + n), m - 1)
    out /= (m * (lags + 1) - lags * (lags + 1) / 2.0)[:, None]  # sum of m, m-1, .., m-lags
    return out.reshape(shape)


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
