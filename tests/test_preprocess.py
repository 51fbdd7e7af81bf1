"""Filtering, PCA denoising, smoothing, phase cleanup, sample assembly."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.ndimage import median_filter
from scipy.signal import fftconvolve

from csicount.capture import split_streams
from csicount.preprocess import (
    PCA_KEEP,
    WMA_BLOCK,
    WMA_TAPS,
    _fast_len,
    build_count_sample,
    butterworth_lowpass,
    pca_denoise,
    sanitize_phase,
    weighted_moving_average,
)
from csicount.sim import (
    Path,
    PhaseDistortion,
    Scene,
    inject_phase_offsets,
    make_count_scene,
    simulate_capture,
)

RATE = 1500.0


def rms(x):
    return float(np.sqrt(np.mean(np.square(x))))


# ---------------------------------------------------------- butterworth


def test_butterworth_unit_dc_gain():
    x = np.full(500, 3.7)
    y = butterworth_lowpass(x, RATE, 200.0)
    assert np.max(np.abs(y - 3.7)) < 1e-9


def test_butterworth_stopband_attenuation():
    # 600 Hz tone, 200 Hz cutoff, order 4: one pass attenuates by
    # 1/sqrt(1 + 3^8) ~ 0.0123, and the zero-phase (forward-backward)
    # response squares that to ~1.52e-4.
    t = np.arange(3000) / RATE
    x = np.sin(2 * np.pi * 600.0 * t)
    y = butterworth_lowpass(x, RATE, 200.0)
    ratio = rms(y[200:-200]) / rms(x[200:-200])
    expected = 1.0 / (1.0 + (600.0 / 200.0) ** 8)
    assert abs(ratio - expected) < 0.2 * expected


def test_butterworth_passband_preserved():
    t = np.arange(3000) / RATE
    x = np.sin(2 * np.pi * 10.0 * t)
    y = butterworth_lowpass(x, RATE, 200.0)
    ratio = rms(y[300:-300]) / rms(x[300:-300])
    assert abs(ratio - 1.0) < 0.01


def test_butterworth_zero_phase_keeps_peak_position():
    t = np.arange(3000, dtype=np.float64)
    x = np.exp(-0.5 * ((t - 1500.0) / 30.0) ** 2)
    y = butterworth_lowpass(x, RATE, 60.0)
    assert abs(int(np.argmax(y)) - 1500) <= 1


def test_butterworth_filters_columns_independently():
    t = np.arange(3000) / RATE
    cols = np.stack([np.sin(2 * np.pi * 10 * t), np.sin(2 * np.pi * 600 * t)], axis=1)
    y = butterworth_lowpass(cols, RATE, 200.0)
    assert y.shape == cols.shape
    assert rms(y[300:-300, 0]) > 0.69  # ~ 1/sqrt(2) of a unit sine
    assert rms(y[300:-300, 1]) < 1e-3


def test_butterworth_rejects_bad_cutoff():
    x = np.zeros(64)
    with pytest.raises(ValueError):
        butterworth_lowpass(x, RATE, 750.0)  # at Nyquist
    with pytest.raises(ValueError):
        butterworth_lowpass(x, RATE, 0.0)


def symmetric_pad_lowpass(x, rate, cutoff, order=4):
    """The same filter with equal reflection pads at both ends (reference)."""
    n = x.shape[0]
    pad = min(n - 1, max(int(3 * rate / cutoff), 16))
    ext = np.concatenate(
        [2 * x[0] - x[1 : pad + 1][::-1], x, 2 * x[-1] - x[-pad - 1 : -1][::-1]]
    )
    freqs = np.fft.rfftfreq(ext.shape[0], d=1.0 / rate)
    gain = 1.0 / (1.0 + (freqs / cutoff) ** (2 * order))
    gain = gain.reshape((-1,) + (1,) * (x.ndim - 1))
    return np.fft.irfft(np.fft.rfft(ext, axis=0) * gain, n=ext.shape[0], axis=0)[pad : pad + n]


@pytest.mark.parametrize("n", [2, 17, 500, 1000, 1024, 3001, 16384])
def test_butterworth_fast_length_pad_matches_symmetric_pad_on_smooth_input(n):
    # Lengthening the padded sequence across the wrap point changes only the
    # circular wrap-around near the ends: by under 1e-4 of the peak at this
    # cutoff, and to rounding in the interior.  A signal no longer than the
    # 22-sample pad is reflected whole and filtered as with equal pads.
    t = np.arange(n) / RATE
    rng = np.random.default_rng(n)
    freqs = rng.uniform(0.5, 20.0, (3, 4))
    phases = rng.uniform(0.0, 2 * np.pi, (3, 4))
    x = np.sin(2 * np.pi * freqs[:, None, :] * t[None, :, None] + phases[:, None, :]).sum(axis=0)
    for col in (slice(None), 0):
        y = butterworth_lowpass(x[:, col], RATE, 200.0)
        ref = symmetric_pad_lowpass(x[:, col], RATE, 200.0)
        assert y.shape == x[:, col].shape
        change = np.abs(y - ref) / np.abs(ref).max()
        assert change.max() < (1e-12 if n <= 23 else 1e-4)
        assert change[66:-66].max(initial=0.0) < 1e-7


# ----------------------------------------------------------------- pca


def reference_components(matrix):
    """(components, eigenvalues) of the column-centered matrix H, strongest
    first: components[:, i] = H @ q_i for the eigenvectors q_i of H^T H
    (reference for pca_denoise)."""
    h = matrix - matrix.mean(axis=0)
    eigenvalues, q = np.linalg.eigh(h.T @ h)
    order = np.argsort(eigenvalues)[::-1]
    return h @ q[:, order], eigenvalues[order]


def common_mode_matrix(seed=0, t_len=400, n_cols=180):
    rng = np.random.default_rng(seed)
    t = np.arange(t_len) / RATE
    common = np.sin(2 * np.pi * 3.0 * t)
    gains = rng.uniform(0.5, 2.0, n_cols)
    return common[:, None] * gains[None, :] + 0.01 * rng.standard_normal((t_len, n_cols))


def test_pca_first_component_captures_common_mode():
    h = common_mode_matrix()
    comps, eigenvalues = reference_components(h)
    common = h.mean(axis=1)
    corr = np.corrcoef(comps[:, 0], common)[0, 1]
    assert abs(corr) > 0.99
    assert eigenvalues[0] > 100 * eigenvalues[1]


def test_pca_components_pairwise_uncorrelated():
    comps, _ = reference_components(common_mode_matrix(seed=1))
    kept = comps[:, 1:11]
    corr = np.corrcoef(kept, rowvar=False)
    off = corr - np.eye(10)
    assert np.max(np.abs(off)) < 1e-6


def test_pca_eigenvalue_sum_matches_trace():
    h = common_mode_matrix(seed=2)
    centered = h - h.mean(axis=0)
    trace = np.trace(centered.T @ centered)
    _, eigenvalues = reference_components(h)
    assert abs(eigenvalues.sum() - trace) / trace < 1e-8


def test_pca_constant_matrix_gives_zero_components():
    h = np.full((50, 20), 4.2)
    out = pca_denoise(h, keep=5)
    assert out.shape == (50, 5)
    assert np.max(np.abs(out)) < 1e-9


def test_pca_denoise_shape_and_validation():
    h = common_mode_matrix(seed=3, n_cols=40)
    out = pca_denoise(h, keep=10)
    assert out.shape == (400, 10)
    with pytest.raises(ValueError):
        pca_denoise(h, keep=40)
    with pytest.raises(ValueError):
        pca_denoise(h, keep=0)


@pytest.mark.parametrize("shape", [(400, 180), (1024, 180), (300, 40)])
def test_pca_denoise_equals_median_of_sliced_components(shape):
    # Projecting onto the kept eigenvectors alone gives the same bits as
    # slicing all components at the activity branch's keep=10; narrower
    # products may take other BLAS kernels, so keep 1..4 is held to rounding.
    rng = np.random.default_rng(shape[0])
    h = common_mode_matrix(seed=shape[1], t_len=shape[0], n_cols=shape[1])
    h += 0.1 * rng.standard_normal(shape)
    comps, _ = reference_components(h)
    for keep in (1, 2, 4, 10, shape[1] - 1):
        ref = median_filter(comps[:, 1 : keep + 1], size=(5, 1), mode="nearest")
        out = pca_denoise(h, keep=keep)
        if keep == 10:
            assert np.array_equal(out, ref)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def projected_components(matrix, keep):
    """pca_denoise's kept components before the median: the same operations
    on the same shapes, so the same bits (reference)."""
    h = matrix - matrix.mean(axis=-2, keepdims=True)
    d = h.shape[-1]
    q = np.linalg.eigh(np.swapaxes(h, -1, -2) @ h)[1][..., np.arange(d - 2, d - 2 - keep, -1)]
    return h @ q


@pytest.mark.parametrize("shape", [(16, 1024, 40), (3, 300, 12), (2, 12), (4, 2, 12), (3, 2)])
def test_pca_denoise_median_is_scipy_median_filter_bitwise(shape):
    # stacks and two-row matrices: the edge-padded partition median gives
    # the bits of scipy's 5-point median_filter(mode="nearest")
    h = np.random.default_rng(sum(shape)).standard_normal(shape)
    keep = min(10, shape[-1] - 1)
    comps = projected_components(h, keep)
    ref = median_filter(comps, size=(1,) * (len(shape) - 2) + (5, 1), mode="nearest")
    out = pca_denoise(h, keep=keep)
    assert out.shape == ref.shape
    assert out.tobytes() == np.ascontiguousarray(ref).tobytes()


def test_pca_denoise_median_filter_kills_spikes():
    h = common_mode_matrix(seed=4)
    comps, _ = reference_components(h)
    raw = comps[:, 1:6]
    smooth = pca_denoise(h, keep=5)
    # a 5-point median filter must not widen the value range
    assert smooth.max() <= raw.max() + 1e-12
    assert smooth.min() >= raw.min() - 1e-12


def test_pca_denoise_finds_a_component_the_warm_start_cannot_see():
    # the second matrix adds a strong component along the first one's
    # weakest eigenvector, orthogonal to the vectors its warm start iterates
    # from: that span is invariant, its Ritz pairs converge, and only the
    # Frobenius-norm interlacing check sees the eigenvalue outside it
    rng = np.random.default_rng(7)
    n, d = 300, 40
    scales = np.concatenate([np.linspace(3.0, 1.0, 23), np.full(d - 23, 0.01)])
    first = rng.standard_normal((n, d)) * scales
    h = first - first.mean(axis=0)
    weakest = np.linalg.eigh(h.T @ h)[1][:, 0]
    basis = np.linalg.qr(np.column_stack([np.ones(n), h]))[0]
    t = rng.standard_normal(n)
    t -= basis @ (basis.T @ t)  # zero mean, orthogonal to every column of h
    second = first + np.sqrt(6.0 * n) * np.outer(t / np.linalg.norm(t), weakest)
    out = pca_denoise(np.stack([first, second]))
    ref = pca_denoise(second)
    signs = np.sign(np.sum(out[1] * ref, axis=0))
    h = second - second.mean(axis=0)
    assert weakest @ h.T @ h @ weakest > np.linalg.eigvalsh(h.T @ h)[-PCA_KEEP - 1]  # kept
    np.testing.assert_allclose(out[1] * signs, ref, rtol=0, atol=1e-9 * np.abs(ref).max())


@pytest.mark.parametrize(
    "stack",
    [
        np.zeros((3, 50, 30)),
        np.full((3, 50, 30), 4.2),
        np.random.default_rng(1).standard_normal((4, 2, 30)),
        np.random.default_rng(2).standard_normal((3, 100, 23)),
        np.random.default_rng(3).standard_normal((3, 100, 12)),
    ],
)
def test_pca_denoise_degenerate_stacks_warn_nothing(stack):
    # zero, constant and two-row matrices give no certificate (no division by
    # their zero gaps), and d <= keep + 13 never starts the warm solver
    keep = min(PCA_KEEP, stack.shape[-1] - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = pca_denoise(stack, keep=keep)
    assert out.shape == stack.shape[:-1] + (keep,)
    assert np.all(np.isfinite(out))
    if np.ptp(stack) == 0:
        assert np.max(np.abs(out)) < 1e-9


def test_pca_denoise_centers_one_matrix_at_a_time():
    # a (16, 1024, 180) stack is 22.5 MiB; no copy of it is made
    stack = np.random.default_rng(5).standard_normal((16, 1024, 180))
    tracemalloc.start()
    try:
        pca_denoise(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= stack.nbytes / 4


# ----------------------------------------------------------------- wma


def test_wma_direct_small_case():
    # the 100-tap prefix: weights 100, 99, 98 from the newest sample back
    out = weighted_moving_average(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(out, [1.0, 299.0 / 199.0, 596.0 / 297.0], atol=1e-12)


def test_wma_constant_fixed_point():
    x = np.full(300, 2.5)
    assert np.max(np.abs(weighted_moving_average(x) - 2.5)) < 1e-9


def test_wma_shift_equivariance():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(400)
    a = weighted_moving_average(x)
    b = weighted_moving_average(x + 3.25)
    assert np.max(np.abs(b - (a + 3.25))) < 1e-9


def test_wma_matches_direct_convolution():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(250)
    m = 100
    got = weighted_moving_average(x)
    weights = np.arange(m, 0, -1, dtype=np.float64)
    for t in (0, 1, 50, 99, 100, 199, 249):
        k = min(t + 1, m)
        win = x[t - k + 1 : t + 1][::-1]  # newest first
        expected = (weights[:k] * win).sum() / weights[:k].sum()
        assert abs(got[t] - expected) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 99, 100, 101, 250, 1199, 10000])
def test_wma_matches_fftconvolve(n):
    # the numpy FFT convolution against scipy's fftconvolve; the two FFT
    # builds need not agree to the last bit across numpy versions
    x = np.random.default_rng(n).standard_normal((n, 6))
    kernel = np.arange(WMA_TAPS, 0, -1, dtype=np.float64)
    lags = np.minimum(np.arange(n), WMA_TAPS - 1)
    denom = WMA_TAPS * (lags + 1) - lags * (lags + 1) / 2.0
    ref = fftconvolve(x, kernel[:, None], mode="full", axes=0)[:n] / denom[:, None]
    out = weighted_moving_average(x)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


def test_wma_is_as_exact_as_a_long_double_sum():
    # each output is a 100-term dot product of exact integer weights; an FFT
    # convolution spreads every output's rounding over the whole series
    x = 1.0 + 0.3 * np.random.default_rng(0).standard_normal((10_000, 180))
    ref = np.zeros(x.shape, dtype=np.longdouble)
    for lag in range(WMA_TAPS):
        ref[lag:] += (WMA_TAPS - lag) * x[: len(x) - lag].astype(np.longdouble)
    lags = np.minimum(np.arange(len(x)), WMA_TAPS - 1)
    ref /= (WMA_TAPS * (lags + 1) - lags * (lags + 1) // 2)[:, None]
    assert np.abs(weighted_moving_average(x) - ref).max() <= 1e-14


def test_wma_of_a_stream_cut_at_blocks_keeps_its_bits():
    # each part given the rows before it; a part may start inside the first
    # WMA_TAPS - 1 rows, where the average runs over the prefix
    x = np.random.default_rng(10).standard_normal((1000, 7))
    whole = weighted_moving_average(x)
    for cuts in ((200, 400, 1000), (WMA_BLOCK, 1000), (600, 1000)):
        parts, start = [], 0
        for stop in cuts:
            parts.append(weighted_moving_average(x[start:stop], x[:start]))
            start = stop
        assert np.concatenate(parts).tobytes() == whole.tobytes()
    tail = weighted_moving_average(x[400:600], x[400 - WMA_TAPS + 1 : 400])
    assert tail.tobytes() == whole[400:600].tobytes()


def test_fast_len_matches_scipy_next_fast_len():
    # the smallest 5-smooth length >= n, for every n up to 100,000 and for
    # large n, where such lengths lie far apart
    for n in range(1, 100_001):
        assert _fast_len(n) == next_fast_len(n, real=True), n
    for n in np.random.default_rng(9).integers(1, 2**50, 500):
        assert _fast_len(int(n)) == next_fast_len(int(n), real=True), n


def test_wma_columns_independent():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((120, 3))
    out = weighted_moving_average(x)
    for c in range(3):
        assert np.allclose(out[:, c], weighted_moving_average(x[:, c]), atol=1e-12)


# ------------------------------------------------------------ sanitize


def test_sanitize_pure_slope_and_offset():
    j = np.arange(30, dtype=np.float64)
    row = np.tile(0.02 * j + 1.3, 6)
    mat = np.tile(row, (5, 1))
    out = sanitize_phase(mat)
    assert np.max(np.abs(out - 1.3)) < 1e-9
    # refitting a slope on the sanitized mean must give ~0
    y = out.reshape(5, 6, 30).mean(axis=1)
    xc = j - j.mean()
    slope = (y @ xc) / (xc @ xc)
    assert np.max(np.abs(slope)) < 1e-9


def np_unwrap_sanitize(phase, n_streams=6, n_sub=30):
    """sanitize_phase as first written, on np.unwrap (reference)."""
    u = np.unwrap(phase.reshape(-1, n_streams, n_sub), axis=2)
    x = np.arange(n_sub, dtype=np.float64)
    xc = x - x.mean()
    slope = (u.mean(axis=1) @ xc) / (xc @ xc)
    return (u - slope[:, None, None] * x[None, None, :]).reshape(-1, n_streams * n_sub)


def test_sanitize_unwrap_is_bit_identical_to_np_unwrap():
    # the unwrap folds only the steps of at least pi, with numpy's own
    # arithmetic, so every output bit matches np.unwrap(axis=2)
    rng = np.random.default_rng(12)
    boundary = rng.choice([-np.pi, 0.0, np.pi, 0.5, -0.5], (40, 180))
    cap = simulate_capture(make_count_scene(3, seed=4), 0.2, seed=4)
    cases = {
        "random phases": rng.uniform(-np.pi, np.pi, (200, 180)),
        "steps of exactly +-pi": boundary,
        "no wraps": rng.uniform(-1.0, 1.0, (50, 180)),
        "capture": split_streams(cap)[1],
    }
    for name, phase in cases.items():
        got, ref = sanitize_phase(phase), np_unwrap_sanitize(phase)
        assert got.tobytes() == ref.tobytes(), name
        step = np.diff(phase.reshape(-1, 6, 30), axis=2)
        assert (np.abs(step) >= np.pi).any() == (name != "no wraps"), name
    step = np.diff(boundary.reshape(-1, 6, 30), axis=2)
    assert (step == np.pi).any() and (step == -np.pi).any()


def test_sanitize_slope_free_input_unchanged():
    rng = np.random.default_rng(10)
    base = 0.3 * np.sin(np.arange(30) * 0.2)  # zero-slope pattern? not quite
    # construct exactly slope-free rows: remove the fitted slope first
    mat = np.tile(np.tile(base, 6), (4, 1)) + 0.01 * rng.standard_normal((4, 180))
    once = sanitize_phase(mat)
    twice = sanitize_phase(once)
    assert np.max(np.abs(twice - once)) < 1e-12


def test_sanitize_idempotent():
    # phase matrices whose subcarrier increments stay below pi, as CSI
    # phases do after the first unwrap
    rng = np.random.default_rng(11)
    mat = rng.uniform(-1.0, 1.0, (8, 180))
    once = sanitize_phase(mat)
    twice = sanitize_phase(once)
    assert np.max(np.abs(twice - once)) < 1e-10


def test_sanitize_removes_injected_distortion():
    scene = Scene(
        static_paths=(
            Path(1.0 + 0.0j, 10e-9, 0.0, 1e-10),
            Path(0.3 + 0.1j, 25e-9, 0.0, 2e-10),
        ),
    )
    cap = simulate_capture(scene, 0.1)
    bad = inject_phase_offsets(
        cap, PhaseDistortion(sfo_slope=0.05, cfo_offset=0.9, jitter_sigma=0.05), seed=3
    )
    _, phase_clean = split_streams(cap)
    _, phase_bad = split_streams(bad)
    a = sanitize_phase(phase_clean)
    b = sanitize_phase(phase_bad)
    # agreement up to a per-time constant: compare mean-centered rows
    a = a - a.mean(axis=1, keepdims=True)
    b = b - b.mean(axis=1, keepdims=True)
    assert np.max(np.abs(a - b)) < 1e-6


def test_sanitize_rejects_bad_shape():
    with pytest.raises(ValueError):
        sanitize_phase(np.zeros((4, 179)))


# ------------------------------------------------------- count samples


def test_build_count_sample_shapes():
    rng = np.random.default_rng(12)
    amp = rng.standard_normal((200, 180))
    ph = rng.standard_normal((200, 180))
    win = build_count_sample(amp, ph)
    assert win.values.shape == (200, 360)
    assert win.column_mean.shape == (360,)


def test_build_count_sample_standardizes():
    rng = np.random.default_rng(13)
    amp = 5.0 + 2.0 * rng.standard_normal((200, 180))
    ph = -1.0 + 0.5 * rng.standard_normal((200, 180))
    win = build_count_sample(amp, ph)
    assert np.max(np.abs(win.values.mean(axis=0))) < 1e-12
    assert np.max(np.abs(win.values.std(axis=0) - 1.0)) < 1e-9
    stacked = np.hstack([amp, ph])
    assert np.allclose(win.column_mean, stacked.mean(axis=0))


def test_build_count_sample_constant_column_is_zero():
    rng = np.random.default_rng(14)
    amp = rng.standard_normal((50, 4))
    amp[:, 2] = 7.7
    ph = rng.standard_normal((50, 4))
    win = build_count_sample(amp, ph)
    assert np.array_equal(win.values[:, 2], np.zeros(50))
    assert win.values[:, 0].std() > 0.9


def test_build_count_sample_column_permutation():
    rng = np.random.default_rng(15)
    amp = rng.standard_normal((60, 6))
    ph = rng.standard_normal((60, 6))
    perm = rng.permutation(6)
    a = build_count_sample(amp, ph)
    b = build_count_sample(amp[:, perm], ph[:, perm])
    assert np.allclose(b.values[:, :6], a.values[:, perm], atol=1e-12)
    assert np.allclose(b.values[:, 6:], a.values[:, 6 + perm], atol=1e-12)


def test_build_count_sample_shape_mismatch():
    with pytest.raises(ValueError):
        build_count_sample(np.zeros((10, 4)), np.zeros((10, 5)))


def test_window_plus_sample_pipeline():
    scene = Scene(static_paths=(Path(1.0 + 0.0j, 10e-9, 0.0, 1e-10),), noise_sigma=0.02)
    cap = simulate_capture(scene, 0.2, seed=2)
    amp, phase = split_streams(cap)
    smooth = weighted_moving_average(amp)
    clean = sanitize_phase(phase)
    sample = build_count_sample(smooth[:200], clean[:200])
    assert sample.values.shape == (200, 360)
    assert np.isfinite(sample.values).all()
