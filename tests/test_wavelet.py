"""4-tap Daubechies cascade and band-energy features."""

import numpy as np
import pytest

from csicount import wavelet
from csicount.wavelet import (
    D4_HIGHPASS,
    D4_LOWPASS,
    FEATURE_WINDOW,
    WaveletDecomposition,
    dwt_decompose,
    extract_features,
    feature_matrix_from_components,
)

RATE = 1500.0


def tone(freq_hz, n=2560, rate=RATE):
    return np.sin(2 * np.pi * freq_hz * np.arange(n) / rate)


def coefficients(x, levels):
    """Every coefficient of the cascade: details level 1 first, then the approximation."""
    decomp = dwt_decompose(x, levels=levels)
    return np.concatenate([*decomp.details, decomp.approx])


def analysis_matrix(n, levels):
    """The cascade as a matrix: column j holds the coefficients of unit vector j."""
    return np.array([coefficients(e, levels) for e in np.eye(n)]).T


# ------------------------------------------------------------- filters


def test_filter_bank_identities():
    assert np.isclose(D4_LOWPASS.sum(), np.sqrt(2.0))
    assert abs(D4_HIGHPASS.sum()) < 1e-15
    assert np.isclose(np.dot(D4_LOWPASS, D4_LOWPASS), 1.0)
    assert np.isclose(np.dot(D4_HIGHPASS, D4_HIGHPASS), 1.0)
    assert abs(np.dot(D4_LOWPASS, D4_HIGHPASS)) < 1e-15


def test_single_level_matches_direct_convolution():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(8)
    decomp = dwt_decompose(x, levels=1)
    approx, detail = decomp.approx, decomp.details[0]
    for i in range(4):
        taps = x[(2 * i + np.arange(4)) % 8]
        assert abs(approx[i] - np.dot(taps, D4_LOWPASS)) < 1e-12
        assert abs(detail[i] - np.dot(taps, D4_HIGHPASS)) < 1e-12


# -------------------------------------------------------------- cascade


def test_constant_signal_details_vanish():
    x = np.full(1024, 2.0)
    decomp = dwt_decompose(x, levels=10)
    for d in decomp.details:
        assert np.max(np.abs(d)) < 1e-12
    # each level multiplies a constant by sqrt(2); after 10 levels the
    # single approximation coefficient is 2 * 2^5
    assert decomp.approx.shape == (1,)
    assert abs(decomp.approx[0] - 2.0 * 2.0**5) < 1e-9


def test_parseval_energy_conservation():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(1024)
    decomp = dwt_decompose(x, levels=10)
    total = sum(float(np.square(d).sum()) for d in decomp.details)
    total += float(np.square(decomp.approx).sum())
    ref = float(np.square(x).sum())
    assert abs(total - ref) / ref < 1e-9


def test_perfect_reconstruction():
    # the cascade is an orthogonal matrix, so its transpose inverts it
    m = analysis_matrix(1024, levels=10)
    assert np.max(np.abs(m @ m.T - np.eye(1024))) < 1e-12
    x = np.random.default_rng(2).standard_normal(1024)
    assert np.max(np.abs(m.T @ coefficients(x, 10) - x)) < 1e-9


def test_impulse_round_trip_and_energy():
    x = np.zeros(256)
    x[100] = 1.0
    decomp = dwt_decompose(x, levels=8)
    total = sum(float(np.square(d).sum()) for d in decomp.details)
    total += float(np.square(decomp.approx).sum())
    assert abs(total - 1.0) < 1e-9
    assert np.max(np.abs(analysis_matrix(256, 8).T @ coefficients(x, 8) - x)) < 1e-9


def test_level_coefficient_counts():
    decomp = dwt_decompose(np.zeros(1024), levels=10)
    assert len(decomp.details) == 10
    assert [d.shape[0] for d in decomp.details] == [
        512, 256, 128, 64, 32, 16, 8, 4, 2, 1,
    ]
    assert decomp.signal_len == 1024


def test_decompose_validation():
    with pytest.raises(ValueError):
        dwt_decompose(np.zeros(512), levels=10)  # 512 < 2^10
    with pytest.raises(ValueError):
        dwt_decompose(np.zeros(64), levels=0)
    with pytest.raises(ValueError):
        dwt_decompose(np.float64(1.0), levels=1)  # a scalar has no time axis
    # a matrix decomposes along axis 0: each column gives its own 1-D cascade
    cols = np.random.default_rng(3).standard_normal((64, 3))
    decomp = dwt_decompose(cols, levels=4)
    assert decomp.signal_len == 64
    for c in range(3):
        single = dwt_decompose(cols[:, c], levels=4)
        for got, ref in zip((*decomp.details, decomp.approx), (*single.details, single.approx)):
            assert np.array_equal(got[:, c], ref)
    bad = np.zeros(64)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        dwt_decompose(bad, levels=2)


# ------------------------------------------------------------- features


def test_zero_signal_zero_features():
    fm = extract_features(dwt_decompose(np.zeros(2560), levels=10))
    assert fm.shape == (20, 20)  # energy and variance rows of 10 levels, 20 windows
    assert np.array_equal(fm, np.zeros((20, 20)))


def test_tone_energy_lands_in_its_band():
    # 300 Hz at 1500 Hz sampling falls in level 2's band, RATE/8 .. RATE/4
    # = 187.5-375 Hz
    fm = extract_features(dwt_decompose(tone(300.0), levels=10))
    energy = fm[:10].mean(axis=1)
    assert int(np.argmax(energy)) == 1  # level 2 -> row index 1


def test_tone_sweep_monotone_band_index():
    rows = []
    for freq in (500.0, 300.0, 150.0, 60.0, 30.0, 15.0):
        fm = extract_features(dwt_decompose(tone(freq), levels=10))
        rows.append(int(np.argmax(fm[:10].mean(axis=1))))
    assert rows == [0, 1, 2, 3, 4, 5]


def test_feature_scaling_law():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(2560)
    f1 = extract_features(dwt_decompose(x, levels=10))
    f3 = extract_features(dwt_decompose(3.0 * x, levels=10))
    energy = slice(0, 10)
    variance = slice(10, 20)
    ref_e = np.abs(f1[energy]).max()
    ref_v = np.abs(f1[variance]).max()
    assert np.max(np.abs(f3[energy] - 9.0 * f1[energy])) < 1e-9 * ref_e * 9
    assert np.max(np.abs(f3[variance] - 81.0 * f1[variance])) < 1e-9 * ref_v * 81


def test_coefficient_window_mapping_and_forward_fill():
    # hand-built 8-level decomposition of a 512-sample signal: level 8
    # coefficients sit at samples 0 and 256, i.e. windows 0 and 2 of 4;
    # windows 1 and 3 must carry the last defined value forward
    details = [np.zeros(512 // 2**lv) for lv in range(1, 9)]
    details[7] = np.array([3.0, 5.0])
    decomp = WaveletDecomposition(tuple(details), np.zeros(2), 512)
    fm = extract_features(decomp)
    assert fm.shape == (16, 4)
    assert np.allclose(fm[7], [9.0, 9.0, 25.0, 25.0])
    assert np.allclose(fm[8 + 7], [0.0, 0.0, 0.0, 0.0])  # single-coeff var


def test_window_energy_is_mean_of_squares():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(256)
    decomp = dwt_decompose(x, levels=1)
    fm = extract_features(decomp)
    d = decomp.details[0]
    first = d[: 64]  # coefficients n with 2n // 128 == 0
    assert np.isclose(fm[0, 0], np.square(first).mean())
    assert np.isclose(fm[1, 0], np.square(first).var())


def test_incomplete_windows_dropped():
    fm = extract_features(dwt_decompose(np.zeros(300), levels=1))
    assert fm.shape == (2, 2)


def test_feature_window_validation():
    decomp = dwt_decompose(np.zeros(64), levels=1)
    with pytest.raises(ValueError):
        extract_features(decomp)  # shorter than one window


def loop_features(decomp, window):
    """The per-window loop the features were first computed with (oracle)."""
    n_windows = decomp.signal_len // window
    levels = len(decomp.details)
    values = np.zeros((2 * levels, n_windows))
    for lv, detail in enumerate(decomp.details, start=1):
        positions = np.arange(detail.shape[0]) * (2**lv) // window
        sq = detail**2
        energy = variance = 0.0
        for j in range(n_windows):
            sel = sq[positions == j]
            if sel.size:
                energy = sel.mean()
                variance = sel.var()
            values[lv - 1, j] = energy
            values[levels + lv - 1, j] = variance
    return values


@pytest.mark.parametrize("n", [1024, 1500, 2560, 3001, 16384])
@pytest.mark.parametrize("window", [FEATURE_WINDOW])
def test_features_match_per_window_loop(n, window):
    rng = np.random.default_rng(n + window)
    cols = rng.standard_normal((n, 10)) * rng.uniform(0.1, 10.0, 10)
    singles = [loop_features(dwt_decompose(cols[:, c], levels=10), window) for c in range(10)]
    for k in (1, 3, 10):
        ref = np.mean(singles[:k], axis=0)
        got = feature_matrix_from_components(cols[:, :k], levels=10)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
    one = extract_features(dwt_decompose(cols[:, 0], levels=10))
    np.testing.assert_allclose(one, singles[0], rtol=1e-12, atol=0)


def test_forward_fill_matches_loop_on_sparse_levels():
    # levels whose coefficients sit 256 or more samples apart leave whole
    # 128-sample windows empty: they repeat the last defined value
    rng = np.random.default_rng(11)
    decomp = dwt_decompose(rng.standard_normal(3001), levels=10)
    ref = loop_features(decomp, FEATURE_WINDOW)
    got = extract_features(decomp)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
    # level 10 has coefficients at samples 0, 1024 and 2048: windows 0, 8, 16 of 23
    assert got.shape == (20, 23)
    assert [len(set(got[9, a:b])) for a, b in ((0, 8), (8, 16), (16, 23))] == [1, 1, 1]
    assert len(set(got[9])) == 3


# ------------------------------------------------- component averaging


def test_component_features_run_the_module_cascade(monkeypatch):
    # the bench times and counts the online cascade by patching
    # wavelet.dwt_decompose, so the features must look it up there
    calls = []

    def counted(signal, levels=10):
        calls.append(np.shape(signal))
        return dwt_decompose(signal, levels)

    monkeypatch.setattr(wavelet, "dwt_decompose", counted)
    cols = np.random.default_rng(7).standard_normal((4, 1024, 3))
    fm = feature_matrix_from_components(cols, levels=10)
    assert calls == [(1024, 4, 3)]
    assert fm.shape == (4, 20, 8)


def test_component_average():
    rng = np.random.default_rng(6)
    cols = rng.standard_normal((2560, 3))
    fm = feature_matrix_from_components(cols, levels=10)
    singles = [
        extract_features(dwt_decompose(cols[:, c], levels=10)) for c in range(3)
    ]
    assert np.allclose(fm, np.mean(singles, axis=0), atol=1e-12)
