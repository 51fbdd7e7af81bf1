"""Capture container, binary round trips, and stream extraction."""

import numpy as np
import pytest

from csicount.capture import (
    CaptureError,
    CsiCapture,
    concat_captures,
    read_capture,
    split_streams,
    write_capture,
)
from csicount.capture import _HEADER


def random_capture(rng, n_frames, n_tx=2, n_rx=3, n_sub=30, label=""):
    shape = (n_frames, n_tx * n_rx, n_sub)
    values = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
        np.complex64
    )
    ts = np.arange(n_frames) / 1500.0
    return CsiCapture(values, ts, 1500.0, n_tx, n_rx, n_sub, label)


# ---------------------------------------------------------------- format


def test_header_is_25_bytes():
    assert _HEADER.size == 25


def test_file_size_arithmetic(tmp_path):
    # 25-byte header, no label, then 8 (timestamp) + 6*30*8 (complex64
    # pairs) = 1448 bytes per packet.
    rng = np.random.default_rng(0)
    cap = random_capture(rng, 3)
    path = tmp_path / "a.csic"
    write_capture(cap, path)
    assert path.stat().st_size == 25 + 0 + 3 * (8 + 6 * 30 * 8)


def test_label_adds_its_utf8_length(tmp_path):
    rng = np.random.default_rng(1)
    label = "café"  # 5 UTF-8 bytes
    cap = random_capture(rng, 1, label=label)
    path = tmp_path / "a.csic"
    write_capture(cap, path)
    assert path.stat().st_size == 25 + 5 + 1448
    assert read_capture(path).label == label


def test_empty_capture_round_trip(tmp_path):
    cap = CsiCapture(np.zeros((0, 6, 30), np.complex64), np.zeros(0), label="idle")
    path = tmp_path / "empty.csic"
    write_capture(cap, path)
    assert path.stat().st_size == 25 + 4
    back = read_capture(path)
    assert back.n_frames == 0
    assert back.label == "idle"
    assert back.values.shape == (0, 6, 30)


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    for trial in range(20):
        n = int(rng.integers(1, 40))
        cap = random_capture(rng, n, label=f"t{trial}")
        path = tmp_path / f"{trial}.csic"
        write_capture(cap, path)
        back = read_capture(path)
        assert back.values.tobytes() == cap.values.tobytes()
        assert back.timestamps.tobytes() == cap.timestamps.tobytes()
        assert (back.rate_hz, back.n_tx, back.n_rx, back.n_sub, back.label) == (
            cap.rate_hz,
            cap.n_tx,
            cap.n_rx,
            cap.n_sub,
            cap.label,
        )


def test_nonstandard_geometry_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    cap = random_capture(rng, 5, n_tx=1, n_rx=2, n_sub=4)
    path = tmp_path / "g.csic"
    write_capture(cap, path)
    back = read_capture(path)
    assert back.values.shape == (5, 2, 4)
    assert back.values.tobytes() == cap.values.tobytes()


# ---------------------------------------------------------------- errors


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.csic"
    path.write_bytes(b"NOPE" + bytes(40))
    with pytest.raises(CaptureError, match="bad capture magic b'NOPE'"):
        read_capture(path)


def test_unsupported_version(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "v.csic"
    write_capture(random_capture(rng, 1), path)
    raw = bytearray(path.read_bytes())
    raw[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CaptureError, match="unsupported capture version 99"):
        read_capture(path)


def test_truncated_file_names_the_frame(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "t.csic"
    write_capture(random_capture(rng, 4), path)
    raw = path.read_bytes()
    # cut in the middle of the third frame (index 2)
    path.write_bytes(raw[: 25 + 2 * 1448 + 100])
    with pytest.raises(CaptureError, match="frame 2"):
        read_capture(path)


def test_header_shorter_than_minimum(tmp_path):
    path = tmp_path / "short.csic"
    path.write_bytes(b"CSIC\x01")
    with pytest.raises(CaptureError, match="5 bytes, shorter than its 25-byte header"):
        read_capture(path)


def test_trailing_bytes_rejected(tmp_path):
    rng = np.random.default_rng(6)
    path = tmp_path / "x.csic"
    write_capture(random_capture(rng, 2), path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(CaptureError, match="4 trailing bytes"):
        read_capture(path)


def test_non_finite_payload_rejected(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "nan.csic"
    write_capture(random_capture(rng, 2), path)
    raw = bytearray(path.read_bytes())
    raw[25 + 8 : 25 + 12] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(CaptureError, match="non-finite CSI values"):
        read_capture(path)


def test_constructor_validation():
    good = np.zeros((2, 6, 30), dtype=np.complex64)
    with pytest.raises(CaptureError):
        CsiCapture(good, np.array([0.0, 0.0]))  # not strictly increasing
    with pytest.raises(CaptureError):
        CsiCapture(np.zeros((2, 5, 30), np.complex64), np.array([0.0, 1.0]))
    with pytest.raises(CaptureError, match="non-finite CSI values"):
        bad = good.copy()
        bad[0, 0, 0] = np.nan
        CsiCapture(bad, np.array([0.0, 1.0]))
    with pytest.raises(CaptureError):
        CsiCapture(good, np.array([0.0, 1.0]), label="x" * 256)
    # the last two are positive and finite, but the header's f32 holds
    # them as inf and 0.0
    for rate in (0.0, -1.0, np.inf, np.nan, 1e39, 1e-50):
        with pytest.raises(CaptureError, match="rate_hz"):
            CsiCapture(good, np.array([0.0, 1.0]), rate_hz=rate)


# ---------------------------------------------------------------- streams


def test_split_amp_phase_values():
    values = np.zeros((1, 6, 30), dtype=np.complex64)
    values[0, 0, 0] = 3 + 4j
    values[0, 1, 5] = -1 + 0j
    cap = CsiCapture(values, np.array([0.0]))
    amp, phase = split_streams(cap)
    assert amp.shape == (1, 180) and phase.shape == (1, 180)
    assert amp.dtype == phase.dtype == np.float64
    assert np.isclose(amp[0, 0], 5.0)
    assert np.isclose(phase[0, 0], 0.9272952180016122)
    # column order is stream-major: stream 1, subcarrier 5 -> column 35
    assert np.isclose(phase[0, 1 * 30 + 5], np.pi)


def test_split_recombines_to_input():
    rng = np.random.default_rng(8)
    cap = random_capture(rng, 16)
    amp, phase = split_streams(cap)
    rebuilt = (amp * np.exp(1j * phase)).reshape(16, 6, 30)
    orig = cap.values.astype(np.complex128)
    err = np.abs(rebuilt - orig) / np.maximum(np.abs(orig), 1e-300)
    assert err.max() < 1e-12


def test_split_empty_capture_errors():
    cap = CsiCapture(np.zeros((0, 6, 30), np.complex64), np.zeros(0))
    with pytest.raises(CaptureError):
        split_streams(cap)


# ---------------------------------------------------------------- concat


def test_concat_rebases_timestamps():
    rng = np.random.default_rng(12)
    a = random_capture(rng, 5)
    b = random_capture(rng, 7)
    joined = concat_captures([a, b], label="ab")
    assert joined.n_frames == 12
    assert (np.diff(joined.timestamps) > 0).all()
    assert np.array_equal(joined.values[:5], a.values)
    assert np.array_equal(joined.values[5:], b.values)
    assert joined.label == "ab"


def test_concat_rejects_mismatched_geometry():
    rng = np.random.default_rng(13)
    a = random_capture(rng, 2)
    b = random_capture(rng, 2, n_sub=4)
    with pytest.raises(CaptureError):
        concat_captures([a, b])


def test_concat_empty_list_errors():
    with pytest.raises(CaptureError):
        concat_captures([])
