"""CSI capture data model, bit-exact binary serialization, and stream extraction.

A capture holds the complex channel estimate for every received packet: one
(n_tx * n_rx) x n_sub matrix per packet (transmit-receive stream x OFDM
subcarrier), sampled at a fixed packet rate.  The default geometry is a
2 x 3 antenna setup with 30 subcarriers, i.e. 6 streams of 30 complex
values per packet.

Values are held as complex64 because the on-disk format stores 32-bit
float pairs; keeping the same precision in memory makes write -> read
round trips bit-exact.

File format (all little-endian)::

    magic    4 bytes  b"CSIC"
    version  u16      currently 1
    n_tx     u16
    n_rx     u16
    n_sub    u16
    rate_hz  f32
    n_pkts   u64
    lab_len  u8       followed by lab_len bytes of UTF-8 label
    ---- per packet ----
    ts       f64      seconds since capture start
    csi      n_tx*n_rx*n_sub pairs of (re: f32, im: f32), row-major
                      over (stream, subcarrier)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .tensorfile import read_framed, write_framed

CAPTURE_MAGIC = b"CSIC"
CAPTURE_VERSION = 1

_HEADER = struct.Struct("<4sHHHHfQB")


class CaptureError(ValueError):
    """A malformed capture or capture file."""


@dataclass(frozen=True)
class CsiCapture:
    """An immutable, time-ordered sequence of CSI frames.

    Fields
    ------
    values      (n_frames, n_streams, n_sub) complex64
    timestamps  (n_frames,) float64, strictly increasing, seconds from start
    rate_hz     nominal packet rate
    label       free-form annotation (UTF-8, at most 255 bytes)
    """

    values: np.ndarray
    timestamps: np.ndarray
    rate_hz: float = 1500.0
    n_tx: int = 2
    n_rx: int = 3
    n_sub: int = 30
    label: str = ""

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.complex64)
        timestamps = np.ascontiguousarray(self.timestamps, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "timestamps", timestamps)
        self._validate()
        values.setflags(write=False)
        timestamps.setflags(write=False)

    def _validate(self) -> None:
        if min(self.n_tx, self.n_rx, self.n_sub) < 1:
            raise CaptureError("antenna and subcarrier counts must be >= 1")
        with np.errstate(over="ignore"):  # the file header stores the rate as an f32
            rate32 = np.float32(self.rate_hz)
        if not 0 < rate32 < np.inf:
            raise CaptureError(f"rate_hz must be a positive, finite float32, got {self.rate_hz}")
        if len(self.label.encode("utf-8")) > 255:
            raise CaptureError("label exceeds 255 UTF-8 bytes")
        if self.values.ndim != 3 or self.values.shape[1:] != (self.n_streams, self.n_sub):
            raise CaptureError(
                f"values must have shape (n_frames, {self.n_streams}, {self.n_sub}), "
                f"got {self.values.shape}"
            )
        if self.timestamps.shape != (self.values.shape[0],):
            raise CaptureError("timestamps length does not match frame count")
        if not np.isfinite(self.values.view(np.float32)).all():
            raise CaptureError("capture contains non-finite CSI values")
        if not np.isfinite(self.timestamps).all():
            raise CaptureError("capture contains non-finite timestamps")
        if self.n_frames > 1 and not (np.diff(self.timestamps) > 0).all():
            raise CaptureError("timestamps must be strictly increasing")

    @property
    def n_streams(self) -> int:
        return self.n_tx * self.n_rx

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


def _complex_streams(capture: CsiCapture) -> np.ndarray:
    """The capture's values as a complex128 (n_frames, n_streams * n_sub)
    matrix in stream-major column order."""
    if capture.n_frames == 0:
        raise CaptureError("cannot split an empty capture")
    flat = (capture.n_frames, capture.n_streams * capture.n_sub)
    return capture.values.astype(np.complex128).reshape(flat)


def split_streams(capture: CsiCapture) -> tuple[np.ndarray, np.ndarray]:
    """Split a capture into amplitude and phase matrices.

    Amplitudes are |H|, phases are angle(H) in [-pi, pi].  Both are float64
    matrices of shape (n_frames, n_streams * n_sub) in stream-major column
    order: column s * n_sub + j holds stream s, subcarrier j.
    """
    v = _complex_streams(capture)
    return np.abs(v), np.angle(v)


def stream_amplitudes(capture: CsiCapture) -> np.ndarray:
    """split_streams' amplitude matrix, bit for bit, without the phase."""
    return np.abs(_complex_streams(capture))


def concat_captures(captures, label: str = "") -> CsiCapture:
    """Concatenate captures in time, re-basing timestamps to stay increasing."""
    captures = list(captures)
    if not captures:
        raise CaptureError("nothing to concatenate")
    first = captures[0]
    for c in captures[1:]:
        same = (
            c.rate_hz == first.rate_hz
            and (c.n_tx, c.n_rx, c.n_sub) == (first.n_tx, first.n_rx, first.n_sub)
        )
        if not same:
            raise CaptureError("captures disagree on geometry or rate")
    parts, ts_parts = [], []
    offset = 0.0
    for c in captures:
        if c.n_frames == 0:
            continue
        ts = c.timestamps - c.timestamps[0] + offset
        offset = ts[-1] + 1.0 / c.rate_hz
        parts.append(c.values)
        ts_parts.append(ts)
    values = np.concatenate(parts) if parts else first.values[:0]
    timestamps = np.concatenate(ts_parts) if ts_parts else first.timestamps[:0]
    return replace(first, values=values, timestamps=timestamps, label=label)


def _packet_dtype(n_streams: int, n_sub: int) -> np.dtype:
    return np.dtype([("ts", "<f8"), ("csi", "<f4", (n_streams, n_sub, 2))])


def write_capture(capture: CsiCapture, path) -> None:
    """Serialize a capture to the binary format described in the module docstring.

    The capture is validated first; invalid captures are rejected before any
    bytes are written.
    """
    capture._validate()
    label_bytes = capture.label.encode("utf-8")
    rec = np.empty(capture.n_frames, dtype=_packet_dtype(capture.n_streams, capture.n_sub))
    rec["ts"] = capture.timestamps
    rec["csi"] = capture.values.view(np.float32).reshape(rec["csi"].shape)
    fields = (capture.n_tx, capture.n_rx, capture.n_sub, capture.rate_hz, capture.n_frames)
    write_framed(
        path, _HEADER, CAPTURE_MAGIC, CAPTURE_VERSION, (*fields, len(label_bytes)), label_bytes, rec
    )


def read_capture(path) -> CsiCapture:
    """Read a capture file, verifying its header and payload size;
    CsiCapture then checks the values as it does for any capture."""
    raw, (n_tx, n_rx, n_sub, rate_hz, n_packets, label_len) = read_framed(
        path, _HEADER, CAPTURE_MAGIC, CAPTURE_VERSION, "capture", CaptureError
    )
    offset = _HEADER.size + label_len
    if len(raw) < offset:
        raise CaptureError("file ends inside the label field")
    label = raw[_HEADER.size : offset].decode("utf-8")
    found = len(raw) - offset
    dtype = _packet_dtype(n_tx * n_rx, n_sub)
    expected = n_packets * dtype.itemsize
    if found < expected:
        raise CaptureError(
            f"file truncated in frame {found // dtype.itemsize}: expected {n_packets} frames "
            f"({expected} payload bytes), found {found}"
        )
    if found > expected:
        raise CaptureError(f"{found - expected} trailing bytes after last frame")
    rec = np.frombuffer(raw, dtype=dtype, count=n_packets, offset=offset)
    timestamps = rec["ts"].astype(np.float64)
    csi = np.ascontiguousarray(rec["csi"])
    values = csi.view(np.complex64).reshape(n_packets, n_tx * n_rx, n_sub)
    return CsiCapture(values, timestamps, float(rate_hz), n_tx, n_rx, n_sub, label)
