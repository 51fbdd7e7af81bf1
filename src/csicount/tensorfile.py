"""Small on-disk format for real-valued tensors produced by the CLI.

Layout (little-endian)::

    magic   4 bytes  b"CSIT"
    version u16      currently 1
    ndim    u8
    dims    ndim x u64
    data    float64, C row-major

Used for preprocessed stream tensors and wavelet feature matrices.
"""

from __future__ import annotations

import math
import struct

import numpy as np

TENSOR_MAGIC = b"CSIT"
TENSOR_VERSION = 1

_HEAD = struct.Struct("<4sHB")


def write_tensor(array: np.ndarray, path) -> None:
    arr = np.ascontiguousarray(array, dtype=np.float64)
    if arr.ndim < 1 or arr.ndim > 255:
        raise ValueError(f"unsupported rank {arr.ndim}")
    with open(path, "wb") as fh:
        fh.write(_HEAD.pack(TENSOR_MAGIC, TENSOR_VERSION, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.tobytes())


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEAD.size:
        raise ValueError("tensor file shorter than its header")
    magic, version, ndim = _HEAD.unpack(raw[: _HEAD.size])
    if magic != TENSOR_MAGIC:
        raise ValueError(f"bad tensor magic {magic!r}")
    if version != TENSOR_VERSION:
        raise ValueError(f"unsupported tensor version {version}")
    off = _HEAD.size + 8 * ndim
    if len(raw) < off:
        raise ValueError(f"tensor file ends inside its {ndim} dims")
    dims = struct.unpack(f"<{ndim}Q", raw[_HEAD.size : off])
    n = math.prod(dims)
    if len(raw) - off != 8 * n:
        raise ValueError("tensor payload size disagrees with declared shape")
    data = np.frombuffer(raw, dtype="<f8", count=n, offset=off)
    return data.reshape(dims).copy()
