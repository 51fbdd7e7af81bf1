"""The header framing every csicount file format shares, and the tensor format.

Each format (``.csic``, ``.csit``, ``.hmm``, ``.csnn``) opens with a
little-endian header of a 4-byte magic, a u16 version and its own fields,
declared once as a ``struct.Struct``; ``read_framed`` and ``write_framed``
check and pack that header for all four.

The tensor format holds real-valued tensors produced by the CLI
(little-endian)::

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


def read_framed(path, head: struct.Struct, magic: bytes, version: int, what: str, error=ValueError):
    """The whole file's bytes and its header fields after the version.

    A file shorter than `head`, with another magic or another version is
    refused with `error`; `what` names the format in the message.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < head.size:
        raise error(f"{what} file holds {len(raw)} bytes, shorter than its {head.size}-byte header")
    found_magic, found_version, *fields = head.unpack_from(raw)
    if found_magic != magic:
        raise error(f"bad {what} magic {found_magic!r}, expected {magic!r}")
    if found_version != version:
        raise error(f"unsupported {what} version {found_version}")
    return raw, fields


def write_framed(path, head: struct.Struct, magic: bytes, version: int, fields, *chunks) -> None:
    """Write the header `head` packs from magic, version and `fields`, then each chunk."""
    with open(path, "wb") as fh:
        fh.write(head.pack(magic, version, *fields))
        for chunk in chunks:
            fh.write(chunk)


def write_tensor(array: np.ndarray, path) -> None:
    arr = np.ascontiguousarray(array, dtype="<f8")
    if arr.ndim < 1 or arr.ndim > 255:
        raise ValueError(f"unsupported rank {arr.ndim}")
    dims = struct.pack(f"<{arr.ndim}Q", *arr.shape)
    write_framed(path, _HEAD, TENSOR_MAGIC, TENSOR_VERSION, [arr.ndim], dims, arr)


def read_tensor(path) -> np.ndarray:
    raw, (ndim,) = read_framed(path, _HEAD, TENSOR_MAGIC, TENSOR_VERSION, "tensor")
    if ndim < 1:
        raise ValueError(f"unsupported rank {ndim}")
    off = _HEAD.size + 8 * ndim
    if len(raw) < off:
        raise ValueError(f"tensor file ends inside its {ndim} dims")
    dims = struct.unpack(f"<{ndim}Q", raw[_HEAD.size : off])
    n = math.prod(dims)
    if len(raw) - off != 8 * n:
        raise ValueError("tensor payload size disagrees with declared shape")
    data = np.frombuffer(raw, dtype="<f8", count=n, offset=off)
    return data.reshape(dims).copy()
