"""From-scratch neural network engine: LSTM, conv, pool, dense, softmax.

Parameters at rest are float64, and so are checkpoints, inference and
every gradient check: the hand-derived backward passes are validated
against central finite differences to tight tolerances.  Training computes
in float32 (see counting.train), through the same layers: each allocates in
its parameters' or its input's dtype, and Network.forward casts its input
to the network's dtype, which Network.cast sets.

Parameters use scaled-uniform fan-in initialization from a seeded
generator; forward passes are deterministic given (parameters, input,
seed).  Softmax cross-entropy is the only supported loss and its gradient
is propagated from the logits (the Softmax layer's backward is the fused
identity), trained with plain mini-batch SGD.

Checkpoints are versioned binaries: a JSON architecture descriptor
followed by the raw float64 parameter arrays in layer order.

Each layer class declares its schema once: `kind` (its checkpoint name),
`fields` (its constructor arguments, in order) and, if it has parameters,
`shapes()`: {name: (shape, fan_in)} in draw order, fan_in None for a zero
bias.  Layer derives allocation, params(), n_params and the checkpoint
descriptor from them, and the loader rebuilds a layer from its fields.

Counting architecture (sequence input, 200 x 360):

    LSTM(64) -> dropout(0.1) -> conv 6@5x5/1 + maxpool 2x2/2
    -> conv 10@5x3/3 -> flatten -> dense 1000 -> dense 200 -> dense 5
    -> softmax

whose block output shapes on a 200 x 360 window are 200x64, 98x30x6,
32x10x10, 3200, 1000, 200, 5.  The fully-connected baseline takes the
per-column window means (a 360-vector) through dense 300 -> 100 -> 5.

Convolutions are lowered to matrix products by tiles of output columns
rather than im2col patches: the T output columns of a tile read one
contiguous copy of the kh x ((T - 1) * stride + kw) input patch under
them, so the cached lowering is kh * ((T - 1) * stride + kw) * in values
per T output pixels (about 36 MB for the 200 x 64 conv of the counting
network at batch 64, where T = 20) instead of kh * kw * in per output
pixel (about 150 MB), and every tile shares one small band of filters.
A max-pool keeps only the index of each window's winner, and one that
follows a ReLU conv applies that conv's mask for it.  See Conv2d and
MaxPool2d.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensorfile import read_framed, write_framed

CHECKPOINT_MAGIC = b"CSNN"
CHECKPOINT_VERSION = 1
_HEAD = struct.Struct("<4sHI")  # magic, version, architecture length

N_CLASSES = 5  # the counting networks' classes: 1..5 people
PROB_CLAMP = 1e-12
_TILE_COLS = 24  # input columns one Conv2d tile may read
FINETUNE_LR = 0.01  # the online amendment's fine-tune of the last dense layer
FINETUNE_STEPS = 5


def _sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _cross_entropy(probs: np.ndarray, labels):
    """Mean cross-entropy of (batch, classes) softmax probabilities against
    1-based labels, and its gradient with respect to the logits."""
    batch, n_classes = probs.shape
    idx = np.asarray(labels, dtype=np.int64) - 1
    if idx.shape != (batch,) or idx.min() < 0 or idx.max() >= n_classes:
        raise ValueError(f"labels must be {batch} values in 1..{n_classes}")
    rows = np.arange(batch)
    dlogits = probs.copy()
    dlogits[rows, idx] -= 1.0
    dlogits /= batch
    return -np.log(np.clip(probs[rows, idx], PROB_CLAMP, None)).mean(), dlogits


class Layer:
    """Base layer: forward/backward pair plus parameter bookkeeping."""

    kind: str  # checkpoint name
    fields: tuple = ()  # constructor arguments, in constructor order
    trace_point = True  # the checkpoint's per-layer "trace" flag
    _cache = None  # what backward needs from the last forward, if anything

    def shapes(self) -> dict:
        """{name: (shape, fan_in)} in draw order; fan_in None is a zero bias."""
        return {}

    def initialize(self, rng) -> None:
        """Allocate each parameter (scaled-uniform draws from rng in shapes()
        order, or zeros) and its zeroed d<name> gradient."""
        for name, (shape, fan_in) in self.shapes().items():
            bound = None if fan_in is None else 1.0 / np.sqrt(fan_in)
            value = np.zeros(shape) if bound is None else rng.uniform(-bound, bound, shape)
            setattr(self, name, value)
            setattr(self, "d" + name, np.zeros(shape))

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
        """Accumulate parameter gradients and return the input gradient, which
        a layer may skip (returning None) when need_dx is false."""
        raise NotImplementedError

    def params(self) -> list:
        """[(name, value, grad)] with grads accumulated in place."""
        return [(name, getattr(self, name), getattr(self, "d" + name)) for name in self.shapes()]

    @property
    def n_params(self) -> int:
        """Parameter count implied by the constructor fields alone."""
        return sum(math.prod(shape) for shape, _ in self.shapes().values())

    def descriptor(self) -> dict:
        """The layer's checkpoint entry: kind, fields, then the trace flag."""
        fields = {name: getattr(self, name) for name in self.fields}
        return {"kind": self.kind, **fields, "trace": bool(self.trace_point)}

    @property
    def name(self) -> str:
        return type(self).__name__

    def _bad_shape(self, x, expected: str):
        return ValueError(f"{self.name}: expected input {expected}, got {x.shape}")


class Lstm(Layer):
    """Single-direction LSTM returning the full hidden sequence.

    Gate pre-activations are z = x W + h U + b with gate order
    [input, forget, output, candidate]; cells follow

        c_t = f * c_{t-1} + i * tanh-candidate,   h_t = o * tanh(c_t)

    Input (batch, time, in_dim) -> output (batch, time, cells).
    """

    kind = "lstm"
    fields = ("in_dim", "cells")

    def __init__(self, in_dim: int, cells: int):
        self.in_dim = in_dim
        self.cells = cells

    def shapes(self):
        d, n = self.in_dim, self.cells
        return {"W": ((d, 4 * n), d), "U": ((n, 4 * n), n), "b": ((4 * n,), None)}

    def forward(self, x, training):
        if x.ndim != 3 or x.shape[2] != self.in_dim:
            raise self._bad_shape(x, f"(batch, time, {self.in_dim})")
        b, t_len, _ = x.shape
        n = self.cells
        # the hoisted x W product; each step completes its pre-activations
        # in place and overwrites them with the gates [i, f, o, g]
        gates = (x.reshape(b * t_len, self.in_dim) @ self.W).reshape(b, t_len, 4 * n)
        cells = np.empty((b, t_len, n), gates.dtype)
        hidden = np.empty_like(cells)
        h = np.zeros((b, n), gates.dtype)
        c = np.zeros_like(h)
        for t in range(t_len):
            z = gates[:, t]
            z += h @ self.U
            z += self.b
            z[:, : 3 * n] = _sigmoid(z[:, : 3 * n])
            np.tanh(z[:, 3 * n :], out=z[:, 3 * n :])
            i, f, o, g = z[:, :n], z[:, n : 2 * n], z[:, 2 * n : 3 * n], z[:, 3 * n :]
            c = f * c + i * g
            h = o * np.tanh(c)
            cells[:, t] = c
            hidden[:, t] = h
        self._cache = (x, gates, cells, hidden)
        return hidden

    def backward(self, dout, need_dx=True):
        x, gates, cells, hidden = self._cache
        b, t_len, n = dout.shape
        tanh_c = np.tanh(cells)
        dz_all = np.empty_like(gates)
        dh_rec = np.zeros((b, n), gates.dtype)
        dc_rec = np.zeros_like(dh_rec)
        u_t = self.U.T
        for t in range(t_len - 1, -1, -1):
            z = gates[:, t]
            i, f, o, g = z[:, :n], z[:, n : 2 * n], z[:, 2 * n : 3 * n], z[:, 3 * n :]
            th = tanh_c[:, t]
            dh = dout[:, t] + dh_rec
            do = dh * th
            dc = dc_rec + dh * o * (1.0 - th * th)
            di = dc * g
            dg = dc * i
            df = dc * cells[:, t - 1] if t > 0 else np.zeros_like(dc)
            dc_rec = dc * f
            dz = dz_all[:, t]
            dz[:, :n] = di * i * (1.0 - i)
            dz[:, n : 2 * n] = df * f * (1.0 - f)
            dz[:, 2 * n : 3 * n] = do * o * (1.0 - o)
            dz[:, 3 * n :] = dg * (1.0 - g * g)
            dh_rec = dz @ u_t
        dz_flat = dz_all.reshape(b * t_len, 4 * n)
        self.dW += x.reshape(b * t_len, self.in_dim).T @ dz_flat
        h_prev = np.concatenate([np.zeros_like(hidden[:, :1]), hidden[:, :-1]], axis=1)
        self.dU += h_prev.reshape(b * t_len, n).T @ dz_flat
        self.db += dz_flat.sum(axis=0)
        self._cache = None
        return (dz_flat @ self.W.T).reshape(b, t_len, self.in_dim) if need_dx else None


class Dropout(Layer):
    """Inverted dropout on activations; identity outside training."""

    kind = "dropout"
    fields = ("rate",)
    trace_point = False

    def __init__(self, rate: float):
        if not isinstance(rate, (int, float)) or not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate

    def initialize(self, rng) -> None:
        """Keep the network's generator, which draws the training masks."""
        self._rng = rng

    def forward(self, x, training):
        if not training or self.rate == 0.0:
            self._cache = None
            return x
        keep = 1.0 - self.rate
        # the scaled mask, drawn in float64 whatever x's dtype
        self._cache = (self._rng.random(x.shape) < keep) * x.dtype.type(1.0 / keep)
        return x * self._cache

    def backward(self, dout, need_dx=True):
        if self._cache is None:
            return dout
        return dout * self._cache


class AsImage(Layer):
    """Append a singleton channel axis: (b, h, w) -> (b, h, w, 1)."""

    kind = "as_image"
    trace_point = False

    def forward(self, x, training):
        if x.ndim != 3:
            raise self._bad_shape(x, "(batch, height, width)")
        return x[..., None]

    def backward(self, dout, need_dx=True):
        return dout[..., 0]


class Conv2d(Layer):
    """Valid-padding 2-D convolution with optional fused ReLU.

    Input (batch, h, w, in_channels); filters (kh, kw, in, out) applied at
    the given stride in both directions.

    The convolution is lowered by tiles of output columns.  A tile is T
    adjacent output columns of one output row; it reads the kh input rows
    under that row and wt = (T - 1) * stride + kw input columns, which are
    copied into one contiguous row of a (batch * ho * wo / T, kh * wt * in)
    matrix.  Every tile shares one (kh * wt * in, T * out) band, whose
    column block t holds W at tile columns t * stride .. t * stride + kw - 1
    and zeros elsewhere, so one matrix product gives the whole output.  T
    is the largest divisor of wo whose tile reads at most _TILE_COLS input
    columns (20 for conv1 of the counting network, 5 for conv2).  A band
    over the whole row would be mostly zeros (92% for conv1); tiles copy
    the (kw - stride) input columns that neighbouring tiles share twice,
    and multiply far fewer zeros.  The band is rebuilt from W on every
    call.  Backward is two matrix products: rows^T dz gives the band
    gradient, whose T blocks are summed into dW, and dz band^T gives the
    tile gradient, added back into dx with one strided add per kernel row
    and tile, so that overlapping tile spans accumulate.  Between forward
    and backward the layer holds the tile matrix (8 * batch * ho * (wo / T)
    * kh * wt * in bytes, about 36 MB for conv1 of the counting network at
    batch 64) and, under ReLU, its own output, from which the mask is read.
    When a Network places a MaxPool2d right after a ReLU conv, the pool
    applies that mask (see MaxPool2d), and the conv neither keeps its
    output nor masks its gradient.
    """

    kind = "conv2d"
    fields = ("in_channels", "out_channels", "kh", "kw", "stride", "activation")
    _masked_by_pool = False  # set by Network when a MaxPool2d follows

    def __init__(self, in_channels, out_channels, kh, kw, stride=1, activation="relu"):
        if activation not in ("relu", "linear"):
            raise ValueError(f"unknown activation {activation!r}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kh = kh
        self.kw = kw
        self.stride = stride
        self.activation = activation

    def shapes(self):
        kh, kw, c, f = self.kh, self.kw, self.in_channels, self.out_channels
        return {"W": ((kh, kw, c, f), kh * kw * c), "b": ((f,), None)}

    def _tile(self, wo: int) -> int:
        """Output columns per tile: the largest divisor of wo whose tile
        reads at most _TILE_COLS input columns (1 if none does)."""
        s, kw = self.stride, self.kw
        return max(
            (t for t in range(1, wo + 1) if wo % t == 0 and (t - 1) * s + kw <= _TILE_COLS),
            default=1,
        )

    def forward(self, x, training):
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise self._bad_shape(x, f"(batch, h, w, {self.in_channels})")
        b, h, w, c = x.shape
        kh, kw, s, f = self.kh, self.kw, self.stride, self.out_channels
        if h < kh or w < kw:
            raise self._bad_shape(x, f"at least {kh} x {kw} spatially")
        ho = (h - kh) // s + 1
        wo = (w - kw) // s + 1
        t = self._tile(wo)
        wt = (t - 1) * s + kw
        tiles = sliding_window_view(x, (kh, wt), axis=(1, 2))[:, ::s, :: t * s]
        rows = np.ascontiguousarray(tiles.transpose(0, 1, 2, 4, 5, 3)).reshape(
            b * ho * (wo // t), kh * wt * c
        )
        band = np.zeros((kh, wt, c, t, f), self.W.dtype)
        for j in range(t):
            band[:, j * s : j * s + kw, :, j] = self.W
        out = rows @ band.reshape(kh * wt * c, t * f)
        out += np.tile(self.b, t)
        relu = self.activation == "relu"
        if relu:
            np.maximum(out, 0.0, out=out)
        out = out.reshape(b, ho, wo, f)
        self._cache = (rows, band, x.shape, out if relu and not self._masked_by_pool else None)
        return out

    def backward(self, dout, need_dx=True):
        rows, band, x_shape, out = self._cache
        self._cache = None
        kh, wt, c, t, f = band.shape
        b, ho, wo, _ = dout.shape
        s, kw, nt = self.stride, self.kw, wo // t
        dz = dout * (out > 0) if out is not None else dout
        dz_tiles = dz.reshape(b * ho * nt, t * f)
        dband = (rows.T @ dz_tiles).reshape(band.shape)
        for j in range(t):
            self.dW += dband[:, j * s : j * s + kw, :, j]
        self.db += dz_tiles.sum(axis=0).reshape(t, f).sum(axis=0)
        if not need_dx:
            return None
        dtiles = (dz_tiles @ band.reshape(kh * wt * c, t * f).T).reshape(b, ho, nt, kh, wt, c)
        dx = np.zeros(x_shape, self.W.dtype)
        for di in range(kh):
            dst = dx[:, di : di + s * ho : s]
            for j in range(nt):
                dst[:, :, j * t * s : j * t * s + wt] += dtiles[:, :, j, di]
        return dx


class MaxPool2d(Layer):
    """Non-overlapping max pooling (stride = window size).

    Requires spatial dimensions divisible by the size.  Forward folds the
    size * size strided slices of the input with np.maximum and records,
    in one array the size of the output (uint8 for sizes up to 15), the
    index of the slice that holds each window's first maximum in
    row-major window order: a slice takes over only where it is strictly
    greater.  Backward writes each slice of the input gradient once, the
    output gradient where the slice is the winner and +0.0 elsewhere.

    When a Network places the pool right after a ReLU Conv2d, windows whose
    maximum is <= 0 route their gradient nowhere: that is the conv's ReLU
    mask, which then needs no pass of its own (ReLU zeroes exactly where
    the winning output is 0).  A pool on its own routes every window.
    """

    kind = "maxpool2d"
    fields = ("size",)
    _relu_input = False  # set by Network when a ReLU Conv2d precedes

    def __init__(self, size: int = 2):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = size

    def _slices(self):
        s = self.size
        return [np.s_[:, p::s, q::s] for p in range(s) for q in range(s)]

    def forward(self, x, training):
        if x.ndim != 4:
            raise self._bad_shape(x, "(batch, h, w, channels)")
        _, h, w, _ = x.shape
        s = self.size
        if h % s or w % s:
            raise self._bad_shape(x, f"spatial dims divisible by {s}")
        first, *rest = self._slices()
        out = x[first].copy()
        # each window's winning slice; s * s, past every real one, routes nowhere
        index = np.min_scalar_type(s * s).type
        winner = np.zeros(out.shape, dtype=index)
        # k only grows from slice to slice, so a max sets it where the slice
        # wins, without a masked (branching) store
        for k, sl in enumerate(rest, 1):
            np.maximum(winner, (x[sl] > out) * index(k), out=winner)
            np.maximum(out, x[sl], out=out)
        if self._relu_input:
            np.maximum(winner, (out <= 0.0) * index(s * s), out=winner)
        self._cache = (x.shape, winner)
        return out

    def backward(self, dout, need_dx=True):
        x_shape, winner = self._cache
        self._cache = None
        if not need_dx:
            return None
        dx = np.empty(x_shape, dout.dtype)
        # the gradient's bit patterns, as unsigned integers of its width, times
        # the 0/1 mask: an exact copy where the slice wins and +0.0 elsewhere,
        # in one strided pass
        uint = np.dtype(f"u{dout.itemsize}")
        bits = dout.view(uint)
        for k, sl in enumerate(self._slices()):
            np.multiply(bits, winner == k, out=dx[sl].view(uint))
        return dx


class Flatten(Layer):
    """Collapse all non-batch axes."""

    kind = "flatten"

    def forward(self, x, training):
        self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout, need_dx=True):
        return dout.reshape(self._cache)


class Dense(Layer):
    """Affine map with optional fused ReLU: y = act(x W + b)."""

    kind = "dense"
    fields = ("in_dim", "out_dim", "activation")

    def __init__(self, in_dim: int, out_dim: int, activation: str = "linear"):
        if activation not in ("relu", "linear"):
            raise ValueError(f"unknown activation {activation!r}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation

    def shapes(self):
        return {"W": ((self.in_dim, self.out_dim), self.in_dim), "b": ((self.out_dim,), None)}

    def forward(self, x, training):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise self._bad_shape(x, f"(batch, {self.in_dim})")
        out = x @ self.W + self.b
        if self.activation == "relu":
            np.maximum(out, 0.0, out=out)
        self._cache = (x, out)
        return out

    def backward(self, dout, need_dx=True):
        x, out = self._cache
        dz = dout * (out > 0) if self.activation == "relu" else dout
        self.dW += x.T @ dz
        self.db += dz.sum(axis=0)
        self._cache = None
        return dz @ self.W.T if need_dx else None


class SummaryInput(Layer):
    """Standardize each row of a (batch, dim) summary vector to zero mean
    and unit variance; constant rows become zeros."""

    kind = "summary_input"
    fields = ("dim",)

    def __init__(self, dim: int):
        self.dim = dim

    def forward(self, x, training):
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise self._bad_shape(x, f"(batch, {self.dim})")
        mean = x.mean(axis=1, keepdims=True)
        std = x.std(axis=1, keepdims=True)
        ok = std > 1e-12
        safe = np.where(ok, std, 1.0)
        y = np.where(ok, (x - mean) / safe, 0.0)
        self._cache = (y, safe, ok)
        return y

    def backward(self, dout, need_dx=True):
        y, std, ok = self._cache
        g_mean = dout.mean(axis=1, keepdims=True)
        gy_mean = (dout * y).mean(axis=1, keepdims=True)
        dx = np.where(ok, (dout - g_mean - y * gy_mean) / std, 0.0)
        self._cache = None
        return dx


class Softmax(Layer):
    """Row-wise softmax with max subtraction.

    backward() passes the gradient through unchanged: this engine always
    pairs softmax with cross-entropy, whose fused gradient with respect to
    the logits is computed by the loss and fed in directly.
    """

    kind = "softmax"
    trace_point = False

    def forward(self, x, training):
        if x.ndim != 2:
            raise self._bad_shape(x, "(batch, classes)")
        z = x - x.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def backward(self, dout, need_dx=True):
        return dout


_LAYER_KINDS = {
    cls.kind: cls
    for cls in (Lstm, Dropout, AsImage, Conv2d, MaxPool2d, Flatten, Dense, SummaryInput, Softmax)
}
# the fields whose constructors check them; every other field is a positive integer
_CHECKED_FIELDS = ("activation", "rate")


def _layer_from_descriptor(entry) -> Layer:
    """Build one unallocated layer from its checkpoint descriptor."""
    kind = entry.get("kind") if isinstance(entry, dict) else None
    if not isinstance(kind, str) or kind not in _LAYER_KINDS:
        raise ValueError(f"unknown layer kind {kind!r} in checkpoint")
    cls = _LAYER_KINDS[kind]
    for name in cls.fields:
        if name not in entry:
            raise ValueError(f"{kind} layer descriptor lacks {name!r}")
        value = entry[name]
        if name not in _CHECKED_FIELDS and (type(value) is not int or value < 1):
            raise ValueError(
                f"{kind} layer field {name!r} must be a positive integer, got {value!r}"
            )
    trace = entry.get("trace", cls.trace_point)
    if type(trace) is not bool:
        raise ValueError(f"{kind} layer field 'trace' must be a bool, got {trace!r}")
    layer = cls(*(entry[name] for name in cls.fields))
    layer.trace_point = trace
    return layer


class Network:
    """An ordered stack of layers trained with softmax cross-entropy.

    input_kind is "sequence" (samples are frames x n_features matrices)
    or "summary" (samples are flat feature vectors); it tells training and
    inference code which part of a sample to feed.
    """

    def __init__(self, layers, input_kind: str = "sequence", seed: int = 0):
        if input_kind not in ("sequence", "summary"):
            raise ValueError(f"unknown input_kind {input_kind!r}")
        self.layers = list(layers)
        self.input_kind = input_kind
        self.seed = seed
        self.dtype = np.dtype(np.float64)  # every parameter's; see cast
        self.rng = np.random.default_rng(seed)
        for layer in self.layers:
            layer.initialize(self.rng)
        # a pool right after a ReLU conv applies the conv's mask (see MaxPool2d)
        for conv, pool in zip(self.layers, self.layers[1:]):
            if isinstance(conv, Conv2d) and isinstance(pool, MaxPool2d):
                if conv.activation == "relu":
                    conv._masked_by_pool = pool._relu_input = True

    def forward(self, x, training=False, start=0, stop=None, keep_cache=True) -> np.ndarray:
        """Run layers[start:stop] (the whole stack by default) on x.

        Each layer keeps what its backward needs (its input, gates or row
        matrix) until the next forward.  An inference pass that will not be
        followed by backward passes keep_cache=False, which drops each
        layer's cache as soon as the layer returns.  A non-finite layer
        output raises FloatingPointError naming the layer.
        """
        out = np.asarray(x, dtype=self.dtype)
        with np.errstate(over="ignore", invalid="ignore"):  # raised below, not warned
            for i, layer in enumerate(self.layers[start:stop], start):
                out = layer.forward(out, training)
                if not keep_cache:
                    layer._cache = None
                if not np.isfinite(out).all():
                    raise FloatingPointError(f"non-finite output at layer {i} ({layer.name})")
        return out

    def backward(self, dout: np.ndarray) -> None:
        """Accumulate parameter gradients; the first layer skips its unread dx."""
        for layer in reversed(self.layers[1:]):
            dout = layer.backward(dout)
        self.layers[0].backward(dout, need_dx=False)

    def params(self) -> list:
        out = []
        for i, layer in enumerate(self.layers):
            for name, value, grad in layer.params():
                out.append((f"layer{i}.{name}", value, grad))
        return out

    @property
    def last_dense(self) -> int:
        """Index of the final Dense layer, the only one fine-tuning updates."""
        dense = [i for i, layer in enumerate(self.layers) if isinstance(layer, Dense)]
        if not dense:
            raise ValueError("network has no dense layer to fine-tune")
        return dense[-1]

    def cast(self, dtype) -> None:
        """Convert every parameter to dtype in place; the gradients become
        fresh zeros of that dtype.  Widening float32 to float64 is exact."""
        for layer in self.layers:
            for name in layer.shapes():
                value = getattr(layer, name)
                setattr(layer, name, value.astype(dtype))
                setattr(layer, "d" + name, np.zeros(value.shape, dtype))
        self.dtype = np.dtype(dtype)

    def zero_grads(self) -> None:
        for _, _, grad in self.params():
            grad[...] = 0.0

    def loss_and_gradients(self, x, labels, training: bool = True):
        """Mean cross-entropy over the batch plus parameter gradients.

        `labels` holds 1-based class labels.  Returns (loss, probabilities);
        gradients are left in the layers' grad buffers.
        """
        self.zero_grads()
        probs = self.forward(x, training=training)
        loss, dlogits = _cross_entropy(probs, labels)
        self.backward(dlogits)
        return loss, probs

    def sgd_step(self, lr: float) -> None:
        """theta <- theta - lr * grad.  The gradients are kept; the next
        loss_and_gradients clears them."""
        for _, value, grad in self.params():
            value -= lr * grad

    def get_param_vector(self) -> np.ndarray:
        return np.concatenate([v.ravel() for _, v, _ in self.params()] or [np.zeros(0)])

    def set_param_vector(self, vector: np.ndarray) -> None:
        vector = np.asarray(vector)  # each slice converts to its parameter's dtype
        off = 0
        for _, value, _ in self.params():
            value[...] = vector[off : off + value.size].reshape(value.shape)
            off += value.size
        if off != vector.size:
            raise ValueError("parameter vector length mismatch")

    def descriptor(self) -> dict:
        return {
            "input_kind": self.input_kind,
            "seed": self.seed,
            "layers": [layer.descriptor() for layer in self.layers],
        }


def _head(widths) -> list:
    """dense -> dense (both ReLU) -> dense N_CLASSES -> softmax from the three
    input widths; its last dense layer is the one fine-tuning updates."""
    a, b, c = widths
    return [Dense(a, b, "relu"), Dense(b, c, "relu"), Dense(c, N_CLASSES), Softmax()]


def _cnn_lstm(seed, in_dim, cells, conv1, conv2, widths) -> Network:
    """LSTM -> dropout -> conv + pool -> conv -> flatten -> _head(widths),
    where conv1 and conv2 are Conv2d arguments (ReLU)."""
    first = Conv2d(*conv1)
    first.trace_point = False  # the conv-pool block is traced at its pool
    stack = [Lstm(in_dim, cells), Dropout(0.1), AsImage(), first, MaxPool2d(2)]
    stack += [Conv2d(*conv2), Flatten(), *_head(widths)]
    return Network(stack, input_kind="sequence", seed=seed)


def build_cnn_lstm(seed: int = 0) -> Network:
    """The full counting network on 200 x 360 windows (see module docstring)."""
    return _cnn_lstm(seed, 360, 64, (1, 6, 5, 5), (6, 10, 5, 3, 3), (3200, 1000, 200))


def build_fcbp(seed: int = 0) -> Network:
    """Fully-connected baseline on per-window feature means: 360-300-100-5."""
    return Network([SummaryInput(360), *_head((360, 300, 100))], input_kind="summary", seed=seed)


def build_cnn_lstm_toy(seed: int = 0) -> Network:
    """The counting stack shrunk to a 12 x 20 input for fast gradient checks."""
    return _cnn_lstm(seed, 20, 16, (1, 3, 3, 3), (3, 4, 3, 3, 2), (24, 16, 10))


def data_loss(net: Network, x, labels) -> float:
    """Cross-entropy of a forward pass without touching gradients."""
    return float(_cross_entropy(net.forward(x, keep_cache=False), labels)[0])


def finite_difference_check(
    net: Network,
    x,
    labels,
    eps: float = 1e-5,
    max_per_array: int | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Dropout is disabled (training=False on both routes).  When
    max_per_array is given, only the entries with the largest-magnitude
    analytic gradients in each parameter array are probed: those carry
    the training signal, while near-zero gradients sit below the
    floating-point noise floor of a central difference on an O(1) loss
    and cannot be verified at any eps.  The relative error of a parameter
    is |analytic - numeric| / max(|analytic|, |numeric|, 1e-12).
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    x = np.asarray(x, dtype=np.float64)
    net.loss_and_gradients(x, labels, training=False)
    analytic = [(value, grad.copy()) for _, value, grad in net.params()]
    worst = 0.0
    for value, grad in analytic:
        flat = value.ravel()
        gflat = grad.ravel()
        if max_per_array is not None and flat.size > max_per_array:
            idxs = np.argpartition(np.abs(gflat), -max_per_array)[-max_per_array:]
            idxs = np.sort(idxs)
        else:
            idxs = np.arange(flat.size)
        for k in idxs:
            orig = flat[k]
            flat[k] = orig + eps
            up = data_loss(net, x, labels)
            flat[k] = orig - eps
            down = data_loss(net, x, labels)
            flat[k] = orig
            numeric = (up - down) / (2.0 * eps)
            a = gflat[k]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            if rel > worst:
                worst = rel
    return worst


def finetune_last_dense(net: Network, head, label: int) -> None:
    """Run FINETUNE_STEPS SGD steps of FINETUNE_LR on the final dense layer only.

    `head` is that layer's input, net.forward(x, stop=net.last_dense).  Its
    weights and bias follow, through the backward of the layers from it on,
    the cross-entropy toward `label` (1-based); all else is left untouched.
    A non-finite step output raises FloatingPointError.
    """
    last = net.last_dense
    layer = net.layers[last]
    head = np.asarray(head, dtype=np.float64)
    labels = np.full(head.shape[0], int(label))
    for _ in range(FINETUNE_STEPS):
        layer.dW[...] = 0.0
        layer.db[...] = 0.0
        _, g = _cross_entropy(net.forward(head, start=last), labels)
        for later in reversed(net.layers[last + 1 :]):
            g = later.backward(g)
        layer.backward(g, need_dx=False)
        layer.W -= FINETUNE_LR * layer.dW
        layer.b -= FINETUNE_LR * layer.db


def save_network(net: Network, path) -> None:
    """Checkpoint: magic, version, JSON architecture, then f64 parameters."""
    arch = json.dumps(net.descriptor()).encode("utf-8")
    params = (np.ascontiguousarray(value, dtype="<f8") for _, value, _ in net.params())
    write_framed(path, _HEAD, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, [len(arch)], arch, *params)


def load_network(path) -> Network:
    """Read a checkpoint written by save_network.

    The architecture is validated, and the parameter bytes it implies are
    checked against the file and for non-finite values, before any layer
    allocates its parameters.
    """
    raw, (arch_len,) = read_framed(path, _HEAD, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
    off = _HEAD.size + arch_len
    if off > len(raw):
        raise ValueError("checkpoint ends inside its architecture descriptor")
    try:
        arch = json.loads(raw[_HEAD.size : off].decode("utf-8"))
    except RecursionError:
        raise ValueError("checkpoint architecture descriptor is nested too deeply") from None
    if not isinstance(arch, dict) or not isinstance(arch.get("layers"), list):
        raise ValueError("checkpoint architecture must hold a list of layers")
    seed = arch.get("seed")
    if type(seed) is not int or seed < 0:
        raise ValueError(f"checkpoint seed must be a non-negative integer, got {seed!r}")
    layers = [_layer_from_descriptor(entry) for entry in arch["layers"]]
    need = 8 * sum(layer.n_params for layer in layers)
    if len(raw) - off != need:
        raise ValueError(
            f"checkpoint holds {len(raw) - off} parameter bytes; its architecture needs {need}"
        )
    params = np.frombuffer(raw, dtype="<f8", offset=off)
    if not np.isfinite(params).all():
        raise ValueError("checkpoint holds non-finite parameters")
    net = Network(layers, input_kind=arch.get("input_kind"), seed=seed)
    net.set_param_vector(params)
    return net
