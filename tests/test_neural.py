"""Layer engine: shapes, losses, gradients, training mechanics, storage."""

import json
import struct

import numpy as np
import pytest

from csicount import neural
from csicount.neural import (
    Conv2d,
    Dense,
    Dropout,
    Layer,
    Lstm,
    MaxPool2d,
    Network,
    Softmax,
    build_cnn_lstm,
    build_cnn_lstm_toy,
    build_fcbp,
    data_loss,
    finetune_last_dense,
    finite_difference_check,
    load_network,
    save_network,
)

# pinned evaluation point for the full toy-scale sweep: biases move whole
# layers, so a generic random point can straddle a rectifier kink inside
# the central-difference interval; this (seed, input) pair keeps all probes
# on one side while exercising every layer
TOY_NET_SEED = 4
TOY_X = np.random.default_rng(5).standard_normal((2, 12, 20)) * 3.0
TOY_LABELS = [1, 2]


def toy_batch(seed=0, batch=2):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, 12, 20))
    labels = 1 + rng.integers(0, 5, batch)
    return x, labels


# ----------------------------------------------------------- architecture


def test_parameter_counts():
    for build in (build_cnn_lstm, build_fcbp, build_cnn_lstm_toy):
        for layer in build().layers:
            assert layer.n_params == sum(v.size for _, v, _ in layer.params())


def traced_shapes(net, input_shape):
    # output shapes (batch axis dropped) at the layers whose checkpoint
    # "trace" flag is set
    out = np.zeros((1, *input_shape))
    shapes = []
    for layer in net.layers:
        out = layer.forward(out, training=False)
        if layer.trace_point:
            shapes.append(out.shape[1:])
    return shapes


def test_full_network_shape_trace():
    assert traced_shapes(build_cnn_lstm(), (200, 360)) == [
        (200, 64),
        (98, 30, 6),
        (32, 10, 10),
        (3200,),
        (1000,),
        (200,),
        (5,),
    ]


def test_fcbp_shape_trace():
    assert traced_shapes(build_fcbp(), (360,)) == [(360,), (300,), (100,), (5,)]


def test_toy_shape_trace():
    assert traced_shapes(build_cnn_lstm_toy(), (12, 20)) == [
        (12, 16),
        (5, 7, 3),
        (2, 3, 4),
        (24,),
        (16,),
        (10,),
        (5,),
    ]


def test_initialization_is_seeded():
    a = build_cnn_lstm_toy(seed=3)
    b = build_cnn_lstm_toy(seed=3)
    c = build_cnn_lstm_toy(seed=4)
    assert np.array_equal(a.get_param_vector(), b.get_param_vector())
    assert not np.array_equal(a.get_param_vector(), c.get_param_vector())
    # the checkpoint's parameter order, and the order of the draws below
    assert [name for name, _, _ in a.params()] == [
        "layer0.W", "layer0.U", "layer0.b", "layer3.W", "layer3.b", "layer5.W", "layer5.b",
        "layer7.W", "layer7.b", "layer8.W", "layer8.b", "layer9.W", "layer9.b",
    ]
    # one generator draws every weight in layer order, uniform within
    # 1/sqrt(fan_in), where fan_in is all axes but the output one; biases
    # start at zero and draw nothing
    rng = np.random.default_rng(3)
    for name, value, _ in a.params():
        if name.endswith(".b"):
            assert not value.any(), name
        else:
            bound = 1.0 / np.sqrt(np.prod(value.shape[:-1]))
            assert np.array_equal(value, rng.uniform(-bound, bound, value.shape)), name


# ----------------------------------------------------------- forward pass


def test_softmax_probabilities():
    net = build_cnn_lstm_toy(seed=1)
    x, _ = toy_batch(seed=2, batch=3)
    probs = net.forward(x)
    assert probs.shape == (3, 5)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12
    assert (probs > 0).all() and (probs < 1).all()


def test_softmax_shift_stability():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((4, 5))
    sm = Softmax()
    a = sm.forward(z, False)
    b = sm.forward(z + 1e3, False)
    assert np.max(np.abs(a - b)) < 1e-12


def test_forward_deterministic():
    net = build_cnn_lstm_toy(seed=5)
    x, _ = toy_batch(seed=6)
    assert np.array_equal(net.forward(x), net.forward(x))


def test_zero_final_dense_gives_uniform():
    net = build_cnn_lstm_toy(seed=7)
    final = net.layers[-2]
    final.W[...] = 0.0
    final.b[...] = 0.0
    x, _ = toy_batch(seed=8)
    probs = net.forward(x)
    assert np.max(np.abs(probs - 0.2)) < 1e-12


def test_maxpool_small_case():
    pool = MaxPool2d(2)
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
    out = pool.forward(x, False)
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 4.0
    dx = pool.backward(np.ones((1, 1, 1, 1)))
    assert np.array_equal(dx[0, :, :, 0], [[0.0, 0.0], [0.0, 1.0]])


def test_conv_matches_brute_force():
    rng = np.random.default_rng(9)
    conv = Conv2d(1, 2, 3, 3, stride=2, activation="linear")
    conv.initialize(rng)
    x = rng.standard_normal((1, 7, 7, 1))
    out = conv.forward(x, False)
    assert out.shape == (1, 3, 3, 2)
    for i in range(3):
        for j in range(3):
            for f in range(2):
                patch = x[0, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3, 0]
                ref = (patch * conv.W[:, :, 0, f]).sum() + conv.b[f]
                assert abs(out[0, i, j, f] - ref) < 1e-12


def conv_reference(conv, x, dout):
    """Forward output and (dx, dW, db) of a conv by loops over the output
    pixels, each a dot product of its input patch with the filters (oracle)."""
    n, h, w, c = x.shape
    kh, kw, s = conv.kh, conv.kw, conv.stride
    ho, wo = (h - kh) // s + 1, (w - kw) // s + 1
    z = np.empty((n, ho, wo, conv.out_channels))
    for b in range(n):
        for i in range(ho):
            for j in range(wo):
                patch = x[b, i * s : i * s + kh, j * s : j * s + kw]
                z[b, i, j] = np.tensordot(patch, conv.W, axes=3) + conv.b
    relu = conv.activation == "relu"
    out = np.maximum(z, 0.0) if relu else z
    dz = np.where(z > 0, dout, 0.0) if relu else dout
    dx = np.zeros_like(x)
    dW = np.zeros_like(conv.W)
    db = np.zeros_like(conv.b)
    for b in range(n):
        for i in range(ho):
            for j in range(wo):
                g = dz[b, i, j]
                db += g
                dW += x[b, i * s : i * s + kh, j * s : j * s + kw, :, None] * g
                dx[b, i * s : i * s + kh, j * s : j * s + kw] += conv.W @ g
    return out, dx, dW, db


@pytest.mark.parametrize(
    "conv, x_shape",
    [
        # stride 3 leaves the last input row and the last two columns unread
        (Conv2d(3, 4, 5, 3, stride=3, activation="linear"), (3, 15, 14, 3)),
        (Conv2d(3, 4, 5, 3, stride=3, activation="relu"), (3, 15, 14, 3)),
        (Conv2d(1, 2, 3, 4, stride=1, activation="relu"), (2, 7, 9, 1)),
        # one-row kernels and kernels as tall as the input (one output row):
        # the row matrix is then a view of x, which backward must not write
        (Conv2d(2, 3, 1, 3, stride=1, activation="relu"), (2, 5, 6, 2)),
        (Conv2d(2, 3, 1, 2, stride=2, activation="linear"), (2, 5, 6, 2)),
        (Conv2d(2, 3, 4, 2, stride=1, activation="relu"), (2, 4, 7, 2)),
        (Conv2d(2, 3, 5, 3, stride=2, activation="linear"), (3, 5, 8, 2)),
        # several tiles whose input spans overlap: stride 1 with kw 5 (two
        # tiles of 20 columns, 4 shared), and stride 3 with kw 5 over two
        # channels (two tiles of 7 columns, 2 shared); then one tile that
        # covers every output column, with its last input column unread
        (Conv2d(1, 2, 3, 5, stride=1, activation="relu"), (2, 6, 44, 1)),
        (Conv2d(2, 3, 3, 5, stride=3, activation="relu"), (2, 7, 44, 2)),
        (Conv2d(2, 3, 2, 3, stride=2, activation="linear"), (2, 6, 14, 2)),
        # the counting network's two convs on its own shapes
        (Conv2d(1, 6, 5, 5, stride=1, activation="relu"), (2, 200, 64, 1)),
        (Conv2d(6, 10, 5, 3, stride=3, activation="relu"), (2, 98, 30, 6)),
    ],
)
def test_conv_forward_and_gradients_match_nested_loops(conv, x_shape):
    rng = np.random.default_rng(21)
    conv.initialize(rng)
    conv.b[:] = 0.3 * rng.standard_normal(conv.out_channels)
    x = rng.standard_normal(x_shape)
    out = conv.forward(x, True)
    dout = rng.standard_normal(out.shape)
    before = dout.copy()
    dx = conv.backward(dout)
    assert np.array_equal(dout, before)
    ref_out, ref_dx, ref_dW, ref_db = conv_reference(conv, x, dout)
    if conv.activation == "relu":
        assert (ref_out == 0).any() and (ref_out > 0).any()
    assert out.shape == ref_out.shape
    # 1e-12, or 2e-14 of the largest value where sums over the counting
    # shapes' thousands of terms reach the hundreds
    for got, ref in ((out, ref_out), (dx, ref_dx), (conv.dW, ref_dW), (conv.db, ref_db)):
        assert np.max(np.abs(got - ref)) < max(1e-12, 2e-14 * np.max(np.abs(ref)))


@pytest.mark.parametrize(
    "conv, wo, tile",
    [
        (Conv2d(1, 6, 5, 5, stride=1), 60, 20),  # the counting network's conv1
        (Conv2d(6, 10, 5, 3, stride=3), 10, 5),  # and conv2
        (Conv2d(1, 2, 3, 5, stride=1), 40, 20),
        (Conv2d(2, 3, 3, 5, stride=3), 14, 7),
        (Conv2d(2, 3, 2, 3, stride=2), 6, 6),
        (Conv2d(1, 1, 1, 30, stride=1), 5, 1),  # a kernel wider than any tile
    ],
)
def test_conv_tile_is_the_largest_divisor_reading_at_most_24_columns(conv, wo, tile):
    assert conv._tile(wo) == tile


@pytest.mark.parametrize("size", [2, 3])
def test_maxpool_routes_gradient_to_first_maximum_on_ties(size):
    rng = np.random.default_rng(22)
    b, ho, wo, c = 3, 4, 5, 2
    x = rng.integers(0, 3, (b, ho * size, wo * size, c)).astype(float)
    # whole-window ties in every batch item and channel
    x[0, :size, :size, :] = 7.0
    x[1, size : 2 * size, -size:, 1] = -1.0
    x[2, -size:, :size, 0] = 0.0
    pool = MaxPool2d(size)
    out = pool.forward(x, True)
    dout = rng.standard_normal(out.shape)
    dx = pool.backward(dout)
    ref_out = np.empty(out.shape)
    ref_dx = np.zeros(x.shape)
    for n in range(b):
        for i in range(ho):
            for j in range(wo):
                for ch in range(c):
                    best = None
                    for p in range(size):  # row-major window order
                        for q in range(size):
                            v = x[n, i * size + p, j * size + q, ch]
                            if best is None or v > best[0]:
                                best = (v, p, q)
                    v, p, q = best
                    ref_out[n, i, j, ch] = v
                    ref_dx[n, i * size + p, j * size + q, ch] = dout[n, i, j, ch]
    assert out.tobytes() == ref_out.tobytes()
    assert dx.tobytes() == ref_dx.tobytes()
    # the all-7 window of item 0 passes its whole gradient to its corner
    assert np.flatnonzero(dx[0, :size, :size, 0]).tolist() == [0]


def test_pool_after_a_relu_conv_applies_the_conv_mask():
    # a Network wires a ReLU conv to the pool after it: the pool routes a
    # window whose maximum is 0 nowhere and the conv masks nothing, which
    # gives the values of pool backward, then * (out > 0), then the conv
    rng = np.random.default_rng(41)
    fused = Network([Conv2d(1, 2, 2, 2, activation="relu"), MaxPool2d(2)], seed=42)
    conv, pool = fused.layers
    conv.b[:] = [2.0, -3.0]  # channel 1 is mostly rectified to 0
    alone_conv = Conv2d(1, 2, 2, 2, activation="relu")
    alone_conv.initialize(rng)
    alone_conv.W[...], alone_conv.b[...] = conv.W, conv.b
    alone_pool = MaxPool2d(2)
    x = rng.standard_normal((2, 9, 9, 1))
    x[0, :5, :5] = 1.0  # constant input: positive ties across whole windows

    out = conv.forward(x, True)
    pooled = pool.forward(out, True)
    windows = out.reshape(2, 4, 2, 4, 2, 2).transpose(0, 1, 3, 5, 2, 4).reshape(2, 4, 4, 2, 4)
    assert (windows.max(axis=-1) == 0.0).any()
    assert ((windows == windows.max(axis=-1, keepdims=True)).sum(axis=-1) == 4)[
        windows.max(axis=-1) > 0
    ].any()
    dout = rng.standard_normal(pooled.shape)
    dpool = pool.backward(dout)
    dx = conv.backward(dpool)

    alone_out = alone_conv.forward(x, True)
    assert alone_pool.forward(alone_out, True).tobytes() == pooled.tobytes()
    ref_dpool = alone_pool.backward(dout)
    assert np.array_equal(dpool, ref_dpool * (alone_out > 0))
    ref_dx = alone_conv.backward(ref_dpool)
    assert np.array_equal(dx, ref_dx)
    assert np.array_equal(conv.dW, alone_conv.dW)
    assert np.array_equal(conv.db, alone_conv.db)


def test_loaded_network_keeps_the_pool_mask_and_its_gradient_bytes(tmp_path):
    net = build_cnn_lstm_toy(seed=43)
    save_network(net, tmp_path / "net.csnn")
    back = load_network(tmp_path / "net.csnn")
    for loaded in (net, back):
        conv, pool = loaded.layers[3:5]
        assert conv._masked_by_pool and pool._relu_input
        loaded.loss_and_gradients(TOY_X, TOY_LABELS, training=False)
    for (name, _, g), (_, _, ref) in zip(back.params(), net.params()):
        assert g.tobytes() == ref.tobytes(), name


def test_conv_and_pool_skip_their_input_gradient_on_request():
    rng = np.random.default_rng(44)
    conv = Conv2d(2, 3, 3, 5, stride=1, activation="relu")  # two overlapping tiles
    conv.initialize(rng)
    x = rng.standard_normal((2, 6, 44, 2))
    dout = rng.standard_normal(conv.forward(x, True).shape)
    assert conv.backward(dout).shape == x.shape
    grads = conv.dW.tobytes(), conv.db.tobytes()
    conv.dW[...] = 0.0
    conv.db[...] = 0.0
    conv.forward(x, True)
    assert conv.backward(dout, need_dx=False) is None
    assert (conv.dW.tobytes(), conv.db.tobytes()) == grads

    pool = MaxPool2d(2)
    pooled = pool.forward(x, True)
    assert pool.backward(np.ones_like(pooled), need_dx=False) is None


def test_conv_relu_clamps_negatives():
    rng = np.random.default_rng(10)
    conv = Conv2d(1, 1, 2, 2, stride=1, activation="relu")
    conv.initialize(rng)
    x = rng.standard_normal((2, 5, 5, 1))
    out = conv.forward(x, False)
    assert (out >= 0).all()


def test_shape_mismatch_names_the_layer():
    net = build_cnn_lstm_toy()
    with pytest.raises(ValueError, match="Lstm"):
        net.forward(np.zeros((1, 12, 21)))
    with pytest.raises(ValueError, match="Dense"):
        Dense(4, 2).forward(np.zeros((1, 5)), False)


def test_non_finite_intermediate_names_the_layer():
    net = build_cnn_lstm_toy(seed=11)
    net.layers[-2].W[...] = np.nan  # poison the final affine map
    x, _ = toy_batch(seed=12)
    with pytest.raises(FloatingPointError, match=r"layer 9 \(Dense\)"):
        net.forward(x)


# ------------------------------------------------------------------ loss


def test_uniform_prediction_loss_is_ln5():
    net = build_cnn_lstm_toy(seed=13)
    final = net.layers[-2]
    final.W[...] = 0.0
    final.b[...] = 0.0
    x, labels = toy_batch(seed=14, batch=4)
    loss, probs = net.loss_and_gradients(x, labels, training=False)
    assert abs(loss - np.log(5.0)) < 1e-12
    assert np.max(np.abs(probs - 0.2)) < 1e-12


def test_perfect_prediction_loss_near_zero():
    net = Network([Softmax()], input_kind="summary", seed=0)
    logits = np.array([[60.0, 0.0, 0.0, 0.0, 0.0]])
    loss, _ = net.loss_and_gradients(logits, [1], training=False)
    assert 0.0 <= loss <= 1e-11


def test_label_range_validation():
    net = build_cnn_lstm_toy(seed=15)
    x, _ = toy_batch(seed=16)
    with pytest.raises(ValueError):
        net.loss_and_gradients(x, [0, 1])
    with pytest.raises(ValueError):
        net.loss_and_gradients(x, [1, 6])


def test_loss_gradient_direction():
    # one SGD step on a single sample must lower that sample's loss
    net = build_cnn_lstm_toy(seed=17)
    x, _ = toy_batch(seed=18, batch=1)
    labels = [3]
    before, _ = net.loss_and_gradients(x, labels, training=False)
    net.sgd_step(0.05)
    after = data_loss(net, x, labels)
    assert after < before


# -------------------------------------------------------------- gradients


def test_gradcheck_dense_only():
    net = Network(
        [Dense(6, 8, "relu"), Dense(8, 5, "linear"), Softmax()],
        input_kind="summary",
        seed=1,
    )
    rng = np.random.default_rng(19)
    x = rng.standard_normal((3, 6))
    err = finite_difference_check(net, x, [1, 3, 5], eps=1e-5)
    assert err < 1e-6


def test_gradcheck_full_toy_network():
    net = build_cnn_lstm_toy(seed=TOY_NET_SEED)
    err = finite_difference_check(net, TOY_X, TOY_LABELS, eps=1e-5)
    assert err < 1e-4


class _LastStep(Layer):
    """Test-only shim: keep the final time step of an LSTM sequence."""

    trace_point = False

    def forward(self, x, training):
        self._shape = x.shape
        return x[:, -1]

    def backward(self, dout):
        full = np.zeros(self._shape)
        full[:, -1] = dout
        return full


def test_gradcheck_lstm_only():
    net = Network(
        [Lstm(4, 3), _LastStep(), Dense(3, 5, "linear"), Softmax()],
        input_kind="sequence",
        seed=2,
    )
    rng = np.random.default_rng(20)
    x = rng.standard_normal((2, 6, 4))
    err = finite_difference_check(net, x, [2, 4], eps=1e-5)
    assert err < 1e-6


def test_gradcheck_detects_corrupted_gradient():
    class BrokenDense(Dense):
        def backward(self, dout, need_dx=True):
            dx = super().backward(dout, need_dx)
            self.dW *= 1.05
            return dx

    net = Network(
        [BrokenDense(6, 5, "linear"), Softmax()], input_kind="summary", seed=3
    )
    rng = np.random.default_rng(21)
    x = rng.standard_normal((2, 6))
    err = finite_difference_check(net, x, [1, 2], eps=1e-5)
    assert err > 1e-2


def test_gradcheck_top_k_subset():
    net = build_cnn_lstm_toy(seed=TOY_NET_SEED)
    err = finite_difference_check(net, TOY_X, TOY_LABELS, eps=1e-5, max_per_array=10)
    assert err < 1e-4


# ---------------------------------------------------------------- dropout


def test_dropout_identity_at_inference():
    layer = Dropout(0.1)
    layer.initialize(np.random.default_rng(0))
    x = np.ones((4, 10))
    assert layer.forward(x, training=False) is x


def test_dropout_keep_fraction():
    layer = Dropout(0.1)
    layer.initialize(np.random.default_rng(22))
    n = 100_000
    out = layer.forward(np.ones((1, n)), training=True)
    kept = float(np.count_nonzero(out)) / n
    sigma = np.sqrt(0.9 * 0.1 / n)
    assert abs(kept - 0.9) < 3 * sigma
    # inverted scaling: surviving activations are 1/keep
    assert np.allclose(out[out != 0], 1.0 / 0.9)


def test_dropout_backward_reuses_mask():
    layer = Dropout(0.3)
    layer.initialize(np.random.default_rng(23))
    x = np.ones((2, 50))
    out = layer.forward(x, training=True)
    dout = np.ones_like(out)
    dx = layer.backward(dout)
    assert np.array_equal(dx, out)  # same mask, same scaling


def test_dropout_rate_validation():
    with pytest.raises(ValueError):
        Dropout(1.0)
    with pytest.raises(ValueError):
        Dropout(-0.1)


# --------------------------------------------------------------- training


def test_sgd_lr_zero_leaves_parameters_bitwise():
    net = build_cnn_lstm_toy(seed=24)
    x, labels = toy_batch(seed=25)
    before = net.get_param_vector()
    net.loss_and_gradients(x, labels, training=False)
    net.sgd_step(0.0)
    assert np.array_equal(net.get_param_vector(), before)


def test_training_is_deterministic():
    def run():
        net = build_cnn_lstm_toy(seed=26)
        for step in range(5):
            x, labels = toy_batch(seed=100 + step, batch=4)
            net.loss_and_gradients(x, labels, training=True)
            net.sgd_step(0.1)
        return net.get_param_vector()

    assert np.array_equal(run(), run())


# each network, with the shape of one of its samples
DTYPE_NETS = [
    pytest.param(build_cnn_lstm, (200, 360), id="cnn_lstm"),
    pytest.param(build_fcbp, (360,), id="fcbp"),
    pytest.param(build_cnn_lstm_toy, (12, 20), id="cnn_lstm_toy"),
]


def float32_batch(sample_shape, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, *sample_shape)).astype(np.float32)
    return x, 1 + rng.integers(0, 5, 2)


@pytest.mark.parametrize("build, sample_shape", DTYPE_NETS)
def test_a_float32_network_computes_every_array_in_float32(build, sample_shape):
    net = build(seed=40)
    net.cast(np.float32)
    x, labels = float32_batch(sample_shape, seed=41)
    net.zero_grads()
    out = x
    for layer in net.layers:
        out = layer.forward(out, training=True)
        assert out.dtype == np.float32, f"{layer.name} forward"
    _, g = neural._cross_entropy(out, labels)
    for layer in reversed(net.layers):
        g = layer.backward(g)
        assert g.dtype == np.float32, f"{layer.name} backward"
    for name, value, grad in net.params():
        assert value.dtype == grad.dtype == np.float32, name
        assert grad.any(), name
    assert net.forward(x.astype(np.float64)).dtype == np.float32


@pytest.mark.parametrize("build, sample_shape", [DTYPE_NETS[0], DTYPE_NETS[2]])
def test_float32_gradients_match_float64_within_1e_5(build, sample_shape):
    net = build(seed=42)
    x, labels = float32_batch(sample_shape, seed=43)
    # float32-representable parameters, so that only the arithmetic differs
    net.cast(np.float32)
    net.cast(np.float64)
    loss64, _ = net.loss_and_gradients(x, labels, training=False)
    grads64 = [grad.copy() for _, _, grad in net.params()]
    net.cast(np.float32)
    loss32, _ = net.loss_and_gradients(x, labels, training=False)
    assert abs(loss32 - loss64) <= 1e-5 * loss64
    for (name, _, grad32), grad64 in zip(net.params(), grads64):
        assert np.linalg.norm(grad32 - grad64) <= 1e-5 * np.linalg.norm(grad64), name


def test_cast_converts_parameters_and_zeroes_gradients():
    net = build_cnn_lstm_toy(seed=44)
    x, labels = toy_batch(seed=45)
    net.loss_and_gradients(x, labels, training=False)
    before = net.get_param_vector()
    net.cast(np.float32)
    assert net.dtype == np.float32
    assert np.array_equal(net.get_param_vector(), before.astype(np.float32))
    net.cast(np.float64)
    assert net.dtype == np.float64
    assert np.array_equal(net.get_param_vector(), before.astype(np.float32))
    for name, value, grad in net.params():
        assert value.dtype == grad.dtype == np.float64, name
        assert not grad.any(), name


def test_quadratic_toy_convergence():
    # single linear dense + squared loss wired here: a convex problem
    # whose optimum is the generating parameters themselves
    rng = np.random.default_rng(27)
    x = rng.standard_normal((50, 3))
    w_true = np.array([[0.5], [-0.3], [0.2]])
    b_true = np.array([0.1])
    y = x @ w_true + b_true
    net = Network([Dense(3, 1, "linear")], input_kind="summary", seed=28)
    layer = net.layers[0]
    for _ in range(1000):
        net.zero_grads()
        pred = net.forward(x)
        net.backward(2.0 * (pred - y) / x.shape[0])
        net.sgd_step(0.1)
    assert np.max(np.abs(layer.W - w_true)) < 1e-6
    assert np.max(np.abs(layer.b - b_true)) < 1e-6


# ------------------------------------------------------------- finetuning


def test_finetune_touches_only_last_dense():
    net = build_fcbp(seed=29)
    rng = np.random.default_rng(30)
    x = rng.standard_normal((1, 360))
    snapshot = [(name, value.copy()) for name, value, _ in net.params()]
    before = data_loss(net, x, [4])
    finetune_last_dense(net, net.forward(x, stop=net.last_dense), 4)
    after = data_loss(net, x, [4])
    assert after < before
    changed = {name for (name, old), (name2, new) in zip(
        snapshot, [(n, v) for n, v, _ in net.params()]
    ) if not np.array_equal(old, new)}
    final = f"layer{len(net.layers) - 2}"
    assert changed == {f"{final}.W", f"{final}.b"}


def finetune_reference(net, x, label, lr=neural.FINETUNE_LR, steps=neural.FINETUNE_STEPS):
    """Last-dense fine-tune by a front pass and a hand-rolled softmax (oracle)."""
    last = max(i for i, layer in enumerate(net.layers) if isinstance(layer, Dense))
    layer = net.layers[last]
    out = x
    for front in net.layers[:last]:
        out = front.forward(out, training=False)
    onehot = np.zeros((out.shape[0], layer.out_dim))
    onehot[:, label - 1] = 1.0
    for _ in range(steps):
        z = out @ layer.W + layer.b
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / out.shape[0]
        layer.W -= lr * (out.T @ g)
        layer.b -= lr * g.sum(axis=0)


def test_finetune_from_head_input_matches_front_pass_bitwise():
    # the fine-tune takes the last dense layer's input, runs no front layer
    # and yields the very weights of a front pass plus a hand-rolled softmax
    for build, x in (
        (build_cnn_lstm_toy, TOY_X[:1]),
        (build_fcbp, np.random.default_rng(33).standard_normal((1, 360))),
    ):
        full, split = build(seed=34), build(seed=34)
        finetune_reference(full, x, 3)
        last = split.last_dense
        head = split.forward(x, stop=last)
        ran = []
        for layer in split.layers[:last]:
            layer.forward = lambda *a, _f=layer.forward: ran.append(1) or _f(*a)
        finetune_last_dense(split, head, 3)
        assert ran == []
        for (name, a, _), (_, b, _) in zip(full.params(), split.params()):
            assert a.tobytes() == b.tobytes(), name


def test_finetune_steps_back_through_a_relu_on_the_last_dense_layer():
    # a fused ReLU on the final dense layer gives its dead units no step:
    # each fine-tune step is the SGD step on loss_and_gradients, bit for bit
    x = np.random.default_rng(40).standard_normal((3, 6))
    net, ref = (Network([Dense(6, 5, "relu"), Softmax()], "summary", seed=41) for _ in "ab")
    assert ((x @ net.layers[0].W + net.layers[0].b) <= 0).any()  # some units are dead
    finetune_last_dense(net, x, 2)
    for _ in range(neural.FINETUNE_STEPS):
        ref.loss_and_gradients(x, [2, 2, 2], training=False)
        ref.sgd_step(neural.FINETUNE_LR)
    for (name, a, _), (_, b, _) in zip(net.params(), ref.params()):
        assert a.tobytes() == b.tobytes(), name


def test_forward_runs_a_layer_range():
    net = build_cnn_lstm_toy(seed=35)
    last = net.last_dense
    assert isinstance(net.layers[last], Dense)
    assert not any(isinstance(l, Dense) for l in net.layers[last + 1 :])
    head = net.forward(TOY_X, stop=last)
    probs = net.forward(head, start=last)
    assert probs.tobytes() == net.forward(TOY_X).tobytes()
    with pytest.raises(ValueError):
        Network([Softmax()], input_kind="summary").last_dense


def test_inference_forward_keeps_no_backward_cache():
    # keep_cache=False drops every layer's backward cache as it returns,
    # with the same outputs; the default still serves a following backward
    for build, x, labels in (
        (build_cnn_lstm_toy, TOY_X, TOY_LABELS),
        (build_fcbp, np.random.default_rng(36).standard_normal((2, 360)), [3, 5]),
    ):
        net = build(seed=37)
        for training in (False, True):  # dropout keeps a mask only in training
            net.forward(x, training=training, keep_cache=False)
            assert all(layer._cache is None for layer in net.layers), training
        assert net.forward(x, keep_cache=False).tobytes() == net.forward(x).tobytes()
        assert any(layer._cache is not None for layer in net.layers)

        net.zero_grads()
        probs = net.forward(x)
        dlogits = probs.copy()
        dlogits[np.arange(len(labels)), np.asarray(labels) - 1] -= 1.0
        net.backward(dlogits / len(labels))
        grads = [g.copy() for _, _, g in net.params()]
        net.loss_and_gradients(x, labels, training=False)
        for (name, _, g), ref in zip(net.params(), grads):
            assert g.tobytes() == ref.tobytes(), name


def test_first_layer_skips_its_input_gradient():
    # Network.backward asks the first layer for no input gradient: the LSTM
    # skips its dz @ W.T and the parameter gradients keep every bit, while a
    # direct layer.backward still returns dx
    for build, x, labels in (
        (build_cnn_lstm_toy, TOY_X, TOY_LABELS),
        (build_fcbp, np.random.default_rng(38).standard_normal((2, 360)), [2, 4]),
    ):
        net = build(seed=39)
        net.loss_and_gradients(x, labels, training=False)
        grads = [g.copy() for _, _, g in net.params()]
        net.zero_grads()
        dout = net.forward(x)
        dout[np.arange(len(labels)), np.asarray(labels) - 1] -= 1.0
        dout /= len(labels)
        for layer in reversed(net.layers):
            dout = layer.backward(dout)
        assert dout.shape == x.shape
        for (name, _, g), ref in zip(net.params(), grads):
            assert g.tobytes() == ref.tobytes(), name

    lstm = build_cnn_lstm_toy(seed=39).layers[0]
    assert isinstance(lstm, Lstm)
    out = lstm.forward(TOY_X, training=True)
    assert lstm.backward(np.ones_like(out), need_dx=False) is None


def test_finetune_step_with_non_finite_output_raises(monkeypatch):
    # the first step's update overflows the logits; the second step's
    # forward pass, not a later inference, reports it
    monkeypatch.setattr(neural, "FINETUNE_LR", 1e308)
    net = build_fcbp(seed=31)
    x = np.random.default_rng(31).standard_normal((1, 360))
    head = net.forward(x, stop=net.last_dense)
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
        finetune_last_dense(net, head, 1)


def test_finetune_validates_label():
    net = build_fcbp(seed=31)
    with pytest.raises(ValueError):
        finetune_last_dense(net, net.forward(np.zeros((1, 360)), stop=net.last_dense), 6)


# ---------------------------------------------------------------- storage


# every layer kind's checkpoint header, key order included
CNN_LSTM_HEADER = (
    '{"input_kind": "sequence", "seed": 32, "layers": ['
    '{"kind": "lstm", "in_dim": 360, "cells": 64, "trace": true}, '
    '{"kind": "dropout", "rate": 0.1, "trace": false}, '
    '{"kind": "as_image", "trace": false}, '
    '{"kind": "conv2d", "in_channels": 1, "out_channels": 6, "kh": 5, "kw": 5, '
    '"stride": 1, "activation": "relu", "trace": false}, '
    '{"kind": "maxpool2d", "size": 2, "trace": true}, '
    '{"kind": "conv2d", "in_channels": 6, "out_channels": 10, "kh": 5, "kw": 3, '
    '"stride": 3, "activation": "relu", "trace": true}, '
    '{"kind": "flatten", "trace": true}, '
    '{"kind": "dense", "in_dim": 3200, "out_dim": 1000, "activation": "relu", "trace": true}, '
    '{"kind": "dense", "in_dim": 1000, "out_dim": 200, "activation": "relu", "trace": true}, '
    '{"kind": "dense", "in_dim": 200, "out_dim": 5, "activation": "linear", "trace": true}, '
    '{"kind": "softmax", "trace": false}]}'
)
FCBP_HEADER = (
    '{"input_kind": "summary", "seed": 32, "layers": ['
    '{"kind": "summary_input", "dim": 360, "trace": true}, '
    '{"kind": "dense", "in_dim": 360, "out_dim": 300, "activation": "relu", "trace": true}, '
    '{"kind": "dense", "in_dim": 300, "out_dim": 100, "activation": "relu", "trace": true}, '
    '{"kind": "dense", "in_dim": 100, "out_dim": 5, "activation": "linear", "trace": true}, '
    '{"kind": "softmax", "trace": false}]}'
)
CNN_LSTM_TOY_HEADER = (
    '{"input_kind": "sequence", "seed": 32, "layers": ['
    '{"kind": "lstm", "in_dim": 20, "cells": 16, "trace": true}, '
    '{"kind": "dropout", "rate": 0.1, "trace": false}, '
    '{"kind": "as_image", "trace": false}, '
    '{"kind": "conv2d", "in_channels": 1, "out_channels": 3, "kh": 3, "kw": 3, '
    '"stride": 1, "activation": "relu", "trace": false}, '
    '{"kind": "maxpool2d", "size": 2, "trace": true}, '
    '{"kind": "conv2d", "in_channels": 3, "out_channels": 4, "kh": 3, "kw": 3, '
    '"stride": 2, "activation": "relu", "trace": true}, '
    '{"kind": "flatten", "trace": true}, '
    '{"kind": "dense", "in_dim": 24, "out_dim": 16, "activation": "relu", "trace": true}, '
    '{"kind": "dense", "in_dim": 16, "out_dim": 10, "activation": "relu", "trace": true}, '
    '{"kind": "dense", "in_dim": 10, "out_dim": 5, "activation": "linear", "trace": true}, '
    '{"kind": "softmax", "trace": false}]}'
)


@pytest.mark.parametrize(
    "build, sample_shape, header",
    [
        pytest.param(build_cnn_lstm, (200, 360), CNN_LSTM_HEADER, id="cnn_lstm"),
        pytest.param(build_fcbp, (360,), FCBP_HEADER, id="fcbp"),
        pytest.param(build_cnn_lstm_toy, (12, 20), CNN_LSTM_TOY_HEADER, id="cnn_lstm_toy"),
    ],
)
def test_checkpoint_round_trip_bitwise(tmp_path, build, sample_shape, header):
    net = build(seed=32)
    assert json.dumps(net.descriptor()) == header
    rng = np.random.default_rng(33)
    x = rng.standard_normal((2, *sample_shape))
    labels = 1 + rng.integers(0, 5, 2)
    net.loss_and_gradients(x, labels, training=True)
    net.sgd_step(0.2)
    path = tmp_path / "net.csnn"
    save_network(net, path)
    back = load_network(path)
    assert np.array_equal(back.get_param_vector(), net.get_param_vector())
    assert back.descriptor() == net.descriptor()
    assert np.array_equal(back.forward(x), net.forward(x))
    again = tmp_path / "again.csnn"
    save_network(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_rejects_corruption(tmp_path):
    net = build_fcbp(seed=34)
    path = tmp_path / "net.csnn"
    save_network(net, path)
    raw = path.read_bytes()
    bad = tmp_path / "bad.csnn"
    bad.write_bytes(b"YYYY" + raw[4:])
    with pytest.raises(ValueError):
        load_network(bad)
    bad.write_bytes(raw[:-16])
    with pytest.raises(ValueError):
        load_network(bad)
    bad.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(ValueError):
        load_network(bad)
    net.layers[net.last_dense].W[0, 0] = np.nan  # would fail at the first forward pass
    save_network(net, bad)
    with pytest.raises(ValueError, match="non-finite"):
        load_network(bad)


def write_checkpoint(path, arch, payload=b""):
    """A checkpoint file with a hand-written architecture descriptor."""
    blob = json.dumps(arch).encode("utf-8")
    path.write_bytes(struct.pack("<4sHI", b"CSNN", 1, len(blob)) + blob + payload)


def refuse_allocation(monkeypatch):
    def fail(self, rng):
        raise AssertionError("a layer allocated its parameters")

    for cls in (neural.Lstm, neural.Conv2d, neural.Dense):
        monkeypatch.setattr(cls, "initialize", fail)


def test_checkpoint_too_large_for_its_file_is_refused_before_allocation(tmp_path, monkeypatch):
    refuse_allocation(monkeypatch)
    path = tmp_path / "huge.csnn"
    huge = {"kind": "dense", "in_dim": 10**6, "out_dim": 10**6, "activation": "linear"}
    write_checkpoint(path, {"input_kind": "summary", "seed": 0, "layers": [huge]}, b"\0" * 64)
    with pytest.raises(ValueError, match="architecture needs"):
        load_network(path)


def test_checkpoint_with_deeply_nested_header_is_refused(tmp_path):
    path = tmp_path / "deep.csnn"
    blob = b"[" * 100_000
    path.write_bytes(struct.pack("<4sHI", b"CSNN", 1, len(blob)) + blob)
    with pytest.raises(ValueError, match="nested too deeply"):
        load_network(path)


MISSING = object()


@pytest.mark.parametrize(
    "layer_edit",
    [
        {"kind": "transformer"},
        {"kind": MISSING},
        {"in_dim": MISSING},
        {"in_dim": 360.0},
        {"in_dim": "360"},
        {"in_dim": True},
        {"in_dim": -360},
        {"out_dim": 0},
        {"activation": "tanh"},
        {"trace": "no"},
        {"trace": 1},
    ],
)
def test_checkpoint_with_bad_layer_descriptor_is_refused(tmp_path, monkeypatch, layer_edit):
    net = build_fcbp(seed=35)
    path = tmp_path / "net.csnn"
    save_network(net, path)
    raw = path.read_bytes()
    (arch_len,) = struct.unpack("<I", raw[6:10])
    arch = json.loads(raw[10 : 10 + arch_len])
    entry = arch["layers"][1]
    for key, value in layer_edit.items():
        if value is MISSING:
            del entry[key]
        else:
            entry[key] = value
    refuse_allocation(monkeypatch)
    write_checkpoint(path, arch, raw[10 + arch_len :])
    with pytest.raises(ValueError):
        load_network(path)

