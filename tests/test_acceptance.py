"""Release gates: end-to-end guarantees the toolkit must keep.

Each test states one externally visible promise — bit-exact storage,
calibration removal, physically correct simulation, orthonormal wavelet
identities, exact small-problem inference, verified gradients, pinned
architectures, counting accuracy on synthetic rooms, event-driven count
amendment, and multi-regime activity recognition — with explicit numeric
tolerances and, where it matters, wall-clock budgets.
"""

import string
import time
from itertools import product

import numpy as np
import pytest
from scipy.special import logsumexp

from csicount import hmm
from csicount.capture import (
    CsiCapture,
    read_capture,
    split_streams,
    write_capture,
)
from csicount.counting import (
    CountSession,
    Dataset,
    TrainConfig,
    activity_features_from_capture,
    amend_and_finetune,
    count_windows_from_capture,
    evaluate,
    train,
    window_heads,
)
from csicount.hmm import (
    ActivityLabel,
    DoorEvent,
    GaussianHmm,
    classify_activity,
    fit_hmm,
    log_likelihood,
    save_hmm,
)
from csicount.neural import (
    Dense,
    Network,
    Softmax,
    build_cnn_lstm,
    build_cnn_lstm_toy,
    build_fcbp,
    finite_difference_check,
    save_network,
)
from csicount.preprocess import sanitize_phase
from csicount.sim import (
    C_LIGHT,
    Path,
    PhaseDistortion,
    Scene,
    inject_phase_offsets,
    make_count_scene,
    simulate_capture,
)
from csicount.tensorfile import write_tensor
from csicount.wavelet import dwt_decompose


# ------------------------------------------------------------- binary store


def test_binary_round_trip_is_bit_exact_at_scale(tmp_path):
    # 1000 randomized captures (geometry, length, labels) survive a save
    # and load with every bit intact, well inside a 10-second budget
    rng = np.random.default_rng(0)
    alphabet = string.ascii_letters + string.digits
    path = tmp_path / "probe.csic"
    started = time.monotonic()
    for _ in range(1000):
        n_tx = int(rng.integers(1, 4))
        n_rx = int(rng.integers(1, 4))
        n_sub = int(rng.choice([8, 16, 30]))
        n_frames = int(rng.integers(1, 40))
        label = "".join(rng.choice(list(alphabet), size=rng.integers(0, 10)))
        shape = (n_frames, n_tx * n_rx, n_sub)
        values = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ).astype(np.complex64)
        ts = np.cumsum(rng.uniform(1e-4, 1e-3, n_frames))
        cap = CsiCapture(values, ts, 1500.0, n_tx, n_rx, n_sub, label)
        write_capture(cap, path)
        back = read_capture(path)
        assert np.array_equal(back.values, cap.values)
        assert np.array_equal(back.timestamps, cap.timestamps)
        assert (back.n_tx, back.n_rx, back.n_sub) == (n_tx, n_rx, n_sub)
        assert back.label == label
        assert back.rate_hz == cap.rate_hz
    assert time.monotonic() - started < 10.0


def test_file_formats_are_pinned_byte_for_byte(tmp_path):
    # hand-built files compared with the exact bytes the formats define, so
    # a writer and reader that drift together still fail here
    cap = CsiCapture(
        np.array([[[1 + 2j, -0.5]], [[0.25 - 1j, 3 + 0.5j]]], dtype=np.complex64),
        [0.0, 0.5], 2.0, 1, 1, 2, "ab",
    )
    write_capture(cap, tmp_path / "a.csic")
    write_tensor(np.array([[1.0, -2.0, 0.5], [0.0, 4.0, -0.25]]), tmp_path / "a.csit")
    model = GaussianHmm([1.0], [[1.0]], [[0.5, -1.0]], [[2.0, 0.25]], label="W")
    save_hmm(model, tmp_path / "a.hmm")
    net = Network([Dense(2, 2), Softmax()], seed=3)
    net.set_param_vector(np.array([1.0, -1.0, 0.5, 2.0, 0.25, -0.75]))
    save_network(net, tmp_path / "a.csnn")

    csic = bytes.fromhex(
        "43534943" "0100" "0100" "0100" "0200" "00000040" "0200000000000000" "02" "6162"
        "0000000000000000" "0000803f" "00000040" "000000bf" "00000000"
        "000000000000e03f" "0000803e" "000080bf" "00004040" "0000003f"
    )
    csit = bytes.fromhex(
        "43534954" "0100" "02" "0200000000000000" "0300000000000000"
        "000000000000f03f" "00000000000000c0" "000000000000e03f"
        "0000000000000000" "0000000000001040" "000000000000d0bf"
    )
    hmm = bytes.fromhex(
        "43534948" "0100" "0100" "0200" "01" "57"
        "000000000000f03f" "000000000000f03f" "000000000000e03f" "000000000000f0bf"
        "0000000000000040" "000000000000d03f"
    )
    arch = (
        b'{"input_kind": "sequence", "seed": 3, "layers": [{"kind": "dense", "in_dim": 2, '
        b'"out_dim": 2, "activation": "linear", "trace": true}, '
        b'{"kind": "softmax", "trace": false}]}'
    )
    csnn = b"CSNN\x01\x00\xab\x00\x00\x00" + arch + bytes.fromhex(
        "000000000000f03f" "000000000000f0bf" "000000000000e03f"
        "0000000000000040" "000000000000d03f" "000000000000e8bf"
    )
    expected = {"a.csic": csic, "a.csit": csit, "a.hmm": hmm, "a.csnn": csnn}
    for name, data in expected.items():
        assert (tmp_path / name).read_bytes() == data, name


# ----------------------------------------------------------- phase cleanup


def test_sanitization_removes_random_calibration_errors():
    # whatever linear phase ramp and constant offset the radio adds, the
    # sanitized output carries no refittable subcarrier slope
    scene = Scene(
        static_paths=(
            Path(1.0 + 0.0j, 10e-9, 0.0, 1e-10),
            Path(0.3 + 0.1j, 25e-9, 0.0, 2e-10),
        ),
    )
    base = simulate_capture(scene, 120 / 1500.0, seed=2)
    j = np.arange(30, dtype=np.float64)
    jc = j - j.mean()
    rng = np.random.default_rng(7)
    started = time.monotonic()
    for trial in range(100):
        distortion = PhaseDistortion(
            sfo_slope=float(rng.uniform(-0.1, 0.1)),
            cfo_offset=float(rng.uniform(-np.pi, np.pi)),
            jitter_sigma=0.0,
        )
        bad = inject_phase_offsets(base, distortion, seed=trial)
        _, phase = split_streams(bad)
        clean = sanitize_phase(phase)
        stream_mean = clean.reshape(clean.shape[0], 6, 30).mean(axis=1)
        slope = (stream_mean @ jc) / (jc @ jc)
        assert np.max(np.abs(slope)) < 1e-9
    assert time.monotonic() - started < 5.0


# ----------------------------------------------------------------- physics


@pytest.mark.parametrize("velocity", [0.25, 0.5, 1.0])
def test_motion_beats_at_twice_velocity_over_wavelength(velocity):
    # a mover at v against a static path beats the amplitude at 2v/lambda;
    # the spectral peak must land within one FFT bin of that frequency
    scene = Scene(
        static_paths=(Path(1.0 + 0.0j, 10e-9, 0.0, 0.0),),
        persons=((Path(0.5 + 0.0j, 40e-9, velocity, 0.0),),),
    )
    n = 4096
    cap = simulate_capture(scene, n / 1500.0)
    amp = np.abs(cap.values[:, 0, 0].astype(np.complex128))
    spectrum = np.abs(np.fft.rfft(amp - amp.mean()))
    peak_hz = np.argmax(spectrum) * 1500.0 / n
    expected = 2.0 * velocity * scene.carrier_hz / C_LIGHT
    assert abs(peak_hz - expected) <= 1500.0 / n


# ------------------------------------------------------------------ wavelet


def test_wavelet_cascade_identities_hold_at_scale():
    # the cascade of the 1024 unit vectors is an orthogonal matrix, so 100
    # random signals come back from their coefficients through its
    # transpose, with energy preserved, to 1e-9; a constant input leaks
    # nothing into any detail band
    def coefficients(x):
        decomp = dwt_decompose(x, levels=10)
        return np.concatenate([*decomp.details, decomp.approx])

    m = np.array([coefficients(e) for e in np.eye(1024)]).T
    assert np.max(np.abs(m @ m.T - np.eye(1024))) < 1e-12
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.standard_normal(1024) * rng.uniform(0.1, 10.0)
        c = coefficients(x)
        assert np.max(np.abs(m.T @ c - x)) < 1e-9
        assert abs(float(c @ c) - float(x @ x)) / float(x @ x) < 1e-9
    flat = dwt_decompose(np.full(1024, 2.5), levels=10)
    for detail in flat.details:
        assert np.max(np.abs(detail)) <= 1e-12


# -------------------------------------------------------------- hmm oracle


def _random_model(rng, n_states, dim):
    init = rng.uniform(0.2, 1.0, n_states)
    trans = rng.uniform(0.2, 1.0, (n_states, n_states))
    return GaussianHmm(
        init / init.sum(),
        trans / trans.sum(axis=1, keepdims=True),
        2.0 * rng.standard_normal((n_states, dim)),
        rng.uniform(0.5, 2.0, (n_states, dim)),
    )


def _enumerate_paths(model, x):
    diff = x[:, None, :] - model.means[None, :, :]
    quad = (diff**2 / model.variances[None, :, :]).sum(axis=2)
    logb = -0.5 * (quad + np.log(2 * np.pi * model.variances).sum(axis=1)[None, :])
    t_len, s = logb.shape
    log_init = np.log(model.initial)
    log_trans = np.log(model.transition)
    scored = []
    for path in product(range(s), repeat=t_len):
        lp = log_init[path[0]] + logb[0, path[0]]
        for t in range(1, t_len):
            lp += log_trans[path[t - 1], path[t]] + logb[t, path[t]]
        scored.append((lp, path))
    return scored


def test_hmm_inference_matches_enumeration_at_scale(monkeypatch):
    # 50 random small models: the forward likelihood agrees with
    # brute-force summation over all state paths, and refinement never
    # decreases the data likelihood
    monkeypatch.setattr(hmm, "FIT_TOL", 0.0)  # no early stop
    rng = np.random.default_rng(4)
    started = time.monotonic()
    for _ in range(50):
        s = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        t = int(rng.integers(2, 9))
        model = _random_model(rng, s, d)
        x = rng.standard_normal((t, d))
        scored = _enumerate_paths(model, x)
        assert abs(log_likelihood(model, x) - logsumexp([lp for lp, _ in scored])) < 1e-8
    for fit_seed in range(5):
        data = np.concatenate(
            [
                rng.normal(0.0, 0.5, (30, 2)),
                rng.normal(3.0, 0.5, (30, 2)),
            ]
        )
        fitted = fit_hmm([data], n_states=2, max_iter=25, seed=fit_seed)
        curve = np.array(fitted.fit_log_likelihoods)
        assert np.all(np.diff(curve) >= -1e-8)
    assert time.monotonic() - started < 30.0


# ---------------------------------------------------------------- gradients


def test_gradients_match_finite_differences():
    # every parameter of the small network, and the 25 highest-signal
    # parameters per array of the full-size one, agree with central
    # differences at 1e-4 relative error
    started = time.monotonic()
    toy = build_cnn_lstm_toy(seed=4)
    x_toy = np.random.default_rng(5).standard_normal((2, 12, 20)) * 3.0
    assert finite_difference_check(toy, x_toy, [1, 2], eps=1e-5) < 1e-4

    # evaluation point chosen away from rectifier kinks, where a central
    # difference of an O(1) loss is meaningful (same point the CLI uses)
    full = build_cnn_lstm(seed=4)
    x_full = np.random.default_rng(5).standard_normal((1, 200, 360))
    assert finite_difference_check(full, x_full, [1], eps=1e-6, max_per_array=25) < 1e-4
    assert time.monotonic() - started < 300.0


# ------------------------------------------------------------- architecture


def test_network_architectures_are_pinned():
    # every layer's output shape (batch axis dropped) and the parameter count
    def layer_shapes(net, input_shape):
        out = np.zeros((1, *input_shape))
        shapes = []
        for layer in net.layers:
            out = layer.forward(out, training=False)
            shapes.append(out.shape[1:])
        return shapes

    full = build_cnn_lstm()
    toy = build_cnn_lstm_toy()
    flat = build_fcbp()
    assert full.get_param_vector().size == 3_512_071
    assert toy.get_param_vector().size == 3_135
    assert flat.get_param_vector().size == 138_905
    assert layer_shapes(full, (200, 360)) == [
        (200, 64),  # lstm
        (200, 64),  # dropout
        (200, 64, 1),  # as image
        (196, 60, 6),  # conv 5x5
        (98, 30, 6),  # pool
        (32, 10, 10),  # conv 5x3 / 3
        (3200,),  # flatten
        (1000,),
        (200,),
        (5,),
        (5,),  # softmax
    ]
    assert layer_shapes(toy, (12, 20)) == [
        (12, 16),
        (12, 16),
        (12, 16, 1),
        (10, 14, 3),
        (5, 7, 3),
        (2, 3, 4),
        (24,),
        (16,),
        (10,),
        (5,),
        (5,),
    ]
    assert layer_shapes(flat, (360,)) == [(360,), (300,), (100,), (5,), (5,)]


# ---------------------------------------------------------- counting, e2e


def test_counting_networks_learn_synthetic_rooms():
    # five simulated rooms with 1..5 movers, 200 windows each, split
    # 80/20 per class: the sequence network reaches 0.90 held-out
    # accuracy, the flat network 0.80, and untrained networks sit at
    # chance — all inside half an hour
    started = time.monotonic()
    train_samples, test_samples = [], []
    for n in range(1, 6):
        cap = simulate_capture(
            make_count_scene(n, seed=40 + n), 40960 / 1500, rate_hz=1500.0, seed=1000 + n
        )
        windows = count_windows_from_capture(cap)[:200]
        order = np.random.default_rng(n).permutation(200)
        train_samples += [(windows[i], n) for i in order[:160]]
        test_samples += [(windows[i], n) for i in order[160:]]
    train_set = Dataset(train_samples)
    test_set = Dataset(test_samples)

    untrained = [
        evaluate(build_cnn_lstm(seed=s), test_set).accuracy for s in range(5)
    ]
    assert all(0.15 <= acc <= 0.25 for acc in untrained)
    assert abs(float(np.mean(untrained)) - 0.2) < 0.05

    sequence_net = build_cnn_lstm(seed=0)
    sequence_net, losses = train(
        sequence_net,
        train_set,
        TrainConfig(batch_size=64, learning_rate=0.2, max_iterations=400, seed=0),
    )
    assert all(np.isfinite(l) for l in losses)
    assert evaluate(sequence_net, test_set).accuracy >= 0.90

    flat_net = build_fcbp(seed=0)
    flat_net, _ = train(
        flat_net,
        train_set,
        TrainConfig(batch_size=64, learning_rate=0.2, max_iterations=600, seed=0),
    )
    assert evaluate(flat_net, test_set).accuracy >= 0.80
    assert time.monotonic() - started < 1800.0


# ------------------------------------------------------------ door events


def test_scripted_door_events_drive_unit_count_steps():
    # a stream of enter/leave events moves the session count by exactly
    # one per event, clamped to [0, 5], and any corrective fine-tuning
    # stays confined to the final dense layer
    cap = simulate_capture(make_count_scene(2, seed=21), 2000 / 1500.0, seed=21)
    windows = count_windows_from_capture(cap)
    assert len(windows) == 10
    kinds = [
        "enter", "enter", "leave", "leave", "leave",
        "leave", "leave", "leave", "enter", "enter",
    ]
    expected_counts = [5, 5, 4, 3, 2, 1, 0, 0, 1, 2]
    expected_clamped = [
        False, True, False, False, False, False, True, True, False, False,
    ]

    net = build_fcbp(seed=0)
    snapshot = [(name, value.copy()) for name, value, _ in net.params()]
    session = CountSession(net, current_count=4)
    for i, (window, kind) in enumerate(zip(windows, kinds)):
        amend_and_finetune(session, window_heads(net, [window]), DoorEvent(kind, i), time_index=i)

    records = session.event_log
    assert [r.count_after for r in records] == expected_counts
    assert [r.clamped for r in records] == expected_clamped
    for r in records:
        assert abs(r.count_after - r.count_before) <= 1
        assert 0 <= r.count_after <= 5
        assert r.action in ("skip", "finetune")

    changed = {
        name
        for (name, old), (_, new, _) in zip(snapshot, net.params())
        if not np.array_equal(old, new)
    }
    final = f"layer{len(net.layers) - 2}"
    assert changed <= {f"{final}.W", f"{final}.b"}
    assert any(r.action == "finetune" for r in records)


# ------------------------------------------------------- activity regimes


_STATICS = (
    Path(1.0 + 0.0j, 10e-9, 0.0, 1e-10),
    Path(0.35 + 0.1j, 30e-9, 0.0, 2e-10),
)
_SPEED_BANDS = {
    ActivityLabel.EMPTY: None,
    ActivityLabel.WALKING: (0.25, 0.40, 0.25),
    ActivityLabel.RUNNING: (1.20, 1.60, 0.35),
    ActivityLabel.ENTERING_ROOM: (2.50, 3.00, 0.45),
}
_SEED_BASE = {
    ActivityLabel.EMPTY: 0,
    ActivityLabel.WALKING: 10_000,
    ActivityLabel.RUNNING: 20_000,
    ActivityLabel.ENTERING_ROOM: 30_000,
}


def _regime_scene(label, seed):
    band = _SPEED_BANDS[label]
    if band is None:
        return Scene(_STATICS, (), noise_sigma=0.02)
    lo, hi, gain = band
    rng = np.random.default_rng(_SEED_BASE[label] + seed)
    movers = tuple(
        Path(
            complex(gain * np.exp(2j * np.pi * rng.uniform())),
            rng.uniform(2e-8, 6e-8),
            float(rng.uniform(lo, hi) * rng.choice([-1, 1])),
            1.5e-10,
        )
        for _ in range(3)
    )
    return Scene(_STATICS, (movers,), noise_sigma=0.02)


def _regime_features(label, scene_seed, capture_seed):
    cap = simulate_capture(_regime_scene(label, scene_seed), 2048 / 1500.0, seed=capture_seed)
    return activity_features_from_capture(cap)


def test_activity_recognition_across_four_regimes():
    # four motion regimes (nobody, strolling, running, door-crossing),
    # one model per regime fit on three captures: 100 fresh seeded
    # captures classify at 90% or better
    labels = list(_SPEED_BANDS)
    models = {}
    for label in labels:
        sequences = [
            _regime_features(label, s, _SEED_BASE[label] + 500 + s) for s in (1, 2, 3)
        ]
        models[label] = fit_hmm(sequences, n_states=3, max_iter=15, seed=0, label=label)

    hits = 0
    for trial in range(100):
        label = labels[trial % 4]
        got = classify_activity(models, _regime_features(label, 100 + trial, 900_000 + trial))
        hits += got is label
    assert hits >= 90
