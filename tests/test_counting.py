"""Count-network training, event-fused sessions, and the online pipeline."""

import re
import tracemalloc

import numpy as np
import pytest

from csicount import counting, neural
from csicount.capture import CsiCapture, concat_captures, split_streams
from csicount.cli import REGIME_LEARNING_RATES, REGIMES
from csicount.counting import (
    ACTIVITY_HISTORY,
    ONLINE_BLOCK,
    ConfusionMatrix,
    CountSession,
    Dataset,
    OnlineStep,
    TrainConfig,
    WINDOW_LEN,
    activity_features,
    activity_features_from_capture,
    amend_and_finetune,
    count_windows_from_capture,
    evaluate,
    run_online,
    train,
    window_heads,
)
from csicount.hmm import (
    ActivityLabel,
    DoorEvent,
    DoorEventDetector,
    GaussianHmm,
    classify_activity,
    fit_hmm,
    log_likelihood,
    log_likelihoods,
)
from csicount.neural import (
    Dense,
    build_cnn_lstm,
    build_cnn_lstm_toy,
    build_fcbp,
    finetune_last_dense,
)
from csicount.preprocess import CsiWindow, build_count_sample, butterworth_lowpass, pca_denoise
from csicount.sim import Path, Scene, make_count_scene, simulate_capture
from csicount.wavelet import feature_matrix_from_components


def toy_window(values):
    """A 12x20 sample for the small test network (sequence input)."""
    return CsiWindow(np.asarray(values, dtype=np.float64), np.zeros(20))


def summary_window(rng, scale=1.0):
    """A sample for the flat network, which reads only the column means."""
    return CsiWindow(np.zeros((2, 360)), rng.standard_normal(360) * scale)


def toy_dataset(n_per_class=24, noise=0.3, seed=7):
    """Five well-separated 12x20 prototypes plus noise: trivially learnable."""
    rng = np.random.default_rng(seed)
    protos = [np.random.default_rng(100 + k).standard_normal((12, 20)) for k in range(5)]
    samples = [
        (toy_window(protos[k] + noise * rng.standard_normal((12, 20))), k + 1)
        for k in range(5)
        for _ in range(n_per_class)
    ]
    return Dataset(samples)


def random_capture(rng, n_frames, label=""):
    values = (
        rng.standard_normal((n_frames, 6, 30)) + 1j * rng.standard_normal((n_frames, 6, 30))
    ).astype(np.complex64)
    return CsiCapture(values, np.arange(n_frames) / 1500.0, 1500.0, 2, 3, 30, label)


def force_prediction(network, count):
    """Zero the final dense layer and bias-select `count` (1..5)."""
    dense = [l for l in network.layers if isinstance(l, Dense)][-1]
    dense.W[...] = 0.0
    dense.b[...] = 0.0
    dense.b[count - 1] = 50.0


def param_snapshot(network):
    return [(name, value.copy()) for name, value, _ in network.params()]


def changed_params(network, snapshot):
    return {
        name
        for (name, old), (_, new, _) in zip(snapshot, network.params())
        if not np.array_equal(old, new)
    }


# ---------------------------------------------------------------- containers


def test_dataset_rejects_non_window():
    with pytest.raises(TypeError):
        Dataset([(np.zeros((12, 20)), 1)])


def test_dataset_rejects_empty_and_non_integer_labels():
    # never empty, so train and evaluate need no emptiness check of their own
    with pytest.raises(ValueError, match="dataset is empty"):
        Dataset([])
    win = toy_window(np.zeros((12, 20)))
    for label in (2.5, 5.9, "3", True):  # not truncated to 2, 5 and 3, nor True taken as 1
        with pytest.raises(ValueError, match="count label must be an integer"):
            Dataset([(win, label)])
    assert Dataset([(win, np.int64(3))]).labels.tolist() == [3]


def test_dataset_rejects_out_of_range_label():
    win = toy_window(np.zeros((12, 20)))
    with pytest.raises(ValueError):
        Dataset([(win, 0)])
    with pytest.raises(ValueError):
        Dataset([(win, 6)])


def test_dataset_len_and_labels():
    ds = toy_dataset(n_per_class=2)
    assert len(ds) == 10
    assert ds.labels.tolist() == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]


def test_regime_table():
    assert REGIMES == ("fixed", "semi", "open")
    assert REGIME_LEARNING_RATES == {"fixed": 0.2, "open": 0.15, "semi": 0.1}


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    for lr in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)
    with pytest.raises(ValueError):
        TrainConfig(max_iterations=0)
    # a fractional size once failed later in range(); a fractional count of
    # iterations ran the next integer, an infinite one never returned
    for bad in (
        {"batch_size": 2.5},
        {"max_iterations": 2.5},
        {"max_iterations": np.inf},
        {"batch_size": True},
        {"max_iterations": True},
    ):
        with pytest.raises(ValueError, match="integer"):
            TrainConfig(**bad)
    config = TrainConfig(batch_size=np.int64(64), max_iterations=np.int32(3))
    assert (config.batch_size, config.max_iterations) == (64, 3)


def test_evaluate_refuses_nonpositive_batch_size():
    # batch_size=-1 once gave an empty matrix, accuracy 0.0, for any dataset
    ds = Dataset([(summary_window(np.random.default_rng(k)), 1) for k in range(3)])
    for bad in (0, -1):
        with pytest.raises(ValueError, match="batch_size"):
            evaluate(build_fcbp(seed=1), ds, batch_size=bad)
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="integer"):
            evaluate(build_fcbp(seed=1), ds, batch_size=bad)


def test_confusion_matrix_accuracy():
    counts = np.zeros((5, 5), dtype=int)
    counts[0, 0] = 3
    counts[1, 1] = 1
    counts[2, 4] = 4
    cm = ConfusionMatrix(counts)
    assert cm.total == 8
    assert cm.accuracy == pytest.approx(0.5)
    assert ConfusionMatrix(np.zeros((5, 5), dtype=int)).accuracy == 0.0


def test_confusion_matrix_validation():
    with pytest.raises(ValueError):
        ConfusionMatrix(np.zeros((4, 5), dtype=int))
    bad = np.zeros((5, 5), dtype=int)
    bad[0, 0] = -1
    with pytest.raises(ValueError):
        ConfusionMatrix(bad)


def test_confusion_matrix_is_read_only():
    cm = ConfusionMatrix(np.zeros((5, 5), dtype=int))
    with pytest.raises(ValueError):
        cm.counts[0, 0] = 1


# ------------------------------------------------------------------ training


def test_train_returns_one_loss_per_iteration():
    ds = toy_dataset(n_per_class=8)
    _, losses = train(
        build_cnn_lstm_toy(seed=0),
        ds,
        TrainConfig(batch_size=16, learning_rate=0.1, max_iterations=60, seed=0),
    )
    assert len(losses) == 60
    assert all(np.isfinite(l) and l > 0 for l in losses)


def test_train_is_deterministic():
    ds = toy_dataset(n_per_class=8)
    config = TrainConfig(batch_size=16, learning_rate=0.1, max_iterations=40, seed=3)
    net1, losses1 = train(build_cnn_lstm_toy(seed=5), ds, config)
    net2, losses2 = train(build_cnn_lstm_toy(seed=5), ds, config)
    assert losses1 == losses2
    assert np.array_equal(net1.get_param_vector(), net2.get_param_vector())


def test_train_learns_separable_data():
    ds = toy_dataset()
    net = build_cnn_lstm_toy(seed=3)
    before = evaluate(net, ds).accuracy
    net, _ = train(net, ds, TrainConfig(batch_size=16, learning_rate=0.2, max_iterations=300, seed=1))
    after = evaluate(net, ds).accuracy
    assert after >= 0.95
    assert after > before


def assert_float64_at_rest(net):
    assert net.dtype == np.float64
    for name, value, grad in net.params():
        assert value.dtype == grad.dtype == np.float64, name
        assert not grad.any(), name


def test_train_divergence_raises():
    # an absurd learning rate blows the activations out of float range
    rng = np.random.default_rng(3)
    ds = Dataset([(summary_window(rng, scale=1e3), k % 5 + 1) for k in range(16)])
    net = build_fcbp(seed=0)
    config = TrainConfig(batch_size=16, learning_rate=1e10, max_iterations=40, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="training diverged at iteration"):
            train(net, ds, config)
    assert_float64_at_rest(net)


def summary_dataset(n=20, seed=8):
    rng = np.random.default_rng(seed)
    return Dataset([(summary_window(rng), k % 5 + 1) for k in range(n)])


@pytest.mark.parametrize(
    "build, dataset", [(build_cnn_lstm_toy, toy_dataset), (build_fcbp, summary_dataset)]
)
def test_train_leaves_a_float64_network_that_saves_stably(tmp_path, build, dataset):
    net = build(seed=7)
    config = TrainConfig(batch_size=8, learning_rate=0.1, max_iterations=6)
    trained, _ = train(net, dataset(), config)
    assert trained is net
    assert_float64_at_rest(net)
    # every parameter is a widened float32 of the training loop
    vector = net.get_param_vector()
    assert np.array_equal(vector.astype(np.float32).astype(np.float64), vector)
    path, again = tmp_path / "net.csnn", tmp_path / "again.csnn"
    neural.save_network(net, path)
    neural.save_network(neural.load_network(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_evaluate_row_sums_match_class_counts():
    rng = np.random.default_rng(8)
    per_class = [3, 4, 5, 6, 7]
    samples = [
        (summary_window(rng), k + 1) for k, n in enumerate(per_class) for _ in range(n)
    ]
    cm = evaluate(build_fcbp(seed=1), Dataset(samples), batch_size=7)
    assert cm.counts.sum(axis=1).tolist() == per_class
    assert cm.total == len(samples)


def test_untrained_network_sits_at_chance():
    # with balanced labels assigned independently of the inputs, any fixed
    # predictor scores exactly 1/5 in expectation, however skewed its output
    rng = np.random.default_rng(11)
    ds = Dataset([(summary_window(rng), k % 5 + 1) for k in range(400)])
    accs = [evaluate(build_fcbp(seed=s), ds).accuracy for s in range(5)]
    assert abs(float(np.mean(accs)) - 0.2) < 0.05
    assert all(abs(a - 0.2) < 0.07 for a in accs)


def test_counts_are_read_only_from_five_output_classes():
    # a 7-unit last dense layer once read as counts 6 and 7 (an IndexError in
    # evaluate), and a network with no layers as one of its 360 inputs; a
    # session refuses either before it is fed a frame
    ds = Dataset([(summary_window(np.random.default_rng(5)), 1)])
    wide = neural.Network([Dense(360, 7), neural.Softmax()], input_kind="summary")
    layerless = neural.Network([], input_kind="summary")
    for net, online_error in ((wide, "not 5 counts"), (layerless, "no dense layer")):
        with pytest.raises(ValueError, match="not 5 counts"):
            evaluate(net, ds)
        with pytest.raises(ValueError, match=online_error):
            CountSession(net)


# --------------------------------------------------- prediction and amending


def test_amend_tie_prefers_smaller_count():
    net = build_fcbp(seed=4)
    dense = net.layers[net.last_dense]
    dense.W[...] = 0.0
    dense.b[...] = 0.0  # uniform probabilities: a five-way tie resolves to 1
    head = window_heads(net, [summary_window(np.random.default_rng(0))])
    assert np.allclose(net.forward(head, start=net.last_dense), 0.2)
    session = CountSession(net, current_count=3)
    assert amend_and_finetune(session, head, None) == 1
    assert session.event_log[-1].prediction == 1


def test_session_validation():
    net = build_fcbp(seed=0)
    with pytest.raises(ValueError):
        CountSession(net, current_count=-1)
    # above the head's top class one door event could move the count by more
    # than one (9 -> 5 on an enter)
    with pytest.raises(ValueError, match="0..5"):
        CountSession(net, current_count=6)
    with pytest.raises(TypeError):
        CountSession(net, event_log=[])  # every session starts with an empty log
    # 2.5 once counted to 3.5 on an enter while the fine-tune trained toward 3
    for bad in (2.5, "2", True):
        with pytest.raises(ValueError, match="integer"):
            CountSession(net, current_count=bad)
    # models that cannot score the session's features once failed at its
    # sixth window, its first history
    three = GaussianHmm([1.0], [[1.0]], np.zeros((1, 3)), np.ones((1, 3)))
    with pytest.raises(ValueError, match=re.escape("(T, 3), got (1, 20)")):
        CountSession(net, hmm_models={ActivityLabel.WALKING: three})
    with pytest.raises(ValueError, match="keyed by ActivityLabel"):
        CountSession(net, hmm_models={"W": three})
    force_prediction(net, 5)
    session = CountSession(net, current_count=np.int64(2))
    head = window_heads(net, [summary_window(np.random.default_rng(1))])
    assert amend_and_finetune(session, head, DoorEvent("enter", 0)) == 3
    rec = session.event_log[-1]
    assert (rec.count_before, rec.count_after, rec.label, rec.action) == (2, 3, 3, "finetune")
    assert type(rec.count_before) is int and type(session.current_count) is int


def test_amend_without_event_trusts_network():
    net = build_fcbp(seed=6)
    force_prediction(net, 4)
    snapshot = param_snapshot(net)
    session = CountSession(net, current_count=2)
    head = window_heads(net, [summary_window(np.random.default_rng(1))])
    result = amend_and_finetune(session, head, None)
    assert result == 4
    assert session.current_count == 4
    assert changed_params(net, snapshot) == set()
    rec = session.event_log[-1]
    assert (rec.prediction, rec.event, rec.action) == (4, None, "none")
    assert (rec.count_before, rec.count_after) == (2, 4)
    assert rec.label is None and not rec.clamped


def test_amend_enter_disagreement_finetunes_last_layer_only():
    net = build_fcbp(seed=6)
    force_prediction(net, 5)
    snapshot = param_snapshot(net)
    session = CountSession(net, current_count=2)
    event = DoorEvent("enter", 0)
    head = window_heads(net, [summary_window(np.random.default_rng(1))])
    result = amend_and_finetune(session, head, event, time_index=9)
    assert result == 3
    assert session.current_count == 3
    final = f"layer{len(net.layers) - 2}"
    assert changed_params(net, snapshot) == {f"{final}.W", f"{final}.b"}
    rec = session.event_log[-1]
    assert (rec.time_index, rec.prediction, rec.action) == (9, 5, "finetune")
    assert (rec.count_before, rec.count_after, rec.label) == (2, 3, 3)
    assert not rec.clamped


def count_layer_calls(net):
    """Per-layer forward call counts, kept up to date as the network runs."""
    calls = [0] * len(net.layers)
    for i, layer in enumerate(net.layers):
        def counted(x, training, _i=i, _f=layer.forward):
            calls[_i] += 1
            return _f(x, training)
        layer.forward = counted
    return calls


def test_front_layers_run_once_per_online_block():
    # the amend step runs no front layer: only the head, on the last dense
    # layer's input it is given; the weights match a fine-tune on that input
    window = toy_window(np.random.default_rng(2).standard_normal((12, 20)))
    net, ref = build_cnn_lstm_toy(seed=8), build_cnn_lstm_toy(seed=8)
    for n in (net, ref):
        n.layers[n.last_dense].b[:] = [0.0, 0.0, 0.0, 0.0, 9.0]  # predicts 5
    head = window_heads(net, [window])
    session = CountSession(net, current_count=1)  # its own check runs the head once
    calls = count_layer_calls(net)
    assert amend_and_finetune(session, head, DoorEvent("enter", 0)) == 2
    assert session.event_log[-1].action == "finetune"
    last = net.last_dense  # the head runs once, and once per step
    assert calls == [0] * last + [1 + neural.FINETUNE_STEPS] * (len(net.layers) - last)
    assert ref.forward(window.values[None]).argmax() == 4  # predicts 5
    finetune_last_dense(ref, ref.forward(window.values[None], stop=ref.last_dense), 2)
    for (name, a, _), (_, b, _) in zip(net.params(), ref.params()):
        assert a.tobytes() == b.tobytes(), name

    # run_online runs each front layer once per block of windows
    rng = np.random.default_rng(3)
    for n_windows in (1, ONLINE_BLOCK - 1, ONLINE_BLOCK, ONLINE_BLOCK + 1, 2 * ONLINE_BLOCK + 1):
        session = CountSession(net := build_fcbp(seed=8))
        calls = count_layer_calls(net)
        assert len(run_online(session, random_capture(rng, 200 * n_windows))) == n_windows
        blocks = -(-n_windows // ONLINE_BLOCK)
        last = net.last_dense  # no activity models: no event, no fine-tune
        assert calls == [blocks] * last + [n_windows] * (len(net.layers) - last), n_windows


def test_amend_enter_agreement_skips_finetune():
    net = build_fcbp(seed=6)
    force_prediction(net, 3)
    snapshot = param_snapshot(net)
    session = CountSession(net, current_count=2)
    head = window_heads(net, [summary_window(np.random.default_rng(1))])
    result = amend_and_finetune(session, head, DoorEvent("enter", 0))
    assert result == 3
    assert changed_params(net, snapshot) == set()
    assert session.event_log[-1].action == "skip"


def test_amend_leave_floors_at_zero():
    # an empty room cannot go negative, and the network cannot express 0,
    # so the relabel clamps to 1 while the session count stays 0
    net = build_fcbp(seed=6)
    force_prediction(net, 1)
    session = CountSession(net, current_count=0)
    head = window_heads(net, [summary_window(np.random.default_rng(1))])
    result = amend_and_finetune(session, head, DoorEvent("leave", 0))
    assert result == 0
    assert session.current_count == 0
    rec = session.event_log[-1]
    assert (rec.action, rec.label, rec.clamped) == ("skip", 1, True)


def test_amend_enter_caps_at_five():
    net = build_fcbp(seed=6)
    force_prediction(net, 5)
    session = CountSession(net, current_count=5)
    head = window_heads(net, [summary_window(np.random.default_rng(1))])
    result = amend_and_finetune(session, head, DoorEvent("enter", 0))
    assert result == 5
    rec = session.event_log[-1]
    assert (rec.count_before, rec.count_after, rec.label) == (5, 5, 5)
    assert rec.clamped


def test_amend_leave_decrements():
    net = build_fcbp(seed=6)
    force_prediction(net, 2)
    session = CountSession(net, current_count=3)
    head = window_heads(net, [summary_window(np.random.default_rng(1))])
    assert amend_and_finetune(session, head, DoorEvent("leave", 0)) == 2
    assert session.event_log[-1].action == "skip"


# -------------------------------------------------------- windows / features


def test_count_windows_non_overlapping():
    cap = random_capture(np.random.default_rng(0), 650)
    windows = count_windows_from_capture(cap)
    assert len(windows) == 3
    assert all(w.values.shape == (200, 360) for w in windows)


def test_count_windows_short_capture_raises():
    cap = random_capture(np.random.default_rng(0), 199)
    with pytest.raises(ValueError):
        count_windows_from_capture(cap)


def test_activity_features_shape():
    # 180 amplitude columns (6 streams x 30 subcarriers), 2048 samples:
    # 16 feature windows of 128 samples, energy+variance at 10 scales
    rng = np.random.default_rng(5)
    feats = activity_features(rng.standard_normal((2048, 180)), 1500.0)
    assert feats.shape == (16, 20)
    assert np.isfinite(feats).all()


def test_activity_features_from_capture_read_the_split_amplitude():
    cap = random_capture(np.random.default_rng(6), 1100)
    expected = activity_features(split_streams(cap)[0], cap.rate_hz)
    assert np.array_equal(activity_features_from_capture(cap), expected)


def test_activity_features_need_enough_history():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        activity_features(rng.standard_normal((1023, 180)), 1500.0)


# ------------------------------------------------------------ online session


def test_run_online_short_capture_raises():
    session = CountSession(build_fcbp(seed=0))
    with pytest.raises(ValueError):
        run_online(session, random_capture(np.random.default_rng(0), 150))


def test_run_online_static_room():
    # an empty static room with no activity models: every window looks the
    # same, the network's (constant) prediction is trusted, nothing fires
    cap = simulate_capture(make_count_scene(0, seed=9), 1000 / 1500.0, seed=9)

    def go():
        session = CountSession(build_fcbp(seed=2), hmm_models={}, current_count=0)
        return session, run_online(session, cap)

    session, timeline = go()
    assert len(timeline) == 5 == len(session.event_log)
    assert len({step.prediction for step in timeline}) == 1
    assert all(step.count == step.prediction for step in timeline)
    assert all(step.event is None and step.activity is None for step in timeline)
    assert [step.sample_index for step in timeline] == [200, 400, 600, 800, 1000]

    _, again = go()
    assert again == timeline


SCRIPT_LABELS = (
    ActivityLabel.EMPTY,
    ActivityLabel.WALKING,
    ActivityLabel.ENTERING_ROOM,
    ActivityLabel.LEAVING_ROOM,
)


def test_session_invariants_under_random_activity_scripts(monkeypatch):
    # whatever the activity branch says, the count stays in 0..5, follows
    # the prediction without an event, moves by exactly one (clamped) per
    # door event, and only the last dense layer changes
    cap = random_capture(np.random.default_rng(40), 30 * WINDOW_LEN)
    model = GaussianHmm([1.0], [[1.0]], np.zeros((1, 20)), np.ones((1, 20)))  # only the probe scores it
    events = {"enter": 0, "leave": 0}
    tuned = 0
    for seed in range(10):
        timelines = []
        # the same script through run_online, then pushed in random chunks
        for sizes in (None, np.random.default_rng(100 + seed)):
            rng = np.random.default_rng(seed)
            # runs of one label, 1-5 windows long: door runs of 3 or more fire
            script = iter(
                label
                for _ in range(40)
                for label in [SCRIPT_LABELS[rng.integers(4)]] * int(rng.integers(1, 6))
            )
            monkeypatch.setattr(
                counting, "classify_activity", lambda models, stack: [next(script) for _ in stack]
            )
            net = build_fcbp(seed=seed)
            snapshot = param_snapshot(net)
            start = int(rng.integers(0, 6))
            session = CountSession(
                net, hmm_models={ActivityLabel.WALKING: model}, current_count=start
            )
            if sizes is None:
                timeline = run_online(session, cap)
            else:
                timeline, at = [], 0
                while at < cap.n_frames:
                    n = int(sizes.integers(1, 601))
                    timeline += session.push(frames(cap, at, at + n))
                    at += n
            assert len(timeline) == 30
            before = start
            for step in timeline:
                assert 0 <= step.count <= 5
                if step.event is None:
                    assert step.count == step.prediction
                elif step.event.kind == "enter":
                    assert step.count == min(before + 1, 5)
                else:
                    assert step.count == max(before - 1, 0)
                if step.event is not None:
                    events[step.event.kind] += 1
                before = step.count
            tuned += sum(r.action == "finetune" for r in session.event_log)
            final = {f"layer{net.last_dense}.W", f"layer{net.last_dense}.b"}
            assert changed_params(net, snapshot) <= final
            timelines.append(timeline)
        assert timelines[0] == timelines[1], seed
    assert events["enter"] > 0 and events["leave"] > 0 and tuned > 0


# Two scripted movement regimes that the activity models must separate: slow
# strolling bodies versus a fast, strong door-crossing sweep.

_DURATION = 2048 / 1500.0


def _regime_scene(seed, lo, hi, gain):
    rng = np.random.default_rng(seed)
    statics = (
        Path(1.0 + 0.0j, 10e-9, 0.0, 1e-10),
        Path(0.35 + 0.1j, 30e-9, 0.0, 2e-10),
    )
    movers = tuple(
        Path(
            complex(gain * np.exp(2j * np.pi * rng.uniform())),
            rng.uniform(2e-8, 6e-8),
            float(rng.uniform(lo, hi) * rng.choice([-1, 1])),
            1.5e-10,
        )
        for _ in range(3)
    )
    return Scene(statics, (movers,), noise_sigma=0.02)


def _walk_scene(seed):
    return _regime_scene(seed, 0.25, 0.40, 0.25)


def _door_scene(seed):
    return _regime_scene(1000 + seed, 2.50, 3.00, 0.45)


def _features(scene, seed):
    return activity_features_from_capture(simulate_capture(scene, _DURATION, seed=seed))


@pytest.fixture(scope="module")
def activity_models():
    walk_feats = [_features(_walk_scene(s), s) for s in (1, 2, 3)]
    door_feats = [_features(_door_scene(s), s) for s in (1, 2, 3)]
    models = {
        ActivityLabel.WALKING: fit_hmm(
            walk_feats, n_states=3, max_iter=15, seed=0, label=ActivityLabel.WALKING
        ),
        ActivityLabel.ENTERING_ROOM: fit_hmm(
            door_feats, n_states=3, max_iter=15, seed=0, label=ActivityLabel.ENTERING_ROOM
        ),
    }
    return walk_feats, models


def test_fit_survives_cluster_starvation(activity_models):
    # on these feature sequences one of the three seed clusters loses all
    # posterior mass during refinement; the fit must keep that state's
    # previous parameters instead of dividing zero by zero
    walk_feats, _ = activity_models
    model = fit_hmm(walk_feats, n_states=3, max_iter=15, seed=0)
    for arr in (model.initial, model.transition, model.means, model.variances):
        assert np.isfinite(arr).all()
    assert model.initial.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(model.transition.sum(axis=1), 1.0, atol=1e-12)
    assert (model.variances > 0).all()


def test_activity_models_generalize(activity_models):
    _, models = activity_models
    correct = 0
    for s in (11, 12, 13, 14, 15):
        walk = classify_activity(models, _features(_walk_scene(s), 100 + s))
        door = classify_activity(models, _features(_door_scene(s), 200 + s))
        correct += walk is ActivityLabel.WALKING
        correct += door is ActivityLabel.ENTERING_ROOM
    assert correct >= 9  # out of 10 held-out captures


def test_run_online_door_event_session(activity_models):
    _, models = activity_models
    cap = concat_captures(
        [
            simulate_capture(_walk_scene(5), _DURATION, seed=5),
            simulate_capture(_door_scene(6), _DURATION, seed=6),
        ]
    )
    net = build_fcbp(seed=0)
    snapshot = param_snapshot(net)
    session = CountSession(net, hmm_models=models, current_count=1)
    timeline = run_online(session, cap)

    assert len(timeline) == 20 == len(session.event_log)
    assert [step.window_index for step in timeline] == list(range(20))
    # the activity branch stays silent until 1024 samples of history exist
    assert all(step.activity is None for step in timeline[:5])
    assert all(step.activity is ActivityLabel.WALKING for step in timeline[5:10])
    assert all(step.activity is ActivityLabel.ENTERING_ROOM for step in timeline[10:])

    events = [(step.window_index, step.event.kind) for step in timeline if step.event]
    assert events == [(12, "enter")]

    for step, rec in zip(timeline, session.event_log):
        if step.event is None:
            assert step.count == rec.prediction  # no event: network is trusted
        else:
            assert rec.count_after == rec.count_before + 1
            assert step.count == rec.count_after

    # whatever fine-tuning the event triggered stayed in the final layer
    final = f"layer{len(net.layers) - 2}"
    assert changed_params(net, snapshot) <= {f"{final}.W", f"{final}.b"}
    assert any(rec.action == "finetune" for rec in session.event_log)


def online_one_window_at_a_time(session, capture):
    """run_online's reference: a batch-1 head per window, then the amend."""
    amp, _ = split_streams(capture)
    net = session.network
    detector = DoorEventDetector()
    timeline = []
    for i, window in enumerate(count_windows_from_capture(capture)):
        end = i * WINDOW_LEN + WINDOW_LEN
        activity = None
        if session.hmm_models and end >= ACTIVITY_HISTORY:
            features = activity_features(amp[end - ACTIVITY_HISTORY : end], capture.rate_hz)
            activity = classify_activity(session.hmm_models, features)
        event = detector.push(activity)
        head = net.forward(window.values[None], stop=net.last_dense)
        count = amend_and_finetune(session, head, event, time_index=i)
        timeline.append(
            OnlineStep(i, end, session.event_log[-1].prediction, count, activity, event)
        )
    return timeline


def record_probabilities(net):
    """Softmax outputs of every pass through the network's last layer."""
    seen = []
    softmax = net.layers[-1]
    def recorded(x, training, _f=softmax.forward):
        out = _f(x, training)
        seen.append(out.copy())
        return out
    softmax.forward = recorded
    return seen


@pytest.fixture(scope="module")
def walk_door_capture():
    """Walk, door, walk, door: 40 windows with an enter in each door part."""
    parts = ((_walk_scene, 5), (_door_scene, 6), (_walk_scene, 7), (_door_scene, 8))
    return concat_captures(
        [simulate_capture(scene(seed), _DURATION, seed=seed) for scene, seed in parts]
    )


def test_run_online_matches_one_window_at_a_time(
    activity_models, walk_door_capture, monkeypatch
):
    # the block-batched front pass changes only rounding: every decision of
    # a session that counts each window alone is kept, including the ones a
    # fine-tune earlier in the same block changes (a step size strong enough
    # to turn the next prediction)
    monkeypatch.setattr(neural, "FINETUNE_LR", 1.0)
    _, models = activity_models
    full = walk_door_capture
    for n_windows in (1, ONLINE_BLOCK - 1, ONLINE_BLOCK, ONLINE_BLOCK + 1, 2 * ONLINE_BLOCK + 1):
        n = n_windows * WINDOW_LEN
        cap = CsiCapture(
            full.values[:n], full.timestamps[:n], full.rate_hz, full.n_tx, full.n_rx, full.n_sub
        )
        runs = []
        for go in (run_online, online_one_window_at_a_time):
            net = build_cnn_lstm(seed=12)
            net.layers[net.last_dense].b[:] = [0.0, 2.0, 0.0, 0.0, 0.0]  # predicts 2
            snapshot = param_snapshot(net)
            probs = record_probabilities(net)
            session = CountSession(net, hmm_models=models, current_count=2)
            timeline = go(session, cap)
            runs.append((net, snapshot, probs, session, timeline))
        (net, snapshot, probs, session, timeline), (ref, ref_snapshot, *ref_run) = runs
        ref_probs, ref_session, ref_timeline = ref_run
        assert len(timeline) == n_windows
        assert timeline == ref_timeline
        assert [r.action for r in session.event_log] == [r.action for r in ref_session.event_log]
        assert len(probs) == len(ref_probs)
        assert max(np.abs(p - q).max() for p, q in zip(probs, ref_probs)) <= 1e-9
        last = net.layers[net.last_dense]
        ref_last = ref.layers[ref.last_dense]
        assert np.abs(last.W - ref_last.W).max() <= 1e-12
        assert np.abs(last.b - ref_last.b).max() <= 1e-12
        final = {f"layer{net.last_dense}.W", f"layer{net.last_dense}.b"}
        assert changed_params(net, snapshot) <= final
        assert changed_params(ref, ref_snapshot) <= final

    # the longest session fine-tunes in both door parts, and one fine-tune
    # turns the prediction of the next window inside the same block
    log = session.event_log
    tuned = [r.time_index for r in log if r.action == "finetune"]
    assert len(tuned) >= 2
    assert any(
        (j + 1) % ONLINE_BLOCK and log[j].prediction != log[j + 1].prediction == log[j].label
        for j in tuned
    )


def cut(capture, n_frames):
    return CsiCapture(
        capture.values[:n_frames], capture.timestamps[:n_frames], capture.rate_hz,
        capture.n_tx, capture.n_rx, capture.n_sub,
    )


def session_steps(models, capture, monkeypatch):
    """(steps, activity features classified) of a session on the capture."""
    features = []

    def recording(models, stack):
        features.extend(stack)
        return classify_activity(models, stack)

    monkeypatch.setattr(counting, "classify_activity", recording)
    monkeypatch.setattr(neural, "FINETUNE_LR", 1.0)
    net = build_cnn_lstm(seed=12)
    net.layers[net.last_dense].b[:] = [0.0, 2.0, 0.0, 0.0, 0.0]  # predicts 2
    session = CountSession(net, hmm_models=models, current_count=2)
    timeline = run_online(session, capture)
    steps = [
        (step.prediction, step.count, step.activity, step.event, rec.action)
        for step, rec in zip(timeline, session.event_log)
    ]
    return steps, features


def test_run_online_window_sees_only_its_own_past(
    activity_models, walk_door_capture, monkeypatch
):
    # the filtered activity stream is causal: a capture cut after k windows
    # gives exactly the first k steps of the whole capture's session, also
    # when the cut falls inside a block or leaves its last window short of
    # a full history; the features the HMMs score show no frame after the
    # cut either
    _, models = activity_models
    full, full_features = session_steps(models, walk_door_capture, monkeypatch)
    assert any(action == "finetune" for *_, action in full)
    for k in (5, 6, 15, 16, 17, 33):
        capture = cut(walk_door_capture, k * WINDOW_LEN)
        steps, features = session_steps(models, capture, monkeypatch)
        assert steps == full[:k], k
        assert len(features) == sum(activity is not None for _, _, activity, *_ in steps), k
        for got, ref in zip(features, full_features):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


def frames(capture, start, stop, rate_hz=None, geometry=None, shift=0.0):
    """capture's frames start..stop as a chunk, optionally relabelled."""
    n_tx, n_rx, n_sub = geometry or (capture.n_tx, capture.n_rx, capture.n_sub)
    return CsiCapture(
        capture.values[start:stop], capture.timestamps[start:stop] + shift,
        rate_hz or capture.rate_hz, n_tx, n_rx, n_sub,
    )


def test_push_in_any_chunking_is_one_session(activity_models, walk_door_capture, monkeypatch):
    # the chunking changes only the front pass's batch rounding: every chunk
    # size gives run_online's decisions and windows bit-identical to
    # count_windows_from_capture's; a chunk the session cannot continue with
    # is refused before it changes anything
    monkeypatch.setattr(neural, "FINETUNE_LR", 1.0)
    _, models = activity_models
    full = walk_door_capture
    reference = count_windows_from_capture(full)
    built = []

    def recording(amp, phase):
        built.append(build_count_sample(amp, phase))
        return built[-1]

    monkeypatch.setattr(counting, "build_count_sample", recording)
    runs = {}
    for chunk_len in (None, 1, 137, 3200, full.n_frames):
        built.clear()
        net = build_cnn_lstm(seed=12)
        net.layers[net.last_dense].b[:] = [0.0, 2.0, 0.0, 0.0, 0.0]  # predicts 2
        probs = record_probabilities(net)
        session = CountSession(net, hmm_models=models, current_count=2)
        if chunk_len is None:
            timeline = run_online(session, full)
        else:
            timeline = []
            for start in range(0, full.n_frames, chunk_len):
                if chunk_len == 137 and start in (137, 2055, 6439):
                    last = full.timestamps[start - 1]
                    seen = (session.frames_seen, len(session.event_log), session.current_count)
                    for bad in (
                        frames(full, start, start + 137, rate_hz=1000.0),
                        frames(full, start, start + 137, geometry=(3, 2, 30)),
                        frames(full, start, start + 137, shift=last - full.timestamps[start]),
                    ):
                        with pytest.raises(ValueError):
                            session.push(bad)
                        assert (session.frames_seen, len(session.event_log)) == seen[:2]
                        assert session.current_count == seen[2]
                timeline += session.push(frames(full, start, start + chunk_len))
        assert session.frames_seen == full.n_frames
        assert [w.values.tobytes() for w in built] == [w.values.tobytes() for w in reference]
        assert [w.column_mean.tobytes() for w in built] == [
            w.column_mean.tobytes() for w in reference
        ]
        runs[chunk_len] = (timeline, [r.action for r in session.event_log], probs)

    timeline, actions, probs = runs.pop(None)
    assert len(timeline) == full.n_frames // WINDOW_LEN
    assert "finetune" in actions
    for chunk_len, (got, got_actions, got_probs) in runs.items():
        assert got == timeline, chunk_len
        assert got_actions == actions, chunk_len
        assert len(got_probs) == len(probs)
        assert max(np.abs(p - q).max() for p, q in zip(got_probs, probs)) <= 1e-9, chunk_len


def test_an_empty_chunk_fixes_no_rate_or_geometry():
    # a zero-frame chunk counts nothing, and the session's first frames may
    # still come at another rate
    cap = random_capture(np.random.default_rng(3), WINDOW_LEN)
    session = CountSession(build_fcbp(seed=0))
    assert session.push(frames(cap, 0, 0, rate_hz=1000.0)) == []
    assert session.frames_seen == 0
    steps = session.push(cap)
    assert [step.window_index for step in steps] == [0]
    assert session.frames_seen == WINDOW_LEN


def test_a_failed_push_closes_the_session(monkeypatch):
    # a push that fails in its second block has counted the first block's
    # windows; it closes the session, so no later push counts them again
    calls = []

    def failing(models, stack):
        calls.append(len(stack))
        if len(calls) == 2:
            raise RuntimeError("scoring failed")
        return [ActivityLabel.WALKING] * len(stack)

    monkeypatch.setattr(counting, "classify_activity", failing)
    model = GaussianHmm([1.0], [[1.0]], np.zeros((1, 20)), np.ones((1, 20)))  # only the probe scores it
    cap = random_capture(np.random.default_rng(41), 2 * ONLINE_BLOCK * WINDOW_LEN)
    net = build_fcbp(seed=0)
    session = CountSession(net, hmm_models={ActivityLabel.WALKING: model}, current_count=1)
    with pytest.raises(RuntimeError, match="scoring failed"):
        session.push(cap)
    assert len(calls) == 2 and len(session.event_log) == ONLINE_BLOCK
    seen = (session.frames_seen, len(session.event_log), session.current_count)
    snapshot = param_snapshot(net)
    later = cap.timestamps[-1] + 1.0
    for chunk in (cap, frames(cap, 0, 0), frames(cap, 0, WINDOW_LEN, shift=later)):
        with pytest.raises(ValueError, match="closed"):
            session.push(chunk)
        assert (session.frames_seen, len(session.event_log), session.current_count) == seen
        assert changed_params(net, snapshot) == set()
    assert len(calls) == 2


def test_run_online_takes_one_eigh_per_session(activity_models, walk_door_capture, monkeypatch):
    # PCA's warm span carries across blocks: only the session's first
    # history takes a full eigh
    _, models = activity_models
    eigh, sizes = np.linalg.eigh, []

    def counted(a):
        sizes.append(a.shape[-1])
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    session = CountSession(build_fcbp(seed=0), hmm_models=models)
    assert len(run_online(session, walk_door_capture)) > 2 * ONLINE_BLOCK
    assert sizes.count(walk_door_capture.n_streams * walk_door_capture.n_sub) == 1


def test_run_online_memory_is_flat_in_capture_length(activity_models, walk_door_capture):
    # a session transforms one block of windows at a time, so its peak does
    # not grow with the capture it is pushed
    _, models = activity_models
    long = concat_captures([walk_door_capture] * 5)
    peaks = []
    for n_frames in (10_000, 40_000):
        capture = cut(long, n_frames)
        session = CountSession(build_fcbp(seed=0), hmm_models=models)
        tracemalloc.start()
        try:
            run_online(session, capture)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


def test_batched_activity_branch_matches_one_history_at_a_time(
    activity_models, walk_door_capture
):
    # the wavelet cascade and the HMM forward pass each run once over a
    # stack of histories; every history must come out as it does alone, its
    # features within 1e-9 of each window's largest, since PCA may take a
    # warm-started solver for all but the stack's first history
    _, models = activity_models
    amp, _ = split_streams(walk_door_capture)
    ends = range(ACTIVITY_HISTORY, amp.shape[0] + 1, 5 * WINDOW_LEN)
    stack = np.stack(
        [butterworth_lowpass(amp[e - ACTIVITY_HISTORY : e], 1500.0, 200.0) for e in ends]
    )
    batched = feature_matrix_from_components(pca_denoise(stack)).swapaxes(1, 2)
    single = [feature_matrix_from_components(pca_denoise(h)).T for h in stack]
    assert batched.shape == (len(stack), ACTIVITY_HISTORY // 128, 20)
    for got, ref in zip(batched, single):
        assert np.all(np.abs(got - ref) <= 1e-9 * np.abs(ref).max(axis=-1, keepdims=True))

    zero_start = GaussianHmm(  # an exact zero in initial: log(0) in the forward pass
        [0.0, 0.6, 0.4],
        [[0.5, 0.3, 0.2], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]],
        models[ActivityLabel.WALKING].means,
        models[ActivityLabel.WALKING].variances,
    )
    for model in (*models.values(), zero_start):
        scores = log_likelihoods(model, batched)
        assert scores.shape == (len(stack),)
        for score, features in zip(scores, batched):
            ref = log_likelihood(model, features)
            assert np.isfinite(ref) and abs(score - ref) <= 1e-9 * abs(ref)

    labels = classify_activity(models, batched)
    assert labels == [classify_activity(models, f) for f in batched]
    assert set(labels) == {ActivityLabel.WALKING, ActivityLabel.ENTERING_ROOM}
    # identical models tie exactly: the earlier label of the enumeration wins
    twins = {ActivityLabel.RUNNING: zero_start, ActivityLabel.WALKING: zero_start}
    assert classify_activity(twins, batched) == [ActivityLabel.WALKING] * len(stack)


def test_warm_pca_takes_one_eigh_per_stack_of_consecutive_histories(
    walk_door_capture, monkeypatch
):
    # consecutive windows' histories share all but WINDOW_LEN rows, so every
    # history after a stack's first is certified from the previous one's
    # vectors; the features keep to 1e-9 of each window's largest
    amp, _ = split_streams(walk_door_capture)
    ends = range(ACTIVITY_HISTORY, amp.shape[0] + 1, WINDOW_LEN)
    histories = np.stack(
        [butterworth_lowpass(amp[e - ACTIVITY_HISTORY : e], 1500.0, 200.0) for e in ends]
    )
    single = [feature_matrix_from_components(pca_denoise(h)).T for h in histories]
    eigh, sizes = np.linalg.eigh, []

    def counted(a):
        sizes.append(a.shape[-1])
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    stacks = [histories[i : i + ONLINE_BLOCK] for i in range(0, len(histories), ONLINE_BLOCK)]
    assert len(stacks) >= 2 and len(stacks[0]) == ONLINE_BLOCK
    for k, stack in enumerate(stacks):
        sizes.clear()
        batched = feature_matrix_from_components(pca_denoise(stack)).swapaxes(1, 2)
        assert sizes.count(amp.shape[1]) == 1
        for got, ref in zip(batched, single[k * ONLINE_BLOCK :]):
            assert np.all(np.abs(got - ref) <= 1e-9 * np.abs(ref).max(axis=-1, keepdims=True))


def test_online_lowpass_context_is_bounded_at_high_rates(activity_models, monkeypatch):
    # at 1e5 Hz the low-pass's reflection pad is 1,500 rows; the stream caps
    # it at ACTIVITY_HISTORY - 1, as a single history does, so the rows each
    # window filters stop growing with the capture's rate
    _, models = activity_models
    rows = []

    def recording(series, rate_hz, cutoff_hz):
        rows.append(np.shape(series)[0])
        return butterworth_lowpass(series, rate_hz, cutoff_hz)

    monkeypatch.setattr(counting, "butterworth_lowpass", recording)
    ref = random_capture(np.random.default_rng(13), 1200)
    capture = CsiCapture(ref.values, np.arange(1200) / 1e5, 1e5, 2, 3, 30)
    timeline = run_online(CountSession(build_fcbp(seed=0), hmm_models=models), capture)
    assert [step.activity is None for step in timeline] == [True] * 5 + [False]
    assert rows and max(rows) <= WINDOW_LEN + 2 * (ACTIVITY_HISTORY - 1)
