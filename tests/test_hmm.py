"""Gaussian-HMM inference against exhaustive-enumeration oracles."""

from itertools import product

import numpy as np
import pytest
from scipy.special import logsumexp

from csicount import hmm
from csicount.hmm import (
    VARIANCE_FLOOR,
    ActivityLabel,
    DoorEvent,
    DoorEventDetector,
    GaussianHmm,
    classify_activity,
    fit_hmm,
    load_hmm,
    log_likelihood,
    save_hmm,
)

W = ActivityLabel.WALKING
O = ActivityLabel.ENTERING_ROOM
L = ActivityLabel.LEAVING_ROOM


def random_model(rng, n_states, dim, label=""):
    init = rng.uniform(0.2, 1.0, n_states)
    trans = rng.uniform(0.2, 1.0, (n_states, n_states))
    return GaussianHmm(
        init / init.sum(),
        trans / trans.sum(axis=1, keepdims=True),
        2.0 * rng.standard_normal((n_states, dim)),
        rng.uniform(0.5, 2.0, (n_states, dim)),
        label=label,
    )


def draw_from_hmm(model, length, seed=0):
    """Draw (observations, states) from the model's own generative process."""
    rng = np.random.default_rng(seed)
    states = np.empty(length, dtype=np.int64)
    obs = np.empty((length, model.n_features))
    state = rng.choice(model.n_states, p=model.initial)
    for t in range(length):
        if t > 0:
            state = rng.choice(model.n_states, p=model.transition[state])
        states[t] = state
        obs[t] = model.means[state] + rng.standard_normal(model.n_features) * np.sqrt(
            model.variances[state]
        )
    return obs, states


def door_events(labels):
    """Every event a DoorEventDetector fires over a label sequence."""
    detector = DoorEventDetector()
    return [e for e in map(detector.push, labels) if e is not None]


def frame_log_densities(model, x):
    diff = x[:, None, :] - model.means[None, :, :]
    quad = (diff**2 / model.variances[None, :, :]).sum(axis=2)
    norm = np.log(2 * np.pi * model.variances).sum(axis=1)
    return -0.5 * (quad + norm[None, :])


def enumerate_paths(model, x):
    """All path log-probabilities by direct summation (oracle)."""
    logb = frame_log_densities(model, x)
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


# ------------------------------------------------------------ forward


def test_forward_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(10):
        s = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        t = int(rng.integers(1, 7))
        model = random_model(rng, s, d)
        x = rng.standard_normal((t, d))
        oracle = logsumexp([lp for lp, _ in enumerate_paths(model, x)])
        assert abs(log_likelihood(model, x) - oracle) < 1e-8


def test_one_state_closed_form():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((50, 2)) + np.array([1.0, -2.0])
    model = fit_hmm([x], n_states=1, max_iter=5)
    assert np.max(np.abs(model.means[0] - x.mean(axis=0))) < 1e-8
    assert np.max(np.abs(model.variances[0] - x.var(axis=0))) < 1e-8
    var = model.variances[0]
    closed = -0.5 * np.sum(
        (x - model.means[0]) ** 2 / var + np.log(2 * np.pi * var)
    )
    assert abs(log_likelihood(model, x) - closed) < 1e-8


def test_appending_frames_decreases_log_likelihood():
    # unit-variance emissions have densities below 1, so every extra
    # frame makes the sequence strictly less probable
    rng = np.random.default_rng(2)
    model = GaussianHmm(
        np.array([0.5, 0.5]),
        np.full((2, 2), 0.5),
        np.array([[0.0], [1.0]]),
        np.ones((2, 1)),
    )
    x = rng.standard_normal((10, 1))
    lls = [log_likelihood(model, x[: t + 1]) for t in range(10)]
    assert all(b < a for a, b in zip(lls, lls[1:]))


# Only the third state explains frame 0 (first model) or frame 2 (second
# model), and no probability mass can reach it there; every other state's
# density at that frame is below exp(-4000), so it underflows once a frame
# is shifted by its best density rather than by its best reachable term.
UNREACHABLE_STATE_CASES = [
    (
        GaussianHmm(
            [0.5, 0.5, 0.0],
            [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
            [[0.0], [1.0], [10.0]],
            [[0.01], [0.01], [0.01]],
        ),
        np.array([[10.0], [0.0], [1.0], [0.0]]),
    ),
    (
        GaussianHmm(
            [0.5, 0.5, 0.0],
            [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.4, 0.3, 0.3]],
            [[0.0], [1.0], [10.0]],
            [[0.01], [0.01], [0.01]],
        ),
        np.array([[0.0], [1.0], [10.0], [0.0]]),
    ),
]


@pytest.mark.parametrize("model, x", UNREACHABLE_STATE_CASES)
def test_forward_with_unreachable_best_state(model, x):
    with np.errstate(divide="ignore"):
        oracle = logsumexp([lp for lp, _ in enumerate_paths(model, x)])
    assert np.isfinite(oracle)
    assert abs(log_likelihood(model, x) - oracle) <= 1e-9 * abs(oracle)


def test_observation_validation():
    rng = np.random.default_rng(3)
    model = random_model(rng, 2, 3)
    with pytest.raises(ValueError):
        log_likelihood(model, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        log_likelihood(model, np.zeros((0, 3)))
    bad = np.zeros((4, 3))
    bad[1, 1] = np.inf
    with pytest.raises(ValueError):
        log_likelihood(model, bad)


# ------------------------------------------------------- segmentation


def test_two_regime_change_point():
    rng = np.random.default_rng(6)
    x = np.concatenate(
        [rng.normal(0.0, 0.3, 40), rng.normal(4.0, 0.3, 40)]
    )[:, None]
    model = fit_hmm([x], n_states=2, seed=0)
    path = np.argmax(frame_log_densities(model, x), axis=1)  # per-frame decoding
    changes = np.flatnonzero(np.diff(path) != 0)
    assert len(changes) == 1
    assert abs(int(changes[0]) + 1 - 40) <= 1


# ----------------------------------------------------------------- EM


def test_fit_log_likelihood_monotone(monkeypatch):
    monkeypatch.setattr(hmm, "FIT_TOL", 0.0)  # no early stop
    rng = np.random.default_rng(7)
    x = np.concatenate(
        [rng.normal(0, 1, (30, 2)), rng.normal(3, 1, (30, 2))]
    )
    model = fit_hmm([x], n_states=3, max_iter=25, seed=1)
    lls = model.fit_log_likelihoods
    assert len(lls) > 2
    assert all(b >= a - 1e-8 for a, b in zip(lls, lls[1:]))


def loop_transition_update(model, seqs):
    """One Baum-Welch transition re-estimate, summing xi_t step by step (oracle).

    xi_t / xi_t.sum() does not change when alpha_t or b_{t+1} beta_{t+1} is
    rescaled, so each step is simply normalized to sum to one.
    """
    acc = np.zeros_like(model.transition)
    for x in seqs:
        logb = frame_log_densities(model, x)
        b = np.exp(logb - logb.max(axis=1, keepdims=True))
        t_len, s = b.shape
        alpha, beta = np.empty((t_len, s)), np.ones((t_len, s))
        alpha[0] = model.initial * b[0] / (model.initial * b[0]).sum()
        for t in range(1, t_len):
            a = (alpha[t - 1] @ model.transition) * b[t]
            alpha[t] = a / a.sum()
        for t in range(t_len - 2, -1, -1):
            v = model.transition @ (b[t + 1] * beta[t + 1])
            beta[t] = v / v.sum()
        for t in range(t_len - 1):
            xi = alpha[t][:, None] * model.transition * (b[t + 1] * beta[t + 1])[None, :]
            acc += xi / xi.sum()
    return acc / acc.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("n_states,t_len", [(1, 5), (3, 40), (4, 200)])
def test_transition_update_matches_per_step_loop(n_states, t_len):
    rng = np.random.default_rng(n_states * t_len)
    truth = random_model(rng, n_states, 2)
    seqs = [draw_from_hmm(truth, t_len, seed=s)[0] for s in range(2)]
    start = fit_hmm(seqs, n_states=n_states, max_iter=0, seed=3)  # the initialization
    step = fit_hmm(seqs, n_states=n_states, max_iter=1, seed=3)  # one re-estimation
    assert start.fit_log_likelihoods == [] and len(step.fit_log_likelihoods) == 1
    ref = loop_transition_update(start, seqs)
    np.testing.assert_allclose(step.transition, ref, rtol=1e-12, atol=0)


def test_fit_models_validate_and_likelihood_never_drops(monkeypatch):
    monkeypatch.setattr(hmm, "FIT_TOL", 0.0)  # no early stop
    rng = np.random.default_rng(12)
    truth = random_model(rng, 3, 2)
    seqs = [draw_from_hmm(truth, 120, seed=s)[0] for s in range(3)]
    model = fit_hmm(seqs, n_states=3, max_iter=30, seed=2)
    model.validate()
    lls = model.fit_log_likelihoods
    assert len(lls) == 30
    assert all(b >= a - 1e-8 for a, b in zip(lls, lls[1:]))


def test_fit_is_deterministic():
    rng = np.random.default_rng(8)
    seqs = [rng.standard_normal((40, 3)) for _ in range(2)]
    a = fit_hmm(seqs, n_states=2, seed=5)
    b = fit_hmm(seqs, n_states=2, seed=5)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.transition, b.transition)
    assert a.fit_log_likelihoods == b.fit_log_likelihoods


def test_fit_constant_input_hits_variance_floor():
    x = np.full((30, 2), 1.5)
    model = fit_hmm([x], n_states=2, max_iter=5)
    assert (model.variances >= VARIANCE_FLOOR * (1 - 1e-12)).all()
    assert np.isfinite(log_likelihood(model, x))


def test_fit_multiple_sequences_and_validation():
    rng = np.random.default_rng(9)
    seqs = [rng.standard_normal((20, 2)), rng.standard_normal((25, 2))]
    model = fit_hmm(seqs, n_states=2, label="w")
    assert model.label == "w"
    with pytest.raises(ValueError):
        fit_hmm([], n_states=2)
    with pytest.raises(ValueError):
        fit_hmm([np.zeros((5, 2)), np.zeros((5, 3))], n_states=2)
    with pytest.raises(ValueError):
        fit_hmm([np.zeros((1, 2))], n_states=2)  # shorter than n_states


def test_model_parameter_validation():
    ok = dict(
        initial=np.array([1.0]),
        transition=np.array([[1.0]]),
        means=np.zeros((1, 2)),
        variances=np.ones((1, 2)),
    )
    GaussianHmm(**ok)
    with pytest.raises(ValueError):
        GaussianHmm(**{**ok, "initial": np.array([0.5])})
    with pytest.raises(ValueError):
        GaussianHmm(**{**ok, "transition": np.array([[0.9]])})
    with pytest.raises(ValueError):
        GaussianHmm(**{**ok, "variances": np.full((1, 2), 1e-9)})


# -------------------------------------------------------- classification


def test_classify_is_argmax_of_log_likelihood():
    rng = np.random.default_rng(11)
    models = {
        ActivityLabel.EMPTY: random_model(rng, 2, 2),
        ActivityLabel.WALKING: random_model(rng, 2, 2),
        ActivityLabel.RUNNING: random_model(rng, 2, 2),
    }
    for seed in range(10):
        x = np.random.default_rng(seed).standard_normal((12, 2))
        lls = {lab: log_likelihood(m, x) for lab, m in models.items()}
        expected = max(lls, key=lls.get)
        assert classify_activity(models, x) is expected


def test_classify_tie_resolves_by_enum_order():
    rng = np.random.default_rng(12)
    shared = random_model(rng, 2, 2)
    models = {ActivityLabel.WAVING: shared, ActivityLabel.EMPTY: shared}
    x = rng.standard_normal((6, 2))
    # identical models tie exactly; EMPTY precedes WAVING in the enum
    assert classify_activity(models, x) is ActivityLabel.EMPTY


def test_classify_self_consistency():
    rng = np.random.default_rng(13)
    means = {ActivityLabel.WALKING: 0.0, ActivityLabel.RUNNING: 4.0}
    models = {}
    for lab, mu in means.items():
        models[lab] = GaussianHmm(
            np.array([0.6, 0.4]),
            np.array([[0.8, 0.2], [0.3, 0.7]]),
            np.array([[mu], [mu + 1.0]]),
            np.ones((2, 1)),
            label=lab.value,
        )
    hits = 0
    trials = 100
    for k in range(trials):
        lab = ActivityLabel.WALKING if k % 2 else ActivityLabel.RUNNING
        obs, _ = draw_from_hmm(models[lab], 30, seed=k)
        hits += classify_activity(models, obs) is lab
    assert hits / trials >= 0.95


def test_classify_keeps_model_with_unreachable_best_state():
    probe, x = UNREACHABLE_STATE_CASES[0]
    far = GaussianHmm([1.0], [[1.0]], [[100.0]], [[0.01]])
    # the far model is finite but far less likely; it must not win because
    # the probe model's likelihood went missing
    assert log_likelihood(far, x) < log_likelihood(probe, x)
    models = {ActivityLabel.EMPTY: far, ActivityLabel.WALKING: probe}
    assert classify_activity(models, x) is ActivityLabel.WALKING


def test_classify_requires_models():
    with pytest.raises(ValueError):
        classify_activity({}, np.zeros((3, 1)))


# ---------------------------------------------------------- door events


def test_debounce_three_in_a_row_fires_once():
    events = door_events([W, W, O, O, O, W])
    assert events == [DoorEvent("enter", 4)]


def test_no_door_labels_no_events():
    assert door_events([W] * 10) == []


def test_run_shorter_than_debounce_no_event():
    assert door_events([O, O]) == []


def test_requires_rearm_after_firing():
    # a second event needs a non-door label in between
    events = door_events([O, O, O, O, O, O])
    assert events == [DoorEvent("enter", 2)]
    events = door_events([O, O, O, W, O, O, O])
    assert events == [DoorEvent("enter", 2), DoorEvent("enter", 6)]


def test_door_label_switch_restarts_run():
    events = door_events([O, O, L, L, L])
    assert events == [DoorEvent("leave", 4)]


def test_detector_incremental_indices():
    det = DoorEventDetector()
    assert det.debounce == 3
    assert det.push(W) is None
    assert det.push(O) is None
    assert det.push(O) is None
    event = det.push(O)
    assert event == DoorEvent("enter", 3)
    assert det.push(O) is None  # not re-armed yet


# ------------------------------------------------------------- storage


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    model = random_model(rng, 3, 4, label="walking")
    path = tmp_path / "walking.hmm"
    save_hmm(model, path)
    back = load_hmm(path)
    assert np.array_equal(back.initial, model.initial)
    assert np.array_equal(back.transition, model.transition)
    assert np.array_equal(back.means, model.means)
    assert np.array_equal(back.variances, model.variances)
    assert back.label == "walking"


def test_load_rejects_corrupt_files(tmp_path):
    rng = np.random.default_rng(15)
    path = tmp_path / "m.hmm"
    save_hmm(random_model(rng, 2, 2), path)
    raw = path.read_bytes()
    bad = tmp_path / "bad.hmm"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError):
        load_hmm(bad)
    bad.write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        load_hmm(bad)
    bad.write_bytes(raw[:4])
    with pytest.raises(ValueError):
        load_hmm(bad)
