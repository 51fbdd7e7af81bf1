"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Feeds each check in checks.py one right output, which it must accept,
and deliberately wrong ones, which it must reject.  Runs in a few
seconds on small inputs; exits 1 if any check misjudges its input.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from csicount import capture, hmm, neural  # noqa: E402
from csicount.counting import OnlineStep, SessionRecord  # noqa: E402
from csicount.hmm import ActivityLabel, DoorEvent  # noqa: E402

W, O = ActivityLabel.WALKING, ActivityLabel.ENTERING_ROOM


def _timeline(predictions, events, counts, start=1, activities=None):
    """OnlineSteps and SessionRecords for scripted predictions and events."""
    steps, records, before = [], [], start
    activities = activities or [W] * len(predictions)
    for i, (pred, kind, count, act) in enumerate(zip(predictions, events, counts, activities)):
        event = DoorEvent(kind, i) if kind else None
        steps.append(OnlineStep(i, (i + 1) * 200, pred, count, act, event))
        records.append(SessionRecord(i, pred, event, "none", before, count))
        before = count
    return steps, records


def _gradient_case(scale):
    net = neural.build_cnn_lstm_toy(seed=3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 12, 20))
    labels = np.array([1, 2, 3, 4])
    net.loss_and_gradients(x, labels, training=False)
    grad = np.concatenate([g.ravel() for _, _, g in net.params()]) * scale
    theta = net.get_param_vector()

    def loss_at(v):
        net.set_param_vector(theta + v)
        return neural.data_loss(net, x, labels)

    return checks.check_gradient(loss_at, grad)


def _roundtrip_case(flip):
    rng = np.random.default_rng(1)
    values = (rng.standard_normal((5, 6, 30)) + 1j * rng.standard_normal((5, 6, 30)))
    cap = capture.CsiCapture(values.astype(np.complex64), np.arange(5) / 1500.0, label="t")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csic")
        capture.write_capture(cap, path)
        back = capture.read_capture(path)
    if flip:
        raw = back.values.copy().view(np.uint32)
        raw[2, 3, 4] ^= 1  # lowest mantissa bit of one real part
        back = capture.CsiCapture(raw.view(np.complex64), back.timestamps, label="t")
    return checks.check_roundtrip(cap, back)


def _params_case(layer_index):
    net = neural.build_cnn_lstm(seed=0)
    before = {name: value.copy() for name, value, _ in net.params()}
    net.layers[layer_index].b[0] += 1e-12
    after = {name: value for name, value, _ in net.params()}
    return checks.check_only_last_dense_changed(before, after, {"layer9.W", "layer9.b"})


def _history_case(history):
    return checks.check_fit_history(history)


def _model_case(broken):
    model = hmm.GaussianHmm([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[0.0], [1.0]], [[1.0], [1.0]])
    if broken:
        model.transition[0] = [0.9, 0.2]  # row no longer sums to 1
    return checks.check_model_valid(model)


def _reference_case():
    """The log-space reference agrees with the program on a benign model."""
    rng = np.random.default_rng(2)
    model = hmm.GaussianHmm(
        [0.2, 0.3, 0.5],
        [[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]],
        rng.standard_normal((3, 4)),
        rng.uniform(0.5, 2.0, (3, 4)),
    )
    obs = rng.standard_normal((50, 4))
    ours, theirs = checks.reference_log_likelihood(model, obs), hmm.log_likelihood(model, obs)
    if not np.isclose(ours, theirs, rtol=1e-9, atol=0.0):
        return [f"reference {ours} != program {theirs}"]
    return []


DOORS = [(2, 4)]


def _doors_case(events):
    """Door labels on windows 4..6 (segment 2..4 lagged by the history)."""
    acts = [W] * 4 + [O] * 3 + [W] * 2
    steps, _ = _timeline([1] * 9, events, [1] * 9, activities=acts)
    return checks.check_door_events(steps, DOORS, 3)
SEGMENTS = [(W, 0, 400), (O, 400, 2000)]

# (name, errors returned by the check, whether the output is wrong)
CASES = [
    ("losses: one per iteration, finite", lambda: checks.check_losses([1.6, 1.5], 2), False),
    ("losses: one missing", lambda: checks.check_losses([1.6], 2), True),
    ("losses: a nan", lambda: checks.check_losses([1.6, float("nan")], 2), True),
    ("gradient: as computed", lambda: _gradient_case(1.0), False),
    ("gradient: scaled by 1.01", lambda: _gradient_case(1.01), True),
    (
        "confusion: matches batch-1 predictions",
        lambda: checks.check_confusion(
            [[1, 1, 0, 0, 0], [0, 1, 0, 0, 0]] + [[0] * 5] * 3, [1, 1, 2], [1, 2, 2]
        ),
        False,
    ),
    (
        "confusion: one prediction differs",
        lambda: checks.check_confusion(
            [[2, 0, 0, 0, 0], [0, 1, 0, 0, 0]] + [[0] * 5] * 3, [1, 1, 2], [1, 2, 2]
        ),
        True,
    ),
    (
        "confusion: a row sum is off",
        lambda: checks.check_confusion(
            [[1, 1, 0, 0, 0], [0, 2, 0, 0, 0]] + [[0] * 5] * 3, [1, 1, 2], [1, 2, 2]
        ),
        True,
    ),
    ("csic: read back bit-exact", lambda: _roundtrip_case(False), False),
    ("csic: one bit flipped", lambda: _roundtrip_case(True), True),
    (
        "timeline: frames // 200 steps",
        lambda: checks.check_timeline_length([0] * 10, 2099, 200),
        False,
    ),
    ("timeline: a step short", lambda: checks.check_timeline_length([0] * 9, 2099, 200), True),
    (
        "counts: prediction, then one step at an enter",
        lambda: checks.check_counts(
            *_timeline([2, 2, 3, 4], [None, "enter", None, "leave"], [2, 3, 3, 2]), 1
        ),
        False,
    ),
    (
        "counts: a jump by 2 at an enter",
        lambda: checks.check_counts(*_timeline([2, 2, 3], [None, "enter", None], [2, 4, 3]), 1),
        True,
    ),
    (
        "counts: count differs from the prediction without an event",
        lambda: checks.check_counts(*_timeline([2, 2], [None, None], [2, 3]), 1),
        True,
    ),
    (
        "counts: the 5 clamp is exempt",
        lambda: checks.check_counts(*_timeline([5, 5], [None, "enter"], [5, 5]), 1),
        False,
    ),
    (
        "doors: the enter the labels imply, within the debounce delay",
        lambda: _doors_case([None] * 6 + ["enter", None, None]),
        False,
    ),
    (
        "doors: a second enter the labels do not imply",
        lambda: _doors_case([None, None, "enter"] + [None] * 3 + ["enter", None, None]),
        True,
    ),
    ("doors: no enter", lambda: _doors_case([None] * 9), True),
    (
        "doors: a leave in place of the enter",
        lambda: _doors_case([None] * 6 + ["leave", None, None]),
        True,
    ),
    (
        "regimes: every in-segment window right",
        lambda: checks.check_regimes(
            [OnlineStep(i, (i + 1) * 200, 1, 1, O, None) for i in range(10)], SEGMENTS, 1024
        ),
        False,
    ),
    (
        "regimes: a wrong activity label",
        lambda: checks.check_regimes(
            [OnlineStep(i, (i + 1) * 200, 1, 1, W if i == 8 else O, None) for i in range(10)],
            SEGMENTS,
            1024,
        ),
        True,
    ),
    ("parameters: only the final dense layer changed", lambda: _params_case(9), False),
    ("parameters: a bias of the first dense layer changed", lambda: _params_case(7), True),
    (
        "activity: all labels right",
        lambda: checks.check_classification([W, O] * 5, [W, O] * 5),
        False,
    ),
    (
        "activity: a wrong activity label",
        lambda: checks.check_classification([W, O, W, O, W], [W, O, W, W, W]),
        True,
    ),
    ("fit: log-likelihood rises", lambda: _history_case([-10.0, -5.0, -5.0]), False),
    ("fit: log-likelihood falls", lambda: _history_case([-10.0, -5.0, -5.001]), True),
    ("fit: a nan in the history", lambda: _history_case([-10.0, float("nan")]), True),
    ("model: valid", lambda: _model_case(False), False),
    ("model: transition row does not sum to 1", lambda: _model_case(True), True),
    ("reference log-likelihood agrees with hmm.log_likelihood", _reference_case, False),
]


def main():
    wrong = 0
    for name, case, should_reject in CASES:
        errors = case()
        ok = bool(errors) == should_reject
        wrong += not ok
        verdict = "rejects" if errors else "accepts"
        print(f"{'ok ' if ok else 'BAD'} {verdict}: {name}" + (f" ({errors[0]})" if errors else ""))
    print(f"{len(CASES) - wrong} of {len(CASES)} cases judged right")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
