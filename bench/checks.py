"""Correctness checks on the outputs of each workload.

Every check compares the program's output with a computation made apart
from it, or with a property the method must have; none compares with a
stored copy of an earlier output.  Each returns a list of failure
messages, empty when the output is right, so selftest.py can feed it
deliberately wrong outputs.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from csicount.hmm import ActivityLabel

COUNT_MIN, COUNT_MAX = 0, 5
DOOR_KINDS = {ActivityLabel.ENTERING_ROOM: "enter", ActivityLabel.LEAVING_ROOM: "leave"}


# ----------------------------------------------------------------- train


def check_losses(losses, iterations):
    errors = []
    if len(losses) != iterations:
        errors.append(f"{len(losses)} losses for {iterations} iterations")
    if not all(np.isfinite(loss) for loss in losses):
        errors.append("a training loss is not finite")
    return errors


def check_gradient(loss_at, grad, step=1e-6, rel=1e-4):
    """Central difference of the loss along `grad` against |grad|^2.

    loss_at(v) is the loss at the current parameters displaced by v.  The
    step has norm `step` along the gradient's direction, so the difference
    quotient estimates |grad| (the derivative along the unit direction);
    multiplied by |grad| it must equal the squared gradient norm.  A step
    of 1e-6 keeps the rounding error near 1e-10 and steps over no ReLU or
    max-pool kink; at 1e-4 the curvature alone costs 1e-3 on small nets.
    """
    grad = np.asarray(grad, dtype=np.float64)
    norm = float(np.linalg.norm(grad))
    if not np.isfinite(norm) or norm == 0.0:
        return [f"gradient norm is {norm}"]
    unit = grad / norm
    slope = (loss_at(step * unit) - loss_at(-step * unit)) / (2.0 * step)
    error = abs(slope * norm - norm * norm) / (norm * norm)
    if not error <= rel:
        return [
            f"central difference {slope * norm:.9g} vs squared gradient norm "
            f"{norm * norm:.9g}: relative error {error:.2e} > {rel:.0e}"
        ]
    return []


def check_confusion(counts, labels, batch1_predictions):
    """evaluate's matrix against one built from batch-1 predictions.

    counts: 5x5 matrix, rows true counts 1..5; labels: true counts;
    batch1_predictions: predicted counts 1..5 from batch-1 forward passes.
    """
    errors = []
    counts = np.asarray(counts)
    labels = np.asarray(labels)
    expected = np.zeros_like(counts)
    for true, pred in zip(labels, batch1_predictions):
        expected[true - 1, pred - 1] += 1
    if not np.array_equal(counts, expected):
        errors.append("evaluate's predictions differ from batch-1 argmax predictions")
    row_sums = counts.sum(axis=1)
    class_counts = np.bincount(labels - 1, minlength=counts.shape[0])
    if not np.array_equal(row_sums, class_counts):
        errors.append(f"row sums {row_sums.tolist()} != class counts {class_counts.tolist()}")
    return errors


# ---------------------------------------------------------------- online


def check_roundtrip(written, read):
    """The .csic file must read back bit-exact."""
    same = (
        written.values.tobytes() == read.values.tobytes()
        and written.timestamps.tobytes() == read.timestamps.tobytes()
        and written.values.shape == read.values.shape
        and (written.rate_hz, written.n_tx, written.n_rx, written.n_sub, written.label)
        == (read.rate_hz, read.n_tx, read.n_rx, read.n_sub, read.label)
    )
    return [] if same else ["capture read back differs from the capture written"]


def check_timeline_length(timeline, n_frames, window_len):
    if len(timeline) != n_frames // window_len:
        return [f"{len(timeline)} timeline steps for {n_frames} frames"]
    return []


def check_counts(timeline, records, start_count):
    """No event: count = prediction.  Event: one step in its direction,
    unless the step would leave the 0..5 range the session clamps to."""
    errors = []
    if len(records) != len(timeline):
        return [f"{len(records)} session records for {len(timeline)} steps"]
    before = start_count
    for step, rec in zip(timeline, records):
        where = f"window {step.window_index}"
        if rec.count_before != before:
            errors.append(f"{where}: count_before {rec.count_before}, expected {before}")
        if step.count != rec.count_after or step.prediction != rec.prediction:
            errors.append(f"{where}: timeline disagrees with the session record")
        if step.event is None:
            if step.count != rec.prediction:
                errors.append(f"{where}: count {step.count} != prediction {rec.prediction}")
        else:
            delta = 1 if step.event.kind == "enter" else -1
            target = before + delta
            if COUNT_MIN <= target <= COUNT_MAX and step.count != target:
                errors.append(
                    f"{where}: {step.event.kind} moved the count {before} -> {step.count}"
                )
        before = step.count
    return errors


def debounce_reference(labels, debounce):
    """[(window index, kind)] of the door events a debouncer fires.

    An event fires when `debounce` consecutive windows carry the same
    door label, once per run; any other label re-arms it.
    """
    events, kind, run, armed = [], None, 0, True
    for i, label in enumerate(labels):
        if label not in DOOR_KINDS:
            kind, run, armed = None, 0, True
            continue
        run = run + 1 if label is kind else 1
        kind = label
        if armed and run >= debounce:
            armed = False
            events.append((i, DOOR_KINDS[label]))
    return events


def check_door_events(timeline, door_windows, debounce):
    """The events are those the timeline's activity labels imply, and
    each door segment has an 'enter' inside it or at most `debounce`
    windows after its last window.

    door_windows: [(first window index, last window index)] per segment.
    """
    events = [(s.window_index, s.event.kind) for s in timeline if s.event is not None]
    expected = debounce_reference([s.activity for s in timeline], debounce)
    errors = []
    if events != expected:
        errors.append(f"events {events}, the activity labels imply {expected}")
    for first, last in door_windows:
        if not any(first <= i <= last + debounce and kind == "enter" for i, kind in events):
            errors.append(f"door segment {first}..{last}: no enter among {events}")
    return errors


def check_regimes(timeline, segments, history, min_share=0.9):
    """Windows whose activity history lies inside one segment must carry
    that segment's regime at least `min_share` of the time.

    segments: [(label, first sample, end sample)].
    """
    inside = hits = 0
    for step in timeline:
        start = step.sample_index - history
        for label, seg_start, seg_end in segments:
            if seg_start <= start and step.sample_index <= seg_end:
                inside += 1
                hits += step.activity is label
    if inside == 0 or hits < min_share * inside:
        return [f"{hits} of {inside} in-segment windows carry their segment's regime"]
    return []


def check_only_last_dense_changed(before, after, allowed):
    """before/after: {param name: array}; only names in `allowed` may differ."""
    changed = {
        name
        for name in before
        if before[name].tobytes() != after[name].tobytes()
    }
    outside = sorted(changed - set(allowed))
    if outside:
        return [f"parameters outside the final dense layer changed: {outside}"]
    return []


# -------------------------------------------------------------- activity


def check_classification(truth, predicted, min_share=0.9):
    hits = sum(t is p for t, p in zip(truth, predicted))
    if len(truth) == 0 or hits < min_share * len(truth):
        return [f"{hits} of {len(truth)} held-out captures classified as their regime"]
    return []


def reference_log_likelihood(model, obs):
    """log P(obs | model) by a forward pass kept in log space throughout."""
    x = np.asarray(obs, dtype=np.float64)
    quad = ((x[:, None, :] - model.means[None]) ** 2 / model.variances[None]).sum(axis=2)
    logb = -0.5 * (quad + np.log(2 * np.pi * model.variances).sum(axis=1)[None])
    with np.errstate(divide="ignore"):
        log_init = np.log(model.initial)
        log_trans = np.log(model.transition)
    alpha = log_init + logb[0]
    for t in range(1, len(x)):
        alpha = logsumexp(alpha[:, None] + log_trans, axis=0) + logb[t]
    return float(logsumexp(alpha))


def check_fit_history(history, rel=1e-9):
    """Baum-Welch log-likelihoods must not decrease (within `rel`)."""
    errors = []
    if not history or not np.all(np.isfinite(history)):
        errors.append(f"fit history is empty or not finite: {history}")
    for i in range(1, len(history)):
        if history[i] < history[i - 1] - rel * abs(history[i - 1]):
            errors.append(f"log-likelihood fell at iteration {i}: {history[i - 1]} -> {history[i]}")
    return errors


def check_model_valid(model):
    try:
        model.validate()
    except ValueError as exc:
        return [f"model {model.label!r} fails validate: {exc}"]
    return []
