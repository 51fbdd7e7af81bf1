"""Crowd-count training, evaluation, and the online amendment session.

Offline: minibatch SGD with a seeded shuffle, per-iteration loss curve,
and best-loss parameter restore; evaluation produces a 5x5 confusion
matrix.  Online: captures are cut into non-overlapping windows; each
window is counted by the network while a parallel activity branch
(low-pass -> PCA -> wavelet features -> HMM) watches for door events.
When a door event contradicts the prediction, the window is relabeled
with the event-implied count and only the final dense layer is
fine-tuned — every other parameter stays bitwise identical.

A session is fed frames by CountSession.push, in chunks of any size, and
carries only causal state between pushes (see CountSession); run_online
is one push of a whole capture.  Both cut windows with one function: one
moving average over a run of whole windows, given the amplitude rows
before it, and one phase sanitize.  The moving average is an exact causal
FIR in blocks of one window, so the windows are bit-identical in any
chunking and to count_windows_from_capture's.

Because fine-tuning never touches the layers before that final dense
layer, a window's input to it (its head) is fixed for the whole session.
push therefore takes up to ONLINE_BLOCK (16) complete windows at a time:
it builds their windows as one run after the session's amplitude tail, a
batched front pass gives their heads, and one activity pass scores their
stacked histories, cut from one causally low-passed stream.  It then
amends the windows one by one through the final dense layer and softmax
alone, so a fine-tune in one window still changes the prediction of the
next, inside a block too.  Only the batched rounding and PCA's warm start
(features within 1e-9 of each window's largest) differ from counting each
window alone.  The block bounds the memory a push adds, whatever the
chunk's length.  A push that fails part-way closes the session.

Counts are 1..5, read by _counts from the network's 5 output classes.  A
session's tracked count may still reach 0 when someone leaves an empty-looking
room; labels are clamped into 1..5 and the event log marks the clamping.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace

import numpy as np

from . import hmm
from .capture import CsiCapture, split_streams, stream_amplitudes
from .hmm import ActivityLabel, DoorEvent, DoorEventDetector, classify_activity
from .neural import N_CLASSES, Network, finetune_last_dense
from .preprocess import (
    WMA_TAPS,
    CsiWindow,
    build_count_sample,
    butterworth_lowpass,
    lowpass_pad,
    pca_denoise,
    sanitize_phase,
    weighted_moving_average,
)
from .wavelet import feature_matrix_from_components

WINDOW_LEN = 200
ACTIVITY_HISTORY = 1024  # samples of amplitude fed to the activity branch
ACTIVITY_CUTOFF_HZ = 200.0
ACTIVITY_LEVELS = 10
# Windows per front pass in CountSession.push.  Batching spreads the per-step
# cost of the LSTM's 200 recurrent steps over the block, but the block's windows,
# their stacked input and the front layers' outputs are all alive at once:
# for the CNN-LSTM about 9 + 9 + 20 MB at 16 windows, growing linearly.  At
# 32 the front pass is only ~6% cheaper per window for twice the memory.
ONLINE_BLOCK = 16


def _integer(name: str, value) -> int:
    """`value` through operator.index (so NumPy integers pass, bools do not); else ValueError."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Dataset:
    """Labeled count windows: at least one, each labeled with an integer 1..5."""

    samples: tuple

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        if not self.samples:
            raise ValueError("dataset is empty")
        for window, label in self.samples:
            if not isinstance(window, CsiWindow):
                raise TypeError("samples must pair CsiWindow with an int label")
            if not 1 <= _integer("count label", label) <= N_CLASSES:
                raise ValueError(f"count label {label} outside 1..{N_CLASSES}")

    def __len__(self):
        return len(self.samples)

    @property
    def labels(self) -> np.ndarray:
        return np.array([lab for _, lab in self.samples], dtype=np.int64)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    learning_rate: float = 0.2
    max_iterations: int = 3000
    seed: int = 0

    def __post_init__(self):
        if _integer("batch_size", self.batch_size) < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if _integer("max_iterations", self.max_iterations) < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class ConfusionMatrix:
    """Rows are true labels 1..5, columns are predictions."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (N_CLASSES, N_CLASSES) or (counts < 0).any():
            raise ValueError("confusion matrix must be 5x5 with nonnegative counts")
        counts = counts.copy()
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        total = self.total
        return float(np.trace(self.counts)) / total if total else 0.0


def _inputs(network: Network, windows) -> np.ndarray:
    """The network's input batch for `windows`, in the network's dtype."""
    if network.input_kind == "summary":
        return np.stack([w.column_mean for w in windows], dtype=network.dtype)
    return np.stack([w.values for w in windows], dtype=network.dtype)


def _counts(network: Network, x, start: int = 0) -> np.ndarray:
    """Each row's most probable count 1..N_CLASSES through layers[start:]."""
    probs = network.forward(x, start=start, keep_cache=False)
    if probs.ndim != 2 or probs.shape[1] != N_CLASSES:
        raise ValueError(f"network outputs {probs.shape[1:]} per window, not {N_CLASSES} counts")
    return probs.argmax(axis=1) + 1


def train(network: Network, dataset: Dataset, config: TrainConfig):
    """Seeded shuffled minibatch SGD; restores the best-loss parameters.

    Returns (network, per-iteration loss list).  "Best" is judged by the
    mean batch loss of each pass over the data, and the parameter vector
    from the end of the best pass is restored before returning.  A
    non-finite layer output aborts with RuntimeError.

    The loop computes in float32: the network is cast to float32 before
    it, and back to float64, with zeroed gradients, after it, also when it
    raises.  So the network is float64 at rest, as are checkpoints,
    inference and the gradient checks.  Widening float32 is exact, so the
    returned parameters are the float32 ones of the best pass.
    """
    windows = [w for w, _ in dataset.samples]
    labels = dataset.labels
    n = len(labels)
    rng = np.random.default_rng(config.seed)
    losses = []
    best_loss = np.inf
    network.cast(np.float32)
    try:
        while len(losses) < config.max_iterations:
            order = rng.permutation(n)
            first = len(losses)
            for start in range(0, n, config.batch_size):
                if len(losses) >= config.max_iterations:
                    break
                sel = order[start : start + config.batch_size]
                x = _inputs(network, [windows[i] for i in sel])
                # overflow surfaces as the forward pass's non-finite output error
                with np.errstate(over="ignore", invalid="ignore"):
                    try:
                        loss, _ = network.loss_and_gradients(x, labels[sel], training=True)
                    except FloatingPointError as exc:
                        raise RuntimeError(
                            f"training diverged at iteration {len(losses)}: {exc}"
                        ) from exc
                    network.sgd_step(config.learning_rate)
                losses.append(float(loss))
            mean_loss = float(np.mean(losses[first:]))
            if mean_loss < best_loss:
                best_loss = mean_loss
                best_params = network.get_param_vector()
        network.set_param_vector(best_params)  # the first pass always sets it
    finally:
        network.cast(np.float64)
    return network, losses


def evaluate(network: Network, dataset: Dataset, batch_size: int = 64) -> ConfusionMatrix:
    """Confusion matrix of predictions over the dataset (dropout off)."""
    if _integer("batch_size", batch_size) < 1:
        raise ValueError("batch_size must be >= 1")
    windows = [w for w, _ in dataset.samples]
    labels = dataset.labels
    counts = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    for start in range(0, len(labels), batch_size):
        pred = _counts(network, _inputs(network, windows[start : start + batch_size]))
        for true, p in zip(labels[start : start + batch_size], pred):
            counts[true - 1, p - 1] += 1
    return ConfusionMatrix(counts)


def window_heads(network: Network, windows) -> np.ndarray:
    """The last dense layer's inputs for a list of windows, one row each.

    Fine-tuning changes only that layer, so a window's head stays valid for
    the rest of a session; amend_and_finetune takes one row of this.
    """
    return network.forward(_inputs(network, windows), stop=network.last_dense, keep_cache=False)


@dataclass
class SessionRecord:
    """One event-log entry of an online session."""

    time_index: int
    prediction: int
    event: DoorEvent | None
    action: str  # "none" | "skip" | "finetune"
    count_before: int
    count_after: int
    label: int | None = None  # fine-tune label when one was applied
    clamped: bool = False


@dataclass
class CountSession:
    """Mutable online-counting state fusing the network with door events.

    Only the final dense layer may change during a session (via the
    amendment fine-tune); current_count is an integer (ValueError else)
    that may be 0 even though the network can only express 1..5, and may
    not exceed 5, so that a door event moves it by at most one.  A network
    whose final dense layer and softmax do not give N_CLASSES outputs is
    refused (ValueError), and so are HMMs that cannot score its activity
    features.  push feeds it frames; between pushes it carries only causal
    state: frames_seen, the last max(2 * pad, WMA_TAPS - 1) amplitude rows,
    the frames of the window not yet complete, the filtered activity ring,
    the door-event detector and PCA's warm span.
    """

    network: Network
    hmm_models: dict = field(default_factory=dict)
    current_count: int = 0
    event_log: list = field(default_factory=list, init=False)
    frames_seen: int = field(default=0, init=False)
    _format: tuple | None = field(default=None, init=False, repr=False)
    _last_time: float = field(default=-np.inf, init=False, repr=False)
    _held: tuple = field(default=(), init=False, repr=False)  # (values, timestamps)
    _tail: np.ndarray | None = field(default=None, init=False, repr=False)
    _ring: np.ndarray | None = field(default=None, init=False, repr=False)
    _detector: DoorEventDetector = field(
        default_factory=DoorEventDetector, init=False, repr=False
    )
    _warm: list = field(default_factory=list, init=False, repr=False)
    _closed: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        self.current_count = _integer("current_count", self.current_count)
        if not 0 <= self.current_count <= N_CLASSES:
            raise ValueError(f"current_count must be in 0..{N_CLASSES}")
        net = self.network  # refuse a head that cannot give N_CLASSES counts now
        _counts(net, np.zeros((1, net.layers[net.last_dense].in_dim)), start=net.last_dense)
        # and models that cannot score its features, through hmm itself so that
        # a stand-in for the classify_activity push calls is not consumed
        if self.hmm_models:
            hmm.classify_activity(self.hmm_models, np.zeros((1, 1, 2 * ACTIVITY_LEVELS)))

    def push(self, chunk: CsiCapture) -> list:
        """Count the windows that `chunk` completes; one OnlineStep each.

        The session's frames are cut into consecutive windows from its
        first.  Each block of up to ONLINE_BLOCK complete windows shares one
        front pass and one activity pass; its windows are then amended in
        order, so a fine-tune reaches every later window.  Windows before
        ACTIVITY_HISTORY frames carry activity None.  A chunk must have the
        first chunk's rate and geometry, and its first timestamp must follow
        the last one seen; else ValueError, and the session is unchanged.
        A push that raises past these checks closes the session: every later
        push raises ValueError and changes nothing.
        """
        if self._closed:
            raise ValueError("the session is closed: an earlier push failed")
        fmt = (chunk.rate_hz, chunk.n_tx, chunk.n_rx, chunk.n_sub)
        if self._format not in (None, fmt):
            raise ValueError(f"chunk has rate and geometry {fmt}; the session has {self._format}")
        if chunk.n_frames and chunk.timestamps[0] <= self._last_time:
            raise ValueError(
                f"chunk starts at {chunk.timestamps[0]} s, not after the last frame seen "
                f"at {self._last_time} s"
            )
        if chunk.n_frames == 0:
            return []
        if self._format is None:
            d = chunk.n_streams * chunk.n_sub
            self._format, self._tail = fmt, np.empty((0, d))
            self._ring = np.empty((ACTIVITY_HISTORY, d))  # the filtered activity stream
            self._held = (chunk.values[:0], chunk.timestamps[:0])
        self._closed = True  # until this push has counted all it completes
        values, times = self._held
        start, used, steps = self.frames_seen - len(times), 0, []
        while k := min(ONLINE_BLOCK, (len(times) + chunk.n_frames - used) // WINDOW_LEN):
            stop = used + k * WINDOW_LEN - len(times)
            block = replace(
                chunk,
                values=np.concatenate([values, chunk.values[used:stop]]),
                timestamps=np.concatenate([times, chunk.timestamps[used:stop]]),
            )
            steps += self._count_block(block, start)
            values, times, used, start = values[:0], times[:0], stop, start + block.n_frames
        self._held = (
            np.concatenate([values, chunk.values[used:]]),
            np.concatenate([times, chunk.timestamps[used:]]),
        )
        self._last_time = chunk.timestamps[-1]
        self.frames_seen += chunk.n_frames
        self._closed = False
        return steps

    def _count_block(self, block: CsiCapture, start: int) -> list:
        """Count the whole windows of `block`, whose first frame is frame `start`."""
        pad = min(lowpass_pad(block.rate_hz, ACTIVITY_CUTOFF_HZ), ACTIVITY_HISTORY - 1)
        amp, phase = split_streams(block)
        heads = window_heads(self.network, _count_windows(amp, phase, self._tail, block))
        amp = np.concatenate([self._tail, amp])
        base = start - len(self._tail)  # the frame of amp's first row
        ends = np.arange(start + WINDOW_LEN, start + block.n_frames + 1, WINDOW_LEN)
        activities = [None] * len(ends)
        if self.hmm_models:
            histories = _stream_histories(amp, base, ends, block.rate_hz, pad, self._ring)
            if len(histories):
                features = _filtered_features(histories, self._warm)
                activities[len(ends) - len(histories) :] = classify_activity(
                    self.hmm_models, features
                )
        self._tail = amp[-max(2 * pad, WMA_TAPS - 1) :].copy()
        steps = []
        for end, head, activity in zip(ends.tolist(), heads, activities):
            i = end // WINDOW_LEN - 1
            event = self._detector.push(activity)
            count = amend_and_finetune(self, head[None], event, time_index=i)
            steps.append(OnlineStep(i, end, self.event_log[-1].prediction, count, activity, event))
        return steps


def amend_and_finetune(
    session: CountSession,
    head: np.ndarray,
    event: DoorEvent | None,
    time_index: int = 0,
) -> int:
    """Fuse one window's prediction with an optional door event.

    `head` is the window's (1, d) row of window_heads: the prediction runs
    only the final dense layer and softmax on it, under the parameters the
    session holds now.  With no event the network's prediction is trusted
    as-is.  With an event the count becomes current+1 (enter) or current-1
    (leave, floored at 0); if the network disagrees with that count
    (clamped into 1..5, since the head cannot express 0), the window is
    relabeled and the final dense layer alone is fine-tuned on it.  Ties in
    the prediction pick the smaller count.
    """
    before = session.current_count
    net = session.network
    prediction = int(_counts(net, head, start=net.last_dense)[0])
    count, action, label, clamped = prediction, "none", None, False
    if event is not None:
        count = before + 1 if event.kind == "enter" else max(before - 1, 0)
        label = min(max(count, 1), N_CLASSES)
        clamped = label != count
        count = min(count, N_CLASSES)  # the head caps what a room can show
        action = "skip" if prediction == label else "finetune"
        if action == "finetune":
            finetune_last_dense(net, head, label)
    session.current_count = count
    session.event_log.append(
        SessionRecord(time_index, prediction, event, action, before, count, label, clamped)
    )
    return count


def _count_windows(amp: np.ndarray, phase: np.ndarray, prior, capture: CsiCapture) -> list:
    """The standardized count windows of a run of whole WINDOW_LEN-frame
    windows, split from `capture`'s frames: one causal moving average of the
    amplitude after `prior`, the rows before it (see weighted_moving_average),
    and one phase sanitize, cut into windows."""
    smooth = weighted_moving_average(amp, prior)
    clean = sanitize_phase(phase, capture.n_streams, capture.n_sub)
    return [
        build_count_sample(smooth[i : i + WINDOW_LEN], clean[i : i + WINDOW_LEN])
        for i in range(0, len(amp), WINDOW_LEN)
    ]


def count_windows_from_capture(capture: CsiCapture) -> list:
    """Cut a capture into standardized non-overlapping count windows, the
    windows CountSession.push builds from the same frames."""
    if capture.n_frames < WINDOW_LEN:
        raise ValueError(f"capture has {capture.n_frames} frames; needs at least {WINDOW_LEN}")
    n = capture.n_frames - capture.n_frames % WINDOW_LEN
    amp, phase = split_streams(capture)
    return _count_windows(amp[:n], phase[:n], (), capture)


def activity_features(amplitude: np.ndarray, rate_hz: float) -> np.ndarray:
    """Feature sequence (n_windows, 2*levels) from an amplitude matrix.

    Low-pass -> PCA denoise -> per-level wavelet energy/variance features,
    averaged over the retained components.  Needs at least 2**levels rows.
    """
    amplitude = np.asarray(amplitude, dtype=np.float64)
    if amplitude.shape[0] < 2**ACTIVITY_LEVELS:
        raise ValueError(
            f"activity branch needs >= {2**ACTIVITY_LEVELS} samples, got {amplitude.shape[0]}"
        )
    return _filtered_features(butterworth_lowpass(amplitude, rate_hz, ACTIVITY_CUTOFF_HZ))


def _filtered_features(filtered: np.ndarray, warm: list | None = None) -> np.ndarray:
    """activity_features after the low-pass, for one (n, d) history or a (B, n, d)
    stack: the wavelet cascade runs once over the whole stack.  `warm` carries
    PCA's warm span between calls (see pca_denoise)."""
    matrix = feature_matrix_from_components(
        pca_denoise(filtered, warm=warm), levels=ACTIVITY_LEVELS
    )
    return np.ascontiguousarray(np.swapaxes(matrix, -1, -2))


def _stream_histories(amp, base: int, ends, rate_hz: float, pad: int, ring: np.ndarray):
    """Stacked filtered histories of the windows ending at `ends` that have them.

    `amp` holds the amplitude rows from frame `base` on.  The low-passed
    amplitude is a stream, row t at ring[t % len(ring)].  Each window
    re-filters its frames plus 2*pad before them (pad: the low-pass's
    reflection pad, capped at ACTIVITY_HISTORY - 1 as for a single history;
    the first frame is held before the capture) and writes all but the
    first pad rows, up to the ring's length.  Rows more than pad behind its
    end are then final; the last pad, reflection-padded at the live end, are
    provisional until the next window rewrites them.  No window reads past
    its own end.
    """
    span = WINDOW_LEN + 2 * pad
    keep = min(WINDOW_LEN + pad, len(ring))
    histories = np.empty((len(ends), ACTIVITY_HISTORY, amp.shape[1]))
    n = 0
    for end in ends:
        segment = amp[np.maximum(np.arange(end - span, end), 0) - base]
        filtered = butterworth_lowpass(segment, rate_hz, ACTIVITY_CUTOFF_HZ)
        ring[np.arange(end - keep, end) % len(ring)] = filtered[-keep:]
        if end >= ACTIVITY_HISTORY:
            histories[n] = ring[np.arange(end - ACTIVITY_HISTORY, end) % len(ring)]
            n += 1
    return histories[:n]


def activity_features_from_capture(capture: CsiCapture) -> np.ndarray:
    return activity_features(stream_amplitudes(capture), capture.rate_hz)


@dataclass(frozen=True)
class OnlineStep:
    """Timeline entry for one online window."""

    window_index: int
    sample_index: int  # capture sample position at the window's end
    prediction: int
    count: int
    activity: ActivityLabel | None
    event: DoorEvent | None


def run_online(session: CountSession, capture: CsiCapture) -> list:
    """Run the fused online pipeline over one capture: one session.push of
    it (see there).  A capture shorter than one window is refused."""
    if capture.n_frames < WINDOW_LEN:
        raise ValueError(f"capture has {capture.n_frames} frames; needs at least {WINDOW_LEN}")
    return session.push(capture)
