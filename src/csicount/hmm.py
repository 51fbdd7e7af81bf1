"""Gaussian-emission hidden Markov models for activity recognition.

One model is trained per activity on sequences of wavelet feature columns;
classification picks the model with the highest forward log-likelihood.
A small debouncer turns streams of per-window activity labels into door
events (someone entering or leaving), which the online counting session
uses to correct the count.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .tensorfile import read_framed, write_framed

log = logging.getLogger(__name__)

VARIANCE_FLOOR = 1e-6
FIT_TOL = 1e-4  # Baum-Welch stops when the log-likelihood gains less than this

MODEL_MAGIC = b"CSIH"
MODEL_VERSION = 1
_HEAD = struct.Struct("<4sHHHB")  # magic, version, states, features, label length


class ActivityLabel(Enum):
    """Closed set of recognized activities (value = single-letter tag)."""

    EMPTY = "E"
    WALKING = "W"
    SITTING_DOWN = "S"
    FALLING = "F"
    RUNNING = "R"
    ENTERING_ROOM = "O"
    LEAVING_ROOM = "L"
    WAVING = "A"


DOOR_LABELS = (ActivityLabel.ENTERING_ROOM, ActivityLabel.LEAVING_ROOM)


@dataclass(frozen=True)
class DoorEvent:
    """A debounced door crossing: kind is 'enter' or 'leave'."""

    kind: str
    time_index: int


@dataclass
class GaussianHmm:
    """HMM with diagonal-Gaussian emissions.

    initial     (S,) state distribution, sums to 1
    transition  (S, S) row-stochastic matrix
    means       (S, D) emission means
    variances   (S, D) emission variances, each >= VARIANCE_FLOOR
    """

    initial: np.ndarray
    transition: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    label: str = ""
    fit_log_likelihoods: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=np.float64)
        self.transition = np.asarray(self.transition, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.variances = np.asarray(self.variances, dtype=np.float64)
        self.validate()

    def validate(self) -> None:
        s, d = self.means.shape
        if self.initial.shape != (s,) or self.transition.shape != (s, s):
            raise ValueError("parameter shapes are inconsistent")
        if self.variances.shape != (s, d):
            raise ValueError("variance shape disagrees with means")
        for arr in (self.initial, self.transition, self.means, self.variances):
            if not np.isfinite(arr).all():
                raise ValueError("model parameters contain non-finite values")
        if abs(self.initial.sum() - 1.0) > 1e-9 or (self.initial < 0).any():
            raise ValueError("initial distribution must be a probability vector")
        if (np.abs(self.transition.sum(axis=1) - 1.0) > 1e-9).any() or (
            self.transition < 0
        ).any():
            raise ValueError("transition matrix must be row-stochastic")
        if (self.variances < VARIANCE_FLOOR * (1 - 1e-12)).any():
            raise ValueError(f"variances must be >= {VARIANCE_FLOOR}")

    @property
    def n_states(self) -> int:
        return self.means.shape[0]

    @property
    def n_features(self) -> int:
        return self.means.shape[1]


def _check_obs(model: GaussianHmm, obs) -> np.ndarray:
    """obs as a (B, T, D) stack; one (T, D) sequence gives B = 1."""
    x = np.asarray(obs, dtype=np.float64)
    x = x[None] if x.ndim == 2 else x
    if x.ndim != 3 or x.shape[2] != model.n_features:
        raise ValueError(f"sequences must be (T, {model.n_features}), got {x.shape[1:]}")
    if x.shape[1] < 1:
        raise ValueError("empty observation sequence")
    if not np.isfinite(x).all():
        raise ValueError("observations contain non-finite values")
    return x


def _log_densities(model: GaussianHmm, x: np.ndarray) -> np.ndarray:
    """Per-frame, per-state diagonal-Gaussian log densities, shape ([B,] T, S)."""
    diff = x[..., None, :] - model.means
    quad = (diff**2 / model.variances).sum(axis=-1)
    norm = np.log(2 * np.pi * model.variances).sum(axis=1)
    return -0.5 * (quad + norm)


def _scaled_forward(model, logb):
    """Scaled forward pass; returns (alpha, per-step log scale, total loglik).

    `logb` is (T, S), or (B, T, S) for B sequences run in step.  Each step
    is formed in log space, log(predicted mass) + logb[t], and shifted by
    its own maximum before exponentiating, so the largest term is exactly
    1.  A state with zero predicted mass (an exact zero in the initial
    distribution or transition matrix) then cannot leave only underflowed
    densities behind and zero the normaliser.
    """
    alpha = np.empty(logb.shape)
    logc = np.empty(logb.shape[:-1])
    predicted = model.initial
    with np.errstate(divide="ignore"):
        for t in range(logb.shape[-2]):
            log_a = np.log(predicted) + logb[..., t, :]
            shift = log_a.max(axis=-1, keepdims=True)
            a = np.exp(log_a - shift)
            total = a.sum(axis=-1, keepdims=True)
            alpha[..., t, :] = a / total
            logc[..., t] = (np.log(total) + shift)[..., 0]
            predicted = alpha[..., t, :] @ model.transition
    return alpha, logc, logc.sum(axis=-1)


def log_likelihood(model: GaussianHmm, obs) -> float:
    """Forward-algorithm log P(obs | model) of one (T, D) sequence."""
    return float(log_likelihoods(model, obs)[0])


def log_likelihoods(model: GaussianHmm, obs) -> np.ndarray:
    """log_likelihood of each sequence of a (B, T, D) stack, from one
    vectorised forward pass over the whole stack."""
    return _scaled_forward(model, _log_densities(model, _check_obs(model, obs)))[2]


def _kmeans_init(frames: np.ndarray, k: int, rng) -> np.ndarray:
    """A few Lloyd iterations from a seeded random subset of frames."""
    n = frames.shape[0]
    centers = frames[rng.choice(n, size=k, replace=False)].copy()
    for _ in range(10):
        dist = ((frames[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(dist, axis=1)
        for j in range(k):
            members = frames[assign == j]
            if members.shape[0]:
                centers[j] = members.mean(axis=0)
            else:
                centers[j] = frames[rng.integers(n)]
    return centers


def fit_hmm(
    sequences,
    n_states: int = 4,
    max_iter: int = 100,
    seed: int = 0,
    label: str = "",
) -> GaussianHmm:
    """Baum-Welch fit over one or more (T, D) observation sequences.

    Initialization is deterministic for a given seed: emission means come
    from a seeded k-means over all frames, variances from the per-cluster
    spread, the initial distribution is uniform, and the transition matrix
    is uniform with a boosted diagonal.  Iteration stops when the total
    log-likelihood improves by less than FIT_TOL or after `max_iter` rounds;
    the per-iteration log-likelihoods are kept on the returned model.

    Emission variances are floored at VARIANCE_FLOOR, so degenerate
    (constant) inputs fit without failure.
    """
    seqs = [np.asarray(s, dtype=np.float64) for s in sequences]
    if not seqs:
        raise ValueError("need at least one observation sequence")
    dim = seqs[0].shape[-1]
    for s in seqs:
        if s.ndim != 2 or s.shape[1] != dim:
            raise ValueError("observation sequences must be (T, D) with one D")
        if s.shape[0] < n_states:
            raise ValueError("each sequence must be at least n_states long")
        if not np.isfinite(s).all():
            raise ValueError("observations contain non-finite values")
    if n_states < 1:
        raise ValueError("n_states must be >= 1")

    rng = np.random.default_rng(seed)
    frames = np.vstack(seqs)
    means = _kmeans_init(frames, n_states, rng)
    dist = ((frames[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    assign = np.argmin(dist, axis=1)
    variances = np.empty_like(means)
    global_var = np.maximum(frames.var(axis=0), VARIANCE_FLOOR)
    for j in range(n_states):
        members = frames[assign == j]
        variances[j] = members.var(axis=0) if members.shape[0] > 1 else global_var
    variances = np.maximum(variances, VARIANCE_FLOOR)
    initial = np.full(n_states, 1.0 / n_states)
    transition = np.full((n_states, n_states), 1.0)
    transition[np.diag_indices(n_states)] += 4.0
    transition /= transition.sum(axis=1, keepdims=True)

    model = GaussianHmm(initial, transition, means, variances, label=label)
    history: list[float] = []

    for _ in range(max_iter):
        init_acc = np.zeros(n_states)
        trans_acc = np.zeros((n_states, n_states))
        occ = np.zeros(n_states)
        mean_acc = np.zeros((n_states, dim))
        sq_acc = np.zeros((n_states, dim))
        total_ll = 0.0

        for x in seqs:
            logb = _log_densities(model, x)
            shift = logb.max(axis=1)
            b = np.exp(logb - shift[:, None])
            alpha, _, ll = _scaled_forward(model, logb)
            total_ll += float(ll)

            t_len = x.shape[0]
            beta = np.empty((t_len, n_states))
            beta[-1] = 1.0
            for t in range(t_len - 2, -1, -1):
                v = model.transition @ (b[t + 1] * beta[t + 1])
                beta[t] = v / v.sum()

            gamma = alpha * beta
            gamma /= gamma.sum(axis=1, keepdims=True)

            init_acc += gamma[0]
            occ += gamma.sum(axis=0)
            mean_acc += gamma.T @ x
            sq_acc += gamma.T @ (x**2)
            # sum over t of xi_t / xi_t.sum(), xi_t = alpha_t[:, None] * A * w_t, in
            # one product, since xi_t.sum() = (alpha_t A) . w_t
            w = b[1:] * beta[1:]
            total = ((alpha[:-1] @ model.transition) * w).sum(axis=1)
            trans_acc += model.transition * ((alpha[:-1] / total[:, None]).T @ w)

        history.append(total_ll)
        if len(history) > 1 and abs(history[-1] - history[-2]) < FIT_TOL:
            break

        # a state can lose all posterior mass (e.g. a k-means cluster that
        # matches nothing); its accumulators are then zero and the update
        # would divide 0/0, so dead states keep their previous parameters
        row_mass = trans_acc.sum(axis=1)
        dead = (row_mass <= 0) | (occ <= 0)
        if dead.any():
            trans_acc[dead] = model.transition[dead]
            row_mass = trans_acc.sum(axis=1)
            occ = np.where(dead, 1.0, occ)
            mean_acc[dead] = model.means[dead]
            sq_acc[dead] = model.variances[dead] + model.means[dead] ** 2
        initial = init_acc / init_acc.sum()
        transition = trans_acc / row_mass[:, None]
        means = mean_acc / occ[:, None]
        variances = np.maximum(sq_acc / occ[:, None] - means**2, VARIANCE_FLOOR)
        model = GaussianHmm(initial, transition, means, variances, label=label)

    model.fit_log_likelihoods = history
    return model


def classify_activity(models, obs):
    """Label of the model with the highest log-likelihood for `obs`.

    `models` maps ActivityLabel -> GaussianHmm.  Ties resolve toward the
    earlier label in the ActivityLabel enumeration order.  A (B, T, D)
    stack gives a list of B labels, each model scoring it in one pass.  At
    debug level each model's B scores are logged on one line.
    """
    if not models:
        raise ValueError("no models to classify against")
    labels = [label for label in ActivityLabel if label in models]
    if not labels:
        raise ValueError("models must be keyed by ActivityLabel")
    scores = np.array([log_likelihoods(models[label], obs) for label in labels])
    if log.isEnabledFor(logging.DEBUG):
        for label, row in zip(labels, scores):
            log.debug("%s log_likelihood=%s", label.name, " ".join(f"{v:f}" for v in row))
    best = [labels[i] for i in np.argmax(np.where(np.isnan(scores), -np.inf, scores), axis=0)]
    return best if np.ndim(obs) == 3 else best[0]


class DoorEventDetector:
    """Debounces per-window labels into door events.

    An event fires once `debounce` (3) consecutive windows carry the same
    door label (entering or leaving), at the window where the run reaches
    that length.  After firing, the detector stays quiet until a non-door
    label re-arms it; a change of door label restarts the run.
    """

    debounce = 3

    def __init__(self):
        self._kind = None
        self._run = 0
        self._armed = True
        self._index = -1

    def push(self, label) -> DoorEvent | None:
        """Feed the next window's label; returns an event when one fires."""
        self._index += 1
        if label not in DOOR_LABELS:
            self._kind = None
            self._run = 0
            self._armed = True
            return None
        if label is self._kind:
            self._run += 1
        else:
            self._kind = label
            self._run = 1
        if self._armed and self._run >= self.debounce:
            self._armed = False
            kind = "enter" if label is ActivityLabel.ENTERING_ROOM else "leave"
            return DoorEvent(kind, self._index)
        return None


def save_hmm(model: GaussianHmm, path) -> None:
    """Write a model as a small versioned binary (little-endian f64 arrays)."""
    label_bytes = model.label.encode("utf-8")
    if len(label_bytes) > 255:
        raise ValueError("label exceeds 255 UTF-8 bytes")
    arrays = (model.initial, model.transition, model.means, model.variances)
    write_framed(
        path, _HEAD, MODEL_MAGIC, MODEL_VERSION,
        (model.n_states, model.n_features, len(label_bytes)),
        label_bytes, *(np.ascontiguousarray(arr, dtype="<f8") for arr in arrays),
    )


def load_hmm(path) -> GaussianHmm:
    raw, (s, d, label_len) = read_framed(path, _HEAD, MODEL_MAGIC, MODEL_VERSION, "model")
    off = _HEAD.size + label_len
    label = raw[_HEAD.size : off].decode("utf-8")
    sizes = [s, s * s, s * d, s * d]
    if len(raw) - off != 8 * sum(sizes):
        raise ValueError("model payload size disagrees with header")
    params = np.frombuffer(raw, dtype="<f8", count=sum(sizes), offset=off).copy()
    initial, transition, means, variances = np.split(params, np.cumsum(sizes)[:-1])
    return GaussianHmm(
        initial,
        transition.reshape(s, s),
        means.reshape(s, d),
        variances.reshape(s, d),
        label=label,
    )
