"""The three workloads: inputs made from the seed, set-up, one round, checks.

Each workload is a closed loop with one caller: a round starts when the
previous one has returned.  All inputs come from the seed given to
set-up; the program sees only the generated captures and windows.
Calls into the program go through module attributes (``counting.train``,
``sim.simulate_capture``) so that the tracer's patches see them.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

import checks
from csicount import capture, counting, hmm, neural, sim
from csicount.hmm import ActivityLabel
from csicount.sim import Path, Scene

RATE_HZ = 1500.0
WINDOW = counting.WINDOW_LEN
N_STATES = 3
MAX_ITER = 15

# Activity regimes: a static room plus, per regime, three moving
# reflectors in a speed band (m/s) with a gain.  Every scene draws its own
# speeds, delays and phases from the seed.
STATICS = (
    Path(1.0 + 0.0j, 10e-9, 0.0, 1e-10),
    Path(0.35 + 0.1j, 30e-9, 0.0, 2e-10),
)
SPEED_BANDS = {
    ActivityLabel.EMPTY: None,
    ActivityLabel.WALKING: (0.25, 0.40, 0.25),
    ActivityLabel.RUNNING: (1.20, 1.60, 0.35),
    ActivityLabel.ENTERING_ROOM: (2.50, 3.00, 0.45),
}


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def regime_scene(label, rng) -> Scene:
    band = SPEED_BANDS[label]
    if band is None:
        return Scene(STATICS, (), noise_sigma=0.02)
    lo, hi, gain = band
    movers = tuple(
        Path(
            complex(gain * np.exp(2j * np.pi * rng.uniform())),
            rng.uniform(2e-8, 6e-8),
            float(rng.uniform(lo, hi) * rng.choice([-1, 1])),
            1.5e-10,
        )
        for _ in range(3)
    )
    return Scene(STATICS, (movers,), noise_sigma=0.02)


def regime_capture(label, n_frames, scene_frames, rng):
    """n_frames of one regime, a fresh scene every scene_frames frames."""
    parts = [
        # the half frame keeps floor(duration * rate) at exactly scene_frames
        sim.simulate_capture(
            regime_scene(label, rng), (scene_frames + 0.5) / RATE_HZ, seed=_seed(rng)
        )
        for _ in range(n_frames // scene_frames)
    ]
    return parts[0] if len(parts) == 1 else capture.concat_captures(parts)


# A model with an exact zero in its initial distribution, scored on frames
# whose first one only that state explains.  The densities of the other
# states underflow, so hmm's scaled forward pass multiplies them by the
# zero and returns nan; the log-space reference stays finite.  The probe
# does not depend on the seed, so it fails in every round until the
# program handles it.
PROBE_MODEL = hmm.GaussianHmm(
    initial=[0.5, 0.5, 0.0],
    transition=[[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
    means=[[0.0], [1.0], [10.0]],
    variances=[[0.01], [0.01], [0.01]],
    label="probe",
)
PROBE_OBS = np.array([[10.0], [0.0], [1.0], [0.0]])


def _slice(cap, start, stop):
    return capture.CsiCapture(
        cap.values[start:stop], cap.timestamps[start:stop], cap.rate_hz,
        cap.n_tx, cap.n_rx, cap.n_sub,
    )


def fit_models(training):
    """{label: [feature sequences]} -> {label: GaussianHmm}."""
    return {
        label: hmm.fit_hmm(seqs, n_states=N_STATES, max_iter=MAX_ITER, seed=0, label=label.name)
        for label, seqs in training.items()
    }


@dataclass
class Round:
    rates: list  # items per second of each timed unit behind items_per_s
    seconds: float  # duration of every timed call in the round
    ops: int  # operations attempted
    failed: int = 0  # operations that gave a wrong result


class Train:
    """counting.train on a CNN-LSTM at batch 64, then counting.evaluate."""

    ITERATIONS = 3
    BATCH = 64
    TRAIN_PER_ROOM = (13, 13, 13, 13, 12)  # 64 windows: one full batch per pass
    HELD_OUT_PER_ROOM = 8

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        train, held_out = [], []
        for persons, n_train in enumerate(self.TRAIN_PER_ROOM, start=1):
            n_windows = n_train + self.HELD_OUT_PER_ROOM
            scene = sim.make_count_scene(persons, seed=_seed(rng))
            cap = sim.simulate_capture(scene, (n_windows * WINDOW + 0.5) / RATE_HZ, seed=_seed(rng))
            windows = counting.count_windows_from_capture(cap)
            train += [(w, persons) for w in windows[:n_train]]
            held_out += [(w, persons) for w in windows[n_train:n_windows]]
        self.train_set = counting.Dataset(train)
        self.held_out = counting.Dataset(held_out)
        self.network = neural.build_cnn_lstm(seed=_seed(rng))
        batch = np.stack([w.values for w, _ in train])
        self.network.forward(batch)
        self.network.forward(batch[:1])
        self.setup_errors = []
        self.last_matrix = None

    def run_round(self):
        config = counting.TrainConfig(
            batch_size=self.BATCH, learning_rate=0.2, max_iterations=self.ITERATIONS, seed=0
        )
        t0 = time.perf_counter()
        _, self.losses = counting.train(self.network, self.train_set, config)
        t1 = time.perf_counter()
        self.last_matrix = counting.evaluate(self.network, self.held_out, batch_size=self.BATCH)
        t2 = time.perf_counter()
        samples = self.ITERATIONS * self.BATCH
        return Round([samples / (t1 - t0)], t2 - t0, self.ITERATIONS + len(self.held_out))

    def check_round(self):
        return checks.check_losses(self.losses, self.ITERATIONS)

    def final_checks(self):
        net = self.network
        x = np.stack([w.values for w, _ in self.train_set.samples])
        labels = self.train_set.labels
        net.loss_and_gradients(x, labels, training=False)
        grad = np.concatenate([g.ravel() for _, _, g in net.params()])
        theta = net.get_param_vector()

        def loss_at(v):
            net.set_param_vector(theta + v)
            return neural.data_loss(net, x, labels)

        errors = checks.check_gradient(loss_at, grad)
        net.set_param_vector(theta)
        net.zero_grads()
        batch1 = [
            int(net.forward(w.values[None], training=False)[0].argmax()) + 1
            for w, _ in self.held_out.samples
        ]
        return errors + checks.check_confusion(
            self.last_matrix.counts, self.held_out.labels, batch1
        )


class Online:
    """counting.run_online over a .csic capture of walking and door segments."""

    SCRIPT = (
        (ActivityLabel.WALKING, 10),
        (ActivityLabel.ENTERING_ROOM, 10),
        (ActivityLabel.WALKING, 10),
        (ActivityLabel.ENTERING_ROOM, 10),
        (ActivityLabel.WALKING, 10),
    )  # (regime, whole 200-frame windows)
    HMM_LABELS = (ActivityLabel.EMPTY, ActivityLabel.WALKING, ActivityLabel.ENTERING_ROOM)
    # The activity models are calibrated in the room they watch: every
    # scene of the script is first recorded for CALIBRATION_FRAMES, cut
    # into sequences as long as the history run_online classifies, and
    # its segment continues that recording.  Two empty scenes calibrate
    # the empty model.
    CALIBRATION_FRAMES = 4096
    EMPTY_SCENES = 2
    START_COUNT = 1
    DEBOUNCE = hmm.DoorEventDetector().debounce  # the detector run_online builds

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        training = {label: [] for label in self.HMM_LABELS}
        parts, cal = [], self.CALIBRATION_FRAMES
        for label, n in self.SCRIPT:
            recording = regime_capture(label, cal + n * WINDOW, cal + n * WINDOW, rng)
            training[label] += self._calibration(recording)
            parts.append(_slice(recording, cal, cal + n * WINDOW))
        for _ in range(self.EMPTY_SCENES):
            recording = regime_capture(ActivityLabel.EMPTY, cal, cal, rng)
            training[ActivityLabel.EMPTY] += self._calibration(recording)
        self.models = fit_models(training)
        written = capture.concat_captures(parts, label="online")
        self.path = os.path.join(workdir, "online.csic")
        capture.write_capture(written, self.path)
        self.setup_errors = checks.check_roundtrip(written, capture.read_capture(self.path))
        self.n_frames = written.n_frames
        self.network = neural.build_cnn_lstm(seed=_seed(rng))
        self.network.forward(np.zeros((1, WINDOW, 2 * written.n_streams * written.n_sub)))
        self.snapshot = {name: value.copy() for name, value, _ in self.network.params()}
        layers = self.network.layers
        last_dense = max(i for i, layer in enumerate(layers) if isinstance(layer, neural.Dense))
        self.final_dense = {f"layer{last_dense}.W", f"layer{last_dense}.b"}
        self.segments, self.door_windows, start = [], [], 0
        for label, n in self.SCRIPT:
            self.segments.append((label, start, start + n * WINDOW))
            if label is ActivityLabel.ENTERING_ROOM:
                self.door_windows.append((start // WINDOW, start // WINDOW + n - 1))
            start += n * WINDOW

    def _calibration(self, recording):
        step = counting.ACTIVITY_HISTORY
        return [
            counting.activity_features_from_capture(_slice(recording, k, k + step))
            for k in range(0, self.CALIBRATION_FRAMES, step)
        ]

    def run_round(self):
        for name, value, _ in self.network.params():
            value[...] = self.snapshot[name]
        self.session = counting.CountSession(
            self.network, hmm_models=self.models, current_count=self.START_COUNT
        )
        t0 = time.perf_counter()
        cap = capture.read_capture(self.path)
        self.timeline = counting.run_online(self.session, cap)
        took = time.perf_counter() - t0
        return Round([len(self.timeline) / took], took, len(self.timeline))

    def check_round(self):
        timeline = self.timeline
        after = {name: value for name, value, _ in self.network.params()}
        return (
            checks.check_timeline_length(timeline, self.n_frames, WINDOW)
            + checks.check_counts(timeline, self.session.event_log, self.START_COUNT)
            + checks.check_door_events(timeline, self.door_windows, self.DEBOUNCE)
            + checks.check_regimes(timeline, self.segments, counting.ACTIVITY_HISTORY)
            + checks.check_only_last_dense_changed(self.snapshot, after, self.final_dense)
        )

    def final_checks(self):
        return []


class Activity:
    """Features plus fit_hmm per regime on long captures, then classify."""

    REGIMES = tuple(SPEED_BANDS)
    TRAIN_CAPTURES = 2
    TRAIN_FRAMES = 16384
    SCENE_FRAMES = 2048
    HELD_OUT_PER_REGIME = 4
    HELD_OUT_FRAMES = 2048

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.training = {
            label: [
                regime_capture(label, self.TRAIN_FRAMES, self.SCENE_FRAMES, rng)
                for _ in range(self.TRAIN_CAPTURES)
            ]
            for label in self.REGIMES
        }
        self.held_out = [
            (label, regime_capture(label, self.HELD_OUT_FRAMES, self.HELD_OUT_FRAMES, rng))
            for _ in range(self.HELD_OUT_PER_REGIME)
            for label in self.REGIMES
        ]
        self.probe_reference = checks.reference_log_likelihood(PROBE_MODEL, PROBE_OBS)
        self.setup_errors = []
        self.network = None

    def run_round(self):
        t0 = time.perf_counter()
        self.models = fit_models(
            {
                label: [counting.activity_features_from_capture(c) for c in caps]
                for label, caps in self.training.items()
            }
        )
        self.predicted, rates = [], []
        for _, cap in self.held_out:
            t1 = time.perf_counter()
            features = counting.activity_features_from_capture(cap)
            self.predicted.append(hmm.classify_activity(self.models, features))
            rates.append(1.0 / (time.perf_counter() - t1))
        took = time.perf_counter() - t0
        probe = hmm.log_likelihood(PROBE_MODEL, PROBE_OBS)
        failed = not np.isclose(probe, self.probe_reference, rtol=1e-9, atol=0.0)
        ops = len(self.models) + len(self.held_out) + 1
        return Round(rates, took, ops, int(failed))

    def check_round(self):
        errors = []
        for model in self.models.values():
            errors += checks.check_fit_history(model.fit_log_likelihoods)
            errors += checks.check_model_valid(model)
        truth = [label for label, _ in self.held_out]
        return errors + checks.check_classification(truth, self.predicted)

    def final_checks(self):
        return []


WORKLOADS = {"train": Train, "online": Online, "activity": Activity}
