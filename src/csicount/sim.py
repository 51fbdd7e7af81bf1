"""Multipath channel simulator and measurement-error injection.

The channel frequency response seen on subcarrier frequency f is a sum over
propagation paths k of a_k * exp(-i 2 pi f tau_k(t)).  A path reflected off
a scatterer moving radially at v meters/second has its total length change
at 2v (out and back), so its delay evolves as

    tau_k(t) = tau_k(0) + 2 * v_k * t / c

which beats the received amplitude at 2 v / lambda Hz against the static
paths.  Per-stream delay steps model antenna spacing: stream s adds
s * stream_delay_step to the path delay, decorrelating the six streams.

Each path is a constant a_k exp(-2 pi i f (tau_k(0) + s step_k)) per stream
and subcarrier (180 exponentials) times, for a mover, a drift
exp(i w_k f t) with w_k = -4 pi v_k / c.  Still paths are added to every
frame one by one, in scene order.  The movers are then added together,
FRAME_BLOCK frames at a time: the drift at frame lo + j is the drift at the
slice's first frame lo (one exponential per subcarrier and mover) times a
table of in-slice drifts exp(i w_k f j / rate) built once per call, and one
batched product per subcarrier, (frames x movers) @ (movers x streams),
sums the movers.  The response is the only full-size array.

Subcarrier j (0-based, n_sub total) sits at

    f_j = carrier_hz + (j - (n_sub - 1) / 2) * subcarrier_spacing_hz

i.e. 30 subcarriers spaced 625 kHz around a 5 GHz carrier span 18.125 MHz
of a 20 MHz channel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .capture import CsiCapture

C_LIGHT = 299_792_458.0
FRAME_BLOCK = 64


@dataclass(frozen=True)
class Path:
    """One propagation path.

    attenuation        complex gain a_k (non-zero)
    initial_delay      tau_k(0) in seconds (>= 0)
    velocity           radial speed of the scatterer in m/s; the reflected
                       path length changes at twice this rate; 0 for static
    stream_delay_step  extra delay per stream index, seconds (antenna
                       geometry; 0 collapses all streams onto one signal)
    """

    attenuation: complex
    initial_delay: float
    velocity: float = 0.0
    stream_delay_step: float = 0.0

    def __post_init__(self):
        if not 0 < abs(self.attenuation) < np.inf:
            raise ValueError("path attenuation must be non-zero and finite")
        if not 0 <= self.initial_delay < np.inf:
            raise ValueError("path delay must be non-negative and finite")
        if not np.isfinite([self.velocity, self.stream_delay_step]).all():
            raise ValueError("path velocity and stream step must be finite")


@dataclass(frozen=True)
class Scene:
    """A room: static paths plus one path group per person.

    At least one static path (the line of sight) is required, and each person
    has at least one path; at most 10 persons are supported.  noise_sigma is the standard deviation of the
    complex measurement noise added per CSI entry.
    """

    static_paths: tuple
    persons: tuple = ()
    carrier_hz: float = 5.0e9
    subcarrier_spacing_hz: float = 625e3
    noise_sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "static_paths", tuple(self.static_paths))
        object.__setattr__(self, "persons", tuple(tuple(p) for p in self.persons))
        if len(self.static_paths) < 1:
            raise ValueError("a scene needs at least one static path")
        if len(self.persons) > 10:
            raise ValueError("at most 10 persons are supported")
        if not all(self.persons):
            raise ValueError("each person needs at least one path")
        if not (0 < self.carrier_hz < np.inf and 0 < self.subcarrier_spacing_hz < np.inf):
            raise ValueError("carrier and subcarrier spacing must be positive and finite")
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be non-negative and finite")

    @property
    def n_persons(self) -> int:
        return len(self.persons)


@dataclass(frozen=True)
class PhaseDistortion:
    """Linear-in-subcarrier phase error: slope * j + offset + jitter_t.

    sfo_slope     radians per subcarrier index (sampling-frequency offset)
    cfo_offset    constant radians common to every entry (carrier offset)
    jitter_sigma  std-dev of an extra per-packet phase, radians (>= 0)

    Every value must be finite.
    """

    sfo_slope: float = 0.0
    cfo_offset: float = 0.0
    jitter_sigma: float = 0.0

    def __post_init__(self):
        if not np.isfinite([self.sfo_slope, self.cfo_offset]).all():
            raise ValueError("phase slope and offset must be finite")
        if not 0 <= self.jitter_sigma < np.inf:
            raise ValueError("jitter_sigma must be non-negative and finite")


def subcarrier_frequencies(scene: Scene) -> np.ndarray:
    """The scene's CsiCapture.n_sub (30) subcarrier frequencies, ascending."""
    n_sub = CsiCapture.n_sub
    j = np.arange(n_sub, dtype=np.float64)
    return scene.carrier_hz + (j - (n_sub - 1) / 2.0) * scene.subcarrier_spacing_hz


def simulate_capture(
    scene: Scene, duration: float, rate_hz: float = 1500.0, seed: int = 0
) -> CsiCapture:
    """Generate a capture of floor(duration * rate_hz) frames from a scene.

    The geometry is CsiCapture's default: CsiCapture.n_tx x CsiCapture.n_rx
    (2 x 3) streams of CsiCapture.n_sub (30) subcarriers.  Deterministic for
    a given (scene, duration, rate, seed).  The returned capture is labeled
    with the scene's person count.
    """
    if not (np.isfinite(duration) and 0 < rate_hz < np.inf):
        raise ValueError("duration must be finite and rate_hz positive and finite")
    n_frames = int(np.floor(duration * rate_hz))
    if n_frames < 1:
        raise ValueError("duration * rate_hz must cover at least one frame")
    t = np.arange(n_frames, dtype=np.float64) / rate_hz
    freqs = subcarrier_frequencies(scene)
    streams = np.arange(CsiCapture.n_tx * CsiCapture.n_rx, dtype=np.float64)

    h = np.zeros((n_frames, streams.size, freqs.size), dtype=np.complex128)
    velocities, consts = [], []
    for path in chain(scene.static_paths, *scene.persons):
        tau = path.initial_delay + streams * path.stream_delay_step
        const = path.attenuation * np.exp(-2j * np.pi * tau[:, None] * freqs)
        if path.velocity == 0:
            h += const
        else:
            velocities.append(path.velocity)
            consts.append(const.T)
    if velocities:
        omega = -4.0 * np.pi * freqs[:, None] * np.array(velocities) / C_LIGHT
        in_slice = np.exp(1j * omega[:, None, :] * t[:FRAME_BLOCK, None])
        paths = np.stack(consts, axis=1)  # (subcarriers, movers, streams)
        for lo in range(0, n_frames, FRAME_BLOCK):
            drift = in_slice[:, : n_frames - lo] * np.exp(1j * omega * t[lo])[:, None, :]
            h[lo : lo + FRAME_BLOCK] += np.matmul(drift, paths).transpose(1, 2, 0)

    if scene.noise_sigma > 0:
        rng = np.random.default_rng(seed)
        scale = scene.noise_sigma / np.sqrt(2.0)
        h.real += scale * rng.standard_normal(h.shape)
        h.imag += scale * rng.standard_normal(h.shape)

    return CsiCapture(h.astype(np.complex64), t, rate_hz, label=str(scene.n_persons))


def inject_phase_offsets(
    capture: CsiCapture, distortion: PhaseDistortion, seed: int = 0
) -> CsiCapture:
    """Rotate every CSI entry by slope * subcarrier + offset + per-packet jitter.

    Amplitudes are carried over unchanged up to float32 re-quantization.  A
    zero distortion returns the input capture itself.
    """
    d = distortion
    if d.sfo_slope == 0 and d.cfo_offset == 0 and d.jitter_sigma == 0:
        return capture
    v = capture.values.astype(np.complex128)
    amp = np.abs(v)
    phase = np.angle(v)
    j = np.arange(capture.n_sub, dtype=np.float64)
    phase = phase + d.sfo_slope * j[None, None, :] + d.cfo_offset
    if d.jitter_sigma > 0:
        rng = np.random.default_rng(seed)
        jitter = rng.normal(0.0, d.jitter_sigma, capture.n_frames)
        phase = phase + jitter[:, None, None]
    return replace(capture, values=(amp * np.exp(1j * phase)).astype(np.complex64))


def make_count_scene(n_persons: int, seed: int = 0, noise_sigma: float | None = None) -> Scene:
    """Build a randomized scene template for a given person count.

    A line-of-sight path plus one or two static reflections form the
    background; each person contributes two to four moving paths with
    radial speeds of 0.2 to 1.5 m/s.  Deterministic for a given seed.
    The default noise keeps the static amplitude SNR near 30 dB.
    """
    if not 0 <= n_persons <= 10:
        raise ValueError("n_persons must be between 0 and 10")
    rng = np.random.default_rng(seed)

    def random_path(lo_gain, hi_gain, lo_delay, hi_delay, velocity=0.0):
        gain = rng.uniform(lo_gain, hi_gain) * np.exp(2j * np.pi * rng.uniform())
        return Path(
            attenuation=complex(gain),
            initial_delay=rng.uniform(lo_delay, hi_delay),
            velocity=velocity,
            stream_delay_step=rng.uniform(0.0, 4e-10),
        )

    static = [
        Path(1.0 + 0.0j, rng.uniform(5e-9, 20e-9), 0.0, rng.uniform(0.0, 4e-10))
    ]
    for _ in range(int(rng.integers(1, 3))):
        static.append(random_path(0.2, 0.5, 1e-8, 6e-8))

    persons = []
    for _ in range(n_persons):
        paths = []
        for _ in range(int(rng.integers(2, 5))):
            speed = rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0])
            paths.append(random_path(0.1, 0.35, 1.5e-8, 8e-8, velocity=float(speed)))
        persons.append(tuple(paths))

    sigma = 0.03 if noise_sigma is None else noise_sigma
    return Scene(tuple(static), tuple(persons), noise_sigma=sigma)


def load_scene(path) -> Scene:
    """Parse a scene description file.

    Format: one statement per line; `#` starts a comment.  Recognized
    statements::

        carrier_hz <float>
        spacing_hz <float>
        noise_sigma <float>
        path <a_re> <a_im> <tau> <v> [stream_step]
        person            # opens a person block of path lines
        end               # closes it

    `path` lines outside person blocks are static paths.  A statement with
    more or fewer arguments than shown fails at its line.
    """
    statics: list[Path] = []
    persons: list[tuple] = []
    current: list[Path] | None = None
    params = {"carrier_hz": 5.0e9, "spacing_hz": 625e3, "noise_sigma": 0.0}

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            key, *args = text.split()
            try:
                if key in ("person", "end") and args:
                    raise ValueError(f"{key} takes no arguments")
                if key in params:
                    if len(args) != 1:
                        raise ValueError(f"{key} takes one number")
                    params[key] = float(args[0])
                elif key == "person":
                    if current is not None:
                        raise ValueError("nested person block")
                    current = []
                elif key == "end":
                    if current is None:
                        raise ValueError("'end' outside a person block")
                    persons.append(tuple(current))
                    current = None
                elif key == "path":
                    vals = [float(tok) for tok in args]
                    if len(vals) not in (4, 5):
                        raise ValueError("path needs 4 or 5 numbers")
                    step = vals[4] if len(vals) == 5 else 0.0
                    p = Path(complex(vals[0], vals[1]), vals[2], vals[3], step)
                    (statics if current is None else current).append(p)
                else:
                    raise ValueError(f"unknown statement {key!r}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    try:
        if current is not None:
            raise ValueError("unterminated person block")
        return Scene(
            tuple(statics),
            tuple(persons),
            carrier_hz=params["carrier_hz"],
            subcarrier_spacing_hz=params["spacing_hz"],
            noise_sigma=params["noise_sigma"],
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
