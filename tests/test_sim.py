"""Channel simulator: multipath motion, measurement noise, phase errors."""

import re
import tracemalloc

import numpy as np
import pytest

from csicount.capture import CsiCapture, split_streams
from csicount.sim import (
    C_LIGHT,
    FRAME_BLOCK,
    Path,
    PhaseDistortion,
    Scene,
    inject_phase_offsets,
    load_scene,
    make_count_scene,
    simulate_capture,
    subcarrier_frequencies,
)


def write_scene(scene, path):
    """Write a scene in the format load_scene reads."""
    def path_line(p):
        return (
            f"path {p.attenuation.real!r} {p.attenuation.imag!r} "
            f"{p.initial_delay!r} {p.velocity!r} {p.stream_delay_step!r}"
        )

    lines = [
        f"carrier_hz {scene.carrier_hz!r}",
        f"spacing_hz {scene.subcarrier_spacing_hz!r}",
        f"noise_sigma {scene.noise_sigma!r}",
    ]
    lines += [path_line(p) for p in scene.static_paths]
    for person in scene.persons:
        lines += ["person", *map(path_line, person), "end"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def static_scene(noise=0.0):
    return Scene(
        static_paths=(
            Path(1.0 + 0.0j, 10e-9, 0.0, 1e-10),
            Path(0.4 - 0.2j, 30e-9, 0.0, 2e-10),
        ),
        noise_sigma=noise,
    )


# ------------------------------------------------------------- geometry


def test_subcarrier_frequencies_span():
    scene = static_scene()
    f = subcarrier_frequencies(scene)
    assert f.shape == (30,)
    assert np.isclose(f[0], 5e9 - 14.5 * 625e3)
    assert np.isclose(f[-1], 5e9 + 14.5 * 625e3)
    assert np.isclose(f[-1] - f[0], 18.125e6)
    assert np.allclose(np.diff(f), 625e3)


# ------------------------------------------------------------- statics


def test_static_scene_is_time_invariant():
    cap = simulate_capture(static_scene(), 0.1)
    assert cap.n_frames == 150
    assert cap.values.shape == (150, 6, 30)
    # every frame identical, so zero variance along time
    assert np.array_equal(cap.values, np.broadcast_to(cap.values[0], cap.values.shape))


def test_stream_delay_step_decorrelates_streams():
    cap = simulate_capture(static_scene(), 0.01)
    frame = cap.values[0]
    assert not np.array_equal(frame[0], frame[1])


def test_zero_step_collapses_streams():
    scene = Scene(static_paths=(Path(1.0 + 0.0j, 10e-9, 0.0, 0.0),))
    frame = simulate_capture(scene, 0.01).values[0]
    assert np.array_equal(frame[0], frame[5])


def test_capture_label_is_person_count():
    assert simulate_capture(static_scene(), 0.01).label == "0"
    assert simulate_capture(make_count_scene(3, seed=0), 0.01).label == "3"


def test_duration_shorter_than_one_frame_errors():
    with pytest.raises(ValueError):
        simulate_capture(static_scene(), 1e-5)


# ------------------------------------------------------------- doppler


@pytest.mark.parametrize("velocity", [0.25, 0.5, 1.0])
def test_moving_path_beats_at_twice_velocity_over_wavelength(velocity):
    scene = Scene(
        static_paths=(Path(1.0 + 0.0j, 10e-9, 0.0, 0.0),),
        persons=((Path(0.5 + 0.0j, 40e-9, velocity, 0.0),),),
    )
    n = 4096
    cap = simulate_capture(scene, n / 1500.0)
    assert cap.n_frames == n
    amp = np.abs(cap.values[:, 0, 0].astype(np.complex128))
    spectrum = np.abs(np.fft.rfft(amp - amp.mean()))
    peak_hz = np.argmax(spectrum) * 1500.0 / n
    expected = 2.0 * velocity * scene.carrier_hz / C_LIGHT
    assert abs(peak_hz - expected) <= 1.5 * 1500.0 / n


def test_extra_person_raises_amplitude_variance():
    quiet = make_count_scene(0, seed=3, noise_sigma=0.0)
    busy = make_count_scene(1, seed=3, noise_sigma=0.0)
    dur = 1.0
    var_q = np.abs(simulate_capture(quiet, dur).values).var(axis=0)
    var_b = np.abs(simulate_capture(busy, dur).values).var(axis=0)
    assert var_b.max() > var_q.max() + 1e-6


# ------------------------------------------------------------- reference


def reference_capture(scene, duration, rate_hz=1500.0, seed=0):
    """The response evaluated element by element: one exponential of the
    whole delay per path, frame, stream and subcarrier, then the noise (all
    real parts, then all imaginary parts), cast to complex64."""
    n_frames = int(np.floor(duration * rate_hz))
    t = np.arange(n_frames) / rate_hz
    freqs = subcarrier_frequencies(scene)
    streams = np.arange(6.0)
    h = np.zeros((n_frames, 6, 30), dtype=np.complex128)
    for path in [*scene.static_paths, *(p for person in scene.persons for p in person)]:
        tau_t = path.initial_delay + 2.0 * path.velocity * t / C_LIGHT
        tau = tau_t[:, None] + streams[None, :] * path.stream_delay_step
        h += path.attenuation * np.exp(-2j * np.pi * tau[:, :, None] * freqs)
    if scene.noise_sigma > 0:
        rng = np.random.default_rng(seed)
        scale = scene.noise_sigma / np.sqrt(2.0)
        h += scale * rng.standard_normal(h.shape)
        h += 1j * scale * rng.standard_normal(h.shape)
    return h.astype(np.complex64)


def stepped_scene():
    """Movers with stream steps and a capture longer than one frame block."""
    return Scene(
        static_paths=(Path(1.0 + 0.0j, 12e-9, 0.0, 3e-10), Path(0.3 + 0.2j, 45e-9, 0.0, 1e-10)),
        persons=(
            (Path(0.2 - 0.1j, 30e-9, 1.3, 2e-10), Path(0.1 + 0.1j, 70e-9, -0.4, 4e-10)),
            (Path(0.25 + 0.0j, 55e-9, -1.1, 0.0),),
        ),
        noise_sigma=0.02,
    )


def fast_and_still_scene():
    """A person with a still path between movers at 150-200 m/s, whose phases
    reach about 1e5 rad over 2.5 s."""
    return Scene(
        static_paths=(Path(1.0 + 0.0j, 12e-9, 0.0, 3e-10),),
        persons=(
            (
                Path(0.3 + 0.1j, 40e-9, 180.0, 2e-10),
                Path(0.2 + 0.0j, 25e-9, 0.0, 1e-10),
                Path(0.1 - 0.2j, 60e-9, -150.0, 0.0),
            ),
            (Path(0.15 + 0.05j, 50e-9, 200.0, 4e-10),),
        ),
        noise_sigma=0.01,
    )


def frames(n):
    return (n + 0.5) / 1500.0


@pytest.mark.parametrize(
    "scene, duration, seed",
    [
        (make_count_scene(5), 2.0, 3),
        (stepped_scene(), 1.0, 8),
        (stepped_scene(), frames(1), 1),
        (stepped_scene(), frames(FRAME_BLOCK - 1), 2),
        (stepped_scene(), frames(FRAME_BLOCK), 3),
        (stepped_scene(), frames(FRAME_BLOCK + 1), 4),
        (fast_and_still_scene(), 2.5, 5),
    ],
    ids=[
        "five_persons",
        "stream_steps",
        "one_frame",
        "one_frame_short_of_a_slice",
        "one_slice",
        "one_frame_past_a_slice",
        "fast_and_still_paths",
    ],
)
def test_simulation_is_within_one_float32_step_of_the_reference(scene, duration, seed):
    # one step at the entry's magnitude: a component near zero still carries
    # the float64 rounding of its whole entry (about 1e-13 for phases near
    # 1,500 rad), which can be more than one step of the component itself
    got = simulate_capture(scene, duration, seed=seed).values
    ref = reference_capture(scene, duration, seed=seed)
    step = np.spacing(np.maximum(np.abs(got), np.abs(ref)))
    assert np.all(np.abs(got.real - ref.real) <= step)
    assert np.all(np.abs(got.imag - ref.imag) <= step)


def test_static_scene_with_noise_is_bit_identical_to_the_reference():
    scene = make_count_scene(0, seed=6)
    assert scene.noise_sigma > 0 and len(scene.static_paths) > 1
    got = simulate_capture(scene, 1.5, seed=2).values
    assert np.array_equal(got.view(np.uint32), reference_capture(scene, 1.5, seed=2).view(np.uint32))


def test_simulation_transient_memory_is_bounded():
    scene = make_count_scene(5)
    for n_frames in (6096, 4200):  # 4,200: a bench train room
        response_bytes = n_frames * 6 * 30 * np.dtype(np.complex128).itemsize
        tracemalloc.start()
        try:
            simulate_capture(scene, frames(n_frames))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * response_bytes, n_frames


# ------------------------------------------------------------- determinism


def test_simulation_is_deterministic():
    scene = make_count_scene(2, seed=9)
    a = simulate_capture(scene, 0.1, seed=4)
    b = simulate_capture(scene, 0.1, seed=4)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.timestamps, b.timestamps)


def test_noise_seed_changes_values():
    scene = make_count_scene(0, seed=9, noise_sigma=0.05)
    a = simulate_capture(scene, 0.05, seed=1)
    b = simulate_capture(scene, 0.05, seed=2)
    assert not np.array_equal(a.values, b.values)


# ------------------------------------------------------------- distortion


def test_inject_slope_shifts_adjacent_phase_difference():
    cap = simulate_capture(static_scene(), 0.02)
    out = inject_phase_offsets(cap, PhaseDistortion(sfo_slope=0.01))
    v0 = cap.values.astype(np.complex128)
    v1 = out.values.astype(np.complex128)
    base = np.angle(v0[..., 1:] * np.conj(v0[..., :-1]))
    got = np.angle(v1[..., 1:] * np.conj(v1[..., :-1]))
    # float32 re-quantization bounds the phase error near 1e-7 radians
    assert np.max(np.abs(got - base - 0.01)) < 5e-7


def test_inject_preserves_amplitudes():
    cap = simulate_capture(static_scene(), 0.02)
    out = inject_phase_offsets(cap, PhaseDistortion(sfo_slope=0.03, cfo_offset=1.1))
    a0 = np.abs(cap.values.astype(np.complex128))
    a1 = np.abs(out.values.astype(np.complex128))
    assert np.max(np.abs(a1 - a0) / a0) < 1e-6


def test_inject_offset_rotates_everything_equally():
    cap = simulate_capture(static_scene(), 0.02)
    out = inject_phase_offsets(cap, PhaseDistortion(cfo_offset=0.7))
    rot = np.angle(
        out.values.astype(np.complex128) * np.conj(cap.values.astype(np.complex128))
    )
    assert np.max(np.abs(rot - 0.7)) < 5e-7


def test_inject_zero_distortion_is_identity():
    cap = simulate_capture(static_scene(), 0.01)
    assert inject_phase_offsets(cap, PhaseDistortion()) is cap


def test_inject_jitter_is_per_packet_and_seeded():
    cap = simulate_capture(static_scene(), 0.02)
    d = PhaseDistortion(jitter_sigma=0.2)
    a = inject_phase_offsets(cap, d, seed=5)
    b = inject_phase_offsets(cap, d, seed=5)
    c = inject_phase_offsets(cap, d, seed=6)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    # within one packet every entry rotates by the same angle
    rot = np.angle(a.values[3].astype(np.complex128) * np.conj(cap.values[3].astype(np.complex128)))
    assert np.max(np.abs(rot - rot.flat[0])) < 5e-7


def test_inject_keeps_every_field_but_the_values():
    rng = np.random.default_rng(2)
    values = rng.standard_normal((5, 2, 4)) + 1j * rng.standard_normal((5, 2, 4))
    cap = CsiCapture(values, np.arange(5) / 900.0 + 0.25, 900.0, 1, 2, 4, "door-left")
    out = inject_phase_offsets(cap, PhaseDistortion(sfo_slope=0.02, jitter_sigma=0.1))
    assert np.array_equal(out.timestamps, cap.timestamps)
    assert (out.rate_hz, out.n_tx, out.n_rx, out.n_sub, out.label) == (
        900.0, 1, 2, 4, "door-left"
    )
    assert out.values.shape == cap.values.shape
    assert not np.array_equal(out.values, cap.values)


def test_phase_distortion_refuses_negative_or_non_finite_values():
    # a nan jitter once wrote the input unchanged, and an infinite one
    # blamed the capture for non-finite CSI values
    bad = [{"jitter_sigma": -0.1}]
    bad += [{name: v} for name in ("sfo_slope", "cfo_offset", "jitter_sigma")
            for v in (np.nan, np.inf, -np.inf)]
    for kwargs in bad:
        with pytest.raises(ValueError, match="finite|non-negative"):
            PhaseDistortion(**kwargs)


# ------------------------------------------------------------- scenes


def test_make_count_scene_structure():
    empty = make_count_scene(0, seed=0)
    assert empty.n_persons == 0
    assert len(empty.static_paths) >= 1
    five = make_count_scene(5, seed=0)
    assert five.n_persons == 5
    for person in five.persons:
        assert 2 <= len(person) <= 4
        for p in person:
            assert p.velocity != 0.0
            assert 0.2 <= abs(p.velocity) <= 1.5


def test_make_count_scene_deterministic():
    a = make_count_scene(3, seed=7)
    b = make_count_scene(3, seed=7)
    c = make_count_scene(3, seed=8)
    assert a == b
    assert a != c


def test_make_count_scene_bounds():
    with pytest.raises(ValueError):
        make_count_scene(11)
    with pytest.raises(ValueError):
        make_count_scene(-1)


def test_scene_validation():
    statics = static_scene().static_paths
    for make in [
        lambda: Scene(static_paths=()),
        lambda: Path(0.0 + 0.0j, 1e-9),
        lambda: Path(1.0 + 0.0j, -1e-9),
        lambda: Path(complex(np.nan, 0.0), 1e-9),
        lambda: Path(complex(1.0, np.inf), 1e-9),
        lambda: Path(1.0 + 0.0j, np.nan),
        lambda: Path(1.0 + 0.0j, np.inf),
        lambda: Path(1.0 + 0.0j, 1e-9, np.nan),
        lambda: Path(1.0 + 0.0j, 1e-9, -np.inf),
        lambda: Path(1.0 + 0.0j, 1e-9, 0.5, np.nan),
        lambda: Path(1.0 + 0.0j, 1e-9, 0.5, np.inf),
        lambda: Scene(statics, carrier_hz=np.nan),
        lambda: Scene(statics, carrier_hz=np.inf),
        lambda: Scene(statics, subcarrier_spacing_hz=np.nan),
        lambda: Scene(statics, subcarrier_spacing_hz=np.inf),
        lambda: Scene(statics, noise_sigma=np.nan),
        lambda: Scene(statics, noise_sigma=np.inf),
        lambda: Scene(statics, persons=((),)),  # a person once moved nothing
    ]:
        with pytest.raises(ValueError):
            make()


def test_scene_file_round_trip(tmp_path):
    scene = make_count_scene(2, seed=11, noise_sigma=0.04)
    path = tmp_path / "room.scene"
    write_scene(scene, path)
    back = load_scene(path)
    assert back == scene


def test_scene_file_parse_errors(tmp_path):
    path = tmp_path / "bad.scene"
    for text, where in [
        ("path 1.0 0.0\n", ":1:"),  # too few fields
        ("frobnicate 3\n", ":1:"),
        ("path 1 0 1e-8 0\nperson\npath 1 0 1e-8 nan\nend\n", ":3:"),
        ("path 1 0 1e-8 0 inf\n", ":1:"),
        ("path nan 0 1e-8 0\n", ":1:"),
        ("path 1 0 nan 0\n", ":1:"),
        ("carrier_hz nan\npath 1 0 1e-8 0\n", ":"),
        ("noise_sigma inf\npath 1 0 1e-8 0\n", ":"),
        ("path 1 0 1e-8 0\nperson\nend\n", ":"),  # a person with no path
        # trailing tokens were once dropped without a word
        ("noise_sigma 0.01 0.5\npath 1 0 1e-8 0\n", ":1:"),
        ("carrier_hz 5e9 2\npath 1 0 1e-8 0\n", ":1:"),
        ("path 1 0 1e-8 0\nspacing_hz 625e3 x\n", ":2:"),
        ("noise_sigma\npath 1 0 1e-8 0\n", ":1:"),
        ("path 1 0 1e-8 0\nperson extra\npath 1 0 2e-8 1\nend\n", ":2:"),
        ("path 1 0 1e-8 0\nperson\npath 1 0 2e-8 1\nend now\n", ":4:"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path) + where)} "):
            load_scene(path)
