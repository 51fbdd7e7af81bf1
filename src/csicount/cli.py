"""Command-line front end: every pipeline stage as a subcommand.

Subcommands: simulate, inject, preprocess, features, train-hmm, classify,
train-count, eval, online, gradcheck.  All randomness hangs off --seed, so
repeated invocations produce byte-identical primary outputs.  Results are
printed as key=value lines on stdout; logging goes to stderr at the level
named by the CSI_LOG_LEVEL environment variable (error, info, debug).

Exit codes: 0 success, 1 runtime failure (one-line diagnostic on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .capture import read_capture, split_streams, stream_amplitudes, write_capture
from .counting import (
    ACTIVITY_CUTOFF_HZ,
    ACTIVITY_LEVELS,
    CountSession,
    Dataset,
    TrainConfig,
    activity_features_from_capture,
    count_windows_from_capture,
    evaluate,
    run_online,
    train,
)
from .hmm import ActivityLabel, classify_activity, fit_hmm, load_hmm, save_hmm
from .neural import (
    N_CLASSES,
    build_cnn_lstm,
    build_cnn_lstm_toy,
    build_fcbp,
    finite_difference_check,
    load_network,
    save_network,
)
from .preprocess import (
    PCA_KEEP,
    butterworth_lowpass,
    pca_denoise,
    sanitize_phase,
    weighted_moving_average,
)
from .sim import (
    PhaseDistortion,
    inject_phase_offsets,
    load_scene,
    make_count_scene,
    simulate_capture,
)
from .tensorfile import read_tensor, write_tensor
from .wavelet import feature_matrix_from_components

log = logging.getLogger("csicount")

# Per-regime learning rates: scripted rooms tolerate the largest steps.
REGIME_LEARNING_RATES = {"fixed": 0.2, "semi": 0.1, "open": 0.15}
REGIMES = tuple(REGIME_LEARNING_RATES)
# Per net: (builder, and for gradcheck: parameters probed per array, eps,
# input scale, input shape).  Sampling keeps the full-size checks inside a
# small time budget; the toy network is cheap enough to probe every
# parameter.  Central differences on an O(1) loss carry ~1e-11 noise, so the
# bigger network gets a wider eps; input scale keeps activations away from
# rectifier boundaries where a one-sided difference would be meaningless.
NETWORKS = {
    "cnn-lstm": (build_cnn_lstm, 25, 1e-6, 1.0, (1, 200, 360)),
    "cnn-lstm-toy": (build_cnn_lstm_toy, None, 1e-5, 3.0, (2, 12, 20)),
    "fcbp": (build_fcbp, 60, 1e-5, 2.0, (2, 360)),
}


def _setup_logging() -> None:
    name = os.environ.get("CSI_LOG_LEVEL", "error").strip().lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        stream=sys.stderr,
        level=levels.get(name, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _load_manifest(path: str, key: str) -> tuple[dict, Path, list]:
    """The manifest object, its directory and its non-empty `key` list."""
    p = Path(path)
    with open(p, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: manifest must be a JSON object")
    entries = data.get(key)
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{path}: manifest needs a non-empty {key!r} list")
    return data, p.parent, entries


def _cmd_simulate(args) -> int:
    if args.scene:
        scene = load_scene(args.scene)
    else:
        scene = make_count_scene(args.persons, seed=args.seed, noise_sigma=args.noise)
    capture = simulate_capture(scene, args.duration, rate_hz=args.rate, seed=args.seed)
    write_capture(capture, args.out)
    print(f"out={args.out}")
    print(f"frames={capture.n_frames}")
    print(f"persons={scene.n_persons}")
    return 0


def _cmd_inject(args) -> int:
    capture = read_capture(args.infile)
    distortion = PhaseDistortion(
        sfo_slope=args.slope, cfo_offset=args.offset, jitter_sigma=args.jitter
    )
    write_capture(inject_phase_offsets(capture, distortion, seed=args.seed), args.out)
    print(f"out={args.out}")
    return 0


def _cmd_preprocess(args) -> int:
    capture = read_capture(args.infile)
    if args.mode == "counting":
        amp, phase = split_streams(capture)
        out = np.hstack(
            [
                weighted_moving_average(amp),
                sanitize_phase(phase, capture.n_streams, capture.n_sub),
            ]
        )
    else:
        filtered = butterworth_lowpass(stream_amplitudes(capture), capture.rate_hz, args.cutoff)
        out = pca_denoise(filtered, keep=args.keep)
    write_tensor(out, args.out)
    print(f"out={args.out}")
    print(f"shape={out.shape[0]}x{out.shape[1]}")
    return 0


def _cmd_features(args) -> int:
    components = read_tensor(args.infile)
    if components.ndim != 2:
        raise ValueError(f"{args.infile}: expected a 2-D tensor")
    matrix = feature_matrix_from_components(components, levels=args.levels)
    write_tensor(matrix, args.out)
    print(f"out={args.out}")
    print(f"shape={matrix.shape[0]}x{matrix.shape[1]}")
    return 0


def _cmd_train_hmm(args) -> int:
    manifest, base, paths = _load_manifest(args.data, "captures")
    label = manifest.get("label", "")
    if not isinstance(label, str) or not all(isinstance(rel, str) for rel in paths):
        raise ValueError(f"{args.data}: 'label' and each capture must be strings")
    sequences = []
    for rel in paths:
        capture = read_capture(base / rel)
        sequences.append(activity_features_from_capture(capture))
        log.info("loaded %s (%d frames)", rel, capture.n_frames)
    model = fit_hmm(
        sequences, n_states=args.states, seed=args.seed, label=label
    )
    save_hmm(model, args.out)
    print(f"out={args.out}")
    print(f"label={model.label}")
    print(f"states={model.n_states}")
    print(f"iterations={len(model.fit_log_likelihoods)}")
    print(f"log_likelihood={model.fit_log_likelihoods[-1]:.6f}")
    return 0


def _load_hmm_dir(path: str) -> dict:
    files = sorted(Path(path).glob("*.hmm"))
    if not files:
        raise ValueError(f"{path}: no .hmm model files found")
    models = {}
    for f in files:
        model = load_hmm(f)
        try:
            key = ActivityLabel(model.label)
        except ValueError:
            raise ValueError(
                f"{f}: model label {model.label!r} is not a known activity code"
            ) from None
        models[key] = model
    return models


def _cmd_classify(args) -> int:
    models = _load_hmm_dir(args.models)
    capture = read_capture(args.capture)
    features = activity_features_from_capture(capture)
    best = classify_activity(models, features)
    print(f"label={best.value}")
    print(f"activity={best.name}")
    return 0


def _count_dataset(manifest_path: str, regime_flag: str | None) -> tuple[Dataset, str]:
    """The manifest's count windows and its regime, or `regime_flag` if given."""
    manifest, base, items = _load_manifest(manifest_path, "items")
    regime = regime_flag or manifest.get("regime", "fixed")
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    samples = []
    for item in items:
        if not isinstance(item, dict) or not isinstance(item.get("path"), str):
            raise ValueError(f"{manifest_path}: each item needs a string 'path'")
        if type(item.get("label")) is not int:  # a JSON integer: int() takes true and 2.7
            raise ValueError(f"{manifest_path}: each item needs an integer 'label'")
        capture = read_capture(base / item["path"])
        for window in count_windows_from_capture(capture):
            samples.append((window, item["label"]))
        log.info("loaded %s label=%d", item["path"], item["label"])
    return Dataset(samples), regime


def _cmd_train_count(args) -> int:
    dataset, regime = _count_dataset(args.data, args.regime)
    lr = args.lr if args.lr is not None else REGIME_LEARNING_RATES[regime]
    network = NETWORKS[args.net][0](seed=args.seed)
    config = TrainConfig(
        batch_size=args.batch,
        learning_rate=lr,
        max_iterations=args.iters,
        seed=args.seed,
    )
    _, losses = train(network, dataset, config)
    save_network(network, args.out)
    print(f"out={args.out}")
    print(f"regime={regime}")
    print(f"learning_rate={lr}")
    print(f"iterations={len(losses)}")
    print(f"final_loss={losses[-1]:.6f}")
    print(f"best_loss={min(losses):.6f}")
    return 0


def _cmd_eval(args) -> int:
    network = load_network(args.ckpt)
    dataset, _ = _count_dataset(args.data, None)
    matrix = evaluate(network, dataset)
    for i, row in enumerate(matrix.counts):
        print(f"confusion_row_{i + 1}=" + ",".join(str(int(v)) for v in row))
    print(f"samples={matrix.total}")
    print(f"accuracy={matrix.accuracy:.4f}")
    return 0


def _cmd_online(args) -> int:
    network = load_network(args.ckpt)
    models = _load_hmm_dir(args.hmm) if args.hmm else {}
    capture = read_capture(args.capture)
    session = CountSession(network, models, current_count=args.initial)
    timeline = run_online(session, capture)
    for step in timeline:
        activity = step.activity.value if step.activity else "-"
        event = step.event.kind if step.event else "-"
        print(
            f"window={step.window_index} sample={step.sample_index} "
            f"prediction={step.prediction} count={step.count} "
            f"activity={activity} event={event}"
        )
    print(f"final_count={session.current_count}")
    print(f"amendments={sum(1 for r in session.event_log if r.action == 'finetune')}")
    return 0


def _cmd_gradcheck(args) -> int:
    build, samples, default_eps, scale, shape = NETWORKS[args.net]
    network = build(seed=args.seed)
    x = np.random.default_rng(args.seed + 1).standard_normal(shape) * scale
    labels = 1 + np.arange(x.shape[0]) % N_CLASSES
    eps = args.eps if args.eps is not None else default_eps
    err = finite_difference_check(network, x, labels, eps=eps, max_per_array=samples)
    print(f"net={args.net}")
    print(f"max_rel_err={err:.3e}")
    if not err < args.tol:
        raise RuntimeError(f"gradient check failed: {err:.3e} >= {args.tol}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csicount",
        description="WiFi channel-state crowd counting and activity pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("simulate", help="synthesize a capture from a multipath scene")
    p.add_argument("--persons", type=int, default=0, help="moving people in the room")
    p.add_argument("--duration", type=float, required=True, help="seconds of capture")
    p.add_argument("--rate", type=float, default=1500.0, help="packets per second")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=None, help="complex noise sigma")
    p.add_argument("--scene", default=None, help="scene description file (overrides --persons)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("inject", help="add hardware-style phase errors to a capture")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--slope", type=float, default=0.0, help="rad per subcarrier index")
    p.add_argument("--offset", type=float, default=0.0, help="constant phase, rad")
    p.add_argument("--jitter", type=float, default=0.0, help="per-packet phase noise sigma")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser("preprocess", help="denoise a capture into a tensor file")
    p.add_argument("--mode", choices=("activity", "counting"), required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument(
        "--cutoff", type=float, default=ACTIVITY_CUTOFF_HZ, help="low-pass cutoff, Hz (activity)"
    )
    p.add_argument("--keep", type=int, default=PCA_KEEP, help="retained components (activity)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("features", help="wavelet energy/variance features from components")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--levels", type=int, default=ACTIVITY_LEVELS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("train-hmm", help="fit one activity model from a capture manifest")
    p.add_argument("--data", required=True, help='JSON {"label": code, "captures": [...]}')
    p.add_argument("--states", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_hmm)

    p = sub.add_parser("classify", help="label a capture with the best-scoring model")
    p.add_argument("--models", required=True, help="directory of .hmm files")
    p.add_argument("--capture", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("train-count", help="train a counting network from a manifest")
    p.add_argument("--data", required=True, help='JSON {"regime": r, "items": [{"path","label"}]}')
    p.add_argument("--regime", choices=REGIMES, default=None)
    # the toy network takes 12 x 20 inputs, never a 200 x 360 count window
    p.add_argument("--net", choices=("cnn-lstm", "fcbp"), default="cnn-lstm")
    p.add_argument("--lr", type=float, default=None, help="default: per-regime rate")
    p.add_argument("--iters", type=int, default=3000)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_count)

    p = sub.add_parser("eval", help="confusion matrix of a checkpoint on a manifest")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("online", help="run the fused counting session over a capture")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--hmm", default=None, help="directory of .hmm files")
    p.add_argument("--capture", required=True)
    p.add_argument("--initial", type=int, default=0, help="count before the session")
    p.set_defaults(func=_cmd_online)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--net", choices=sorted(NETWORKS), default="cnn-lstm-toy")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--eps", type=float, default=None, help="default: per-net step")
    p.add_argument("--seed", type=int, default=4, help="default sits at a clean evaluation point")
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (OSError, ValueError, RuntimeError, KeyError, MemoryError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        log.debug("failure detail", exc_info=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
