"""End-to-end command-line runs: every subcommand, exit codes, determinism."""

import json
import logging
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import csicount
from csicount import hmm
from csicount.cli import main
from csicount.capture import CsiCapture, read_capture, write_capture
from csicount.counting import activity_features_from_capture
from csicount.hmm import GaussianHmm, save_hmm
from csicount.neural import Dense, Network, Softmax, build_fcbp, save_network
from csicount.tensorfile import read_tensor, write_tensor


def run_cli(capsys, *argv):
    """Invoke the CLI in-process; returns (exit code, key=value dict, stdout)."""
    code = main(list(argv))
    out = capsys.readouterr().out
    kv = {}
    for line in out.strip().splitlines():
        head = line.split("=", 1)
        if len(head) == 2 and " " not in head[0]:
            kv[head[0]] = head[1]
    return code, kv, out


def simulate(capsys, tmp_path, name, persons, duration, seed):
    out = tmp_path / name
    code, kv, _ = run_cli(
        capsys,
        "simulate",
        "--persons",
        str(persons),
        "--duration",
        str(duration),
        "--seed",
        str(seed),
        "--out",
        str(out),
    )
    assert code == 0
    return out, kv


# ------------------------------------------------------------------- basics


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--bogus", "1", "--duration", "1", "--out", "x"])
    assert err.value.code == 2


def test_runtime_failure_prints_one_line_diagnostic(capsys, tmp_path):
    code = main(
        ["inject", "--in", str(tmp_path / "missing.csic"), "--out", str(tmp_path / "o")]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert len(captured.err.strip().splitlines()) == 1

    # non-finite rates and durations, from the command line or a file header
    out = str(tmp_path / "x.csic")
    for flag in ("--rate", "--duration"):
        argv = ["simulate", "--duration", "1", flag, "inf", "--out", out]
        assert_one_line_error(capsys, argv, "finite")
    # rates the header's f32 would store as inf or as 0.0
    for duration, rate in (("1e-38", "1e39"), ("1e50", "1e-50")):
        argv = ["simulate", "--duration", duration, "--rate", rate, "--out", out]
        assert_one_line_error(capsys, argv, "float32")
    # a duration whose frames cannot be allocated (about 10 PiB)
    assert_one_line_error(capsys, ["simulate", "--duration", "1e12", "--out", out], "allocate")
    cap, _ = simulate(capsys, tmp_path, "inf.csic", persons=1, duration=0.2, seed=1)
    raw = bytearray(cap.read_bytes())
    raw[12:16] = np.float32(np.inf).tobytes()  # rate_hz in the 25-byte header
    cap.write_bytes(bytes(raw))
    for mode in ("activity", "counting"):
        argv = ["preprocess", "--mode", mode, "--in", str(cap), "--out", out]
        assert_one_line_error(capsys, argv, "rate_hz")


def assert_one_line_error(capsys, argv, needle):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and needle in err, err
    assert len(err.strip().splitlines()) == 1, err


def test_debug_log_level_emits_stderr_detail(tmp_path):
    # a fresh process, because logging configures itself once per process;
    # it gets the package's absolute import root, since cwd=tmp_path breaks
    # a relative PYTHONPATH such as "src"
    src = str(Path(csicount.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, CSI_LOG_LEVEL="debug", PYTHONPATH=pythonpath)
    proc = subprocess.run(
        [sys.executable, "-m", "csicount.cli", "inject", "--in", "missing.csic", "--out", "o"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 1, proc.stderr
    assert "error: " in proc.stderr, proc.stderr
    assert "DEBUG csicount" in proc.stderr, proc.stderr


def test_pipeline_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: each command runs in a child
    # process in which importing scipy raises ImportError
    src = str(Path(csicount.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    child = (
        "import sys; sys.modules['scipy'] = None; "
        "from csicount.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    (tmp_path / "walk.json").write_text(json.dumps({"label": "W", "captures": ["w.csic"]}))
    (tmp_path / "count.json").write_text(json.dumps({"items": [{"path": "w.csic", "label": 1}]}))
    (tmp_path / "models").mkdir()
    save_network(build_fcbp(seed=0), tmp_path / "net.csnn")
    for argv in (
        ["simulate", "--persons", "1", "--duration", "1.4", "--seed", "3", "--out", "w.csic"],
        ["inject", "--in", "w.csic", "--slope", "0.05", "--offset", "0.9", "--out", "dirty.csic"],
        ["preprocess", "--mode", "activity", "--in", "w.csic", "--out", "comps.csit"],
        ["preprocess", "--mode", "counting", "--in", "w.csic", "--out", "counting.csit"],
        ["features", "--in", "comps.csit", "--out", "feats.csit"],
        ["train-hmm", "--data", "walk.json", "--states", "2", "--out", "models/walking.hmm"],
        ["classify", "--models", "models", "--capture", "w.csic"],
        ["online", "--ckpt", "net.csnn", "--hmm", "models", "--capture", "w.csic"],
        ["train-count", "--data", "count.json", "--net", "fcbp", "--iters", "5", "--batch", "4",
         "--out", "trained.csnn"],
        ["eval", "--ckpt", "trained.csnn", "--data", "count.json"],
        ["gradcheck"],
        ["simulate", "--duration", "2.25", "--out", "tail.csic"],
        ["online", "--ckpt", "net.csnn", "--hmm", "models", "--capture", "tail.csic"],
    ):
        proc = subprocess.run(
            [sys.executable, "-c", child, *argv],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 0, (argv[0], proc.stderr)
    # the last run's 3,375 frames: one full block of 16 windows and a
    # 175-frame partial window, which is not counted
    assert sum(line.startswith("window=") for line in proc.stdout.splitlines()) == 16


# ----------------------------------------------------------------- simulate


def test_simulate_is_byte_deterministic(capsys, tmp_path):
    a, kv_a = simulate(capsys, tmp_path, "a.csic", persons=3, duration=0.5, seed=7)
    b, kv_b = simulate(capsys, tmp_path, "b.csic", persons=3, duration=0.5, seed=7)
    assert kv_a["frames"] == kv_b["frames"] == "750"
    assert kv_a["persons"] == "3"
    assert a.read_bytes() == b.read_bytes()
    c, _ = simulate(capsys, tmp_path, "c.csic", persons=3, duration=0.5, seed=8)
    assert a.read_bytes() != c.read_bytes()


def test_simulate_from_scene_file(capsys, tmp_path):
    scene_path = tmp_path / "room.scene"
    scene_path.write_text(
        "noise_sigma 0.01\n"
        "path 1.0 0.0 1e-8 0.0 1e-10\n"
        "person\npath 0.3 0.1 2e-8 0.5\nend\n"
        "person\npath 0.2 -0.1 3e-8 -0.7 2e-10\npath 0.1 0.0 4e-8 1.1\nend\n"
    )
    code, kv, _ = run_cli(
        capsys,
        "simulate",
        "--scene",
        str(scene_path),
        "--duration",
        "0.2",
        "--out",
        str(tmp_path / "s.csic"),
    )
    assert code == 0
    assert kv["persons"] == "2"
    assert kv["frames"] == "300"


def test_simulate_rejects_a_non_finite_scene_number_at_its_line(capsys, tmp_path):
    scene_path = tmp_path / "nan.scene"
    scene_path.write_text("path 1.0 0.0 1e-8 0.0\npath 1 0 1e-8 nan\n")
    argv = ["simulate", "--scene", str(scene_path), "--duration", "0.2", "--out", str(tmp_path / "n.csic")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_one_line_error(capsys, argv, f"{scene_path}:2: ")
    assert not (tmp_path / "n.csic").exists()


def test_simulate_rejects_a_trailing_token_at_its_line(capsys, tmp_path):
    # the 0.5 was once dropped and the capture simulated with sigma 0.01
    scene_path = tmp_path / "extra.scene"
    scene_path.write_text("path 1.0 0.0 1e-8 0.0\nnoise_sigma 0.01 0.5\n")
    argv = ["simulate", "--scene", str(scene_path), "--duration", "0.2", "--out", str(tmp_path / "e.csic")]
    assert_one_line_error(capsys, argv, f"{scene_path}:2: noise_sigma takes one number")
    assert not (tmp_path / "e.csic").exists()


def test_inject_refuses_a_non_finite_jitter(capsys, tmp_path):
    # it once wrote the input's bits unchanged and exited 0
    simulate(capsys, tmp_path, "w.csic", 1, 0.2, 0)
    argv = ["inject", "--in", str(tmp_path / "w.csic"), "--jitter", "nan", "--out", str(tmp_path / "o")]
    assert_one_line_error(capsys, argv, "jitter_sigma must be non-negative and finite")
    assert not (tmp_path / "o").exists()


# ------------------------------------------------- preprocess and features


def test_preprocess_and_features_pipeline(capsys, tmp_path):
    cap, _ = simulate(capsys, tmp_path, "walk.csic", persons=1, duration=1.4, seed=3)

    comps = tmp_path / "comps.csit"
    code, kv, _ = run_cli(
        capsys, "preprocess", "--mode", "activity", "--in", str(cap), "--out", str(comps)
    )
    assert code == 0
    assert kv["shape"] == "2100x10"
    tensor = read_tensor(comps)
    assert tensor.shape == (2100, 10)
    assert np.isfinite(tensor).all()

    feats = tmp_path / "feats.csit"
    code, kv, _ = run_cli(capsys, "features", "--in", str(comps), "--out", str(feats))
    assert code == 0
    assert kv["shape"] == "20x16"  # 2*10 scales by 2100//128 windows
    # the default cutoff, keep and levels are the activity branch's own
    expected = activity_features_from_capture(read_capture(cap)).T
    assert read_tensor(feats).tobytes() == expected.tobytes()


def test_features_rejects_tensor_cut_inside_its_dims(capsys, tmp_path):
    whole = tmp_path / "whole.csit"
    write_tensor(np.zeros((4, 3)), whole)
    cut = tmp_path / "cut.csit"
    cut.write_bytes(whole.read_bytes()[:14])  # 7-byte header, then 7 of 16 dims bytes
    argv = ["features", "--in", str(cut), "--out", str(tmp_path / "f.csit")]
    assert_one_line_error(capsys, argv, "dims")


def test_tensor_dims_past_int64_are_refused_without_a_warning(tmp_path):
    # the element count is exact: a u64 dim of 2**63 neither wraps nor warns
    path = tmp_path / "huge.csit"
    path.write_bytes(b"CSIT" + struct.pack("<HB2Q", 1, 2, 2**63, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="payload size"):
            read_tensor(path)


def test_rank_zero_tensor_is_refused(capsys, tmp_path):
    # write_tensor never writes ndim 0: 7 header bytes, no dims, one f64
    path = tmp_path / "scalar.csit"
    path.write_bytes(b"CSIT" + struct.pack("<HBd", 1, 0, 1.0))
    with pytest.raises(ValueError, match="rank 0"):
        read_tensor(path)
    argv = ["features", "--in", str(path), "--out", str(tmp_path / "f.csit")]
    assert_one_line_error(capsys, argv, "rank 0")


def test_preprocess_counting_mode(capsys, tmp_path):
    cap, _ = simulate(capsys, tmp_path, "two.csic", persons=2, duration=0.3, seed=5)
    out = tmp_path / "counting.csit"
    code, kv, _ = run_cli(
        capsys, "preprocess", "--mode", "counting", "--in", str(cap), "--out", str(out)
    )
    assert code == 0
    assert kv["shape"] == "450x360"
    assert read_tensor(out).shape == (450, 360)


# --------------------------------------------------------- activity models


def test_train_hmm_and_classify(capsys, tmp_path):
    paths = [
        simulate(capsys, tmp_path, f"w{i}.csic", persons=1, duration=1.4, seed=i)[0]
        for i in (1, 2)
    ]
    manifest = tmp_path / "walk.json"
    manifest.write_text(
        json.dumps({"label": "W", "captures": [p.name for p in paths]})
    )
    models_dir = tmp_path / "models"
    models_dir.mkdir()
    code, kv, _ = run_cli(
        capsys,
        "train-hmm",
        "--data",
        str(manifest),
        "--states",
        "2",
        "--out",
        str(models_dir / "walking.hmm"),
    )
    assert code == 0
    assert kv["label"] == "W"
    assert kv["states"] == "2"
    assert int(kv["iterations"]) >= 1
    assert np.isfinite(float(kv["log_likelihood"]))

    code, kv, _ = run_cli(
        capsys, "classify", "--models", str(models_dir), "--capture", str(paths[0])
    )
    assert code == 0
    assert kv["label"] == "W"
    assert kv["activity"] == "WALKING"


def test_classify_scores_each_model_once_unless_debugging(capsys, caplog, monkeypatch, tmp_path):
    models_dir = tmp_path / "models"
    models_dir.mkdir()
    walk = None
    for label, persons in (("W", 1), ("E", 0)):
        path = simulate(capsys, tmp_path, f"{label}.csic", persons, duration=1.4, seed=7)[0]
        manifest = tmp_path / f"{label}.json"
        manifest.write_text(json.dumps({"label": label, "captures": [path.name]}))
        code, _, _ = run_cli(
            capsys, "train-hmm", "--data", str(manifest), "--states", "2",
            "--out", str(models_dir / f"{label}.hmm"),
        )
        assert code == 0
        walk = walk or path
    passes = []
    original = hmm._scaled_forward
    monkeypatch.setattr(hmm, "_scaled_forward", lambda *a: passes.append(1) or original(*a))
    argv = ("classify", "--models", str(models_dir), "--capture", str(walk))

    caplog.set_level(logging.ERROR, logger="csicount")  # the CLI's default
    code, _, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == "label=W\nactivity=WALKING\n"
    assert len(passes) == 2

    passes.clear()
    caplog.set_level(logging.DEBUG, logger="csicount")
    code, _, debug_out = run_cli(capsys, *argv)
    assert code == 0
    assert debug_out == out
    assert len(passes) == 2  # the debug lines reuse the classifying scores
    scored = [r for r in caplog.records if "log_likelihood=" in r.getMessage()]
    assert len(scored) == 2 and {r.name for r in scored} == {"csicount.hmm"}


def test_classify_rejects_unknown_model_label(capsys, tmp_path):
    paths = [simulate(capsys, tmp_path, "w.csic", persons=1, duration=1.4, seed=1)[0]]
    manifest = tmp_path / "bad.json"
    manifest.write_text(json.dumps({"label": "?", "captures": [paths[0].name]}))
    models_dir = tmp_path / "models"
    models_dir.mkdir()
    code, _, _ = run_cli(
        capsys, "train-hmm", "--data", str(manifest), "--states", "2",
        "--out", str(models_dir / "odd.hmm"),
    )
    assert code == 0
    code = main(["classify", "--models", str(models_dir), "--capture", str(paths[0])])
    captured = capsys.readouterr()
    assert code == 1
    assert "not a known activity code" in captured.err


# --------------------------------------------------------- counting network


@pytest.mark.parametrize("net, iters", [("fcbp", "30"), ("cnn-lstm", "2")])
def test_train_count_eval_online(capsys, tmp_path, net, iters):
    one, _ = simulate(capsys, tmp_path, "one.csic", persons=1, duration=0.4, seed=1)
    two, _ = simulate(capsys, tmp_path, "two.csic", persons=2, duration=0.4, seed=2)
    manifest = tmp_path / "count.json"
    manifest.write_text(
        json.dumps(
            {
                "regime": "fixed",
                "items": [
                    {"path": one.name, "label": 1},
                    {"path": two.name, "label": 2},
                ],
            }
        )
    )
    ckpt = tmp_path / "net.csnn"
    code, kv, _ = run_cli(
        capsys,
        "train-count",
        "--data",
        str(manifest),
        "--net",
        net,
        "--iters",
        iters,
        "--batch",
        "4",
        "--out",
        str(ckpt),
    )
    assert code == 0
    assert kv["regime"] == "fixed"
    assert kv["learning_rate"] == "0.2"  # the fixed-regime default
    assert kv["iterations"] == iters
    assert np.isfinite(float(kv["final_loss"]))
    assert float(kv["best_loss"]) <= float(kv["final_loss"]) + 1e-12

    code, kv, _ = run_cli(capsys, "eval", "--ckpt", str(ckpt), "--data", str(manifest))
    assert code == 0
    rows = [list(map(int, kv[f"confusion_row_{i}"].split(","))) for i in range(1, 6)]
    assert kv["samples"] == "6"  # three windows per 600-frame capture
    assert sum(map(sum, rows)) == 6
    assert sum(rows[0]) == 3 and sum(rows[1]) == 3
    assert 0.0 <= float(kv["accuracy"]) <= 1.0

    code, kv, out = run_cli(
        capsys, "online", "--ckpt", str(ckpt), "--capture", str(two), "--initial", "2"
    )
    assert code == 0
    step_lines = [l for l in out.splitlines() if l.startswith("window=")]
    assert len(step_lines) == 3
    assert all("event=-" in l and "activity=-" in l for l in step_lines)
    assert kv["amendments"] == "0"
    assert kv["final_count"] == step_lines[-1].split("count=")[1].split()[0]


@pytest.mark.parametrize("initial", ["9", "-1"])
def test_online_rejects_initial_count_outside_0_to_5(capsys, tmp_path, initial):
    cap, _ = simulate(capsys, tmp_path, "one.csic", persons=1, duration=0.2, seed=1)
    ckpt = tmp_path / "net.csnn"
    save_network(build_fcbp(seed=0), ckpt)
    argv = ["online", "--ckpt", str(ckpt), "--capture", str(cap), "--initial", initial]
    assert_one_line_error(capsys, argv, "current_count")


def test_online_rejects_hostile_checkpoint(capsys, tmp_path):
    arch = {
        "input_kind": "summary",
        "seed": 0,
        "layers": [{"kind": "dense", "in_dim": 10**6, "out_dim": 10**6, "activation": "relu"}],
    }
    blob = json.dumps(arch).encode("utf-8")
    ckpt = tmp_path / "huge.csnn"
    ckpt.write_bytes(b"CSNN" + (1).to_bytes(2, "little") + len(blob).to_bytes(4, "little") + blob)
    argv = ["online", "--ckpt", str(ckpt), "--capture", str(tmp_path / "unread.csic")]
    assert_one_line_error(capsys, argv, "architecture needs")

    # parameters that are NaN, or finite but so large that the forward pass
    # overflows: eval and online once printed its FloatingPointError traceback
    cap, _ = simulate(capsys, tmp_path, "one.csic", persons=1, duration=0.2, seed=1)
    manifest = tmp_path / "one.json"
    manifest.write_text(json.dumps({"items": [{"path": cap.name, "label": 1}]}))
    nan_net, huge_net = build_fcbp(seed=0), build_fcbp(seed=0)
    nan_net.layers[nan_net.last_dense].b[0] = np.nan
    huge_net.set_param_vector(np.full(huge_net.get_param_vector().size, 1e300))
    for net, needle in ((nan_net, "non-finite parameters"), (huge_net, "non-finite output")):
        save_network(net, ckpt)
        for argv in (
            ["online", "--ckpt", str(ckpt), "--capture", str(cap)],
            ["eval", "--ckpt", str(ckpt), "--data", str(manifest)],
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy's overflow warning is no error line
                assert_one_line_error(capsys, argv, needle)

    # networks that do not output the 5 counts: eval once raised IndexError,
    # and online printed count=7 from a 7-unit last dense layer
    wide = Network([Dense(360, 7), Softmax()], input_kind="summary")
    for net, online_needle in ((wide, "not 5 counts"), (Network([]), "no dense layer")):
        save_network(net, ckpt)
        argv = ["eval", "--ckpt", str(ckpt), "--data", str(manifest)]
        assert_one_line_error(capsys, argv, "not 5 counts")
        argv = ["online", "--ckpt", str(ckpt), "--capture", str(cap)]
        assert_one_line_error(capsys, argv, online_needle)


def test_eval_rejects_deeply_nested_checkpoint_header(capsys, tmp_path):
    blob = b"[" * 100_000
    ckpt = tmp_path / "deep.csnn"
    ckpt.write_bytes(b"CSNN" + (1).to_bytes(2, "little") + len(blob).to_bytes(4, "little") + blob)
    argv = ["eval", "--ckpt", str(ckpt), "--data", str(tmp_path / "unread.json")]
    assert_one_line_error(capsys, argv, "nested too deeply")


def test_train_count_refuses_the_toy_network(capsys, tmp_path):
    # its 12 x 20 inputs can never take a 200 x 360 count window
    argv = ["train-count", "--data", str(tmp_path / "unread.json"), "--net", "cnn-lstm-toy",
            "--out", str(tmp_path / "n")]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "invalid choice: 'cnn-lstm-toy'" in capsys.readouterr().err
    assert not (tmp_path / "n").exists()


def test_train_count_rejects_bad_manifest(capsys, tmp_path):
    manifest = tmp_path / "empty.json"
    manifest.write_text(json.dumps({"regime": "fixed", "items": []}))
    code = main(
        ["train-count", "--data", str(manifest), "--net", "fcbp", "--out", str(tmp_path / "n")]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "non-empty 'items' list" in captured.err

    # learning rates that are not finite, or so large that training diverges
    cap, _ = simulate(capsys, tmp_path, "one.csic", persons=1, duration=0.2, seed=1)
    manifest.write_text(json.dumps({"items": [{"path": cap.name, "label": 1}]}))
    for lr, needle in (("nan", "learning_rate"), ("inf", "learning_rate"), ("1e200", "diverged")):
        argv = ["train-count", "--data", str(manifest), "--net", "fcbp", "--lr", lr,
                "--iters", "5", "--batch", "1", "--out", str(tmp_path / "n")]
        assert_one_line_error(capsys, argv, needle)

    # manifests with the wrong JSON types; eval reads the same manifests
    ckpt = tmp_path / "net.csnn"
    save_network(build_fcbp(seed=0), ckpt)
    no_list = "manifest needs a non-empty 'items' list"
    no_path = "each item needs a string 'path'"
    no_label = "each item needs an integer 'label'"
    for items, message in (
        (5, no_list),
        ({"path": cap.name, "label": 1}, no_list),
        ([cap.name], no_path),
        ([{"path": 5, "label": 1}], no_path),
        ([{"label": 1}], no_path),
        ([{"path": cap.name, "label": [1]}], no_label),
        ([{"path": cap.name, "label": None}], no_label),
        ([{"path": cap.name}], no_label),
        ([{"path": cap.name, "label": True}], no_label),
        ([{"path": cap.name, "label": 2.7}], no_label),  # int() would make it 2
    ):
        manifest.write_text(json.dumps({"items": items}))
        for argv in (
            ["train-count", "--data", str(manifest), "--net", "fcbp", "--out", str(ckpt) + ".new"],
            ["eval", "--ckpt", str(ckpt), "--data", str(manifest)],
        ):
            assert_one_line_error(capsys, argv, f"{manifest}: {message}")


def test_regime_picks_the_learning_rate_and_an_unknown_one_is_refused(capsys, tmp_path):
    cap, _ = simulate(capsys, tmp_path, "one.csic", persons=1, duration=0.2, seed=1)
    manifest = tmp_path / "count.json"
    ckpt = tmp_path / "net.csnn"
    train_argv = ["train-count", "--data", str(manifest), "--net", "fcbp", "--iters", "1",
                  "--batch", "1", "--out", str(ckpt)]
    items = [{"path": cap.name, "label": 1}]
    manifest.write_text(json.dumps({"regime": "semi", "items": items}))
    for flag, regime, lr in (([], "semi", "0.1"), (["--regime", "open"], "open", "0.15")):
        code, kv, _ = run_cli(capsys, *train_argv, *flag)
        assert code == 0
        assert (kv["regime"], kv["learning_rate"]) == (regime, lr)

    # eval reads the same manifests, so it refuses the same regimes
    manifest.write_text(json.dumps({"regime": "casual", "items": items}))
    needle = "regime must be one of ('fixed', 'semi', 'open'), got 'casual'"
    for argv in (train_argv, ["eval", "--ckpt", str(ckpt), "--data", str(manifest)]):
        assert_one_line_error(capsys, argv, needle)


def test_train_hmm_rejects_bad_manifest(capsys, tmp_path):
    # each manifest is refused before any capture is read
    manifest = tmp_path / "walk.json"
    out = tmp_path / "walk.hmm"
    no_list = "manifest needs a non-empty 'captures' list"
    not_strings = "'label' and each capture must be strings"
    for data, message in (
        ({"label": "W", "captures": []}, no_list),
        ({"label": "W"}, no_list),
        ({"label": "W", "captures": 3}, no_list),
        ({"label": "W", "captures": "w.csic"}, no_list),
        ({"label": "W", "captures": [{"a": 1}]}, not_strings),
        ({"label": "W", "captures": [3]}, not_strings),
        ({"label": 5, "captures": ["w.csic"]}, not_strings),
        ({"label": None, "captures": ["w.csic"]}, not_strings),
    ):
        manifest.write_text(json.dumps(data))
        argv = ["train-hmm", "--data", str(manifest), "--states", "2", "--out", str(out)]
        assert_one_line_error(capsys, argv, f"{manifest}: {message}")
        assert not out.exists()


# ----------------------------------------------------------------- refusals


@pytest.fixture(scope="module")
def refused_inputs(tmp_path_factory):
    """A directory of inputs that each command below must refuse."""
    root = tmp_path_factory.mktemp("refused")
    rng = np.random.default_rng(0)

    def capture(name, n_frames, n_sub=30, rate_hz=1500.0):
        shape = (n_frames, 6, n_sub)
        values = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex64)
        cap = CsiCapture(values, np.arange(n_frames) / rate_hz, rate_hz, n_sub=n_sub)
        write_capture(cap, root / name)

    capture("walk.csic", 1100)
    capture("frame.csic", 1)
    capture("subcarrier.csic", 10, n_sub=1)
    capture("slow.csic", 1100, rate_hz=300.0)  # Nyquist 150 Hz, below the 200 Hz cutoff
    raw = bytearray((root / "walk.csic").read_bytes())
    raw[25:33] = struct.pack("<d", np.nan)  # the first timestamp, after the 25-byte header
    (root / "nan-time.csic").write_bytes(bytes(raw))
    # 0 x 2 antennas, 30 subcarriers, 1500 Hz, 3 frames of one timestamp each
    header = struct.pack("<4sHHHHfQB", b"CSIC", 1, 0, 2, 30, 1500.0, 3, 0)
    (root / "no-tx.csic").write_bytes(header + np.arange(3.0).tobytes())
    (root / "walk.json").write_text(json.dumps({"label": "W", "captures": ["walk.csic"]}))
    (root / "list.json").write_text(json.dumps(["walk.csic"]))
    for name in ("models", "nan-models", "empty"):
        (root / name).mkdir()
    model = GaussianHmm([1.0], [[1.0]], np.zeros((1, 20)), np.ones((1, 20)), label="W")
    save_hmm(model, root / "models" / "walking.hmm")
    raw = (root / "models" / "walking.hmm").read_bytes()
    (root / "nan-models" / "walking.hmm").write_bytes(raw[:-8] + struct.pack("<d", np.nan))
    save_network(build_fcbp(seed=0), root / "net.csnn")
    write_tensor(np.zeros(5), root / "row.csit")
    write_tensor(np.zeros((5, 0)), root / "no-columns.csit")
    for name, text in (
        ("nested", "path 1 0 1e-8 0\nperson\nperson\n"),
        ("stray", "path 1 0 1e-8 0\nend\n"),
        ("unterminated", "path 1 0 1e-8 0\nperson\npath 0.3 0.1 2e-8 0.5\n"),
    ):
        (root / f"{name}.scene").write_text(text)
    return root


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["train-hmm", "--data", "walk.json", "--states", "0"], "n_states must be >= 1"),
        (["train-hmm", "--data", "list.json"], "list.json: manifest must be a JSON object"),
        (["classify", "--models", "empty", "--capture", "walk.csic"], "no .hmm model files"),
        (["classify", "--models", "nan-models", "--capture", "walk.csic"], "non-finite"),
        (["features", "--in", "row.csit"], "row.csit: expected a 2-D tensor"),
        (["features", "--in", "no-columns.csit"], "need at least one component"),
        (["preprocess", "--mode", "activity", "--in", "frame.csic"], "at least two rows"),
        (["preprocess", "--mode", "counting", "--in", "subcarrier.csic"], "two subcarriers"),
        (["simulate", "--scene", "nested.scene", "--duration", "1"], "nested.scene:3: nested person"),
        (["simulate", "--scene", "stray.scene", "--duration", "1"], "stray.scene:2: 'end' outside"),
        (["simulate", "--scene", "unterminated.scene", "--duration", "1"], "unterminated person"),
        (["preprocess", "--mode", "counting", "--in", "no-tx.csic"], "antenna and subcarrier"),
        (["preprocess", "--mode", "counting", "--in", "nan-time.csic"], "non-finite timestamps"),
        (
            ["online", "--ckpt", "net.csnn", "--hmm", "models", "--capture", "slow.csic"],
            "cutoff 200.0 Hz must lie strictly between 0 and Nyquist, 150.0 Hz",
        ),
    ],
)
def test_refusals_print_one_error_line(capsys, monkeypatch, refused_inputs, argv, needle):
    monkeypatch.chdir(refused_inputs)
    if argv[0] not in ("classify", "online"):
        argv = [*argv, "--out", "out"]
    assert_one_line_error(capsys, argv, needle)
    assert not Path("out").exists()


# ---------------------------------------------------------------- gradcheck


# both CNN-LSTM sizes are checked through the CLI in
# test_acceptance::test_gradients_match_finite_differences
@pytest.mark.parametrize("net", ["fcbp"])
def test_gradcheck_toy_network(capsys, net):
    code, kv, _ = run_cli(capsys, "gradcheck", "--net", net)
    assert code == 0
    assert kv["net"] == net
    assert float(kv["max_rel_err"]) < 1e-4


@pytest.mark.parametrize("eps", ["0", "-1e-5", "nan", "inf"])
def test_gradcheck_refuses_a_step_that_is_not_positive_and_finite(capsys, eps):
    # eps 0 once raised ZeroDivisionError, nan and inf FloatingPointError
    assert_one_line_error(capsys, ["gradcheck", f"--eps={eps}"], "eps must be positive and finite")


def test_gradcheck_failure_exit_code(capsys):
    # an impossible tolerance turns the report into a runtime failure
    code = main(["gradcheck", "--tol", "1e-30"])
    captured = capsys.readouterr()
    assert code == 1
    assert "gradient check failed" in captured.err
