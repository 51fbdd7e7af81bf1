"""Benchmark of the csicount library, one workload per process.

    python3 bench/run.py --workload {train,online,activity} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
traced run reports the per-layer ones.  Result and span files go to
./bench-results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPS = 3
NPROC = len(os.sched_getaffinity(0))


def _cap_blas_threads():
    """Cap BLAS threads at the CPUs this process may use, through its own
    environment only; must run before numpy loads a BLAS library."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(NPROC)


def _import_program():
    """Import csicount from ./src of the checkout, or exit with code 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import csicount
        from csicount import capture, counting, hmm, neural, sim, wavelet
    except ImportError as exc:
        print(f"error: cannot import csicount from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(csicount.__file__).resolve().parent != src / "csicount":
        print(f"error: csicount was imported from {csicount.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return {
        "capture": capture,
        "counting": counting,
        "hmm": hmm,
        "neural": neural,
        "sim": sim,
        "wavelet": wavelet,
    }


def _environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(workload, seed, seconds, workdir):
    """Set up SETUP_REPS times, then whole rounds for `seconds`."""
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workload.setup(seed, workdir)
        setup_times.append(time.perf_counter() - t0)
    errors = list(workload.setup_errors)
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(workload.run_round())
        errors += workload.check_round()
        typical = statistics.median(r.seconds for r in rounds)
        if time.perf_counter() - start + typical > seconds:
            break
    errors += workload.final_checks()
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "items_per_s": _metric(statistics.median(x for r in rounds for x in r.rates), "1/s"),
        "round_s": _metric(statistics.median(r.seconds for r in rounds), "s"),
    }
    detail = {"setup_s": setup_times, "rounds": [vars(r) for r in rounds]}
    return errors, rounds, metrics, detail


def traced_run(workload, seed, seconds, tracer, workdir):
    """One traced set-up, then untraced and traced rounds in turn.

    The per-layer figures cover the set-up and the first traced round;
    the neural spans cover that round only, because the network is
    wrapped after its warm-up.  Further pairs of rounds run while they fit
    in `seconds`, and trace.overhead_s is the median traced round's wall
    time minus the median untraced one's.
    """
    from spans import per_layer_metrics

    tracer.on = True
    workload.setup(seed, workdir)
    tracer.on = False
    if workload.network is not None:
        tracer.instrument_network(workload.network)
    errors = list(workload.setup_errors)
    walls = {False: [], True: []}
    rounds, metrics, spans = [], None, None
    start = time.perf_counter()
    while True:
        for on in (False, True):
            tracer.on = on
            t0 = time.perf_counter()
            rounds.append(workload.run_round())
            walls[on].append(time.perf_counter() - t0)
            tracer.on = False
            errors += workload.check_round()
        if metrics is None:
            metrics, spans = per_layer_metrics(tracer), list(tracer.spans)
        pair = statistics.median(walls[False]) + statistics.median(walls[True])
        if time.perf_counter() - start + pair > seconds:
            break
    errors += workload.final_checks()
    overhead = statistics.median(walls[True]) - statistics.median(walls[False])
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    return errors, rounds, metrics, {"round_walls": walls, "spans": spans}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _cap_blas_threads()
    modules = _import_program()
    from spans import Tracer, dump_spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    out_dir = ROOT / "bench-results"
    out_dir.mkdir(exist_ok=True)
    tracer = Tracer()
    undo = tracer.install(modules)
    workload = WORKLOADS[args.workload]()
    try:
        with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
            if args.trace:
                errors, rounds, metrics, detail = traced_run(
                    workload, args.seed, args.seconds, tracer, workdir
                )
            else:
                errors, rounds, metrics, detail = timed_run(
                    workload, args.seed, args.seconds, workdir
                )
    finally:
        undo()

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        dump_spans(detail.pop("spans"), out_dir / f"{stem}.spans.jsonl")
    result = {
        "correct": not errors,
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(
            dict(result, errors=errors, detail=detail, environment=_environment()), fh, indent=1
        )
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
