"""In-memory spans around the calls the benchmark makes into csicount.

A span records its name, start, end and parent.  Functions are patched
in the module their caller looks them up in (``counting.butterworth_lowpass``
is the name ``activity_features`` resolves at call time), and each layer
object of a network gets its own ``forward``/``backward`` wrapper.  The
patches stay installed for the whole run and cost one flag test while
the tracer is off, so an untraced round pays almost nothing for them.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

# (module, attribute looked up at call time, span name)
FUNCTION_SPANS = (
    ("counting", "train", "counting.train"),
    ("counting", "evaluate", "counting.evaluate"),
    ("counting", "count_windows_from_capture", "counting.count_windows_from_capture"),
    ("counting", "activity_features", "counting.activity_features"),
    ("counting", "amend_and_finetune", "counting.amend_and_finetune"),
    ("counting", "finetune_last_dense", "neural.finetune_last_dense"),
    ("counting", "butterworth_lowpass", "preprocess.butterworth_lowpass"),
    ("counting", "pca_denoise", "preprocess.pca_denoise"),
    ("counting", "weighted_moving_average", "preprocess.weighted_moving_average"),
    ("counting", "sanitize_phase", "preprocess.sanitize_phase"),
    ("counting", "build_count_sample", "preprocess.build_count_sample"),
    ("counting", "split_streams", "capture.split_streams"),
    ("wavelet", "dwt_decompose", "wavelet.dwt_decompose"),
    ("wavelet", "extract_features", "wavelet.extract_features"),
    ("hmm", "fit_hmm", "hmm.fit_hmm"),
    ("hmm", "log_likelihood", "hmm.log_likelihood"),
    ("sim", "simulate_capture", "sim.simulate_capture"),
    ("capture", "write_capture", "capture.write_capture"),
    ("capture", "read_capture", "capture.read_capture"),
)

# Role of each layer of build_cnn_lstm, by position; the others are "rest".
LAYER_ROLES = {0: "lstm", 3: "conv1", 4: "pool", 5: "conv2", 7: "dense1"}
ROLES = ("lstm", "conv1", "pool", "conv2", "dense1", "rest")


class Tracer:
    """Nested spans and counters, recorded only while ``on`` is true."""

    def __init__(self):
        self.on = False
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []

    def count(self, name, n=1):
        if self.on:
            self.counts[name] = self.counts.get(name, 0) + int(n)

    def wrap(self, name, fn, after=None):
        """fn with a span named `name`; after(args, result) adds counters."""

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self, modules):
        """Patch every FUNCTION_SPANS entry; returns an undo callable."""
        saved = []
        counters = {
            "sim.simulate_capture": lambda a, r: self.count("sim.frames", r.n_frames),
            "capture.write_capture": lambda a, r: self.count(
                "capture.bytes", os.path.getsize(a[1])
            ),
            "capture.read_capture": lambda a, r: self.count(
                "capture.bytes", os.path.getsize(a[0])
            ),
            "preprocess.butterworth_lowpass": lambda a, r: self.count(
                "preprocess.lowpass_rows", np.shape(a[0])[0]
            ),
            "wavelet.dwt_decompose": lambda a, r: self.count(
                "wavelet.samples", r.signal_len
            ),
            "hmm.fit_hmm": lambda a, r: self.count(
                "hmm.fit_iterations", len(r.fit_log_likelihoods)
            ),
            "hmm.log_likelihood": lambda a, r: self.count(
                "hmm.log_likelihood_nonfinite", not np.isfinite(r)
            ),
        }
        for mod_name, attr, span in FUNCTION_SPANS:
            module = modules[mod_name]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original, counters.get(span)))

        def undo():
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

        return undo

    def instrument_network(self, network):
        """Wrap each layer's forward/backward and the network's sgd_step."""
        for i, layer in enumerate(network.layers):
            role = LAYER_ROLES.get(i, "rest")
            layer.forward = self.wrap(f"neural.{role}.forward", layer.forward)
            layer.backward = self.wrap(f"neural.{role}.backward", layer.backward)
        network.sgd_step = self.wrap("neural.sgd_step", network.sgd_step)

    def self_times(self):
        """{span name: (calls, total self seconds)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - covered)
        return out

    def window_gaps(self):
        """Seconds between consecutive returns of amend_and_finetune."""
        ends = [end for name, _, end, _ in self.spans if name == "counting.amend_and_finetune"]
        return np.diff(ends)



def dump_spans(spans, path):
    """One JSON line per span: id, name, start, end, parent id (-1 at the top)."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent) in enumerate(spans):
            record = {"id": i, "name": name, "start": start, "end": end, "parent": parent}
            fh.write(json.dumps(record) + "\n")


def per_layer_metrics(tracer):
    """Every per-layer metric but trace.overhead_s; spans that never fired read 0."""
    times = tracer.self_times()

    def per_call(span, scale):
        calls, total = times.get(span, (0, 0.0))
        return total * scale / calls if calls else 0.0

    def calls(span):
        return times.get(span, (0, 0.0))[0]

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for role in ROLES:
        for direction in ("forward", "backward"):
            put(f"neural.{role}.{direction}_ms", per_call(f"neural.{role}.{direction}", 1e3), "ms")
    put("neural.sgd_step_ms", per_call("neural.sgd_step", 1e3), "ms")
    put("neural.lstm.forward_calls", calls("neural.lstm.forward"), "count")
    put("neural.finetune_last_dense_ms", per_call("neural.finetune_last_dense", 1e3), "ms")
    put("neural.finetune_calls", calls("neural.finetune_last_dense"), "count")

    put("counting.train_s", per_call("counting.train", 1.0), "s")
    put("counting.evaluate_s", per_call("counting.evaluate", 1.0), "s")
    put(
        "counting.count_windows_from_capture_s",
        per_call("counting.count_windows_from_capture", 1.0),
        "s",
    )
    put("counting.activity_features_ms", per_call("counting.activity_features", 1e3), "ms")
    put("counting.activity_features_calls", calls("counting.activity_features"), "count")
    put("counting.amend_and_finetune_ms", per_call("counting.amend_and_finetune", 1e3), "ms")
    gaps = tracer.window_gaps()
    for q in (50, 90):
        value = float(np.percentile(gaps, q)) * 1e3 if len(gaps) else 0.0
        put(f"counting.window_gap_p{q}_ms", value, "ms")

    put("preprocess.butterworth_lowpass_ms", per_call("preprocess.butterworth_lowpass", 1e3), "ms")
    put("preprocess.lowpass_rows", tracer.counts.get("preprocess.lowpass_rows", 0), "count")
    for fn in ("pca_denoise", "weighted_moving_average", "sanitize_phase", "build_count_sample"):
        put(f"preprocess.{fn}_ms", per_call(f"preprocess.{fn}", 1e3), "ms")

    put("wavelet.dwt_decompose_ms", per_call("wavelet.dwt_decompose", 1e3), "ms")
    put("wavelet.extract_features_ms", per_call("wavelet.extract_features", 1e3), "ms")
    put("wavelet.samples", tracer.counts.get("wavelet.samples", 0), "count")

    put("hmm.fit_hmm_s", per_call("hmm.fit_hmm", 1.0), "s")
    put("hmm.fit_iterations", tracer.counts.get("hmm.fit_iterations", 0), "count")
    put("hmm.log_likelihood_ms", per_call("hmm.log_likelihood", 1e3), "ms")
    put("hmm.log_likelihood_calls", calls("hmm.log_likelihood"), "count")
    put(
        "hmm.log_likelihood_nonfinite",
        tracer.counts.get("hmm.log_likelihood_nonfinite", 0),
        "count",
    )

    put("sim.simulate_capture_s", per_call("sim.simulate_capture", 1.0), "s")
    put("sim.frames", tracer.counts.get("sim.frames", 0), "count")

    put("capture.write_capture_s", per_call("capture.write_capture", 1.0), "s")
    put("capture.read_capture_s", per_call("capture.read_capture", 1.0), "s")
    put("capture.split_streams_ms", per_call("capture.split_streams", 1e3), "ms")
    put("capture.bytes", tracer.counts.get("capture.bytes", 0), "B")
    return m
