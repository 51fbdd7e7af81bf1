"""The names the benchmark's tracer looks up in csicount still exist.

bench/spans.py patches functions by (module, attribute) and labels the
counting network's layers by position; a renamed function or a reordered
stack would make a traced run fail or file its times under the wrong layer.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from csicount.neural import build_cnn_lstm

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    for module, attr, span in load_spans().FUNCTION_SPANS:
        target = importlib.import_module(f"csicount.{module}")
        assert callable(getattr(target, attr, None)), span


def test_layer_roles_name_the_counting_network_layers():
    kinds = {0: "lstm", 3: "conv2d", 4: "maxpool2d", 5: "conv2d", 7: "dense"}
    assert set(load_spans().LAYER_ROLES) == set(kinds)
    layers = build_cnn_lstm().layers
    assert {i: layers[i].kind for i in kinds} == kinds
