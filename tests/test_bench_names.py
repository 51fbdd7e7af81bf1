"""The names the benchmark looks up in csicount still exist.

bench/spans.py patches functions by (module, attribute) and labels the
counting network's layers by position; a renamed function or a reordered
stack would make a traced run fail or file its times under the wrong layer.
The other bench scripts call the library through module attributes and
`from csicount.X import` lines, which fail only when a bench run reaches
them, so every such name is checked here.  The bench self-test builds the
library's per-window records and runs every bench check on them, so it
runs here too.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

from csicount.neural import build_cnn_lstm

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
MODULES = ("capture", "counting", "hmm", "neural", "sim", "wavelet")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_DIR / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_references():
    """(file, module, attribute) for every `<module>.<attr>` on a csicount
    module and every `from csicount.<module> import <attr>` in bench/*.py."""
    refs = []
    for path in sorted(BENCH_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("csicount"):
                for alias in node.names:
                    if node.module == "csicount":
                        refs.append((path.name, alias.name, None))
                    else:
                        refs.append((path.name, node.module.split(".", 1)[1], alias.name))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in MODULES
            ):
                refs.append((path.name, node.value.id, node.attr))
    return refs


def test_every_traced_function_resolves():
    for module, attr, span in load_spans().FUNCTION_SPANS:
        target = importlib.import_module(f"csicount.{module}")
        assert callable(getattr(target, attr, None)), span


def test_every_bench_reference_resolves():
    refs = bench_references()
    # the scan sees the calls the workloads and self-test make
    assert ("workloads.py", "counting", "activity_features_from_capture") in refs
    assert ("selftest.py", "counting", "OnlineStep") in refs
    for name, module, attr in refs:
        target = importlib.import_module(f"csicount.{module}")
        if attr is not None:
            assert hasattr(target, attr), f"{name}: csicount.{module}.{attr}"


def test_layer_roles_name_the_counting_network_layers():
    kinds = {0: "lstm", 3: "conv2d", 4: "maxpool2d", 5: "conv2d", 7: "dense"}
    assert set(load_spans().LAYER_ROLES) == set(kinds)
    layers = build_cnn_lstm().layers
    assert {i: layers[i].kind for i in kinds} == kinds


def test_bench_selftest_judges_every_case_right():
    result = subprocess.run(
        [sys.executable, str(BENCH_DIR / "selftest.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    right, total = re.fullmatch(
        r"(\d+) of (\d+) cases judged right", result.stdout.splitlines()[-1]
    ).groups()
    assert right == total and int(total) > 0
