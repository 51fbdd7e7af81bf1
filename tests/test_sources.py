"""Static checks of the source tree: what the package imports, and the
grammar every file is written in."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "csicount"


def test_package_imports_only_numpy_and_the_standard_library():
    # numpy is the only runtime dependency; every import counts, also one
    # inside a function or a branch that no command reaches
    allowed = set(sys.stdlib_module_names) | {"numpy", "csicount"}
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.partition(".")[0] not in allowed
            ]
    assert not foreign, foreign


def test_every_source_parses_as_python_3_10():
    # the lowest Python pyproject.toml supports
    paths = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
