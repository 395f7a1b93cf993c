"""The benchmark scripts under bench/ only use ipas names that exist.

bench/ reaches the package as ``ipas.<name>`` and ``ipas.cli.<name>``;
removing or renaming one of those names would break the benchmark, so this
test fails first.  It parses the scripts and never runs them.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _dotted(node):
    """'a.b.c' for a chain of attribute lookups on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def bench_references():
    """(file, dotted name) for every ipas.<name> and ipas.cli.<name> in bench/*.py."""
    refs = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ipas":
                refs.update((path.name, f"{node.module}.{a.name}") for a in node.names)
            elif isinstance(node, ast.Attribute):
                parts = (_dotted(node) or "").split(".")
                if parts[0] != "ipas" or parts[1:] == ["cli"]:
                    continue  # ipas.cli itself is checked through its names
                depth = 3 if parts[1] == "cli" else 2
                refs.add((path.name, ".".join(parts[:depth])))
    return sorted(refs)


def test_bench_references_are_found():
    names = {name for _, name in bench_references()}
    # The entry points every workload uses; an empty scan would prove nothing.
    assert {"ipas.run", "ipas.run_baseline", "ipas.cli.main"} <= names


@pytest.mark.parametrize("ref", bench_references(), ids=lambda r: f"{r[0]}:{r[1]}")
def test_bench_reference_resolves(ref):
    _, name = ref
    module, _, attr = name.rpartition(".")
    assert hasattr(importlib.import_module(module), attr), f"{name} no longer exists"
