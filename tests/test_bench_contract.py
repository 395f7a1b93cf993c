"""The benchmark scripts under bench/ only use ipas names and attributes that exist.

bench/ reaches the package as ``ipas.<name>`` and ``ipas.cli.<name>``;
removing or renaming one of those names would break the benchmark, so this
test fails first.  It parses the scripts for the names and never runs them.
The attributes bench/ reads of the objects a run returns are checked on a
tiny run of each engine.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import ipas

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


# Attributes bench/workloads.py and bench/layers.py read: of the objective,
# of the budget meter, of a RunResult and of a trace record.
OBJECTIVE_ATTRS = ("value_cost", "grad_cost", "weights")
METER_ATTRS = (
    "scalar_products", "component_value_evals", "component_grad_evals", "cg_scalar_products",
)
RESULT_ATTRS = ("records", "status", "meter", "projections_checked")
RECORD_ATTRS = (
    "k", "Nk", "accepted", "unsuccessful", "cg_iters", "norm_d_true", "f_true", "scalar_products",
)


def test_attributes_listed_are_read_by_bench():
    # A name bench/ stops reading should leave this list, not linger in it.
    text = (BENCH / "workloads.py").read_text() + (BENCH / "layers.py").read_text()
    read = set(re.findall(r"\.([A-Za-z_]\w*)", text))
    listed = OBJECTIVE_ATTRS + METER_ATTRS + RESULT_ATTRS + RECORD_ATTRS
    assert set(listed) <= read, sorted(set(listed) - read)


def test_run_results_have_the_attributes_bench_reads():
    spec = ipas.make_noisy_quadratic(4, 6, sigma=0.5, seed=1)
    obj = ipas.noisy_quadratic_objective(spec)
    cs = ipas.generate_constraints(4, 2, seed=2)
    results = [
        ipas.run(cs, obj, ipas.SolverConfig(N0=2, D_size=2, k_max=5)),
        ipas.run_baseline(cs, obj, ipas.BaselineConfig(k_max=3)),
    ]
    for attr in OBJECTIVE_ATTRS:
        assert hasattr(obj, attr), f"objective.{attr} no longer exists"
    for result in results:
        for attr in RESULT_ATTRS:
            assert hasattr(result, attr), f"RunResult.{attr} no longer exists"
        for attr in METER_ATTRS:
            assert hasattr(result.meter, attr), f"BudgetMeter.{attr} no longer exists"
        for record in result.records:
            for attr in RECORD_ATTRS:
                assert hasattr(record, attr), f"IterationRecord.{attr} no longer exists"
        # summarize_result's own check: the meter's split adds up at the unit costs.
        m = result.meter
        split = (
            m.cg_scalar_products
            + m.component_value_evals * obj.value_cost
            + m.component_grad_evals * obj.grad_cost
        )
        assert split == m.scalar_products == result.records[-1].scalar_products
