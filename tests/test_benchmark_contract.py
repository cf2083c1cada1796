"""What the benchmark in `perfbench/` needs of pnkit: the functions its
span tracer wraps by name, the names its workloads import, and the shape
of the `verify-t34` report it checks.  The benchmark's files are read
from disk, never imported as a package, so nothing is written next to
them."""

import ast
import importlib
import json
import types
from pathlib import Path

import pytest

from pnkit.cli import load_config, main, run_verify, write_report

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BATCH_CONFIG = {
    "space": {"dimension": 1, "generator": [[1.0, 1.0]]},
    "scenarios": {"count": 4, "pieces": [1, 4], "kind": "affine"},
    "schedules": {"t_grid": {"count": 32, "max": 1.0}},
    "seed": 5,
}


def _span_targets() -> tuple:
    path = PERFBENCH / "spans.py"
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace["TARGETS"]


def _resolve(module: str, attribute: str):
    obj = importlib.import_module(module)
    for part in attribute.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module, attribute",
                         [(t[0], t[1]) for t in _span_targets()],
                         ids=lambda v: v)
def test_span_target_resolves(module, attribute):
    assert callable(_resolve(module, attribute))


def _pnkit_names_used(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) for every `from pnkit... import name` and every
    attribute read off a name bound to a pnkit module."""
    modules: dict[str, str] = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "pnkit":
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pnkit":
            for alias in node.names:
                used.add((node.module, alias.name))
                obj = getattr(importlib.import_module(node.module), alias.name, None)
                if isinstance(obj, types.ModuleType):
                    modules[alias.asname or alias.name] = obj.__name__
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            used.add((modules[node.value.id], node.attr))
    return used


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_pnkit_names_used_by_benchmark_resolve(path):
    for module, name in sorted(_pnkit_names_used(ast.parse(path.read_text()))):
        assert hasattr(importlib.import_module(module), name), f"{path.name}: {module}.{name}"


def test_verify_report_carries_the_keys_workloads_read(tmp_path):
    config = tmp_path / "batch.json"
    config.write_text(json.dumps(BATCH_CONFIG))
    result = run_verify(load_config(str(config)))
    assert isinstance(result, tuple) and len(result) == 2
    report, _ = result
    write_report(report, str(tmp_path / "report.json"))
    assert json.loads((tmp_path / "report.json").read_text()) == report
    assert len(report["scenarios"]) == BATCH_CONFIG["scenarios"]["count"]
    for rep in report["scenarios"]:
        assert isinstance(rep["fixpoint"]["dominance"], bool)
        assert isinstance(rep["chain"]["residual_minus_mid_min"], float)
        assert isinstance(rep["chain"]["mid_minus_psi_min"], float)
        assert isinstance(rep["kakutani"]["distance"], float)
    assert isinstance(report["summary"]["anomalies"], list)


def test_cli_report_equals_in_process_report(tmp_path):
    config = tmp_path / "batch.json"
    config.write_text(json.dumps(BATCH_CONFIG))
    cli_out, want = tmp_path / "cli.json", tmp_path / "want.json"
    assert main(["verify-t34", "--config", str(config), "--output", str(cli_out)]) == 0
    write_report(run_verify(load_config(str(config)))[0], str(want))
    assert cli_out.read_bytes() == want.read_bytes()

