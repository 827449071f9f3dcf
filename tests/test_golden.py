"""The tools: byte identity of the golden run (``tools/golden.py`` against
the lines recorded in ``tools/golden.txt``), a smoke run of
``tools/mesh_sweep.py`` and the verdicts of ``tools/ab.py``."""

import importlib.util
import os
import subprocess
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")


def by_path(lines):
    """{path: sha256} of ``sha256  path`` lines, skipping ``#`` comments."""
    out = {}
    for line in lines:
        if line.strip() and not line.startswith("#"):
            digest, path = line.split("  ", 1)
            out[path] = digest
    return out


def test_golden_run_matches_recorded_lines(tmp_path):
    with open(os.path.join(TOOLS, "golden.txt")) as fh:
        recorded = by_path(fh.read().splitlines())
    run = subprocess.run([sys.executable, os.path.join(TOOLS, "golden.py"), str(tmp_path / "out")],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    printed = by_path(run.stdout.splitlines())
    changed = sorted(p for p in recorded.keys() | printed.keys()
                     if recorded.get(p) != printed.get(p))
    assert not changed, f"golden lines changed for: {', '.join(changed)}"


def test_mesh_sweep_prints_one_line_per_resolution():
    # Two domains at coarse resolutions keep this smoke run well under 2 s.
    run = subprocess.run([sys.executable, os.path.join(TOOLS, "mesh_sweep.py"), "7", "2", "2e-2",
                          "1.5e-2"], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    lines = [dict(field.split("=") for field in line.split()) for line in run.stdout.splitlines()]
    assert [line["edge_min"] for line in lines] == ["0.02", "0.015"]
    for line in lines:
        assert line["meshes"] == "2" and line["failed"] == "0"
        assert 0.2 <= float(line["worst"]) <= float(line["lowest_mean"]) <= 1.0
        assert int(line["nodes"]) > 0 and float(line["delaunay"]) >= 2


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", os.path.join(TOOLS, "ab.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic_runs(a_values, b_values):
    """ab.py run records of one metric, ``op_s``: pair k holds the k-th
    value of each side."""
    return [{"side": side, "pair_index": k, "result": {"metrics": {"op_s": {"value": v}}}}
            for side, values in (("A", a_values), ("B", b_values))
            for k, v in enumerate(values)]


@pytest.mark.parametrize("a,b,expected", [
    # A's quartiles spread 2% of its median; B is 10% slower.
    ([1.00, 0.99, 1.01, 1.00, 0.98, 1.02], [1.10, 1.09, 1.11, 1.10, 1.08, 1.12],
     "within bound"),
    # B's median is 30% above A's: worse than the 25% bound, whatever the spread.
    ([1.00, 0.50, 1.50, 1.00, 0.60, 1.40], [1.30, 1.29, 1.31, 1.30, 1.28, 1.32],
     "worse beyond bound"),
    # A's quartiles spread 40% of its median, and B's runs overlap A's.
    ([1.00, 0.70, 1.30, 1.00, 0.75, 1.25], [0.95, 0.94, 0.96, 0.95, 0.93, 1.20],
     "unresolved"),
    # The same spread, but every B run beats every A run.
    ([1.00, 0.70, 1.30, 1.00, 0.75, 1.25], [0.60, 0.59, 0.61, 0.60, 0.58, 0.62],
     "within bound"),
])
def test_ab_verdict_per_metric(a, b, expected):
    metrics = [{"name": "op_s", "better": "lower", "bound": 0.25}]
    summary = load_ab().summarize(synthetic_runs(a, b), metrics)
    assert summary["op_s"]["verdict"] == expected
