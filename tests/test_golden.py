"""The tools: byte identity of the golden run (``tools/golden.py`` against
the lines recorded in ``tools/golden.txt``) and a smoke run of
``tools/mesh_sweep.py``."""

import os
import subprocess
import sys

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
