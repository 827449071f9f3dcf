"""Byte identity of the golden run: ``tools/golden.py`` against the lines
recorded in ``tools/golden.txt``."""

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
