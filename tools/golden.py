"""Golden-bytes run: a tiny gen + train + eval set, hashed file by file.

Usage: python tools/golden.py OUT

Runs, in-process through ``meshpass.cli.main`` and with the ``src/`` tree
next to this file on the import path:

- ``gen`` of 2 scenarios, native (OUT/native) and with high-accuracy
  labels at ``--refine 2`` (OUT/ha);
- ``train --steps 3`` on OUT/ha and ``eval`` of the checkpoint, with the
  default processor (OUT/train, OUT/eval) and with ``p=3H (U=0,D=0)``
  (OUT/train3h, OUT/eval3h);
- ``eval --solver`` on the same test set (OUT/eval_solver) and
  ``analyze --mode curve`` of OUT/eval/eval.csv against that solver
  ``eval.csv`` (OUT/curve);
- ``analyze --mode spectrum`` of the first high-accuracy scenario, its
  native ``trajectory.bin`` against its ``labels_ha.bin`` (OUT/spectrum).

Then prints 29 lines, sorted by path (the commands' own output goes to
stderr): one ``sha256  relative/path`` line for each of the 28 files under
OUT, and one ``sha256  meshes/sweep`` line, the hash of ``mesh_text`` over
the meshes of ``MESH_SWEEP``, the mesh generator's byte guard. The whole
run takes about 6 s on a 2-core Xeon VM.
The ``sec_per_step`` columns of CSV files are wall time, so they are
blanked before hashing. BLAS runs on one thread, whatever the caller's
environment sets. A refactor that keeps behaviour prints the same
lines before and after. ``tools/golden.txt`` holds the lines of the
current tree, and ``tests/test_golden.py`` runs this tool and compares.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
# One BLAS thread whatever the caller's environment says, set before numpy
# loads BLAS: the eigenpairs behind spectrum.csv change in the last digits
# with the thread count.
for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[var] = "1"

from meshpass.cli import main  # noqa: E402
from meshpass.dataset import TEST_DOMAIN  # noqa: E402
from meshpass.mesh import ChannelDomain, generate_mesh, mesh_text  # noqa: E402

GEN = ["--scenarios", "2", "--seed", "3", "--set", "edge_min_lo=8e-3",
       "--set", "edge_min_hi=1.2e-2", "--set", "n_steps=4"]
MODEL = ["--set", "latent_size=16", "--set", "hidden_size=16", "--set", "normalizer_steps=3"]
EVAL = ["--set", "eval_resolutions=1.2e-2,8e-3", "--set", "eval_steps=3",
        "--set", "max_rollout=3"]
WALL_TIME_COLUMN = "sec_per_step"

# (domain, edge_min, seeds) of the meshes hashed into ``meshes/sweep``.
MESH_SWEEP = [
    (TEST_DOMAIN, 1e-2, range(4)),
    (TEST_DOMAIN, 5e-3, range(4)),
    (TEST_DOMAIN, 3.5e-3, range(1)),
    (ChannelDomain(1.0, 1.0), 0.05, range(1)),
    (ChannelDomain(1.0, 0.12), 0.024, range(1)),
]


def run(out):
    def path(name):
        return os.path.join(out, name)

    commands = [
        ["gen", "--out", path("native")] + GEN,
        ["gen", "--out", path("ha"), "--labels", "high-accuracy", "--refine", "2"] + GEN,
    ]
    for suffix, processor in (("", []), ("3h", ["--processor", "p=3H (U=0,D=0)"])):
        commands += [
            ["train", "--dataset", path("ha"), "--out", path("train" + suffix),
             "--steps", "3"] + processor + MODEL,
            ["eval", "--out", path("eval" + suffix),
             "--checkpoint", os.path.join(path("train" + suffix), "checkpoint.bin")] + EVAL,
        ]
    commands += [
        ["eval", "--out", path("eval_solver"), "--solver"] + EVAL,
        ["analyze", "--mode", "curve", "--out", path("curve"),
         "--eval", os.path.join(path("eval"), "eval.csv"),
         "--baseline", os.path.join(path("eval_solver"), "eval.csv")],
        ["analyze", "--mode", "spectrum", "--out", path("spectrum"),
         "--mesh", os.path.join(path("ha"), "scenario_0000", "mesh.msh"),
         "--traj", os.path.join(path("ha"), "scenario_0000", "trajectory.bin"),
         "--ref", os.path.join(path("ha"), "scenario_0000", "labels_ha.bin")],
    ]
    for argv in commands:
        if main(argv) != 0:
            raise SystemExit(f"golden run failed: meshpass {' '.join(argv)}")


def mesh_sweep_line():
    h = hashlib.sha256()
    for domain, edge_min, seeds in MESH_SWEEP:
        for seed in seeds:
            h.update(mesh_text(generate_mesh(domain, edge_min, seed=seed)).encode())
    return f"{h.hexdigest()}  meshes/sweep"


def deterministic_bytes(path):
    """File bytes, with the wall-time column of a CSV file blanked."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not path.endswith(".csv"):
        return raw
    rows = list(csv.reader(io.StringIO(raw.decode())))
    if not rows or WALL_TIME_COLUMN not in rows[0]:
        return raw
    col = rows[0].index(WALL_TIME_COLUMN)
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(rows[0])
    for row in rows[1:]:
        writer.writerow(row[:col] + [""] + row[col + 1:])
    return text.getvalue().encode()


def digests(out):
    lines = []
    for dirpath, _, files in os.walk(out):
        for name in files:
            path = os.path.join(dirpath, name)
            digest = hashlib.sha256(deterministic_bytes(path)).hexdigest()
            lines.append(f"{digest}  {os.path.relpath(path, out)}")
    return lines


def main_golden(argv):
    if len(argv) != 1:
        raise SystemExit("usage: python tools/golden.py OUT")
    out = argv[0]
    if os.path.exists(out) and os.listdir(out):
        raise SystemExit(f"{out} is not empty")
    with contextlib.redirect_stdout(sys.stderr):
        run(out)
    lines = digests(out) + [mesh_sweep_line()]
    print("\n".join(sorted(lines, key=lambda line: line.split("  ", 1)[1])))


if __name__ == "__main__":
    main_golden(sys.argv[1:])
