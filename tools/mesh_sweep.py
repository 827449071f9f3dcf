"""Mesh-generator quality and cost sweep over sampled scenario domains.

Usage: python tools/mesh_sweep.py SEED N RES [RES ...]

Generates a mesh of each of the N domains of
``dataset.sample_scenarios(N, SEED)``, each from its scenario's own seed,
at every resolution (edge_min) RES, with the ``src/`` tree next to this
file on the import path and BLAS on one thread. Prints one line per
resolution:

    edge_min=0.01 meshes=60 failed=0 worst=0.330 lowest_mean=0.941 nodes=17094 delaunay=19.4 seconds=3.64

- ``failed``: meshes that raised ``MeshGenerationError``;
- ``worst``: the lowest triangle quality over every mesh, where quality is
  ``4*sqrt(3)*area / (sum of squared sides)``, 1 for an equilateral
  triangle;
- ``lowest_mean``: the lowest per-mesh mean quality;
- ``nodes``: the node total;
- ``delaunay``: the mean number of ``scipy.spatial.Delaunay`` calls per
  mesh (force loop and split/collapse rounds), counted by wrapping
  ``meshpass.mesh.Delaunay``;
- ``seconds``: the wall time of every ``generate_mesh`` call of the line.

Failed meshes count only in ``failed``, ``delaunay`` and ``seconds``.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

from meshpass import mesh as M  # noqa: E402
from meshpass.dataset import sample_scenarios  # noqa: E402


def triangle_quality(mesh):
    """4*sqrt(3)*A / (sum of squared sides) per triangle: 1 if equilateral."""
    p = mesh.positions[mesh.triangles]
    sides = p - np.roll(p, 1, axis=1)
    return 4 * np.sqrt(3) * mesh.triangle_areas() / (sides**2).sum(axis=(1, 2))


@contextlib.contextmanager
def counted_delaunay():
    """Counts the ``Delaunay`` calls of ``meshpass.mesh`` in a one-item list."""
    count = [0]
    original = M.Delaunay

    def counting(points):
        count[0] += 1
        return original(points)

    M.Delaunay = counting
    try:
        yield count
    finally:
        M.Delaunay = original


def sweep_line(scenarios, edge_min):
    """The printed line of one resolution's meshes."""
    failed = nodes = 0
    worst, lowest_mean = np.inf, np.inf
    seconds = 0.0
    with counted_delaunay() as calls:
        for scenario in scenarios:
            t0 = time.perf_counter()
            try:
                mesh = M.generate_mesh(scenario.domain(), edge_min, seed=scenario.seed)
            except M.MeshGenerationError:
                failed += 1
                continue
            finally:
                seconds += time.perf_counter() - t0
            q = triangle_quality(mesh)
            worst = min(worst, float(q.min()))
            lowest_mean = min(lowest_mean, float(q.mean()))
            nodes += mesh.n_nodes
    return (f"edge_min={edge_min:g} meshes={len(scenarios)} failed={failed} "
            f"worst={worst:.3f} lowest_mean={lowest_mean:.3f} nodes={nodes} "
            f"delaunay={calls[0] / len(scenarios):.1f} seconds={seconds:.2f}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        seed, n = int(argv[0]), int(argv[1])
        resolutions = [float(r) for r in argv[2:]]
    except (IndexError, ValueError):
        resolutions = []
    if not resolutions or n < 1:
        raise SystemExit("usage: python tools/mesh_sweep.py SEED N RES [RES ...]")
    scenarios = sample_scenarios(n, seed)
    for edge_min in resolutions:
        print(sweep_line(scenarios, edge_min), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
