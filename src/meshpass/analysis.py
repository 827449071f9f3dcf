"""Graph-spectral error analysis, receptive-field probes, and timing.

The graph Fourier transform expands per-node signals in eigenvectors of
the combinatorial Laplacian of the mesh graph (L = degree - adjacency).
Eigenvalues are ascending, so low indices correspond to slowly varying
signals; a constant signal loads entirely on the first eigenvalue.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import graphs, nn
from .graphs import as_field_matrix
from .records import write_csv
from .processor import (
    StaticLatents,
    forward_normalized_delta,
    high_res_update,
    low_res_update,
    downsample_update,
    upsample_update,
)

DEFAULT_EIG_CAP = 4000


class AnalysisError(RuntimeError):
    pass


def graph_laplacian(mesh):
    """Dense combinatorial Laplacian of the mesh graph."""
    i, j = mesh.undirected_edges().T
    lap = np.zeros((mesh.n_nodes, mesh.n_nodes))
    np.add.at(lap, (np.concatenate([i, j, i, j]), np.concatenate([j, i, i, j])),
              np.repeat([-1.0, -1.0, 1.0, 1.0], len(i)))
    return lap


@dataclass
class SpectralBasis:
    """Ascending eigenvalues and orthonormal eigenvectors (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self):
        return self.eigenvalues.shape[0]


def spectral_basis(lap, cap=DEFAULT_EIG_CAP):
    lap = np.asarray(lap, dtype=np.float64)
    if lap.shape[0] > cap:
        raise AnalysisError(
            f"mesh has {lap.shape[0]} nodes, above the dense-eigensolver cap {cap}"
        )
    vals, vecs = np.linalg.eigh(lap)
    return SpectralBasis(vals, vecs)


@dataclass
class PowerSpectrum:
    power: np.ndarray

    @property
    def total(self):
        return float(self.power.sum())


def gft_spectrum(basis, signal):
    """Squared graph-Fourier coefficients; vector signals are analysed per
    component and the powers summed (Parseval: total equals ||signal||^2)."""
    signal = as_field_matrix(signal)
    if signal.shape[0] != basis.n:
        raise AnalysisError("signal length does not match basis size")
    coeffs = basis.eigenvectors.T @ signal
    return PowerSpectrum((coeffs**2).sum(axis=1))


def write_spectrum_csv(path, basis, spectrum):
    write_csv(path, ("n", "lambda_n", "power"),
              ((i, lam, p) for i, (lam, p) in
               enumerate(zip(basis.eigenvalues, spectrum.power), start=1)))


def fine_graph_distances(mesh):
    """Hop distances between all node pairs of the mesh graph."""
    # Imported here: only the receptive-field code needs csgraph, so no
    # command pays for importing it.
    from scipy.sparse.csgraph import shortest_path

    edges = mesh.undirected_edges()
    n = mesh.n_nodes
    adj = sp.csr_matrix(
        (np.ones(2 * edges.shape[0]),
         (np.concatenate([edges[:, 0], edges[:, 1]]),
          np.concatenate([edges[:, 1], edges[:, 0]]))),
        shape=(n, n),
    )
    return shortest_path(adj, method="D", unweighted=True)


def receptive_field(params, fine_mesh, coarse_mesh, fields=None):
    """Boolean influence mask: entry (i, j) is True when output node i
    depends on the input field at node j (exact reverse-mode Jacobian
    sparsity; dense, so restricted to small meshes)."""
    n = fine_mesh.n_nodes
    if fields is None:
        fields = np.zeros((n, params.field_width))
    fields = as_field_matrix(fields)
    delta, leaf = forward_normalized_delta(params, fine_mesh, coarse_mesh, fields)
    mask = np.zeros((n, n), dtype=bool)
    width = delta.data.shape[1]
    for i in range(n):
        row = np.zeros(n, dtype=bool)
        for c in range(width):
            seed = np.zeros_like(delta.data)
            seed[i, c] = 1.0
            (g,) = nn.backward(delta, seed=seed, wrt=[leaf])
            row |= np.any(g != 0.0, axis=1)
        mask[i] = row
    return mask


def timing_benchmark(params, fine_mesh, coarse_mesh, repeats=5):
    """Median wall time of one update of each step kind with processor
    block 0, run without a tape as in evaluation. Returns a dict kind ->
    seconds (L, D and U only when the schedule has coarse steps), plus the
    mesh and edge counts."""
    block = params.blocks[0]

    def median_time(update, *args):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            update(*args, block)
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    with nn.no_tape():
        static = StaticLatents(params, fine_mesh, coarse_mesh)
        fields = np.zeros((fine_mesh.n_nodes, params.field_width))
        fine = graphs.encode_fine(fine_mesh, params.node_field_normalizer.apply(fields), params)
        row = {
            "H": median_time(high_res_update, static.fine_graph, fine, static.fine_edges),
            "fine_nodes": fine_mesh.n_nodes,
            "coarse_nodes": coarse_mesh.n_nodes,
            "fine_edges": len(static.fine_graph.senders),
        }
        coarse = static.coarse
        if coarse is not None:
            row.update(
                L=median_time(low_res_update, static.coarse_graph, coarse, static.coarse_edges),
                D=median_time(downsample_update, static.down_graph, fine, coarse,
                              static.down_edges),
                U=median_time(upsample_update, static.up_graph, coarse, fine, static.up_edges),
                coarse_edges=len(static.coarse_graph.senders),
            )
    return row


def write_timing_csv(path, rows):
    keys = sorted({k for row in rows for k in row})
    write_csv(path, keys, ([row.get(k, "") for k in keys] for row in rows))


def convergence_curve(eval_rows, baseline_rows):
    """Merge model and solver-baseline ``training.EvalRow`` lists into one table
    sorted by edge_min (for log-log plots); baseline rows get the source
    ``solver_baseline``."""
    merged = [
        {
            "edge_min": r.edge_min,
            "source": source or r.model,
            "mps": r.mps,
            "schedule": r.schedule,
            "mse1": r.mse1,
            "next_step_mse": r.next_step_mse,
        }
        for rows, source in ((eval_rows, None), (baseline_rows, "solver_baseline"))
        for r in rows
    ]
    merged.sort(key=lambda row: (row["edge_min"], row["source"]))
    return merged


def write_curve_csv(path, merged):
    columns = ("edge_min", "source", "mps", "schedule", "mse1", "next_step_mse")
    write_csv(path, columns, ([row[c] for c in columns] for row in merged))
