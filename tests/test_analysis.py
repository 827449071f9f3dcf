"""Graph-spectral analysis, timing, and curve-assembly tests."""

import os
import subprocess
import sys

import numpy as np
import pytest

from meshpass import analysis as A
from meshpass import mesh as M
from meshpass import processor as P
from meshpass import solver as S
from meshpass import training as T
from meshpass.processor import ModelParams


def path3_mesh():
    # Degenerate "mesh" used only for its graph: a path 0-1-2.
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    tris = np.array([[0, 1, 3], [1, 2, 3]])
    kinds = np.zeros(4, dtype=np.int64)
    return M.TriMesh(pos, tris, kinds, 1.0, 5.0)


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def test_importing_the_cli_leaves_csgraph_out():
    # Only fine_graph_distances needs scipy.sparse.csgraph; every command
    # used to import it.
    code = "import sys, meshpass.cli; print('scipy.sparse.csgraph' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.split() == ["False"]


def test_fine_graph_distances_are_hops():
    dist = A.fine_graph_distances(path3_mesh())
    assert dist[0].tolist() == [0.0, 1.0, 2.0, 1.0]


@pytest.fixture(scope="module")
def channel_mesh():
    return M.generate_mesh(M.ChannelDomain(1.0, 0.4, (0.275, 0.25), 0.05), 1.3e-2)


class TestLaplacian:
    def test_path_of_three_eigenvalues(self):
        lap = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        basis = A.spectral_basis(lap)
        np.testing.assert_allclose(basis.eigenvalues, [0.0, 1.0, 3.0], atol=1e-10)

    def test_mesh_laplacian_rows_sum_zero(self, channel_mesh):
        lap = A.graph_laplacian(channel_mesh)
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(lap, lap.T, atol=0.0)

    def test_positive_semidefinite(self, channel_mesh):
        basis = A.spectral_basis(A.graph_laplacian(channel_mesh))
        assert basis.eigenvalues.min() >= -1e-10

    def test_lambda1_zero_constant_eigenvector(self, channel_mesh):
        basis = A.spectral_basis(A.graph_laplacian(channel_mesh))
        assert abs(basis.eigenvalues[0]) <= 1e-10
        v = basis.eigenvectors[:, 0]
        assert np.abs(v - v[0]).max() < 1e-8

    def test_connected_mesh_lambda2_positive(self, channel_mesh):
        basis = A.spectral_basis(A.graph_laplacian(channel_mesh))
        assert basis.eigenvalues[1] > 1e-8

    def test_eigendecomposition_residual(self, channel_mesh):
        lap = A.graph_laplacian(channel_mesh)
        basis = A.spectral_basis(lap)
        norm = np.linalg.norm(lap, 2)
        res = lap @ basis.eigenvectors - basis.eigenvectors * basis.eigenvalues
        assert np.abs(res).max() <= 1e-8 * norm

    def test_cap_enforced(self):
        with pytest.raises(A.AnalysisError):
            A.spectral_basis(np.eye(10), cap=5)


class TestSpectrum:
    def test_constant_signal_all_power_at_lambda1(self, channel_mesh):
        basis = A.spectral_basis(A.graph_laplacian(channel_mesh))
        spec = A.gft_spectrum(basis, np.full(channel_mesh.n_nodes, 3.3))
        assert spec.power[0] >= (1.0 - 1e-10) * spec.total

    def test_eigenvector_signal_one_hot(self, channel_mesh):
        basis = A.spectral_basis(A.graph_laplacian(channel_mesh))
        k = 7
        spec = A.gft_spectrum(basis, basis.eigenvectors[:, k])
        assert spec.power[k] == pytest.approx(1.0, rel=1e-10)
        others = np.delete(spec.power, k)
        assert others.max() < 1e-16

    def test_parseval(self, channel_mesh):
        basis = A.spectral_basis(A.graph_laplacian(channel_mesh))
        rng = np.random.default_rng(0)
        signal = rng.normal(size=channel_mesh.n_nodes)
        spec = A.gft_spectrum(basis, signal)
        assert spec.total == pytest.approx(np.sum(signal**2), rel=1e-10)

    def test_vector_signal_parseval(self, channel_mesh):
        basis = A.spectral_basis(A.graph_laplacian(channel_mesh))
        signal = np.random.default_rng(1).normal(size=(channel_mesh.n_nodes, 2))
        spec = A.gft_spectrum(basis, signal)
        assert spec.total == pytest.approx(np.sum(signal**2), rel=1e-10)

    def test_identical_trajectories_zero_spectrum(self, channel_mesh):
        basis = A.spectral_basis(A.graph_laplacian(channel_mesh))
        err = np.zeros(channel_mesh.n_nodes)
        spec = A.gft_spectrum(basis, err)
        assert np.all(spec.power == 0.0)

    def test_csv_schema(self, channel_mesh, tmp_path):
        basis = A.spectral_basis(A.graph_laplacian(channel_mesh))
        spec = A.gft_spectrum(basis, np.ones(channel_mesh.n_nodes))
        path = tmp_path / "spec.csv"
        A.write_spectrum_csv(path, basis, spec)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,lambda_n,power"
        assert len(lines) == channel_mesh.n_nodes + 1


@pytest.fixture(scope="module")
def timed():
    domain = M.ChannelDomain(1.0, 0.4, (0.275, 0.25), 0.05)
    fine = M.generate_mesh(domain, 5e-3)
    coarse = M.generate_mesh(domain, 2.5e-2)
    params = ModelParams("p=1H 1L 1H (U=1,D=1)", 1, 32, 32, seed=0)
    return fine, coarse, A.timing_benchmark(params, fine, coarse, repeats=7)


class TestTiming:

    def test_low_step_cheaper_when_coarse_small(self, timed):
        fine, coarse, row = timed
        assert coarse.n_nodes <= fine.n_nodes / 4
        assert row["L"] < row["H"]

    def test_timing_monotone_in_edge_count(self):
        domain = M.ChannelDomain(1.0, 0.4, (0.275, 0.25), 0.05)
        params = ModelParams("p=1H (U=0,D=0)", 1, 32, 32, seed=0)
        coarse = M.generate_mesh(domain, 2.5e-2)
        rows = []
        for em in (1.2e-2, 5e-3):
            fine = M.generate_mesh(domain, em)
            rows.append(A.timing_benchmark(params, fine, coarse, repeats=7))
        assert rows[0]["fine_edges"] < rows[1]["fine_edges"]
        assert rows[0]["H"] < rows[1]["H"]

    def test_schema_stable(self, timed):
        _, _, row = timed
        for key in ("H", "L", "D", "U", "step", "fine_nodes", "coarse_nodes",
                    "fine_edges", "coarse_edges"):
            assert key in row

    def test_every_block_runs_with_its_own_weights(self, timed, monkeypatch):
        fine, coarse, _ = timed
        params = ModelParams("p=1H 2L 1H (U=1,D=1)", 1, 8, 8, seed=0)
        seen = []
        real = P.update
        monkeypatch.setattr(P, "update", lambda graph, src, dst, edges, block:
                            seen.append(id(block)) or real(graph, src, dst, edges, block))
        A.timing_benchmark(params, fine, coarse, repeats=2)
        # Each repeat runs the schedule, then a whole predict_step.
        assert seen == [id(block) for block in params.blocks] * 4

    def test_single_level_row_has_no_coarse_counts(self, timed):
        fine, _, _ = timed
        row = A.timing_benchmark(ModelParams("p=2H (U=0,D=0)", 1, 8, 8, seed=0), fine, None,
                                 repeats=1)
        assert set(row) == {"H", "step", "fine_nodes", "fine_edges"}


class TestConvergenceCurve:
    def make_rows(self):
        return [
            T.EvalRow(edge_min=0.05, model="model", mps=3, schedule="p=3H (U=0,D=0)",
                      mse1=0.5, mse10=0.6, mse50=0.7, sec_per_step=0.1,
                      next_step_mse=0.4),
            T.EvalRow(edge_min=0.1, model="model", mps=3, schedule="p=3H (U=0,D=0)",
                      mse1=1.5, mse10=1.6, mse50=1.7, sec_per_step=0.1,
                      next_step_mse=1.4),
        ]

    def test_merged_sorted_and_baseline_preserved(self, tmp_path):
        baseline = [
            T.EvalRow(edge_min=0.1, model="solver", mps=0, schedule="", mse1=2.0,
                      mse10=2.1, mse50=2.2, sec_per_step=0.01, next_step_mse=0.8),
            T.EvalRow(edge_min=0.05, model="solver", mps=0, schedule="", mse1=0.9,
                      mse10=1.0, mse50=1.1, sec_per_step=0.01, next_step_mse=0.3),
        ]
        merged = A.convergence_curve(self.make_rows(), baseline)
        assert [r["edge_min"] for r in merged] == sorted(r["edge_min"] for r in merged)
        base_rows = [r for r in merged if r["source"] == "solver_baseline"]
        assert {r["edge_min"]: r["mse1"] for r in base_rows} == {0.1: 2.0, 0.05: 0.9}
        assert {r["edge_min"]: r["next_step_mse"] for r in base_rows} == {0.1: 0.8, 0.05: 0.3}
        path = tmp_path / "curve.csv"
        A.write_curve_csv(path, merged)
        assert path.read_text().splitlines()[0] == (
            "edge_min,source,mps,schedule,mse1,next_step_mse"
        )

    def test_baseline_slope_negative(self):
        # log-log slope of the real solver baseline (evaluate with a
        # FrameStepper factory, as ``eval --solver``) on the toy problem.
        domain = M.ChannelDomain(1.0, 1.0)
        cfg = S.PdeConfig(domain, viscosity=0.008, inflow_mean=0.2, dt=0.01, n_steps=6)
        meshes = [M.generate_mesh(domain, r, seed=0) for r in [0.1, 0.05, 0.025, 0.02]]
        initial = S.gaussian_solution(meshes[-1].positions, 0.0, np.array([0.45, 0.5]),
                                      0.07, 0.008, (0.2, 0.0))
        ref = S.simulate(meshes[-1], cfg, initial)
        rows = T.evaluate(lambda m: S.FrameStepper(m, cfg), meshes, ref, model="solver").rows
        # the last resolution only provides the reference (its own error is
        # zero by self-comparison), so the slope is fitted over the others
        x = np.log([r.edge_min for r in rows[:-1]])
        y = np.log([r.next_step_mse for r in rows[:-1]])
        slope = np.polyfit(x, y, 1)[0]
        assert slope > 0  # mse shrinks with edge_min: positive slope in (h, err)
