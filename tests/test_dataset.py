"""Scenario sampling, label construction, and dataset I/O tests."""

import dataclasses

import numpy as np
import pytest
from scipy import stats

from meshpass import dataset as D
from meshpass import mesh as M
from meshpass import solver as S

TOY = dict(center=np.array([0.45, 0.5]), sigma0=0.08, viscosity=0.004,
           velocity=(0.3, 0.0))


def toy_initial_fn():
    return lambda pts: S.gaussian_solution(
        pts, 0.0, TOY["center"], TOY["sigma0"], TOY["viscosity"], TOY["velocity"]
    )


def small_scenario(edge_min=8e-3, seed=3):
    return D.ScenarioParams(0.05, (0.275, 0.25), 1.5, edge_min, seed)


def load_samples(root, scenario, refinement=None, n_steps=3):
    """Samples as training gets them: generated, written and loaded."""
    mesh, traj, labels = D.simulate_scenario(scenario, refinement, n_steps=n_steps)
    D.write_scenario_dir(root, 0, scenario, mesh, traj, labels)
    return D.load_dataset(root)


class TestSampleScenarios:
    def test_draws_satisfy_invariants(self):
        for s in D.sample_scenarios(200, seed=0):
            assert D.RADIUS_RANGE[0] <= s.radius <= D.RADIUS_RANGE[1]
            assert D.CENTER_X_RANGE[0] <= s.center[0] <= D.CENTER_X_RANGE[1]
            assert D.CENTER_Y_RANGE[0] <= s.center[1] <= D.CENTER_Y_RANGE[1]
            assert D.U_MEAN_RANGE[0] <= s.inflow_mean <= D.U_MEAN_RANGE[1]
            assert D.EDGE_MIN_RANGE[0] <= s.edge_min <= D.EDGE_MIN_RANGE[1]

    def test_fixed_seed_identical(self):
        a = D.sample_scenarios(20, seed=42)
        b = D.sample_scenarios(20, seed=42)
        assert a == b

    def test_different_seed_differs(self):
        assert D.sample_scenarios(5, seed=0) != D.sample_scenarios(5, seed=1)

    def test_edge_min_log_uniform_chi_squared(self):
        # Flat histogram in log space at the 5% significance level.
        draws = np.array([s.edge_min for s in D.sample_scenarios(10_000, seed=7)])
        logs = np.log(draws)
        k = 20
        counts, _ = np.histogram(logs, bins=k,
                                 range=(np.log(1e-3), np.log(1e-2)))
        expected = len(draws) / k
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < stats.chi2.ppf(0.95, k - 1)


class TestNativeDataset:
    def test_pair_count_and_bit_exact_labels(self, tmp_path):
        scen = small_scenario()
        samples = load_samples(tmp_path, scen, n_steps=6)
        assert len(samples) == 6
        fine, traj, _ = D.simulate_scenario(scen, n_steps=6)
        for t, s in enumerate(samples):
            assert np.array_equal(s.inputs, traj.fields[t])
            assert np.array_equal(s.targets, traj.fields[t + 1])
            assert s.provenance == "native"

    def test_sample_shapes_consistent(self, tmp_path):
        samples = load_samples(tmp_path, small_scenario(), n_steps=3)
        for s in samples:
            assert s.inputs.shape == (s.fine_mesh.n_nodes, 1)
            assert s.targets.shape == (s.fine_mesh.n_nodes, 1)
            assert np.all(np.isfinite(s.inputs))
            assert np.all(np.isfinite(s.targets))


class TestHighAccuracyDataset:
    def test_refinement_below_two_rejected(self):
        with pytest.raises(ValueError):
            D.simulate_scenario(small_scenario(), refinement=1, n_steps=2)

    @pytest.mark.parametrize("refinement", [float("nan"), 2.5, float("inf")])
    def test_refinement_not_a_whole_number_rejected(self, refinement):
        # NaN used to pass the check and fail later in mesh generation; 2.5
        # used to make a label mesh no subdivision can.
        with pytest.raises(ValueError, match=rf"refine={refinement!r}$"):
            D.simulate_scenario(small_scenario(), refinement=refinement, n_steps=2)

    def test_linear_solution_interpolates_exactly(self):
        # P1 interpolation of a linear-in-space field is exact, so labels on
        # a linear solution match direct evaluation.
        domain = M.ChannelDomain(1.0, 1.0)
        fine = M.generate_mesh(domain, 0.05)
        coarse = M.generate_mesh(domain, 0.1)
        linear = 2.0 * fine.positions[:, 0] - 0.5 * fine.positions[:, 1]
        vals = M.interpolate_field(fine, linear, coarse.positions)
        direct = 2.0 * coarse.positions[:, 0] - 0.5 * coarse.positions[:, 1]
        np.testing.assert_allclose(vals, direct, atol=1e-12)

    def test_labels_closer_to_analytic_than_coarse_solver(self):
        # The premise of training on refined labels: at every step the
        # interpolated fine solution beats the coarse solver's own state.
        domain = M.ChannelDomain(1.0, 1.0)
        n_steps = 20
        cfg = S.PdeConfig(domain, viscosity=TOY["viscosity"],
                          inflow_mean=TOY["velocity"][0], dt=0.01,
                          n_steps=n_steps)
        edge_min = 0.05
        mesh = M.generate_mesh(domain, edge_min, seed=0)
        ha_traj = D.high_accuracy_trajectory(mesh, cfg, 4, initial_fn=toy_initial_fn())
        own_traj = S.simulate(mesh, cfg, toy_initial_fn()(mesh.positions))
        for t in range(1, n_steps + 1):
            exact = S.gaussian_solution(mesh.positions, t * cfg.dt, TOY["center"],
                                        TOY["sigma0"], TOY["viscosity"],
                                        TOY["velocity"])
            err_ha = np.sqrt(np.mean((ha_traj.fields[t, :, 0] - exact) ** 2))
            err_own = np.sqrt(np.mean((own_traj.fields[t, :, 0] - exact) ** 2))
            assert err_ha < err_own

    def test_provenance_tag(self, tmp_path):
        samples = load_samples(tmp_path, small_scenario(edge_min=9e-3),
                               refinement=2, n_steps=2)
        assert all(s.provenance == "high_accuracy" for s in samples)


class TestFixedObstacleTestset:
    def test_meshes_share_geometry_and_finest_is_reference(self):
        meshes, ref_traj, config = D.fixed_obstacle_testset(
            resolutions=[2e-2, 1.4e-2, 1e-2], n_steps=3
        )
        assert len(meshes) == 3
        assert S.mesh_digest(ref_traj.mesh) == S.mesh_digest(meshes[-1])
        for mesh in meshes:
            obs = mesh.node_kind == M.KIND_OBSTACLE
            cx, cy = D.TEST_DOMAIN.obstacle_center
            r = np.hypot(mesh.positions[obs, 0] - cx, mesh.positions[obs, 1] - cy)
            np.testing.assert_allclose(r, D.TEST_DOMAIN.obstacle_radius, rtol=1e-9)
        assert config.domain == D.TEST_DOMAIN
        assert config.inflow_mean == D.TEST_U_MEAN

    def test_node_count_grows_as_edge_min_shrinks(self):
        meshes, _, _ = D.fixed_obstacle_testset(
            resolutions=[2e-2, 1.2e-2, 8e-3], n_steps=1
        )
        counts = [m.n_nodes for m in meshes]
        assert counts == sorted(counts)

    def test_sampled_resolutions_in_range(self):
        meshes, _, _ = D.fixed_obstacle_testset(
            n_resolutions=3, seed=1, n_steps=1, edge_min_range=(8e-3, 1.5e-2)
        )
        for m in meshes:
            assert 8e-3 <= m.edge_min <= 1.5e-2


class TestDatasetIO:
    def test_scenario_dir_roundtrip(self, tmp_path):
        scen = small_scenario()
        fine, traj, _ = D.simulate_scenario(scen, n_steps=4)
        D.write_scenario_dir(tmp_path, 0, scen, fine, traj)
        loaded_scen, mesh, loaded_traj, ha, meta = D.read_scenario_dir(
            tmp_path / "scenario_0000"
        )
        assert loaded_scen == scen
        assert np.array_equal(mesh.positions, fine.positions)
        assert np.array_equal(loaded_traj.fields, traj.fields)
        assert ha is None
        assert meta["provenance"] == "native"

    @pytest.mark.parametrize("meta,named", [
        ({"edge_min": 9e-3}, "edge_min is 0.009 in the meta, 0.008 in the mesh sizing"),
        ({"radius": 0.04}, "from the meta's center (0.275, 0.25), off its radius 0.04"),
        ({"radius": 0.0}, "radius 0.0 makes no obstacle, and the mesh has "),
        (None, "radius 0.05 makes an obstacle, and the mesh has 0 "),
    ], ids=["edge_min", "radius", "meta_without_obstacle", "mesh_without_obstacle"])
    def test_meta_that_disagrees_with_mesh_rejected(self, tmp_path, meta, named):
        # meta None: the meta's scenario as generated, with an obstacle-free mesh.
        scen = small_scenario()
        fine, traj, _ = D.simulate_scenario(scen, n_steps=1)
        if meta is None:
            channel = M.ChannelDomain(D.CHANNEL_LENGTH, D.CHANNEL_HEIGHT)
            fine = M.generate_mesh(channel, scen.edge_min, seed=scen.seed)
            traj = S.simulate(fine, S.PdeConfig(channel, n_steps=1), np.zeros(fine.n_nodes))
        else:
            scen = dataclasses.replace(scen, **meta)
        d = D.write_scenario_dir(tmp_path, 0, scen, fine, traj)
        with pytest.raises(ValueError) as info:
            D.read_scenario_dir(d)
        message = str(info.value)
        assert message.startswith(f"{d}/meta disagrees with {d}/mesh.msh: ")
        assert named in message

    @pytest.mark.parametrize("kind,name,axis", [
        (M.KIND_WALL, "wall", 1),
        (M.KIND_INFLOW, "inflow", 0),
        (M.KIND_OUTFLOW, "outflow", 0),
    ], ids=["wall", "inflow", "outflow"])
    def test_boundary_node_off_the_meta_rectangle_rejected(self, tmp_path, kind, name, axis):
        # The generator snaps these nodes exactly onto their side; one moved
        # by 1e-3 makes a mesh of another rectangle than the meta's.
        scen = small_scenario()
        fine, traj, _ = D.simulate_scenario(scen, n_steps=1)
        pos = fine.positions.copy()
        node = np.flatnonzero(fine.node_kind == kind)[0]
        pos[node, axis] += 1e-3 if pos[node, axis] == 0.0 else -1e-3
        moved = M.TriMesh(pos, fine.triangles, fine.node_kind, fine.edge_min, fine.edge_max)
        d = D.write_scenario_dir(tmp_path, 0, scen, moved, traj)
        with pytest.raises(ValueError) as info:
            D.read_scenario_dir(d)
        message = str(info.value)
        assert message.startswith(f"{d}/meta disagrees with {d}/mesh.msh: ")
        assert f"{name} node {node} lies at {'xy'[axis]} = {float(pos[node, axis])!r}, off" in message

    @pytest.mark.parametrize("labels,provenance,state", [
        (False, "high_accuracy", "missing"),
        (True, "native", "present"),
    ], ids=["missing", "stray"])
    def test_labels_file_that_disagrees_with_provenance_rejected(self, tmp_path, labels,
                                                                 provenance, state):
        # A stray or missing labels_ha.bin used to switch the labels silently.
        scen = small_scenario()
        fine, traj, _ = D.simulate_scenario(scen, n_steps=1)
        d = D.write_scenario_dir(tmp_path, 0, scen, fine, traj, traj if labels else None,
                                 extra_meta={"provenance": provenance})
        with pytest.raises(ValueError) as info:
            D.read_scenario_dir(d)
        assert str(info.value) == (f"{d}/meta disagrees with {d}/labels_ha.bin: the meta's "
                                   f"provenance is {provenance!r}, and the labels file is {state}")

    def test_write_is_byte_deterministic(self, tmp_path):
        scen = small_scenario()
        fine, traj, _ = D.simulate_scenario(scen, n_steps=2)
        d1 = D.write_scenario_dir(tmp_path / "a", 0, scen, fine, traj)
        d2 = D.write_scenario_dir(tmp_path / "b", 0, scen, fine, traj)
        import os

        for name in ("mesh.msh", "trajectory.bin", "meta"):
            with open(os.path.join(d1, name), "rb") as f1, \
                    open(os.path.join(d2, name), "rb") as f2:
                assert f1.read() == f2.read()

    def test_load_dataset_builds_samples(self, tmp_path):
        scen = small_scenario()
        fine, traj, _ = D.simulate_scenario(scen, n_steps=3)
        D.write_scenario_dir(tmp_path, 0, scen, fine, traj)
        samples = D.load_dataset(tmp_path)
        assert len(samples) == 3
        assert samples[0].fine_mesh.n_nodes == fine.n_nodes
        assert samples[0].coarse_mesh is not None
