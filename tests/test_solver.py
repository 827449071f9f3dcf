"""Reference solver tests: conservation, convergence, baseline protocol."""

import numpy as np
import pytest

from meshpass import mesh as M
from meshpass import solver as S
from meshpass import training as T

UNIT_SQUARE = M.ChannelDomain(1.0, 1.0)

# Advected-diffused Gaussian with an exact free-space solution; the bump
# stays far enough from the walls that boundary effects are negligible.
GAUSS = dict(center=np.array([0.45, 0.5]), sigma0=0.07, viscosity=0.008,
             velocity=(0.2, 0.0), t_end=0.3)


def gauss_config(n_steps, dt=0.01):
    return S.PdeConfig(UNIT_SQUARE, viscosity=GAUSS["viscosity"],
                       inflow_mean=GAUSS["velocity"][0], dt=dt, n_steps=n_steps)


def all_wall(mesh):
    return M.TriMesh(mesh.positions, mesh.triangles,
                     np.full(mesh.n_nodes, M.KIND_WALL), mesh.edge_min, mesh.edge_max)


class TestPotentialFlow:
    def test_uniform_without_obstacle(self):
        v = S.potential_flow_velocity(UNIT_SQUARE, [[0.3, 0.4]], 2.0)
        np.testing.assert_array_equal(v, [[2.0, 0.0]])

    def test_no_normal_flow_on_obstacle(self):
        domain = M.ChannelDomain(1.0, 0.4, (0.275, 0.25), 0.05)
        th = np.linspace(0, 2 * np.pi, 50, endpoint=False)
        pts = np.column_stack([
            0.275 + 0.05 * np.cos(th), 0.25 + 0.05 * np.sin(th)
        ])
        v = S.potential_flow_velocity(domain, pts, 1.5)
        normal = np.column_stack([np.cos(th), np.sin(th)])
        flux = (v * normal).sum(axis=1)
        assert np.abs(flux).max() < 1e-12

    def test_far_field_recovers_freestream(self):
        domain = M.ChannelDomain(10.0, 10.0, (5.0, 5.0), 0.05)
        v = S.potential_flow_velocity(domain, [[9.9, 9.9]], 1.0)
        np.testing.assert_allclose(v, [[1.0, 0.0]], atol=1e-4)


class TestPdeConfig:
    @pytest.mark.parametrize("dt,n_steps,message", [
        (0.0, 2, "dt must be positive, got 0.0"),
        (-0.01, 2, "dt must be positive, got -0.01"),
        (0.01, -1, "n_steps must be >= 0, got -1"),
    ])
    def test_bad_time_grid_names_key_and_value(self, dt, n_steps, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            S.PdeConfig(UNIT_SQUARE, dt=dt, n_steps=n_steps)


class TestSimulate:
    def test_zero_velocity_zero_diffusivity_constant(self):
        mesh = M.generate_mesh(UNIT_SQUARE, 0.1)
        cfg = S.PdeConfig(UNIT_SQUARE, viscosity=0.0, inflow_mean=0.0,
                          dt=0.01, n_steps=25)
        u0 = np.random.default_rng(0).normal(size=mesh.n_nodes)
        traj = S.simulate(mesh, cfg, u0)
        assert np.array_equal(traj.fields[-1, :, 0], u0)

    def test_frame_count(self):
        mesh = M.generate_mesh(UNIT_SQUARE, 0.2)
        cfg = gauss_config(7)
        traj = S.simulate(mesh, cfg, np.zeros(mesh.n_nodes))
        assert traj.n_frames == 8

    def test_nonfinite_initial_rejected(self):
        mesh = M.generate_mesh(UNIT_SQUARE, 0.2)
        bad = np.zeros(mesh.n_nodes)
        bad[0] = np.nan
        with pytest.raises(S.SimulationError):
            S.simulate(mesh, gauss_config(1), bad)

    def test_mass_conservation_no_flux(self):
        # Pure diffusion with natural boundaries conserves the lumped-mass
        # integral exactly (column sums of the stiffness matrix vanish).
        mesh = all_wall(M.generate_mesh(UNIT_SQUARE, 0.08))
        cfg = S.PdeConfig(UNIT_SQUARE, viscosity=0.01, inflow_mean=0.0,
                          dt=0.01, n_steps=100)
        u0 = np.random.default_rng(0).uniform(0, 1, mesh.n_nodes)
        traj = S.simulate(mesh, cfg, u0)
        stepper = S.FrameStepper(mesh, cfg)
        m0 = np.sum(stepper.lumped_mass * traj.fields[0, :, 0])
        m1 = np.sum(stepper.lumped_mass * traj.fields[-1, :, 0])
        assert abs(m1 - m0) <= 1e-10 * abs(m0)

    def test_discrete_maximum_principle_pure_diffusion(self):
        mesh = all_wall(M.generate_mesh(UNIT_SQUARE, 0.1))
        cfg = S.PdeConfig(UNIT_SQUARE, viscosity=0.02, inflow_mean=0.0,
                          dt=0.01, n_steps=50)
        u0 = np.random.default_rng(1).uniform(-1, 2, mesh.n_nodes)
        traj = S.simulate(mesh, cfg, u0)
        for t in range(traj.n_frames - 1):
            prev = traj.fields[t, :, 0]
            nxt = traj.fields[t + 1, :, 0]
            assert nxt.min() >= prev.min() - 1e-10
            assert nxt.max() <= prev.max() + 1e-10

    def test_step_matches_reference_substep_loop(self):
        # The substep loop as first written: a boolean Dirichlet mask and
        # dt_sub / lumped mass formed inside the loop, lumped mass by np.add.at,
        # and the public ``operator @ u`` that step's CSR kernel call replaces.
        # Inputs: the obstacle domain holding the initial inflow values, and
        # an obstacle-free channel whose Dirichlet data differ from u.
        rng = np.random.default_rng(2)
        obstacle = M.ChannelDomain(1.0, 0.4, (0.275, 0.25), 0.05)
        open_channel = M.ChannelDomain(1.0, 0.4)
        for domain, edge_min, inflow_mean, own_bc in ((obstacle, 1e-2, 0.85, True),
                                                      (open_channel, 2e-2, 3.0, False)):
            mesh = M.generate_mesh(domain, edge_min)
            cfg = S.PdeConfig(domain, viscosity=1e-3, inflow_mean=inflow_mean, dt=0.01,
                              n_steps=3)
            stepper = S.FrameStepper(mesh, cfg)
            lumped = np.zeros(mesh.n_nodes)
            area = mesh.triangle_areas()
            np.add.at(lumped, mesh.triangles.ravel(), np.repeat(area / 3.0, 3))
            assert stepper.lumped_mass.tobytes() == lumped.tobytes()
            inflow = mesh.node_kind == M.KIND_INFLOW
            inv_m = 1.0 / lumped
            u0 = rng.uniform(0.0, 1.0, mesh.n_nodes)
            bc = u0 if own_bc else rng.uniform(2.0, 3.0, mesh.n_nodes)
            u_ref = u_new = u0
            for _ in range(3):
                u = u_ref.copy()
                for _ in range(stepper.n_substeps):
                    u -= stepper.dt_sub * inv_m * (stepper.operator @ u)
                    u[inflow] = bc[inflow]
                u_ref = u
                u_new = stepper.step(u_new, bc)
                assert u_new.tobytes() == u_ref.tobytes()
            assert stepper.n_substeps > 1 and inflow.any()

    def test_step_rejects_state_of_other_length(self):
        # step's CSR kernel reads u unchecked, so the length is checked first.
        mesh = M.generate_mesh(UNIT_SQUARE, 0.2)
        stepper = S.FrameStepper(mesh, gauss_config(1))
        for u in (np.zeros(mesh.n_nodes - 1), np.zeros((mesh.n_nodes, 1))):
            with pytest.raises(S.SimulationError, match=f"the mesh has {mesh.n_nodes} nodes"):
                stepper.step(u)

    def test_dirichlet_inflow_held(self):
        domain = M.ChannelDomain(1.0, 0.4, (0.275, 0.25), 0.05)
        mesh = M.generate_mesh(domain, 1.5e-2)
        cfg = S.PdeConfig(domain, viscosity=1e-3, inflow_mean=1.0, dt=0.01, n_steps=10)
        rng = np.random.default_rng(2)
        u0 = rng.normal(size=mesh.n_nodes)
        traj = S.simulate(mesh, cfg, u0)
        inflow = mesh.node_kind == M.KIND_INFLOW
        for t in range(traj.n_frames):
            np.testing.assert_array_equal(traj.fields[t, inflow, 0], u0[inflow])

    def test_substeps_respect_cfl(self):
        mesh = M.generate_mesh(UNIT_SQUARE, 0.05)
        cfg = S.PdeConfig(UNIT_SQUARE, viscosity=0.05, inflow_mean=1.0,
                          dt=0.1, n_steps=1)
        stepper = S.FrameStepper(mesh, cfg)
        assert stepper.n_substeps > 1
        assert stepper.dt_sub * stepper.n_substeps == pytest.approx(0.1)


class _Doubling:
    """Doubles its state; logs every (u, bc_values) pair it is given."""

    def __init__(self):
        self.calls = []

    def step(self, u, bc_values):
        self.calls.append((u.copy(), bc_values))
        return 2.0 * u


class TestUnroll:
    def test_frames_times_and_held_boundary_values(self):
        stepper = _Doubling()
        initial = np.array([1.0, -0.5, 3.0])
        frames, seconds = S.unroll(stepper, initial, 4)
        assert frames.shape == (5, 3) and seconds.shape == (4,)
        assert np.all(seconds >= 0.0)
        for t, frame in enumerate(frames):
            assert np.array_equal(frame, 2.0**t * initial)
        for t, (u, bc) in enumerate(stepper.calls):
            assert np.array_equal(u, frames[t]) and bc is initial

    def test_solver_frames_match_step_loop_bytes(self):
        domain = M.ChannelDomain(1.0, 0.4, (0.275, 0.25), 0.05)
        mesh = M.generate_mesh(domain, 2e-2)
        stepper = S.FrameStepper(mesh, S.PdeConfig(domain, n_steps=5))
        u0 = np.random.default_rng(3).uniform(0.0, 1.0, mesh.n_nodes)
        frames, _ = S.unroll(stepper, u0, 5)
        u = u0
        for frame in frames[1:]:
            u = stepper.step(u, u0)
            assert frame.tobytes() == u.tobytes()

    def test_first_non_finite_step_named(self):
        # 1e308 / 4 doubles to inf at the third step.
        with np.errstate(over="ignore"), pytest.raises(
                S.SimulationError, match="non-finite state at step 3"):
            S.unroll(_Doubling(), np.array([0.0, 1e308 / 4]), 6)

    def test_zero_steps(self):
        frames, seconds = S.unroll(_Doubling(), np.ones(2), 0)
        assert frames.shape == (1, 2) and seconds.shape == (0,)


class TestAnalyticConvergence:
    def test_gaussian_l2_error_order(self):
        errs = []
        for em in (0.1, 0.05, 0.025):
            mesh = M.generate_mesh(UNIT_SQUARE, em)
            cfg = gauss_config(int(GAUSS["t_end"] / 0.01))
            u0 = S.gaussian_solution(mesh.positions, 0.0, GAUSS["center"],
                                     GAUSS["sigma0"], GAUSS["viscosity"],
                                     GAUSS["velocity"])
            traj = S.simulate(mesh, cfg, u0)
            exact = S.gaussian_solution(mesh.positions, GAUSS["t_end"],
                                        GAUSS["center"], GAUSS["sigma0"],
                                        GAUSS["viscosity"], GAUSS["velocity"])
            w = S.FrameStepper(mesh, cfg).lumped_mass
            errs.append(np.sqrt(np.sum(w * (traj.fields[-1, :, 0] - exact) ** 2)))
        errs = np.array(errs)
        assert np.all(errs[1:] < errs[:-1])
        order = np.polyfit(np.log([0.1, 0.05, 0.025]), np.log(errs), 1)[0]
        assert order >= 1.5

    def test_refinement_consistency_cauchy(self):
        # Solutions on nested resolutions approach each other in L2.
        resolutions = (0.1, 0.05, 0.025)
        cfg = gauss_config(20)
        sols = {}
        for em in resolutions:
            mesh = M.generate_mesh(UNIT_SQUARE, em)
            u0 = S.gaussian_solution(mesh.positions, 0.0, GAUSS["center"],
                                     GAUSS["sigma0"], GAUSS["viscosity"],
                                     GAUSS["velocity"])
            sols[em] = (mesh, S.simulate(mesh, cfg, u0))
        coarse_mesh, _ = sols[0.1]
        gaps = []
        for a, b in ((0.1, 0.05), (0.05, 0.025)):
            fa = sols[a][1].fields[-1, :, 0]
            fb = M.interpolate_field(sols[b][0], sols[b][1].fields[-1, :, 0],
                                     sols[a][0].positions)
            gaps.append(np.sqrt(np.mean((fa - fb) ** 2)))
        assert gaps[1] < gaps[0]


class TestConvergenceBaseline:
    """The classical baseline as ``eval --solver`` computes it: ``evaluate``
    with a FrameStepper factory, against a reference simulated on the
    finest mesh (seed 0)."""

    def next_step_mse(self, cfg, resolutions):
        initial_fn = lambda pts: S.gaussian_solution(
            pts, 0.0, GAUSS["center"], GAUSS["sigma0"], GAUSS["viscosity"],
            GAUSS["velocity"],
        )
        meshes = [M.generate_mesh(UNIT_SQUARE, r, seed=0) for r in resolutions]
        ref = S.simulate(meshes[-1], cfg, initial_fn(meshes[-1].positions))
        report = T.evaluate(lambda m: S.FrameStepper(m, cfg), meshes, ref, model="solver")
        return [row.next_step_mse for row in report.rows]

    def test_monotone_decreasing_with_margin(self):
        errs = self.next_step_mse(gauss_config(10), [0.1, 0.05, 0.025])
        assert errs[1] <= errs[0] / 1.3
        assert errs[2] <= errs[1] / 1.3

    def test_finest_resolution_is_minimum(self):
        errs = self.next_step_mse(gauss_config(8), [0.1, 0.05, 0.025])
        assert np.argmin(errs) == len(errs) - 1

    def test_identical_resolutions_identical_errors(self):
        errs = self.next_step_mse(gauss_config(5), [0.05, 0.05])
        assert errs[0] == errs[1]


class TestTrajectoryIO:
    def test_roundtrip_with_mesh_hash(self, tmp_path):
        mesh = M.generate_mesh(UNIT_SQUARE, 0.2)
        traj = S.simulate(mesh, gauss_config(3),
                          np.random.default_rng(0).normal(size=mesh.n_nodes))
        path = tmp_path / "t.bin"
        S.save_trajectory(traj, path)
        loaded = S.load_trajectory(path, mesh)
        assert loaded.mesh is mesh
        assert np.array_equal(loaded.fields, traj.fields)
        assert loaded.dt == traj.dt
        with pytest.raises(S.SimulationError, match="mesh hash"):
            S.load_trajectory(path, M.generate_mesh(UNIT_SQUARE, 0.25))

    def test_wrong_mesh_rejected(self, tmp_path):
        mesh = M.generate_mesh(UNIT_SQUARE, 0.2)
        other = M.generate_mesh(UNIT_SQUARE, 0.25)
        traj = S.simulate(mesh, gauss_config(2), np.zeros(mesh.n_nodes))
        path = tmp_path / "t.bin"
        S.save_trajectory(traj, path)
        with pytest.raises(S.SimulationError):
            S.load_trajectory(path, other)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"garbage!" * 10)
        with pytest.raises(S.SimulationError):
            S.load_trajectory(path)

    @pytest.fixture()
    def saved(self, tmp_path):
        mesh = M.generate_mesh(UNIT_SQUARE, 0.2)
        traj = S.simulate(mesh, gauss_config(2), np.zeros(mesh.n_nodes))
        path = tmp_path / "t.bin"
        S.save_trajectory(traj, path)
        return path

    @pytest.mark.parametrize("keep", [-5, 50], ids=["short_by_5", "cut_to_50"])
    def test_truncated_file_names_path(self, saved, keep):
        data = saved.read_bytes()
        saved.write_bytes(data[:keep])
        with pytest.raises(S.SimulationError, match="bytes") as err:
            S.load_trajectory(saved)
        assert str(saved) in str(err.value)

    def test_nan_frame_rejected(self, saved):
        data = bytearray(saved.read_bytes())
        data[-8:] = np.array([np.nan], dtype="<f8").tobytes()
        saved.write_bytes(bytes(data))
        with pytest.raises(S.SimulationError, match="non-finite values in frame 2") as err:
            S.load_trajectory(saved)
        assert str(saved) in str(err.value)
