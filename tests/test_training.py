"""Training loop, rollout, and evaluation pipeline tests."""

import dataclasses
import os
import sys
import threading
import time
import weakref
from collections import Counter

import numpy as np
import pytest

from meshpass import dataset as D
from meshpass import graphs as G
from meshpass import mesh as M
from meshpass import nn
from meshpass import solver as S
from meshpass import training as T
from meshpass.graphs import as_field_matrix
from meshpass.processor import (
    PRESCRIBED_KINDS, ModelParams, forward_normalized_delta, predict_step,
)

UNIT_SQUARE = M.ChannelDomain(1.0, 1.0)
SCHED = "p=1H 2L 1H (U=1,D=1)"


@pytest.fixture(scope="module")
def toy_pair():
    fine = M.generate_mesh(UNIT_SQUARE, 0.1)
    coarse = M.generate_mesh(UNIT_SQUARE, 0.3)
    return fine, coarse


@pytest.fixture(scope="module")
def linear_sample(toy_pair):
    # Linear target map: the next state adds a fixed linear-in-space field.
    fine, coarse = toy_pair
    rng = np.random.default_rng(0)
    inputs = rng.normal(size=(fine.n_nodes, 1))
    delta = (0.5 * fine.positions[:, 0] - 0.2 * fine.positions[:, 1])[:, None]
    return D.Sample(fine, coarse, inputs, inputs + delta, "native", None)


def small_params(seed=0, schedule=SCHED):
    return ModelParams(schedule, 1, latent_size=16, hidden_size=16, seed=seed)


def small_config(steps, seed=0, noise=0.0, **kw):
    return T.TrainConfig(steps=steps, learning_rate=3e-4, seed=seed,
                         noise_std=noise, schedule=SCHED,
                         normalizer_steps=min(20, steps), latent_size=16,
                         hidden_size=16, **kw)


class TestTrain:
    def test_loss_decreases_on_linear_map(self, linear_sample):
        params = small_params()
        history = T.train(params, [linear_sample], small_config(500))
        assert history[500 - 1]["loss"] < history[0]["loss"]
        # trend, not strict monotonicity: late average well below early
        losses = [h["loss"] for h in history]
        assert np.mean(losses[-50:]) < 0.5 * np.mean(losses[:50])

    def test_zero_decoder_loss_equals_target_delta_power(self, linear_sample):
        params = small_params().zero_()
        T.warm_up_normalizers(params, [linear_sample])
        loss = T.training_loss(params, linear_sample)
        target_n = params.output_normalizer.apply(
            linear_sample.targets - linear_sample.inputs
        )
        assert float(loss.data) == pytest.approx(np.mean(target_n**2), rel=1e-12)

    def test_same_seed_identical_checkpoints(self, linear_sample):
        runs = []
        for _ in range(2):
            params = small_params(seed=3)
            T.train(params, [linear_sample], small_config(25, seed=3, noise=0.02))
            runs.append([p.data.copy() for p in params.parameters()])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_resume_reproduces_uninterrupted_run(self, linear_sample, tmp_path):
        cfg = small_config(20, seed=1, noise=0.01)
        full = small_params(seed=1)
        opt_full = nn.Adam(full.parameters(), lr=cfg.learning_rate)
        T.train(full, [linear_sample], cfg, opt_full)

        half = small_params(seed=1)
        opt_half = nn.Adam(half.parameters(), lr=cfg.learning_rate)
        T.train(half, [linear_sample], cfg, opt_half, stop_step=10)
        path = tmp_path / "ck.bin"
        T.save_checkpoint(path, half, opt_half, 10)
        resumed, opt_resumed, step = T.load_checkpoint(path)
        assert step == 10
        fine, coarse, u = linear_sample.fine_mesh, linear_sample.coarse_mesh, linear_sample.inputs
        assert (predict_step(fine, coarse, u, resumed).tobytes()
                == predict_step(fine, coarse, u, half).tobytes())
        T.train(resumed, [linear_sample], cfg, opt_resumed, start_step=step)
        for a, b in zip(full.parameters(), resumed.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_empty_dataset_rejected(self):
        with pytest.raises(T.TrainingError):
            T.train(small_params(), [], small_config(5))

    def test_normalizers_freeze_after_normalizer_steps(self, linear_sample):
        params = small_params()
        cfg = T.TrainConfig(steps=4, schedule=SCHED, normalizer_steps=2,
                            latent_size=16, hidden_size=16)
        T.train(params, [linear_sample], cfg)
        fine, coarse = linear_sample.fine_mesh, linear_sample.coarse_mesh
        for norm in (params.node_field_normalizer, params.output_normalizer):
            assert (norm.n_accumulations, norm.count) == (2, 2.0 * fine.n_nodes)
        graphs = {"fine": G.mesh_graph(fine), "coarse": G.mesh_graph(coarse),
                  "down": G.transfer_graph(fine, coarse, "down"),
                  "up": G.transfer_graph(fine, coarse, "up")}
        for kind, graph in graphs.items():
            norm = params.edge_normalizers[kind]
            assert (norm.n_accumulations, norm.count) == (2, 2.0 * len(graph.senders)), kind

    def test_single_level_schedule_skips_coarse_level(self, linear_sample, monkeypatch):
        # Fresh meshes, so no containment_edges call is hidden by a cached Graph.
        fine, coarse = M.generate_mesh(UNIT_SQUARE, 0.1), M.generate_mesh(UNIT_SQUARE, 0.3)
        sample = D.Sample(fine, coarse, linear_sample.inputs, linear_sample.targets,
                          "native", None)
        calls = []
        real = G.containment_edges
        monkeypatch.setattr(G, "containment_edges", lambda *a: calls.append(a) or real(*a))
        params = small_params(schedule="p=3H (U=0,D=0)")
        T.train(params, [sample], small_config(2))
        assert calls == []
        assert params.edge_normalizers["fine"].n_accumulations == 2
        for kind in ("coarse", "down", "up"):
            assert params.edge_normalizers[kind].n_accumulations == 0

    def test_warmup_budget_validated(self):
        with pytest.raises(ValueError):
            T.TrainConfig(steps=5, normalizer_steps=10)


@pytest.fixture(scope="module")
def sample_pair(linear_sample):
    # Two samples on one mesh pair with different inputs, so a batch of two
    # distinct samples differs from a repeated one.
    inputs = np.random.default_rng(1).normal(size=linear_sample.inputs.shape)
    delta = linear_sample.targets - linear_sample.inputs
    other = D.Sample(linear_sample.fine_mesh, linear_sample.coarse_mesh, inputs,
                     inputs + delta, "native", None)
    return [linear_sample, other]


def batch2_config(steps, normalizer_steps):
    return T.TrainConfig(steps=steps, learning_rate=3e-4, batch_size=2, seed=4,
                         noise_std=0.02, schedule=SCHED, normalizer_steps=normalizer_steps,
                         latent_size=16, hidden_size=16)


def usable_cores(monkeypatch, n):
    """Pretend the process may run on ``n`` cores with BLAS pinned to one
    thread; returns the list of worker counts the pools of later ``train``
    and ``evaluate`` calls are opened with."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    opened, real = [], T.ThreadPoolExecutor
    monkeypatch.setattr(T, "ThreadPoolExecutor", lambda n: opened.append(n) or real(n))
    return opened


class TestBatchedTrain:
    @staticmethod
    def sequential_steps(params, samples, cfg, steps):
        """The batch step done by hand: per-sample backward passes summed in
        batch order, halved, then one Adam step."""
        optimizer = nn.Adam(params.parameters(), lr=cfg.learning_rate)
        distinct = []
        for step in range(steps):
            rng = np.random.default_rng([cfg.seed, step])
            batch = [samples[int(i)] for i in rng.integers(0, len(samples), size=2)]
            distinct.append(batch[0] is not batch[1])
            grads = None
            for sample in batch:
                x = as_field_matrix(sample.inputs)
                noise = rng.normal(0.0, cfg.noise_std, size=x.shape)
                loss = T.training_loss(params, sample, x + noise * params.node_field_normalizer.std)
                gs = nn.backward(loss, wrt=params.parameters())
                grads = gs if grads is None else [a + b for a, b in zip(grads, gs)]
            optimizer.step([g / 2 for g in grads], lr=cfg.lr_at(step))
        assert any(distinct)

    def test_step_independent_of_worker_count(self, sample_pair, monkeypatch):
        cfg = batch2_config(3, normalizer_steps=0)
        runs = []
        for cores in (1, 2, None):
            params = small_params(seed=4)
            T.warm_up_normalizers(params, sample_pair)
            if cores is None:
                self.sequential_steps(params, sample_pair, cfg, 3)
            else:
                opened = usable_cores(monkeypatch, cores)
                T.train(params, sample_pair, cfg)
                assert opened == [cores]
            runs.append([p.data.tobytes() for p in params.parameters()])
        assert runs[0] == runs[1] == runs[2]

    def test_oversubscribed_pool_matches_one_worker(self, sample_pair, monkeypatch):
        # 8 workers on fresh meshes, so they build the meshes' cached Graphs
        # concurrently, with thread switches forced as often as possible.
        def run(cores):
            fine, coarse = M.generate_mesh(UNIT_SQUARE, 0.1), M.generate_mesh(UNIT_SQUARE, 0.3)
            samples = [D.Sample(fine, coarse, s.inputs, s.targets, "native", None)
                       for s in sample_pair]
            cfg = T.TrainConfig(steps=2, learning_rate=3e-4, batch_size=8, seed=5,
                                schedule=SCHED, normalizer_steps=0, latent_size=16,
                                hidden_size=16)
            params = small_params(seed=5)
            usable_cores(monkeypatch, cores)
            T.train(params, samples, cfg)
            return [p.data.tobytes() for p in params.parameters()]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = run(8)
        finally:
            sys.setswitchinterval(interval)
        assert many == run(1)

    def test_pool_opened_with_min_of_batch_and_cores(self, sample_pair, monkeypatch):
        for cores, batch_size, workers in ((1, 2, 1), (2, 2, 2), (4, 2, 2), (2, 1, 1)):
            opened = usable_cores(monkeypatch, cores)
            cfg = T.TrainConfig(steps=1, batch_size=batch_size, schedule=SCHED,
                                normalizer_steps=1, latent_size=16, hidden_size=16)
            T.train(small_params(), sample_pair, cfg)
            assert opened == [workers]

    @pytest.mark.parametrize("env, workers", [
        ({}, 1),  # BLAS unpinned: every product may use a thread per core
        ({"OMP_NUM_THREADS": "2"}, 2),
        ({"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4),
        ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 1),
    ])
    def test_cores_shared_with_blas_threads(self, monkeypatch, env, workers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        for var in T.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert T.worker_count(8) == workers
        assert T.worker_count(1) == 1

    @pytest.mark.parametrize("cpu_count, workers", [(2, 2), (None, 1)])
    def test_cores_from_cpu_count_without_affinity(self, sample_pair, monkeypatch,
                                                    cpu_count, workers):
        # Platforms without os.sched_getaffinity (macOS, Windows) size the
        # pool from os.cpu_count(), which may report None.
        opened = usable_cores(monkeypatch, 1)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        history = T.train(small_params(), sample_pair, batch2_config(1, normalizer_steps=1))
        assert opened == [workers] and len(history) == 1

    def test_warm_up_absorbs_whole_batch_before_any_pass(self, sample_pair, monkeypatch):
        params = small_params()
        seen = []
        real = T.training_loss

        def spy(params, sample, noisy_inputs=None):
            seen.append([params.node_field_normalizer.n_accumulations,
                         params.edge_normalizers["fine"].n_accumulations])
            return real(params, sample, noisy_inputs)

        monkeypatch.setattr(T, "training_loss", spy)
        T.train(params, sample_pair, batch2_config(3, normalizer_steps=2))
        assert seen == [[2, 2]] * 2 + [[4, 4]] * 4

    def test_failure_in_worker_reaches_caller(self, sample_pair, monkeypatch):
        monkeypatch.setattr(T, "training_loss", lambda *a, **k: nn.Tensor(np.nan))
        with pytest.raises(T.TrainingError, match="training diverged at step 0"):
            T.train(small_params(), sample_pair, batch2_config(2, normalizer_steps=1))


class TestLossMasking:
    def test_zeroed_upsample_blocks_decouple_coarse(self, toy_pair):
        # With the upsample blocks zeroed, the fine output cannot depend on
        # anything about the coarse level.
        fine, coarse = toy_pair
        other_coarse = M.generate_mesh(UNIT_SQUARE, 0.35)
        params = small_params(seed=5)
        for block, kind in zip(params.blocks, params.schedule.steps):
            if kind == "U":
                block.zero_()
        fields = np.random.default_rng(1).normal(size=fine.n_nodes)

        out_a = predict_step(fine, coarse, fields, params)
        out_b = predict_step(fine, other_coarse, fields, params)
        np.testing.assert_array_equal(out_a, out_b)


def _taped_step(params, fine, coarse, u, bc):
    """Taped forward_normalized_delta, unnormalized, with inflow held."""
    u = as_field_matrix(u)
    delta_n, _ = forward_normalized_delta(params, fine, coarse, u)
    out = u + params.output_normalizer.unapply(delta_n.data)
    held = np.isin(fine.node_kind, PRESCRIBED_KINDS)
    out[held] = as_field_matrix(bc)[held]
    return out[:, 0]


@pytest.fixture(scope="module")
def stepper_meshes():
    return [M.generate_mesh(UNIT_SQUARE, em) for em in (0.1, 0.07)]


class TestModelStepper:
    @pytest.mark.parametrize("schedule", ["p=1H 11L 1H (U=1,D=1)", "p=3H (U=0,D=0)"])
    def test_matches_taped_path_bytes(self, stepper_meshes, schedule):
        params = ModelParams(schedule, 1, 16, 16, seed=3)
        rng = np.random.default_rng(5)
        params.node_field_normalizer.accumulate(rng.normal(0.3, 2.0, size=(50, 1)))
        params.output_normalizer.accumulate(rng.normal(0.0, 0.1, size=(50, 1)))
        for norm in params.edge_normalizers.values():
            norm.accumulate(rng.normal(0.0, 0.05, size=(50, 3)))
        coarse = M.generate_mesh(UNIT_SQUARE, 0.3)
        for fine in stepper_meshes:
            stepper = T.ModelStepper(params, coarse).bind(fine)
            u = rng.normal(size=fine.n_nodes)
            bc = rng.normal(size=fine.n_nodes)
            for _ in range(3):
                out = stepper.step(u, bc)
                assert out.tobytes() == _taped_step(params, fine, coarse, u, bc).tobytes()
                u = out

    def test_static_latents_encoded_once_per_bind(self, toy_pair, monkeypatch):
        fine, coarse = toy_pair
        calls = Counter()
        for name in ("encode_coarse", "build_transfer", "encode_fine"):
            real = getattr(G, name)
            monkeypatch.setattr(
                G, name, lambda *a, _real=real, _name=name: calls.update([_name]) or _real(*a)
            )
        stepper = T.ModelStepper(small_params(), coarse).bind(fine)
        u = np.random.default_rng(4).normal(size=fine.n_nodes)
        for _ in range(4):
            u = stepper.step(u)
        assert calls == {"encode_coarse": 1, "build_transfer": 2, "encode_fine": 4}

    def test_static_latents_have_no_tape(self, toy_pair):
        fine, coarse = toy_pair
        static = T.ModelStepper(small_params(), coarse).bind(fine).static
        for latent in (static.fine_edges, static.coarse, static.coarse_edges,
                       static.down_edges, static.up_edges):
            assert latent.parents == () and latent.vjp is None


def model_rollout(params, fine, coarse, initial, steps):
    """The frames of ``steps`` model steps unrolled from ``initial``."""
    return S.unroll(T.ModelStepper(params, coarse).bind(fine), initial, steps)[0]


class TestRollout:
    def test_zero_weight_model_freezes_interior(self, toy_pair):
        fine, coarse = toy_pair
        params = small_params().zero_()
        initial = np.random.default_rng(2).normal(size=fine.n_nodes)
        frames = model_rollout(params, fine, coarse, initial, steps=4)
        for frame in frames:
            np.testing.assert_allclose(frame, initial, atol=1e-15)

    def test_frame_count(self, toy_pair):
        fine, coarse = toy_pair
        frames = model_rollout(small_params(), fine, coarse, np.zeros(fine.n_nodes), steps=6)
        assert len(frames) == 7

    def test_boundary_reapplied_every_step(self, toy_pair):
        fine, coarse = toy_pair
        params = small_params(seed=7)
        initial = np.random.default_rng(3).normal(size=fine.n_nodes)
        frames = model_rollout(params, fine, coarse, initial, steps=3)
        mask = fine.node_kind == M.KIND_INFLOW
        for frame in frames:
            np.testing.assert_array_equal(frame[mask], initial[mask])

    def test_error_accumulates_for_partially_trained_model(self):
        # A briefly trained model drifts: late rollout error exceeds early.
        domain = UNIT_SQUARE
        cfg = S.PdeConfig(domain, viscosity=0.004, inflow_mean=0.3, dt=0.01,
                          n_steps=30)
        fine = M.generate_mesh(domain, 0.08)
        coarse = M.generate_mesh(domain, 0.3)
        init = S.gaussian_solution(fine.positions, 0.0, np.array([0.4, 0.5]),
                                   0.1, 0.004, (0.3, 0.0))
        ref = S.simulate(fine, cfg, init)
        samples = D.trajectory_to_samples(fine, coarse, ref, "native")
        params = small_params(seed=2)
        T.train(params, samples, small_config(60, seed=2, noise=0.01))
        stepper = T.ModelStepper(params, coarse).bind(fine)
        errs, _ = T.rollout_errors(stepper, ref, n_steps=30)
        n = len(errs) - 1
        early = errs[1 : 1 + max(1, n // 10)].mean()
        late = errs[-max(1, n // 10):].mean()
        assert late >= early


class _ReferenceCheat:
    """Stateless stepper that replays the interpolated reference exactly:
    it recognizes the incoming frame and returns the next one."""

    def __init__(self, mesh, ref_traj):
        self.frames = list(ref_traj.interpolate_to(mesh).fields[:, :, 0])

    def step(self, u, bc_values=None):
        for t in range(len(self.frames) - 1):
            if np.array_equal(u, self.frames[t]):
                return self.frames[t + 1]
        raise AssertionError("input is not a reference frame")


@pytest.fixture(scope="module")
def reference():
    cfg = S.PdeConfig(UNIT_SQUARE, viscosity=0.004, inflow_mean=0.3,
                      dt=0.01, n_steps=10)
    mesh = M.generate_mesh(UNIT_SQUARE, 0.05)
    init = S.gaussian_solution(mesh.positions, 0.0, np.array([0.4, 0.5]),
                               0.1, 0.004, (0.3, 0.0))
    return cfg, S.simulate(mesh, cfg, init)


class TestEvaluate:

    def test_exact_prediction_gives_zero_mse(self, reference):
        cfg, ref = reference
        mesh = M.generate_mesh(UNIT_SQUARE, 0.1)
        report = T.evaluate(lambda m: _ReferenceCheat(m, ref), [mesh], ref,
                            max_rollout=5)
        row = report.rows[0]
        assert row.mse1 == 0.0
        assert row.mse10 == 0.0
        assert row.next_step_mse == 0.0

    def test_mse1_equals_first_rollout_entry(self, reference):
        cfg, ref = reference
        mesh = M.generate_mesh(UNIT_SQUARE, 0.1)
        factory = lambda m: S.FrameStepper(m, cfg)
        report = T.evaluate(factory, [mesh], ref, max_rollout=8)
        row = report.rows[0]
        assert row.mse1 == row.rollout[1]

    def test_one_interpolation_per_mesh_matches_two_interpolation_path(self, monkeypatch):
        # evaluate resamples the reference onto each mesh once; its rows equal,
        # byte for byte, those of the path that located every mesh twice (once
        # for the next-step errors, once for the rollout). One worker, so the
        # meshes are located in mesh order.
        usable_cores(monkeypatch, 1)
        cfg = S.PdeConfig(UNIT_SQUARE, viscosity=0.008, inflow_mean=0.2,
                          dt=0.01, n_steps=8)
        meshes = [M.generate_mesh(UNIT_SQUARE, r, seed=0) for r in [0.1, 0.07, 0.05]]
        ref = S.simulate(meshes[-1], cfg, S.gaussian_solution(
            meshes[-1].positions, 0.0, np.array([0.45, 0.5]), 0.07, 0.008, (0.2, 0.0)))
        calls = []
        locate_points = M.locate_points

        def counted(src_mesh, points):
            calls.append(len(points))
            return locate_points(src_mesh, points)

        monkeypatch.setattr(M, "locate_points", counted)
        rows = T.evaluate(lambda m: S.FrameStepper(m, cfg), meshes, ref, model="solver",
                          max_rollout=5).rows
        assert calls == [m.n_nodes for m in meshes]

        def interpolated(mesh, n_frames):
            corners, weights = M.build_interpolator(ref.mesh, mesh.positions)
            return [M.apply_interpolator(corners, weights, ref.fields[t, :, 0])
                    for t in range(n_frames)]

        for mesh, row in zip(meshes, rows):
            stepper = S.FrameStepper(mesh, cfg)
            frames = interpolated(mesh, ref.n_frames)
            next_step = np.mean([np.mean((stepper.step(frames[t], frames[t]) - frames[t + 1]) ** 2)
                                 for t in range(ref.n_frames - 1)])
            frames = interpolated(mesh, 6)
            roll = np.zeros(6)
            u = frames[0]
            for t in range(1, 6):
                u = stepper.step(u, frames[0])
                roll[t] = np.mean((u - frames[t]) ** 2)
            assert row.next_step_mse == float(next_step)
            assert row.rollout.tobytes() == roll.tobytes()
            assert (row.mse1, row.mse10, row.mse50) == (
                float(roll[1:2].mean()), float(roll[1:].mean()), float(roll[1:].mean()))

    def test_non_finite_rollout_state_fails_fast(self, reference):
        # A stepper whose state turns NaN on the third rollout step (after
        # the next-step errors' calls) stops the evaluation, naming the step,
        # instead of writing NaN rows.
        cfg, ref = reference
        mesh = M.generate_mesh(UNIT_SQUARE, 0.1)
        inner = S.FrameStepper(mesh, cfg)
        calls = Counter()

        class Diverging:
            def step(self, u, bc_values):
                calls.update(["step"])
                out = inner.step(u, bc_values)
                return out * np.nan if calls["step"] >= ref.n_frames - 1 + 3 else out

        with pytest.raises(S.SimulationError, match="non-finite state at step 3"):
            T.evaluate(lambda m: Diverging(), [mesh], ref, max_rollout=5)

    def test_csv_schema(self, reference, tmp_path):
        cfg, ref = reference
        mesh = M.generate_mesh(UNIT_SQUARE, 0.1)
        report = T.evaluate(lambda m: S.FrameStepper(m, cfg), [mesh], ref)
        path = tmp_path / "eval.csv"
        report.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == ("edge_min,model,mps,schedule,mse1,mse10,mse50,sec_per_step,"
                          "next_step_mse")

    def test_csv_read_back(self, reference, tmp_path):
        cfg, ref = reference
        meshes = [M.generate_mesh(UNIT_SQUARE, r) for r in (0.1, 0.07)]
        report = T.evaluate(lambda m: S.FrameStepper(m, cfg), meshes, ref, model="solver",
                            max_rollout=3)
        path = tmp_path / "eval.csv"
        report.write_csv(path)
        back = T.EvalReport.read_csv(path).rows
        for row in report.rows:
            row.rollout = None
        assert back == report.rows
        assert [type(getattr(back[0], c)) for c in T.CSV_COLUMNS] == [
            float, str, int, str, float, float, float, float, float]



class _Recorder:
    """Wraps the stepper of mesh ``index`` and logs each ``step`` call's
    thread to a list shared with the factory, and its ``(u, bc)`` bytes."""

    def __init__(self, inner, index, log):
        self.inner = inner
        self.index = index
        self.log = log
        self.calls = []

    def step(self, u, bc_values=None):
        self.log.append(("step", threading.get_ident(), self.index))
        self.calls.append((np.asarray(u).tobytes(), np.asarray(bc_values).tobytes()))
        return self.inner.step(u, bc_values)


def row_bytes(row):
    """Every EvalRow field but the wall time, the rollout included, as bytes."""
    return [np.asarray(getattr(row, f.name)).tobytes() for f in dataclasses.fields(row)
            if f.name != "sec_per_step"]


class TestThreadedEvaluate:
    @pytest.fixture(scope="class")
    def case(self, reference):
        # Three meshes of different sizes.
        _, ref = reference
        meshes = [M.generate_mesh(UNIT_SQUARE, em, seed=0) for em in (0.12, 0.09, 0.07)]
        assert np.all(np.diff([m.n_nodes for m in meshes]) > 0)
        coarse = M.generate_mesh(UNIT_SQUARE, 0.3)
        params = small_params(seed=3)
        T.warm_up_normalizers(params, D.trajectory_to_samples(ref.mesh, coarse, ref, "native"))
        return meshes, coarse, params

    @staticmethod
    def run(monkeypatch, reference, case, kind, cores):
        """evaluate on ``cores`` usable cores; returns the report, the event
        log, the steppers in factory order and the pool sizes opened."""
        cfg, ref = reference
        meshes, coarse, params = case
        opened = usable_cores(monkeypatch, cores)
        log, steppers = [], []

        def factory(mesh):
            index = meshes.index(mesh)
            log.append(("factory", threading.get_ident(), index))
            inner = (T.ModelStepper(params, coarse).bind(mesh) if kind == "model"
                     else S.FrameStepper(mesh, cfg))
            steppers.append(_Recorder(inner, index, log))
            return steppers[-1]

        report = T.evaluate(factory, meshes, ref, model=kind, max_rollout=4)
        return report, log, steppers, opened

    @pytest.mark.parametrize("kind", ["model", "solver"])
    def test_rows_and_calls_independent_of_worker_count(self, monkeypatch, reference, case,
                                                        kind):
        meshes = case[0]
        main = threading.get_ident()
        # 3 meshes: the pool has min(meshes, cores) workers.
        for cores, workers in ((1, 1), (2, 2), (4, 3)):
            report, log, steppers, opened = self.run(monkeypatch, reference, case, kind, cores)
            assert opened == [workers] == [T.worker_count(len(meshes))]
            rows = [row_bytes(r) for r in report.rows]
            calls = [s.calls for s in steppers]
            if cores == 1:
                one_rows, one_calls = rows, calls
            assert [r.edge_min for r in report.rows] == [m.edge_min for m in meshes]
            assert rows == one_rows
            # The factory ran for every mesh, in mesh order, on this thread,
            # before any step; every step ran off this thread, and each
            # stepper saw the calls it sees at 1 worker.
            assert log[:3] == [("factory", main, i) for i in range(3)]
            assert all(event == "step" and thread != main for event, thread, _ in log[3:])
            assert calls == one_calls and all(calls)

    def test_oversubscribed_pool_on_fresh_meshes_matches_one_worker(self, monkeypatch,
                                                                    reference, case):
        # 4 workers on fresh meshes, so they build the reference mesh's point
        # locator concurrently, with thread switches forced as often as
        # possible. The reference mesh is also a test mesh, as in `eval`.
        _, ref = reference
        meshes, coarse, params = case

        def fresh(mesh):
            return M.TriMesh(mesh.positions, mesh.triangles, mesh.node_kind, mesh.edge_min,
                             mesh.edge_max)

        def run(cores):
            fresh_ref = S.Trajectory(fresh(ref.mesh), ref.fields, ref.dt)
            usable_cores(monkeypatch, cores)
            report = T.evaluate(lambda m: T.ModelStepper(params, coarse).bind(m),
                                [fresh(m) for m in meshes] + [fresh_ref.mesh], fresh_ref,
                                max_rollout=4)
            return [row_bytes(r) for r in report.rows]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = run(8)
        finally:
            sys.setswitchinterval(interval)
        assert many == run(1)

    def test_stepper_freed_when_its_mesh_is_done(self, monkeypatch, reference, case):
        # With one worker, the steppers of the meshes already done are gone
        # by the time the last mesh steps: evaluate keeps none of them.
        cfg, ref = reference
        meshes = case[0]
        usable_cores(monkeypatch, 1)
        refs, alive = [], []

        class Stepper(S.FrameStepper):
            def step(self, u, bc_values=None):
                alive.append([r() is not None for r in refs])
                return super().step(u, bc_values)

        def factory(mesh):
            stepper = Stepper(mesh, cfg)
            refs.append(weakref.ref(stepper))
            return stepper

        T.evaluate(factory, meshes, ref, max_rollout=2)
        assert alive[0] == [True, True, True]
        assert alive[-1] == [False, False, True]

    def test_failure_in_worker_reaches_caller(self, monkeypatch, reference, case):
        # 3 meshes on 2 workers: mesh 0 diverges at its first step once mesh 1
        # has started, and mesh 1 goes on until after the failure, so mesh 2
        # is still queued when mesh 0 fails and is never stepped.
        cfg, ref = reference
        meshes = case[0]
        usable_cores(monkeypatch, 2)
        threads = threading.active_count()
        started, diverged = threading.Event(), threading.Event()
        steps = Counter()

        class Diverging:
            def step(self, u, bc_values=None):
                assert started.wait(10)
                diverged.set()
                raise nn.NonFiniteError("matmul")

        class Counted(S.FrameStepper):
            def step(self, u, bc_values=None):
                index = meshes.index(self.mesh)
                if index == 1 and not steps[1]:
                    started.set()
                    assert diverged.wait(10)
                    time.sleep(0.2)
                steps[index] += 1
                return super().step(u, bc_values)

        def factory(mesh):
            return Diverging() if mesh is meshes[0] else Counted(mesh, cfg)

        with pytest.raises(nn.NonFiniteError, match="operation 'matmul'"):
            T.evaluate(factory, meshes, ref, max_rollout=4)
        assert steps[1] > 0 and steps[2] == 0
        assert threading.active_count() == threads

def permute_mesh(mesh, perm):
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    return M.TriMesh(mesh.positions[perm], inv[mesh.triangles],
                     mesh.node_kind[perm], mesh.edge_min, mesh.edge_max)


class TestInvariances:
    def test_mse_n_permutation_invariant(self, toy_pair):
        fine, coarse = toy_pair
        params = small_params(seed=9)
        cfg = S.PdeConfig(UNIT_SQUARE, viscosity=0.004, inflow_mean=0.3,
                          dt=0.01, n_steps=5)
        init = S.gaussian_solution(fine.positions, 0.0, np.array([0.4, 0.5]),
                                   0.1, 0.004, (0.3, 0.0))
        ref = S.simulate(fine, cfg, init)
        stepper = T.ModelStepper(params, coarse).bind(fine)
        errs, _ = T.rollout_errors(stepper, ref, 5)

        rng = np.random.default_rng(11)
        perm = rng.permutation(fine.n_nodes)
        fine_p = permute_mesh(fine, perm)
        ref_p = S.Trajectory(fine_p, ref.fields[:, perm], ref.dt)
        stepper_p = T.ModelStepper(params, coarse).bind(fine_p)
        errs_p, _ = T.rollout_errors(stepper_p, ref_p, 5)
        np.testing.assert_allclose(errs_p, errs, rtol=1e-9, atol=1e-13)

    def test_rollout_deterministic_and_noise_free(self, toy_pair):
        # Evaluation and rollout never perturb inputs: repeated rollouts are
        # bit-identical regardless of the training-noise configuration.
        fine, coarse = toy_pair
        params = small_params(seed=4)
        initial = np.random.default_rng(5).normal(size=fine.n_nodes)
        a = model_rollout(params, fine, coarse, initial, steps=3)
        b = model_rollout(params, fine, coarse, initial, steps=3)
        assert np.array_equal(a, b)
