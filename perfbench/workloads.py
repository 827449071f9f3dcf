"""The three benchmark workloads: ``datagen``, ``rollout`` and ``train``.

Each workload is built so that one group of layers does almost all of its
work and almost none of another's:

- ``datagen``: the mesh and solver layers (plus dataset I/O and the CLI);
  no graph, processor or nn work at all.
- ``rollout``: graphs, processor and the forward half of nn, through the
  paper's evaluation protocol; no backward pass and no optimizer.
- ``train``: the taped forward pass, backward and Adam on a generated
  dataset; nothing can be cached across steps.

A workload object is created from the workload seed, set up (possibly
several times; the last set-up is kept), and then runs numbered
operations. ``op(i)`` is the timed part; ``check(i, result)`` verifies the
output outside the timed region, raises :class:`CheckFailed` on a wrong
output and returns the operation's output digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import time

import numpy as np

from meshpass import analysis, cli, dataset, nn, training
from meshpass.graphs import as_field_matrix
from meshpass.mesh import KIND_INFLOW, validate_mesh
from meshpass.processor import ModelParams, forward_normalized_delta
from meshpass.mesh import TriMesh
from meshpass.solver import FrameStepper, Trajectory

SCHEDULE = "p=1H 11L 1H (U=1,D=1)"
WIDTH = 128
COARSE_EDGE_MIN = 1e-2
# One resolution from the README's desk-scale band (4e-3..1e-2). Scenario
# cost grows with 1/edge_min^2: across that band one high-accuracy scenario
# takes 3-18 s on one Xeon core, so a run would hold a few operations whose mean
# depends mostly on which edge_min values the seed drew. At one resolution
# the seed still draws the obstacle, inflow, initial state and mesh seeds.
GEN_EDGE_MIN = 1e-2
# datagen: frames per scenario and the --refine factor of the labels (see
# the README's desk-scale band; refine 4 took 9-14 s per scenario).
GEN_STEPS = 50
GEN_REFINE = 2
# rollout: test-mesh resolutions and the evaluation length. One pass makes
# 2 * EVAL_STEPS model steps per mesh (next-step errors over EVAL_STEPS
# reference transitions, then a rollout of EVAL_STEPS). ``meshpass eval``
# uses 50: on one Xeon core a pass then takes about 124 s, and its fixed
# cost (binding, interpolators, fresh mesh caches, spectrum; 0.4-0.6 s) is
# 0.4% of it. At 4 the fixed cost is 5-7% of a 6-10 s pass, and a warm-up
# pass and at least one timed pass fit in a 30 s run; at 2 it was 8-9%.
ROLLOUT_RESOLUTIONS = (8e-3, 5e-3)
EVAL_STEPS = 4
# train: the dataset written in set-up, and the batch size.
TRAIN_SCENARIOS = 4
TRAIN_GEN_STEPS = 2
BATCH_SIZE = 2
# Stepper output must match the taped training path this closely, relative
# to the field scale; an inference fast path may reorder sums (~1e-13).
TAPED_RTOL = 1e-10
PARSEVAL_RTOL = 1e-9


class OpFailed(RuntimeError):
    """The program reported an error (non-zero exit) for one operation."""


class CheckFailed(AssertionError):
    """An operation completed but its output failed a check."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _sha256_files(root):
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(root)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _sha256_arrays(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _run_cli(argv):
    """Run the CLI in-process; a non-zero exit raises OpFailed."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise OpFailed(f"meshpass {argv[0]} exited {rc}: {err.getvalue().strip()}")


def _mesh_sizes(mesh):
    return {"nodes": int(mesh.n_nodes), "edges": int(mesh.undirected_edges().shape[0])}


def _gen_argv(out, seed, scenarios, n_steps, extra=()):
    return ["gen", "--out", out, "--scenarios", str(scenarios), "--seed", str(seed),
            *extra, "--set", f"edge_min_lo={GEN_EDGE_MIN!r}",
            "--set", f"edge_min_hi={GEN_EDGE_MIN!r}", "--set", f"n_steps={n_steps}"]


class Datagen:
    """One high-accuracy scenario per operation, through ``meshpass gen``."""

    name = "datagen"
    NOMINAL_OP_S = 3.5  # one scenario on one core of a 2-core Xeon VM

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work
        self.meshes = []

    def setup(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)

    def op(self, i):
        out = os.path.join(self.work, f"op_{i:04d}")
        _run_cli(_gen_argv(out, 1000 * self.seed + i, 1, GEN_STEPS,
                           ("--labels", "high-accuracy", "--refine", str(GEN_REFINE))))
        return out

    def check(self, i, out):
        try:
            scenario, mesh, traj, ha, meta = dataset.read_scenario_dir(
                os.path.join(out, "scenario_0000")
            )
            _require(ha is not None, "high-accuracy labels missing")
            validate_mesh(mesh, scenario.domain())
            _require(np.all(np.isfinite(traj.fields)), "non-finite trajectory value")
            _require(np.all(np.isfinite(ha.fields)), "non-finite label value")
            _require(traj.n_frames == GEN_STEPS + 1, "wrong trajectory length")
            config = dataset.scenario_pde_config(scenario, n_steps=GEN_STEPS)
            self.meshes.append(
                dict(_mesh_sizes(mesh), substeps=FrameStepper(mesh, config).n_substeps)
            )
            return _sha256_files(out)
        except (OSError, ValueError, KeyError, RuntimeError) as exc:
            # Unreadable files, a mesh digest mismatch or an invalid mesh.
            raise CheckFailed(f"{type(exc).__name__}: {exc}") from exc
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def provenance(self):
        return {"edge_min": GEN_EDGE_MIN, "refine": GEN_REFINE,
                "n_steps": GEN_STEPS, "op_seeds": "1000*seed+i", "fine_meshes": self.meshes}

    def phases(self, results, op_times):
        return {"gen_scenario_s": sum(op_times) / max(len(results), 1)}


class _TimedStepper:
    """Times every ``step`` of the wrapped stepper and keeps what the
    checks need: the first call's inputs and output, the last output, and
    whether every output was finite."""

    def __init__(self, inner, mesh):
        self.inner = inner
        self.mesh = mesh
        self.times = []
        self.first = None
        self.last = None
        self.finite = True

    def step(self, u, bc_values=None):
        t0 = time.perf_counter()
        out = self.inner.step(u, bc_values)
        self.times.append(time.perf_counter() - t0)
        if self.first is None:
            self.first = (np.array(u), None if bc_values is None else np.array(bc_values), out)
        self.finite = self.finite and bool(np.all(np.isfinite(out)))
        self.last = out
        return out


def _fresh(mesh):
    """The same mesh without its lazily built caches (point locator,
    containment edges, sparse operators)."""
    return TriMesh(mesh.positions, mesh.triangles, mesh.node_kind, mesh.edge_min, mesh.edge_max)


class Rollout:
    """One ``training.evaluate`` pass on the fixed-obstacle test scenario,
    followed by the error spectrum of the final state on the finest mesh.

    The test set is the one ``meshpass eval`` builds at its default seed 0
    (fine meshes of 412 and 894 nodes, coarse mesh of 279), so the step
    time is measured at stated mesh sizes; the workload seed draws the
    model weights. Every operation gets cache-free copies of the meshes, so
    each one pays what one evaluation pass pays in a fresh process.
    """

    name = "rollout"
    NOMINAL_OP_S = 9.0  # one pass on one core of a 2-core Xeon VM
    TESTSET_SEED = 0

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work

    def setup(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.meshes, self.ref, self.pde = dataset.fixed_obstacle_testset(
            resolutions=ROLLOUT_RESOLUTIONS, seed=self.TESTSET_SEED, n_steps=EVAL_STEPS
        )
        self.coarse = dataset.generate_mesh(
            self.pde.domain, COARSE_EDGE_MIN, seed=self.TESTSET_SEED + 1
        )
        params = ModelParams(SCHEDULE, 1, WIDTH, WIDTH, seed=self.seed)
        training.warm_up_normalizers(
            params, dataset.trajectory_to_samples(self.ref.mesh, self.coarse, self.ref, "native")
        )
        path = os.path.join(self.work, "checkpoint.bin")
        training.save_checkpoint(path, params, nn.Adam(params.parameters()), 0)
        self.params, _, _ = training.load_checkpoint(path)
        self.digests = []

    def op(self, i):
        meshes = [_fresh(m) for m in self.meshes]
        ref = Trajectory(meshes[-1], self.ref.fields, self.ref.dt)
        coarse = _fresh(self.coarse)
        steppers = []

        def factory(mesh):
            stepper = _TimedStepper(training.ModelStepper(self.params, coarse).bind(mesh), mesh)
            steppers.append(stepper)
            return stepper

        t0 = time.perf_counter()
        report = training.evaluate(
            factory, meshes, ref, model="model",
            mps=self.params.schedule.total_mps, schedule=self.params.schedule.text,
            max_rollout=EVAL_STEPS,
        )
        t1 = time.perf_counter()
        finest = steppers[-1]
        err = finest.last - ref.fields[-1, :, 0]
        basis = analysis.spectral_basis(analysis.graph_laplacian(finest.mesh))
        spectrum = analysis.gft_spectrum(basis, err)
        t2 = time.perf_counter()
        return {"report": report, "steppers": steppers, "err": err, "spectrum": spectrum,
                "ref": ref, "coarse": coarse, "eval_s": t1 - t0, "spectrum_s": t2 - t1}

    def check(self, i, result):
        steppers = result["steppers"]
        _require(all(s.finite for s in steppers), "non-finite predicted field")
        _require(steppers[-1].mesh is result["ref"].mesh, "finest mesh is not the reference mesh")
        if not self.digests:
            for s in steppers:
                self._check_taped(s, result["coarse"])
        err = result["err"]
        total = float(err @ err)
        _require(abs(result["spectrum"].total - total) <= PARSEVAL_RTOL * max(total, 1e-300),
                 f"Parseval: spectrum total {result['spectrum'].total!r} != |err|^2 {total!r}")
        rows = result["report"].rows
        digest = _sha256_arrays(
            [r.rollout for r in rows] + [[r.next_step_mse for r in rows], result["spectrum"].power]
        )
        # Every operation repeats the same deterministic computation.
        _require(not self.digests or digest == self.digests[0], "operation output changed")
        self.digests.append(digest)
        return digest

    def _check_taped(self, stepper, coarse):
        u, bc, out = stepper.first
        fields = as_field_matrix(u)
        delta_n, _ = forward_normalized_delta(self.params, stepper.mesh, coarse, fields)
        taped = (fields + self.params.output_normalizer.unapply(delta_n.data))[:, 0]
        held = stepper.mesh.node_kind == KIND_INFLOW
        taped[held] = (u if bc is None else bc)[held]
        scale = max(1.0, float(np.max(np.abs(taped))))
        diff = float(np.max(np.abs(np.asarray(out) - taped)))
        _require(diff <= TAPED_RTOL * scale,
                 f"stepper differs from the taped path by {diff:.3g} on {stepper.mesh.n_nodes} nodes")

    def provenance(self):
        fine = [_mesh_sizes(m) for m in self.meshes]
        return {"resolutions": ROLLOUT_RESOLUTIONS, "eval_steps": EVAL_STEPS,
                "fine_meshes": fine, "coarse_mesh": _mesh_sizes(self.coarse),
                "substeps": FrameStepper(self.ref.mesh, self.pde).n_substeps,
                "schedule": SCHEDULE, "width": WIDTH}

    def phases(self, results, op_times):
        steps = [t for r in results for s in r["steppers"] for t in s.times]
        return {
            "model_step_s": float(np.mean(steps)) if steps else float("nan"),
            "eval_s": float(np.median([r["eval_s"] for r in results])) if results else float("nan"),
            "spectrum_s": float(np.median([r["spectrum_s"] for r in results])) if results else float("nan"),
        }


class Train:
    """One ``training.train`` step per operation (batch of 2) on a small
    native dataset written by ``meshpass gen`` during set-up.

    Step time grows with the sizes of the sampled meshes. The dataset is
    generated from the fixed gen seeds 0..3, so the step time is measured
    at the same mesh sizes on every run, as in ``rollout``; the workload
    seed draws the weights, the batches and the input noise. With
    seed-drawn datasets the mean step time differed by up to 15% between
    seeds."""

    name = "train"
    NOMINAL_OP_S = 1.7  # one step on one core of a 2-core Xeon VM
    DATASET_SEED = 0

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work

    def setup(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        # One gen per scenario, so a mesh-generation failure costs that
        # scenario only; it is reported as a failed operation, not replaced.
        self.setup_failures = []
        self.samples = []
        for k in range(TRAIN_SCENARIOS):
            data = os.path.join(self.work, f"data_{k}")
            try:
                _run_cli(_gen_argv(data, 1000 * self.DATASET_SEED + k, 1, TRAIN_GEN_STEPS))
            except OpFailed as exc:
                self.setup_failures.append(f"scenario {k}: {exc}")
                continue
            self.samples += dataset.load_dataset(data, coarse_edge_min=COARSE_EDGE_MIN)
        if not self.samples:
            raise OpFailed("no training scenario could be generated")
        self.params = ModelParams(SCHEDULE, 1, WIDTH, WIDTH, seed=self.seed)
        training.warm_up_normalizers(self.params, self.samples)
        self.config = training.TrainConfig(
            steps=10000, batch_size=BATCH_SIZE, normalizer_steps=0, seed=self.seed,
            schedule=SCHEDULE, latent_size=WIDTH, hidden_size=WIDTH,
        )
        self.optimizer = nn.Adam(self.params.parameters(), lr=self.config.learning_rate)
        self.steps_done = 0

    def op(self, i):
        history = training.train(self.params, self.samples, self.config, self.optimizer,
                                 start_step=i, stop_step=i + 1)
        self.steps_done = i + 1
        return history[0]["loss"]

    def check(self, i, loss):
        _require(np.isfinite(loss), f"non-finite loss {loss!r} at step {i}")
        return _sha256_arrays([[loss]] + [p.data for p in self.params.parameters()])

    def final_check(self):
        """A checkpoint round trip restores every parameter and the optimizer
        state exactly."""
        path = os.path.join(self.work, "checkpoint.bin")
        training.save_checkpoint(path, self.params, self.optimizer, self.steps_done)
        params, optimizer, step = training.load_checkpoint(path)
        _require(step == self.steps_done, "checkpoint step differs")
        ours, theirs = self.params.named_parameters(), params.named_parameters()
        _require(list(ours) == list(theirs), "checkpoint parameter names differ")
        for name, tensor in ours.items():
            _require(np.array_equal(tensor.data, theirs[name].data), f"parameter {name} differs")
        restored = optimizer.state()
        for key, value in self.optimizer.state().items():
            _require(np.array_equal(value, restored[key]), f"optimizer {key} differs")

    def provenance(self):
        meshes = {}
        for s in self.samples:
            meshes[id(s.fine_mesh)] = dict(
                _mesh_sizes(s.fine_mesh),
                substeps=FrameStepper(s.fine_mesh, dataset.scenario_pde_config(
                    s.scenario, n_steps=TRAIN_GEN_STEPS)).n_substeps,
            )
        return {"edge_min": GEN_EDGE_MIN, "dataset_seed": self.DATASET_SEED,
                "scenarios": TRAIN_SCENARIOS, "n_steps": TRAIN_GEN_STEPS,
                "batch_size": BATCH_SIZE, "samples": len(self.samples),
                "fine_meshes": list(meshes.values()),
                "coarse_mesh": _mesh_sizes(self.samples[0].coarse_mesh),
                "schedule": SCHEDULE, "width": WIDTH}

    def phases(self, results, op_times):
        return {"train_step_s": float(np.mean(op_times)) if op_times else float("nan")}


WORKLOADS = {w.name: w for w in (Datagen, Rollout, Train)}
