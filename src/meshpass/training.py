"""Next-step training loop, evaluation, and error metrics.

Training minimizes the MSE of normalized per-node deltas on the fine graph,
with Gaussian noise (in normalized units) added to the input fields. The
per-step RNG stream is derived from (seed, step) so runs are bit-repeatable
and resumable. Evaluation interpolates a reference trajectory onto each
simulation mesh once and measures next-step and rollout errors there; the
classical solver (a :class:`FrameStepper`) and the model go through the
same code path, and a rollout is ``solver.unroll`` of the stepper.
"""

from __future__ import annotations

import csv
import os
import threading
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .processor import ModelParams, StaticLatents, forward_normalized_delta, predict_step
from .records import write_csv
from .solver import one_step_errors, unroll
from .graphs import as_field_matrix, mesh_graph, transfer_graph


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    """Settings of one training run.

    ``normalizer_steps`` is the warm-up: while ``step < normalizer_steps``
    a step absorbs every sample of its batch into the normalizers before
    any of its forward passes runs, so all passes of a step normalize with
    the same statistics. After the warm-up the statistics are frozen.
    """

    steps: int = 10000
    learning_rate: float = 1e-4
    lr_decay: float = 0.1  # total multiplicative decay across the run
    batch_size: int = 1
    noise_std: float = 0.02  # in normalized units
    seed: int = 0
    schedule: str = "p=1H 11L 1H (U=1,D=1)"
    normalizer_steps: int = 300
    latent_size: int = 128
    hidden_size: int = 128

    def __post_init__(self):
        for name in ("steps", "learning_rate", "lr_decay", "batch_size"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not 0 <= self.noise_std < np.inf:
            raise ValueError(f"noise_std must be non-negative and finite, got {self.noise_std!r}")
        if self.normalizer_steps > self.steps:
            raise ValueError("normalizer warm-up budget exceeds total steps")

    def lr_at(self, step):
        return self.learning_rate * self.lr_decay ** (step / self.steps)


def warm_up_normalizers(params, samples):
    """Accumulate feature statistics from a batch of samples: the fields,
    the deltas and the edge sets that a forward pass of ``params`` reads."""
    for sample in samples:
        inputs = as_field_matrix(sample.inputs)
        targets = as_field_matrix(sample.targets)
        params.node_field_normalizer.accumulate(inputs)
        params.output_normalizer.accumulate(targets - inputs)
        fine, coarse = sample.fine_mesh, sample.coarse_mesh
        edge_sets = {"fine": mesh_graph(fine)}
        if params.reads_coarse_level(coarse):
            edge_sets["coarse"] = mesh_graph(coarse)
            edge_sets["down"] = transfer_graph(fine, coarse, "down")
            edge_sets["up"] = transfer_graph(fine, coarse, "up")
        for kind, graph in edge_sets.items():
            params.edge_normalizers[kind].accumulate(graph.features)


def training_loss(params, sample, noisy_inputs=None):
    """Normalized next-step delta loss on the fine graph of one sample."""
    inputs = as_field_matrix(sample.inputs) if noisy_inputs is None else noisy_inputs
    targets = as_field_matrix(sample.targets)
    delta_n, _ = forward_normalized_delta(
        params, sample.fine_mesh, sample.coarse_mesh, inputs
    )
    target_n = params.output_normalizer.apply(targets - inputs)
    return nn.mean_sq(nn.sub(delta_n, target_n))


# BLAS thread settings: each library's own before OMP_NUM_THREADS, which
# OpenBLAS and MKL both fall back to.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def worker_count(tasks):
    """Threads a pool of ``tasks`` independent tasks runs on: ``train``'s
    per-sample passes of one step, and ``evaluate``'s test meshes.

    The usable cores are the process's CPU set where the platform reports
    one (Linux), else the machine's core count. Each task's matrix products
    may use as many BLAS threads as the first of ``BLAS_THREAD_VARS`` that
    is set says, else one per core (the BLAS default). The cores are shared
    out so that workers times BLAS threads does not exceed them, with at
    most one worker per task: with BLAS unpinned the tasks run one at a
    time, as two workers whose products each start a thread per core ran
    slower than one.
    """
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    blas = cores
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "").split(",")[0].strip()
        if value.isdigit() and int(value) > 0:
            blas = int(value)
            break
    return max(1, min(tasks, cores // blas))


def train(params, samples, config, optimizer=None, start_step=0, stop_step=None,
          callback=None):
    """Train ``params`` in place on a list of samples; returns history rows.

    History rows are dicts (step, loss, lr, sec_per_step). A step draws its
    batch, absorbs it into the normalizers (while
    ``step < config.normalizer_steps``) and draws each sample's input noise
    in batch order. Only then do the forward and backward passes run, on
    ``worker_count(batch_size)`` threads, so every pass of a warm-up step
    sees the statistics of the whole batch. The gradients are
    summed in batch order and averaged. The result is deterministic for
    fixed (config.seed, samples) and does not depend on the worker count;
    resuming from ``start_step`` with the same optimizer state reproduces
    an uninterrupted run because the RNG stream is derived per step.
    ``stop_step`` pauses a run early without changing the learning-rate
    schedule (which is tied to ``config.steps``).
    """
    if not samples:
        raise TrainingError("empty training set")
    if optimizer is None:
        optimizer = nn.Adam(params.parameters(), lr=config.learning_rate)
    plist = params.parameters()

    def sample_pass(step, sample, noisy):
        # Runs in a worker: a taped pass whose tape dies with this call.
        loss = training_loss(params, sample, noisy_inputs=noisy)
        if not np.isfinite(loss.data):
            raise TrainingError(f"training diverged at step {step}")
        return float(loss.data), nn.backward(loss, wrt=plist)

    history = []
    with ThreadPoolExecutor(worker_count(config.batch_size)) as pool:
        for step in range(start_step, config.steps if stop_step is None else stop_step):
            rng = np.random.default_rng([config.seed, step])
            t0 = time.perf_counter()
            batch = [samples[int(i)]
                     for i in rng.integers(0, len(samples), size=config.batch_size)]
            if step < config.normalizer_steps:
                warm_up_normalizers(params, batch)
            std = params.node_field_normalizer.std
            inputs = [as_field_matrix(sample.inputs) for sample in batch]
            noisy = [x + rng.normal(0.0, config.noise_std, size=x.shape) * std for x in inputs]
            grads = None
            loss_total = 0.0
            for loss, gs in pool.map(sample_pass, [step] * len(batch), batch, noisy):
                grads = gs if grads is None else [a + b for a, b in zip(grads, gs)]
                loss_total += loss
            if config.batch_size > 1:
                grads = [g / config.batch_size for g in grads]
            optimizer.step(grads, lr=config.lr_at(step))
            history.append(
                {
                    "step": step,
                    "loss": loss_total / config.batch_size,
                    "lr": config.lr_at(step),
                    "sec_per_step": time.perf_counter() - t0,
                }
            )
            if callback is not None:
                callback(step, history[-1])
    return history


def save_checkpoint(path, params, optimizer, step):
    blocks = params.to_blocks()
    blocks["train/step"] = np.asarray([float(step)])
    for name, arr in optimizer.state().items():
        blocks[f"opt/{name}"] = arr
    nn.save_blocks(path, blocks)


def load_checkpoint(path):
    """Returns (params, optimizer, step); optimizer is bound to the params.

    A file with any ``opt/`` block must hold the whole optimizer state.
    CheckpointError names the file and the first block that is missing or
    whose shape does not fit the model.
    """
    blocks = nn.load_blocks(path)
    params = ModelParams.from_blocks(blocks)
    optimizer = nn.Adam(params.parameters())
    if any(name.startswith("opt/") for name in blocks):
        optimizer.load_state({name: blocks.shaped(f"opt/{name}", arr.shape)
                              for name, arr in optimizer.state().items()})
    step = int(blocks.get("train/step", np.zeros(1))[0])
    return params, optimizer, step


class ModelStepper:
    """predict_step wrapped in the stepper interface used by evaluation.

    ``bind(mesh)`` encodes the :class:`StaticLatents` of (mesh, coarse
    mesh) once, and every ``step`` reuses them. The params (weights and
    normalizer statistics) are therefore frozen for the stepper's lifetime:
    changing them after ``bind`` leaves the stepper on the old latents.
    """

    def __init__(self, params, coarse_mesh):
        self.params = params
        self.coarse_mesh = coarse_mesh
        self.mesh = None
        self.static = None

    def bind(self, mesh):
        self.mesh = mesh
        with nn.no_tape():
            self.static = StaticLatents(self.params, mesh, self.coarse_mesh)
        return self

    def step(self, u, bc_values=None):
        return predict_step(
            self.mesh, self.coarse_mesh, u, self.params, boundary_values=bc_values,
            static=self.static,
        )


def rollout_errors(stepper, ref, n_steps):
    """Per-step MSE of an unrolled prediction against a reference on the
    stepper's mesh, and the mean wall time of the stepper's ``step`` calls.
    Entry t of the errors is the error after t steps (entry 0 is zero)."""
    n_steps = min(n_steps, ref.n_frames - 1)
    frames, seconds = unroll(stepper, ref.fields[0, :, 0], n_steps)
    errs = np.array([np.mean((u - ref.fields[t, :, 0]) ** 2) for t, u in enumerate(frames)])
    return errs, float(seconds.mean())


@dataclass
class EvalRow:
    edge_min: float
    model: str
    mps: int
    schedule: str
    mse1: float
    mse10: float
    mse50: float
    sec_per_step: float
    next_step_mse: float = np.nan  # mean over all test transitions
    rollout: np.ndarray = field(default=None, repr=False)


CSV_COLUMNS = ("edge_min", "model", "mps", "schedule", "mse1", "mse10", "mse50", "sec_per_step",
               "next_step_mse")


@dataclass
class EvalReport:
    rows: list

    def write_csv(self, path):
        write_csv(path, CSV_COLUMNS, ([getattr(r, c) for c in CSV_COLUMNS] for r in self.rows))

    @classmethod
    def read_csv(cls, path):
        """The rows a :meth:`write_csv` file holds (without rollouts);
        ValueError naming the file and the first column its header lacks,
        or the line and column of the first missing or malformed value."""
        types = typing.get_type_hints(EvalRow)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or ())]
            if missing:
                raise ValueError(f"{path} has no {missing[0]!r} column")
            rows = []
            for row in reader:
                values = {}
                for column in CSV_COLUMNS:
                    raw = row[column]
                    if raw is None:
                        raise ValueError(f"{path} line {reader.line_num}: no {column!r} value")
                    try:
                        values[column] = types[column](raw)
                    except ValueError:
                        raise ValueError(f"{path} line {reader.line_num}: bad {column!r} "
                                         f"value {raw!r}") from None
                rows.append(EvalRow(**values))
            return cls(rows)

    def write_rollout_csv(self, path):
        write_csv(path, ("edge_min", "step", "mse"),
                  ((r.edge_min, t, e) for r in self.rows if r.rollout is not None
                   for t, e in enumerate(r.rollout)))


def evaluate(stepper_for_mesh, meshes, ref_traj, model="model", mps=0, schedule="",
             max_rollout=50):
    """Evaluate a stepper factory over test meshes against a reference.

    ``stepper_for_mesh(mesh)`` must return an object with
    ``step(u, bc_values)``. The next-step MSE averages one-step errors over
    every reference transition (the ground-truth-error protocol); MSE-N
    averages the first N rollout errors; ``sec_per_step`` is the mean wall
    time of the stepper's ``step`` calls in the rollout.

    The factory is called for every mesh, in mesh order, on the calling
    thread, before any ``step``. Then ``worker_count(len(meshes))`` threads
    compute the rows, one mesh per task, in mesh order. A task resamples the
    reference onto its mesh and makes all of its stepper's calls, next-step
    errors first, so each stepper is stepped from one thread in the same
    order as by one worker. The rows, apart from ``sec_per_step``, do not
    depend on the worker count. ``sec_per_step`` is wall time, taken while
    other meshes may run on other cores. Once a task raises, the meshes not
    yet started are skipped and its error reaches the caller.
    """
    failed = threading.Event()

    def row(mesh, stepper):
        ref = ref_traj.interpolate_to(mesh)
        errs_next = one_step_errors(stepper, ref)
        roll, sec_per_step = rollout_errors(stepper, ref, max_rollout)

        def mse_n(n):
            n = min(n, len(roll) - 1)
            return float(roll[1 : n + 1].mean())

        return EvalRow(
            edge_min=mesh.edge_min,
            model=model,
            mps=mps,
            schedule=schedule,
            mse1=mse_n(1),
            mse10=mse_n(10),
            mse50=mse_n(50),
            sec_per_step=sec_per_step,
            next_step_mse=float(errs_next.mean()),
            rollout=roll,
        )

    def task(mesh, stepper):
        # Tasks start in mesh order, so a skipped mesh comes after the one
        # that failed, and map raises that failure first.
        if failed.is_set():
            return None
        try:
            return row(mesh, stepper)
        except BaseException:
            failed.set()
            raise

    steppers = [stepper_for_mesh(mesh) for mesh in meshes]
    with ThreadPoolExecutor(worker_count(len(meshes))) as pool:
        # Once map has submitted the tasks, only a task holds its stepper,
        # so each stepper is freed when its mesh is done.
        rows = pool.map(task, meshes, steppers)
        del steppers
        return EvalReport(list(rows))


def write_history_csv(history, path):
    columns = ("step", "loss", "lr", "sec_per_step")
    write_csv(path, columns, ([row[c] for c in columns] for row in history))
