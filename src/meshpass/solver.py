"""Classical reference simulator: P1 finite-element advection-diffusion.

A passive scalar is advected by an analytic potential flow around the
obstacle (uniform flow if there is none) and diffused with constant
viscosity. Time stepping is explicit with a lumped mass matrix and enough
substeps per recorded frame to keep the CFL number at or below 0.5. On
coarse meshes a streamline artificial diffusion keeps high-Peclet elements
stable, mirroring how under-resolved classical solvers dissipate subgrid
features.

Boundary conditions: Dirichlet at inflow nodes (values frozen from the
initial state), natural no-flux on walls and the obstacle, free outflow.
"""

from __future__ import annotations

import hashlib
import os
import struct
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from .mesh import KIND_INFLOW, build_interpolator, apply_interpolator, mesh_text


class SimulationError(RuntimeError):
    pass


# The largest CFL number a substep may take.
CFL = 0.5


@dataclass(frozen=True)
class PdeConfig:
    """Problem constants: geometry, transport coefficients, time grid."""

    domain: object
    viscosity: float = 1e-3
    inflow_mean: float = 0.85
    dt: float = 0.01
    n_steps: int = 200

    def __post_init__(self):
        for name in ("viscosity", "inflow_mean", "dt"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.viscosity < 0:
            raise ValueError("viscosity must be non-negative")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {self.n_steps!r}")


def potential_flow_velocity(domain, points, u_mean):
    """Uniform flow plus a doublet: analytic potential flow past the disk."""
    points = np.atleast_2d(points)
    v = np.zeros_like(points)
    v[:, 0] = u_mean
    if not domain.has_obstacle or u_mean == 0.0:
        return v
    cx, cy = domain.obstacle_center
    r2c = domain.obstacle_radius**2
    dx = points[:, 0] - cx
    dy = points[:, 1] - cy
    r2 = np.maximum(dx * dx + dy * dy, r2c)  # clamp inside the disk
    r4 = r2 * r2
    v[:, 0] = u_mean * (1.0 - r2c * (dx * dx - dy * dy) / r4)
    v[:, 1] = u_mean * (-2.0 * r2c * dx * dy / r4)
    return v


class Trajectory:
    """Time-indexed node fields: shape (frames, N, width)."""

    def __init__(self, mesh, fields, dt):
        fields = np.asarray(fields, dtype=np.float64)
        if fields.ndim == 2:
            fields = fields[:, :, None]
        self.mesh = mesh
        self.fields = fields
        self.dt = float(dt)

    @property
    def n_frames(self):
        return self.fields.shape[0]

    @property
    def field_width(self):
        return self.fields.shape[2]

    def interpolate_to(self, mesh):
        """The first channel of every frame, interpolated at the nodes of
        ``mesh``: a Trajectory on ``mesh`` with this one's dt."""
        corners, weights = build_interpolator(self.mesh, mesh.positions)
        frames = np.stack(
            [apply_interpolator(corners, weights, self.fields[t, :, 0])
             for t in range(self.n_frames)]
        )
        return Trajectory(mesh, frames, self.dt)


def mesh_digest(mesh):
    """sha256 of the canonical mesh serialization."""
    return hashlib.sha256(mesh_text(mesh).encode()).digest()


_TRAJ_MAGIC = b"MSTRAJ01"


def save_trajectory(traj, path):
    """Versioned binary: header (mesh hash, N, frames, dt, width) + frames."""
    with open(path, "wb") as fh:
        fh.write(_TRAJ_MAGIC)
        fh.write(mesh_digest(traj.mesh))
        fh.write(
            struct.pack(
                "<QQQd",
                traj.fields.shape[1],
                traj.n_frames,
                traj.field_width,
                traj.dt,
            )
        )
        fh.write(np.ascontiguousarray(traj.fields, dtype="<f8").tobytes())


def load_trajectory(path, mesh=None):
    """Read a trajectory; if ``mesh`` is given, the mesh digest the file
    records must match it (SimulationError otherwise).

    A file whose length disagrees with its header (a truncated file, say)
    or that holds non-finite values raises SimulationError naming the path.
    """
    header = struct.Struct("<QQQd")
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(8) != _TRAJ_MAGIC:
            raise SimulationError(f"not a trajectory file: {path}")
        head_len = 8 + 32 + header.size
        if size < head_len:
            raise SimulationError(
                f"truncated trajectory file {path}: {size} bytes, header needs {head_len}"
            )
        digest = fh.read(32)
        n, frames, width, dt = header.unpack(fh.read(header.size))
        expected = head_len + 8 * frames * n * width
        if size != expected:
            raise SimulationError(
                f"trajectory file {path} has {size} bytes; its header "
                f"({frames} frames x {n} nodes x {width} channels) needs {expected}"
            )
        data = np.frombuffer(fh.read(expected - head_len), dtype="<f8")
    fields = np.array(data, dtype=np.float64).reshape(frames, n, width)
    if not np.all(np.isfinite(fields)):
        bad = int(np.argmin(np.isfinite(fields).reshape(frames, -1).all(axis=1)))
        raise SimulationError(f"non-finite values in frame {bad} of trajectory file {path}")
    if mesh is not None and mesh_digest(mesh) != digest:
        raise SimulationError("trajectory mesh hash does not match the given mesh")
    return Trajectory(mesh, fields, dt)


class FrameStepper:
    """Advances the scalar field by one recorded frame (all substeps).

    Assembles the lumped-mass explicit operator once per (mesh, config);
    shared by trajectory generation and by evaluation (``eval --solver``,
    the classical baseline), so their numbers agree bit-exactly.
    """

    def __init__(self, mesh, config):
        self.mesh = mesh
        self.config = config
        pts = mesh.positions
        tris = mesh.triangles
        a, b, c = pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]]
        area = mesh.triangle_areas()
        if np.any(area <= 0):
            raise SimulationError("mesh has non-CCW or degenerate triangles")
        # P1 basis gradients (constant per element).
        grads = np.empty((tris.shape[0], 3, 2))
        grads[:, 0, 0] = b[:, 1] - c[:, 1]
        grads[:, 0, 1] = c[:, 0] - b[:, 0]
        grads[:, 1, 0] = c[:, 1] - a[:, 1]
        grads[:, 1, 1] = a[:, 0] - c[:, 0]
        grads[:, 2, 0] = a[:, 1] - b[:, 1]
        grads[:, 2, 1] = b[:, 0] - a[:, 0]
        grads /= (2.0 * area)[:, None, None]

        centroids = (a + b + c) / 3.0
        vel = potential_flow_velocity(config.domain, centroids, config.inflow_mean)
        speed = np.hypot(vel[:, 0], vel[:, 1])
        h_elem = np.sqrt(4.0 * area / np.sqrt(3.0))
        mu = np.full(tris.shape[0], config.viscosity)
        mu += np.maximum(0.0, 0.5 * speed * h_elem - config.viscosity)

        rows, cols, vals = [], [], []
        for i in range(3):
            for j in range(3):
                kij = mu * area * (grads[:, i] * grads[:, j]).sum(axis=1)
                aij = (area / 3.0) * (vel * grads[:, j]).sum(axis=1)
                rows.append(tris[:, i])
                cols.append(tris[:, j])
                vals.append(kij + aij)
        n = mesh.n_nodes
        self.operator = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        )
        self.lumped_mass = np.bincount(tris.ravel(), np.repeat(area / 3.0, 3), minlength=n)
        self.dirichlet = np.flatnonzero(mesh.node_kind == KIND_INFLOW)

        # Explicit-stability substep count.
        rate = speed / h_elem + 4.0 * mu / h_elem**2
        if rate.max() > 0:
            dt_stable = CFL / rate.max()
            self.n_substeps = max(1, int(np.ceil(config.dt / dt_stable)))
        else:
            self.n_substeps = 1
        self.dt_sub = config.dt / self.n_substeps

    def step(self, u, bc_values=None):
        """One frame step; ``bc_values`` supplies Dirichlet data (defaults to
        the incoming values, i.e. a time-constant inflow)."""
        u = np.asarray(u, dtype=np.float64).copy()
        bc = u[self.dirichlet] if bc_values is None else np.asarray(bc_values)[self.dirichlet]
        scale = self.dt_sub * (1.0 / self.lumped_mass)
        a = self.operator
        n = a.shape[0]
        if u.shape != (n,):  # the kernel below does not check lengths
            raise SimulationError(f"state has shape {u.shape}; the mesh has {n} nodes")
        # The buffer is this call's own: ``eval --solver`` steps on threads.
        au = np.empty(n)
        for _ in range(self.n_substeps):
            # ``operator @ u`` without its dispatch: the CSR kernel it runs,
            # accumulating into zeros. _sparsetools is private scipy API;
            # test_step_matches_reference_substep_loop pins the bytes
            # against the public ``@``.
            au.fill(0.0)
            csr_matvec(n, n, a.indptr, a.indices, a.data, u, au)
            au *= scale
            u -= au
            u[self.dirichlet] = bc
        return u


def unroll(stepper, initial, n_steps):
    """Advance ``initial`` by ``n_steps`` calls of ``stepper.step(u,
    bc_values)``, holding the Dirichlet values of ``initial``.

    Returns the frames, ``initial`` first, and the wall time of each
    ``step`` call. SimulationError names the first step whose state is not
    finite. Data generation, the solver baseline and model rollouts all
    unroll through here.
    """
    frames = np.empty((n_steps + 1,) + np.shape(initial))
    frames[0] = initial
    seconds = np.empty(n_steps)
    for t in range(n_steps):
        t0 = time.perf_counter()
        frames[t + 1] = stepper.step(frames[t], initial)
        seconds[t] = time.perf_counter() - t0
        if not np.all(np.isfinite(frames[t + 1])):
            raise SimulationError(f"non-finite state at step {t + 1}")
    return frames, seconds


def simulate(mesh, config, initial):
    """Generate a trajectory of ``config.n_steps`` frames past the initial one."""
    initial = np.asarray(initial, dtype=np.float64)
    if initial.shape != (mesh.n_nodes,):
        raise SimulationError("initial state must be one scalar per node")
    if not np.all(np.isfinite(initial)):
        raise SimulationError("initial state contains non-finite values")
    frames, _ = unroll(FrameStepper(mesh, config), initial, config.n_steps)
    return Trajectory(mesh, frames, config.dt)


def gaussian_solution(points, t, center, sigma0, viscosity, velocity, amplitude=1.0):
    """Exact advected-diffused Gaussian on the free plane.

    Solves du/dt + v . grad(u) = mu * lap(u) with a Gaussian initial bump;
    valid on bounded domains while the bump stays far from the boundary.
    """
    points = np.atleast_2d(points)
    var = sigma0**2 + 4.0 * viscosity * t
    dx = points[:, 0] - center[0] - velocity[0] * t
    dy = points[:, 1] - center[1] - velocity[1] * t
    return amplitude * (sigma0**2 / var) * np.exp(-(dx * dx + dy * dy) / var)


def one_step_errors(stepper, ref):
    """Next-step MSE of the stepper against a reference on its own mesh.

    For every reference frame t, the reference state is advanced one frame
    and compared with the reference at t+1.
    """
    frames = ref.fields[:, :, 0]
    errors = np.empty(ref.n_frames - 1)
    for t in range(ref.n_frames - 1):
        pred = stepper.step(frames[t], frames[t])
        errors[t] = np.mean((pred - frames[t + 1]) ** 2)
    return errors
