"""Scenario sampling, trajectory generation, and label construction.

Scenario parameters follow the channel-flow distributions: obstacle radius
and center uniform, inflow magnitude uniform, and the minimum edge length
log-uniform.

One path turns a scenario into data: :func:`simulate_scenario` generates
the scenario mesh, the native trajectory on it and, optionally, the
high-accuracy labels. Those come from a simulation at
``edge_min / refinement`` (refinement >= 2) interpolated onto the
scenario's own mesh, so a model trained on them learns fine-scale dynamics
on a coarse mesh.

A scenario's meshes follow from its seed: the scenario mesh from ``seed``,
the fixed-resolution coarse mesh from ``seed + 1`` and the refined label
mesh from ``seed + 2``. Each is generated once. The coarse mesh is never
stored: :func:`load_dataset` builds it, once per scenario, with
:func:`coarse_mesh`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .mesh import (
    KIND_INFLOW,
    KIND_OBSTACLE,
    KIND_OUTFLOW,
    KIND_WALL,
    ChannelDomain,
    TriMesh,
    generate_mesh,
    load_mesh,
    save_mesh,
)
from .records import read_key_values, write_key_values
from .solver import PdeConfig, load_trajectory, save_trajectory, simulate

# Channel geometry and scenario distributions (meters, m/s).
CHANNEL_LENGTH = 1.0
CHANNEL_HEIGHT = 0.4
RADIUS_RANGE = (0.02, 0.08)
CENTER_X_RANGE = (0.15, 0.4)
CENTER_Y_RANGE = (0.1, 0.3)
U_MEAN_RANGE = (0.2, 12.0)
EDGE_MIN_RANGE = (1e-3, 1e-2)
COARSE_EDGE_MIN = 1e-2
# Largest distance, in units of edge_min, of a stored obstacle node from the
# meta's circle. The generator snaps obstacle nodes onto the circle and the
# mesh file keeps them to the last bit, so any real disagreement is larger.
OBSTACLE_TOL = 1e-6

# Fixed-obstacle test scenario.
TEST_U_MEAN = 0.85
TEST_DOMAIN = ChannelDomain(CHANNEL_LENGTH, CHANNEL_HEIGHT, (0.275, 0.25), 0.05)


@dataclass(frozen=True)
class ScenarioParams:
    radius: float
    center: tuple[float, float]
    inflow_mean: float
    edge_min: float
    seed: int

    def domain(self):
        return ChannelDomain(CHANNEL_LENGTH, CHANNEL_HEIGHT, self.center, self.radius)


def sample_scenarios(n, seed):
    """Draw n scenarios: R, C, U_mean uniform; edge_min log-uniform."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        radius = rng.uniform(*RADIUS_RANGE)
        cx = rng.uniform(*CENTER_X_RANGE)
        cy = rng.uniform(*CENTER_Y_RANGE)
        u_mean = rng.uniform(*U_MEAN_RANGE)
        edge_min = float(np.exp(rng.uniform(*np.log(EDGE_MIN_RANGE))))
        scen_seed = int(rng.integers(0, 2**31))
        out.append(ScenarioParams(radius, (cx, cy), u_mean, edge_min, scen_seed))
    return out


@dataclass
class Sample:
    """One next-step training pair on a scenario's fine mesh."""

    fine_mesh: TriMesh
    coarse_mesh: TriMesh | None
    inputs: np.ndarray
    targets: np.ndarray
    provenance: str  # 'native' | 'high_accuracy'
    scenario: ScenarioParams | None = None


def blob_initial(mesh_positions, rng, domain, n_blobs=2):
    """Seeded sum of Gaussian bumps placed in the upstream half."""
    u = np.zeros(mesh_positions.shape[0])
    for _ in range(n_blobs):
        cx = rng.uniform(0.08 * domain.length, 0.55 * domain.length)
        cy = rng.uniform(0.2 * domain.height, 0.8 * domain.height)
        sigma = rng.uniform(0.05, 0.12) * domain.height
        amp = rng.uniform(0.5, 1.5)
        d2 = (mesh_positions[:, 0] - cx) ** 2 + (mesh_positions[:, 1] - cy) ** 2
        u += amp * np.exp(-d2 / sigma**2)
    return u


def scenario_pde_config(scenario, viscosity=1e-3, dt=0.01, n_steps=200):
    return PdeConfig(
        scenario.domain(),
        viscosity=viscosity,
        inflow_mean=scenario.inflow_mean,
        dt=dt,
        n_steps=n_steps,
    )


def coarse_mesh(domain, seed, coarse_edge_min=COARSE_EDGE_MIN):
    """The fixed-resolution coarse mesh paired with a mesh generated from
    ``seed``; it is generated from ``seed + 1``."""
    return generate_mesh(domain, coarse_edge_min, seed=seed + 1)


def check_refinement(refinement):
    """High-accuracy labels need a label mesh at least twice as fine."""
    if refinement < 2:
        raise ValueError(f"high-accuracy labels need refine >= 2, got refine={refinement}")


def simulate_scenario(scenario, refinement=None, viscosity=1e-3, dt=0.01, n_steps=200):
    """Generate one scenario: its mesh (from ``scenario.seed``), the native
    trajectory on it and, when ``refinement`` is given, the high-accuracy
    label trajectory on the same mesh.

    Returns (mesh, trajectory, labels), with labels None without refinement.
    """
    domain = scenario.domain()
    mesh = generate_mesh(domain, scenario.edge_min, seed=scenario.seed)
    config = scenario_pde_config(scenario, viscosity, dt, n_steps)
    initial_fn = lambda pts: blob_initial(pts, np.random.default_rng(scenario.seed), domain)
    traj = simulate(mesh, config, initial_fn(mesh.positions))
    labels = None
    if refinement is not None:
        labels = high_accuracy_trajectory(mesh, config, refinement, scenario.seed, initial_fn)
    return mesh, traj, labels


def high_accuracy_trajectory(mesh, config, refinement, seed, initial_fn):
    """Simulate on a mesh at ``mesh.edge_min / refinement``, generated from
    ``seed + 2``, and interpolate every frame onto ``mesh``, which was
    generated from ``seed``. Returns the interpolated Trajectory."""
    check_refinement(refinement)
    ref_mesh = generate_mesh(config.domain, mesh.edge_min / refinement, seed=seed + 2)
    return simulate(ref_mesh, config, initial_fn(ref_mesh.positions)).interpolate_to(mesh)


def trajectory_to_samples(fine, coarse, traj, provenance, scenario=None):
    """Consecutive-frame pairs: one sample per transition (T per trajectory)."""
    return [
        Sample(fine, coarse, traj.fields[t], traj.fields[t + 1], provenance, scenario)
        for t in range(traj.n_frames - 1)
    ]


def fixed_obstacle_testset(resolutions=None, n_resolutions=5, seed=0, viscosity=1e-3,
                           dt=0.01, n_steps=50, u_mean=TEST_U_MEAN,
                           edge_min_range=None):
    """One fixed scenario at several resolutions; the finest trajectory is
    the reference. ``resolutions`` may be given explicitly, otherwise they
    are drawn log-uniformly from ``edge_min_range`` (the desk-scale default
    range is documented in the CLI config defaults).

    Returns (meshes, ref_traj, config): simulation meshes sorted coarse to
    fine. The last of them is the reference mesh itself, so its errors are
    measured against its own trajectory (for the classical solver its
    next-step error is 0.0).
    """
    if resolutions is None:
        rng = np.random.default_rng(seed)
        lo, hi = edge_min_range if edge_min_range is not None else EDGE_MIN_RANGE
        resolutions = sorted(
            np.exp(rng.uniform(np.log(lo), np.log(hi), size=n_resolutions)),
            reverse=True,
        )
    resolutions = [float(r) for r in resolutions]
    if sorted(resolutions, reverse=True) != resolutions:
        raise ValueError("resolutions must be sorted descending")
    config = PdeConfig(TEST_DOMAIN, viscosity=viscosity, inflow_mean=u_mean, dt=dt,
                       n_steps=n_steps)
    meshes = [generate_mesh(TEST_DOMAIN, r, seed=seed) for r in resolutions]
    ref_mesh = meshes[-1]  # the finest trajectory is the designated reference
    rng = np.random.default_rng(seed)
    initial = blob_initial(ref_mesh.positions, rng, TEST_DOMAIN)
    ref_traj = simulate(ref_mesh, config, initial)
    return meshes, ref_traj, config


# ---------------------------------------------------------------------------
# On-disk dataset layout: scenario_<id>/{mesh.msh, trajectory.bin,
# labels_ha.bin, meta}
# ---------------------------------------------------------------------------


def write_scenario_dir(root, index, scenario, mesh, traj, ha_traj=None, extra_meta=None):
    d = os.path.join(root, f"scenario_{index:04d}")
    os.makedirs(d, exist_ok=True)
    save_mesh(mesh, os.path.join(d, "mesh.msh"))
    save_trajectory(traj, os.path.join(d, "trajectory.bin"))
    meta = {
        "radius": scenario.radius,
        "center_x": scenario.center[0],
        "center_y": scenario.center[1],
        "inflow_mean": scenario.inflow_mean,
        "edge_min": scenario.edge_min,
        "seed": scenario.seed,
        "provenance": "native" if ha_traj is None else "high_accuracy",
    }
    if extra_meta:
        meta.update(extra_meta)
    if ha_traj is not None:
        save_trajectory(ha_traj, os.path.join(d, "labels_ha.bin"))
    write_key_values(os.path.join(d, "meta"), meta)
    return d


def _check_mesh_matches_meta(scenario, mesh, meta_path, mesh_path):
    """ValueError naming both files and the first value that disagrees if
    ``mesh`` was not generated for ``scenario``: its stored sizing edge_min
    is not the scenario's, a wall, inflow or outflow node is not exactly on
    its side of the scenario's rectangle (the generator snaps them there),
    only one of the two has an obstacle, or an obstacle node does not lie
    on the scenario's disk."""
    def disagree(what):
        return ValueError(f"{meta_path} disagrees with {mesh_path}: {what}")

    if mesh.edge_min != scenario.edge_min:
        raise disagree(f"edge_min is {scenario.edge_min!r} in the meta, "
                       f"{mesh.edge_min!r} in the mesh sizing")
    domain = scenario.domain()
    x, y = mesh.positions.T
    for kind, name, axis, coord, sides in (
            (KIND_WALL, "wall", "y", y, (0.0, domain.height)),
            (KIND_INFLOW, "inflow", "x", x, (0.0,)),
            (KIND_OUTFLOW, "outflow", "x", x, (domain.length,))):
        off = np.flatnonzero((mesh.node_kind == kind) & ~np.isin(coord, sides))
        if off.size:
            i = off[0]
            raise disagree(f"{name} node {i} lies at {axis} = {float(coord[i])!r}, off the "
                           f"meta's {' and '.join(f'{axis} = {v!r}' for v in sides)}")
    obstacle = np.flatnonzero(mesh.node_kind == KIND_OBSTACLE)
    if domain.has_obstacle != (obstacle.size > 0):
        raise disagree(f"the meta's radius {scenario.radius!r} makes "
                       f"{'an' if domain.has_obstacle else 'no'} obstacle, and the mesh "
                       f"has {obstacle.size} obstacle nodes")
    if obstacle.size:
        cx, cy = domain.obstacle_center
        dist = np.hypot(mesh.positions[obstacle, 0] - cx, mesh.positions[obstacle, 1] - cy)
        off = np.flatnonzero(np.abs(dist - scenario.radius) > OBSTACLE_TOL * scenario.edge_min)
        if off.size:
            i = off[0]
            raise disagree(f"obstacle node {obstacle[i]} lies {float(dist[i])!r} from the "
                           f"meta's center ({cx!r}, {cy!r}), off its radius "
                           f"{scenario.radius!r}")


def read_scenario_dir(path):
    """Returns (scenario, mesh, trajectory, ha_trajectory_or_None, meta);
    ValueError naming the meta file for a missing or malformed entry, or for
    entries that make no valid domain (a non-finite radius, say); naming
    the meta and ``labels_ha.bin`` when that file is not present exactly
    when the meta's provenance is ``high_accuracy``; and naming the meta
    and the mesh file when they disagree (:func:`_check_mesh_matches_meta`)."""
    meta_path = os.path.join(path, "meta")
    meta = read_key_values(meta_path)

    def entry(key, typ=float):
        try:
            return typ(meta[key])
        except KeyError:
            raise ValueError(f"{meta_path} has no {key!r} entry") from None
        except ValueError:
            raise ValueError(f"bad value for {key!r} in {meta_path}: {meta[key]!r}") from None

    scenario = ScenarioParams(
        radius=entry("radius"),
        center=(entry("center_x"), entry("center_y")),
        inflow_mean=entry("inflow_mean"),
        edge_min=entry("edge_min"),
        seed=entry("seed", int),
    )
    try:
        scenario.domain()
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from None
    provenance = entry("provenance", str)
    ha_path = os.path.join(path, "labels_ha.bin")
    has_labels = os.path.exists(ha_path)
    if has_labels != (provenance == "high_accuracy"):
        raise ValueError(f"{meta_path} disagrees with {ha_path}: the meta's provenance is "
                         f"{provenance!r}, and the labels file is "
                         f"{'present' if has_labels else 'missing'}")
    mesh_path = os.path.join(path, "mesh.msh")
    mesh = load_mesh(mesh_path)
    _check_mesh_matches_meta(scenario, mesh, meta_path, mesh_path)
    traj, _ = load_trajectory(os.path.join(path, "trajectory.bin"), mesh)
    ha = None
    if has_labels:
        ha, _ = load_trajectory(ha_path, mesh)
    return scenario, mesh, traj, ha, meta


def load_dataset(root, coarse_edge_min=COARSE_EDGE_MIN):
    """Rebuild training samples from a dataset directory.

    Each scenario's coarse mesh is generated here, once, from its stored
    parameters at ``coarse_edge_min``; with ``coarse_edge_min=None`` none
    is generated and the samples hold None, for a single-level model.
    High-accuracy labels are used when present.
    """
    samples = []
    names = sorted(
        n for n in os.listdir(root) if n.startswith("scenario_")
    )
    for name in names:
        scenario, mesh, traj, ha, _ = read_scenario_dir(os.path.join(root, name))
        coarse = None
        if coarse_edge_min is not None:
            coarse = coarse_mesh(scenario.domain(), scenario.seed, coarse_edge_min)
        use = ha if ha is not None else traj
        provenance = "high_accuracy" if ha is not None else "native"
        samples.extend(trajectory_to_samples(mesh, coarse, use, provenance, scenario))
    return samples
