"""Triangular meshes: generation, point location, barycentric interpolation.

Meshes discretize a rectangular channel with an optional circular obstacle.
Generation follows the force-equilibrium Delaunay approach with a sizing
field that targets edges of ``edge_min`` near the obstacle and grows
linearly toward ``edge_max = 5 * edge_min`` in the interior.

Point location has one batched path, :func:`locate_points`, behind
:func:`locate_point`, :func:`build_interpolator` and the containment
transfer edges; :func:`locate_point_brute` is its exhaustive reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay

NODE_KINDS = ("interior", "wall", "inflow", "outflow", "obstacle")
KIND_INTERIOR, KIND_WALL, KIND_INFLOW, KIND_OUTFLOW, KIND_OBSTACLE = range(5)
_KIND_CODE = {name: i for i, name in enumerate(NODE_KINDS)}

# Linear growth rate of the sizing field away from the obstacle.
SIZING_GRADE = 0.45
# Slack factors bounding admissible edge lengths.
EDGE_SLACK_LOW = 0.5
EDGE_SLACK_HIGH = 1.5
# Rounds of edge splitting/collapsing allowed after the force iteration.
SPLIT_COLLAPSE_ROUNDS = 10


class MeshGenerationError(RuntimeError):
    """Mesh generation could not satisfy the sizing constraints."""


class OutsideDomainError(ValueError):
    """A query point lies outside the meshed domain (beyond tolerance)."""


@dataclass(frozen=True)
class ChannelDomain:
    """Rectangular channel [0, length] x [0, height] minus an optional disk."""

    length: float
    height: float
    obstacle_center: tuple[float, float] | None = None
    obstacle_radius: float = 0.0

    def __post_init__(self):
        center = () if self.obstacle_center is None else self.obstacle_center
        for name, value in (("length", self.length), ("height", self.height),
                            ("obstacle_center", center),
                            ("obstacle_radius", self.obstacle_radius)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.length <= 0 or self.height <= 0:
            raise ValueError("channel dimensions must be positive")
        if self.has_obstacle:
            cx, cy = self.obstacle_center
            r = self.obstacle_radius
            if r <= 0:
                raise ValueError("obstacle radius must be positive")
            if not (r < cx < self.length - r and r < cy < self.height - r):
                raise ValueError("obstacle disk must lie strictly inside the channel")

    @property
    def has_obstacle(self):
        return self.obstacle_center is not None and self.obstacle_radius > 0.0

    def signed_distance(self, pts):
        """Negative inside the domain, positive outside (rect minus disk)."""
        pts = np.atleast_2d(pts)
        return self.signed_distance_xy(pts[:, 0], pts[:, 1])

    def signed_distance_xy(self, x, y):
        """:meth:`signed_distance` of the points with coordinates x and y."""
        d_rect = -np.minimum(np.minimum(np.minimum(x, self.length - x), y), self.height - y)
        if not self.has_obstacle:
            return d_rect
        cx, cy = self.obstacle_center
        d_disk = np.hypot(x - cx, y - cy) - self.obstacle_radius
        return np.maximum(d_rect, -d_disk)

    def obstacle_clearance(self):
        """Closest approach of the obstacle boundary to the channel walls."""
        if not self.has_obstacle:
            return np.inf
        cx, cy = self.obstacle_center
        r = self.obstacle_radius
        return min(cx - r, self.length - cx - r, cy - r, self.height - cy - r)


@dataclass(frozen=True)
class BaryLocation:
    """Containing (or nearest) triangle plus barycentric weights."""

    triangle_index: int
    weights: tuple[float, float, float]


def unique_edges(pairs, n_nodes):
    """Unique undirected edges of (P, 2) node index pairs below ``n_nodes``,
    equal in values and dtype to ``np.unique(np.sort(pairs, axis=1), axis=0)``.
    Sorts the int64 keys ``min * n_nodes + max`` once and keeps the first of
    each run (numpy 2's hashing 1-D ``np.unique`` took 8x as long on the 28k
    keys of a 2e-3 mesh)."""
    pairs = np.asarray(pairs)
    lo = np.minimum(pairs[:, 0], pairs[:, 1]).astype(np.int64)
    hi = np.maximum(pairs[:, 0], pairs[:, 1]).astype(np.int64)
    keys = np.sort(lo * n_nodes + hi)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    return np.column_stack(np.divmod(keys, n_nodes)).astype(pairs.dtype, copy=False)


def triangle_edges(tris, n_nodes):
    """:func:`unique_edges` of the sides of (T, 3) triangles."""
    return unique_edges(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), n_nodes)


class TriMesh:
    """Immutable planar triangulation with tagged boundary nodes.

    positions : (N, 2) float64
    triangles : (T, 3) int64, counter-clockwise
    node_kind : (N,) int64, codes into NODE_KINDS
    """

    def __init__(self, positions, triangles, node_kind, edge_min, edge_max):
        self.positions = np.asarray(positions, dtype=np.float64)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        self.node_kind = np.asarray(node_kind, dtype=np.int64)
        self.edge_min = float(edge_min)
        self.edge_max = float(edge_max)
        self._cache = {}
        for arr in (self.positions, self.triangles, self.node_kind):
            arr.setflags(write=False)

    @property
    def n_nodes(self):
        return self.positions.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    def undirected_edges(self):
        """Unique mesh edges as (E, 2) index pairs with i < j, sorted."""
        if "edges" not in self._cache:
            self._cache["edges"] = triangle_edges(self.triangles, self.n_nodes)
        return self._cache["edges"]

    def edge_lengths(self):
        e = self.undirected_edges()
        d = self.positions[e[:, 0]] - self.positions[e[:, 1]]
        return np.hypot(d[:, 0], d[:, 1])

    def triangle_areas(self):
        if "areas" not in self._cache:
            a, b, c = (self.positions[self.triangles[:, k]] for k in range(3))
            self._cache["areas"] = 0.5 * (
                (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])
            )
        return self._cache["areas"]

    def euler_characteristic(self):
        """V - E + T; 1 for a disk-like domain, 0 with one interior hole."""
        return self.n_nodes - len(self.undirected_edges()) + self.n_triangles

    def bounding_box(self):
        return self.positions.min(axis=0), self.positions.max(axis=0)


def _barycentric(a, b, c, p):
    """Barycentric weights of p in triangle (a, b, c) (exact for CCW
    triangles). Each argument holds x in row 0 and y in row 1: a point, or
    one column per (point, triangle) pair, giving weights of shape (3,) or
    (3, pairs) from the same expression."""
    det = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
    w1 = ((p[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (p[1] - a[1])) / det
    w2 = ((b[0] - a[0]) * (p[1] - a[1]) - (p[0] - a[0]) * (b[1] - a[1])) / det
    return np.array([1.0 - w1 - w2, w1, w2])


_CONTAIN_TOL = -1e-12


def locate_point_brute(mesh, p):
    """Reference point location: exhaustive ascending scan over triangles.

    Returns the lowest-index containing triangle; if none contains p, the
    nearest triangle by squared distance with weights projected onto the
    simplex. This is the correctness oracle for :func:`locate_points`.
    """
    p = np.asarray(p, dtype=np.float64)
    for t_idx in range(mesh.n_triangles):
        w = _barycentric(*mesh.positions[mesh.triangles[t_idx]], p)
        if np.all(w >= _CONTAIN_TOL):
            w = np.clip(w, 0.0, None)
            return BaryLocation(t_idx, tuple(w / w.sum()))
    return _nearest_snap(mesh, p)


def _segment_closest(a, b, p):
    ab = b - a
    t = np.clip(np.dot(p - a, ab) / max(np.dot(ab, ab), 1e-300), 0.0, 1.0)
    return a + t * ab


def _nearest_snap(mesh, p):
    """Nearest triangle by squared distance; weights of the projected point."""
    pts = mesh.positions
    best = (np.inf, -1, None)
    for t_idx, tri in enumerate(mesh.triangles):
        w = _barycentric(*pts[tri], p)
        if np.all(w >= _CONTAIN_TOL):
            q = p
        else:
            q = None
            d2q = np.inf
            for k in range(3):
                a, b = pts[tri[k]], pts[tri[(k + 1) % 3]]
                cand = _segment_closest(a, b, p)
                d2 = float(np.dot(cand - p, cand - p))
                if d2 < d2q:
                    d2q, q = d2, cand
        d2 = float(np.dot(q - p, q - p))
        if d2 < best[0] - 1e-300 or (abs(d2 - best[0]) <= 1e-300 and t_idx < best[1]):
            best = (d2, t_idx, q)
    w = _barycentric(*pts[mesh.triangles[best[1]]], best[2])
    w = np.clip(w, 0.0, None)
    w = w / w.sum()
    return BaryLocation(best[1], tuple(w))


def _grid_cells(points, lo, cell, shape):
    """(i, j) background-grid cell of each point, clamped to the grid."""
    return np.clip(np.floor((points - lo) / cell).astype(np.int64), 0, shape - 1)


def _ranges(starts, counts):
    """Concatenated ``arange(start, start + count)`` of each pair."""
    offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return offsets + np.arange(offsets.size)


def _triangle_grid(mesh):
    """Background grid of about ``edge_max`` cells over the bounding box:
    ``(lo, cell size, (nx, ny), indptr, triangles)``, the CSR lists of the
    triangles whose bounding box meets each cell (``i * ny + j``), in
    ascending order. Cached on the mesh."""
    if "locator" not in mesh._cache:
        lo, hi = mesh.bounding_box()
        span = np.maximum(hi - lo, 1e-300)
        shape = np.maximum(1, np.ceil(span / max(mesh.edge_max, 1e-12))).astype(np.int64)
        cell = span / shape
        corners = mesh.positions[mesh.triangles]
        first = _grid_cells(corners.min(axis=1), lo, cell, shape)
        extent = _grid_cells(corners.max(axis=1), lo, cell, shape) - first + 1
        n_cells = extent.prod(axis=1)
        tri = np.repeat(np.arange(mesh.n_triangles), n_cells)
        box = np.divmod(_ranges(0, n_cells), extent[tri, 1])
        cells = (first[tri] + np.column_stack(box)) @ (shape[1], 1)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(cells, minlength=shape.prod()))])
        mesh._cache["locator"] = (lo, cell, shape, indptr, tri[np.argsort(cells, kind="stable")])
    return mesh._cache["locator"]


def locate_points(mesh, points):
    """Containing triangle index (n,) and barycentric weights (n, 3) of
    every point, equal to :func:`locate_point_brute` point by point.

    Each point is tested against the triangles of its grid cell in one
    batched pass; the lowest-index container wins (shared vertices and
    edges), its weights clipped and normalised. A point in no triangle,
    e.g. between a coarse obstacle polygon and the true circle, snaps to
    the nearest one. A point outside the slightly expanded bounding box,
    or not finite, raises :class:`OutsideDomainError` naming the first.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    lo, hi = mesh.bounding_box()
    tol = 1e-9 * float(np.hypot(*(hi - lo)))
    outside = ~((points >= lo - tol) & (points <= hi + tol)).all(axis=1)
    if outside.any():
        p = points[np.flatnonzero(outside)[0]]
        raise OutsideDomainError(f"point {p.tolist()} outside meshed domain")
    grid_lo, cell, shape, indptr, cell_tris = _triangle_grid(mesh)
    cells = _grid_cells(points, grid_lo, cell, shape) @ (shape[1], 1)
    count = indptr[cells + 1] - indptr[cells]
    point = np.repeat(np.arange(len(points)), count)
    cand = cell_tris[_ranges(indptr[cells], count)]
    w = _barycentric(*mesh.positions[mesh.triangles[cand]].transpose(1, 2, 0), points[point].T).T
    hit = np.flatnonzero((w >= _CONTAIN_TOL).all(axis=1))
    located, first = np.unique(point[hit], return_index=True)
    triangle = np.empty(len(points), dtype=np.int64)
    weights = np.empty((len(points), 3))
    triangle[located] = cand[hit[first]]
    w = np.clip(w[hit[first]], 0.0, None)
    weights[located] = w / w.sum(axis=1, keepdims=True)
    for i in np.setdiff1d(np.arange(len(points)), located):
        loc = _nearest_snap(mesh, points[i])
        triangle[i], weights[i] = loc.triangle_index, loc.weights
    return triangle, weights


def locate_point(mesh, p):
    """One-point view of :func:`locate_points`, as a :class:`BaryLocation`."""
    triangle, weights = locate_points(mesh, np.asarray(p, dtype=np.float64)[None])
    return BaryLocation(int(triangle[0]), tuple(weights[0]))


def build_interpolator(src_mesh, query_points):
    """Precompute (triangle corners, weights) rows for repeated interpolation."""
    triangle, weights = locate_points(src_mesh, query_points)
    return src_mesh.triangles[triangle], weights


def apply_interpolator(corners, weights, field):
    field = np.asarray(field, dtype=np.float64)
    if field.ndim == 1:
        return (field[corners] * weights).sum(axis=1)
    return np.einsum("qc,qck->qk", weights, field[corners])


def interpolate_field(src_mesh, field, query_points):
    """Barycentric (P1) interpolation of a per-node field at query points."""
    field = np.asarray(field, dtype=np.float64)
    if field.shape[0] != src_mesh.n_nodes:
        raise ValueError("field length does not match source mesh node count")
    corners, weights = build_interpolator(src_mesh, query_points)
    return apply_interpolator(corners, weights, field)


# ---------------------------------------------------------------------------
# Mesh generation
# ---------------------------------------------------------------------------


def _sizing_field(domain, edge_min, edge_max):
    """Target edge length h(x, y) at the points with coordinates x and y."""
    if not domain.has_obstacle:
        return lambda x, y: np.full(np.shape(x), edge_min)

    cx, cy = domain.obstacle_center
    r = domain.obstacle_radius

    def h(x, y):
        dist = np.abs(np.hypot(x - cx, y - cy) - r)
        return np.minimum(edge_min + SIZING_GRADE * dist, edge_max)

    return h


def _corner_mesh(domain):
    """The coarsest admissible triangulation: corners only, two triangles."""
    L, H = domain.length, domain.height
    positions = np.array([[0.0, 0.0], [L, 0.0], [L, H], [0.0, H]])
    triangles = np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int64)
    kinds = np.array([KIND_INFLOW, KIND_OUTFLOW, KIND_OUTFLOW, KIND_INFLOW])
    return positions, triangles, kinds


def _interior_triangles(domain, x, y, tris, geps):
    """The triangles whose centroid lies deeper than ``geps`` inside."""
    a, b, c = tris.T
    d = domain.signed_distance_xy((x[a] + x[b] + x[c]) / 3, (y[a] + y[b] + y[c]) / 3)
    return tris[d < -geps]


def _project_to_boundary(domain, x, y, deps):
    """Move the points outside the domain onto its boundary along the
    central-difference gradient of the signed distance, writing into x and
    y. Returns the signed distance of every point after the move."""
    d = domain.signed_distance_xy(x, y)
    out = np.flatnonzero(d > 0)
    if not out.size:
        return d
    px, py = x[out], y[out]
    # The four shifts in one call. A zero shift is not added: ``v + 0.0``
    # is ``v`` for every v but -0.0, and coordinates here are sums that
    # start from +0.0, so never -0.0.
    m = out.size
    shifted = domain.signed_distance_xy(
        np.concatenate([px + deps, px - deps, px, px]),
        np.concatenate([py, py, py + deps, py - deps]),
    )
    dx = (shifted[:m] - shifted[m:2 * m]) / (2 * deps)
    dy = (shifted[2 * m:3 * m] - shifted[3 * m:]) / (2 * deps)
    norm = np.maximum(np.hypot(dx, dy), 1e-12)
    t = d[out] / norm**2
    px = px - t * dx
    py = py - t * dy
    x[out], y[out] = px, py
    d[out] = domain.signed_distance_xy(px, py)
    return d


def _classify_and_snap(domain, points, edge_min):
    """Tag boundary nodes and place them exactly on their boundary curve."""
    points = points.copy()
    kinds = np.full(points.shape[0], KIND_INTERIOR, dtype=np.int64)
    tol = 0.1 * edge_min
    L, H = domain.length, domain.height
    if domain.has_obstacle:
        cx, cy = domain.obstacle_center
        r = domain.obstacle_radius
        rad = np.hypot(points[:, 0] - cx, points[:, 1] - cy)
        on_obs = np.abs(rad - r) < tol
        scale = r / np.maximum(rad[on_obs], 1e-300)
        points[on_obs, 0] = cx + (points[on_obs, 0] - cx) * scale
        points[on_obs, 1] = cy + (points[on_obs, 1] - cy) * scale
        kinds[on_obs] = KIND_OBSTACLE
    free = kinds == KIND_INTERIOR
    on_wall_lo = free & (np.abs(points[:, 1]) < tol)
    on_wall_hi = free & (np.abs(points[:, 1] - H) < tol)
    points[on_wall_lo, 1] = 0.0
    points[on_wall_hi, 1] = H
    kinds[on_wall_lo | on_wall_hi] = KIND_WALL
    on_in = (kinds != KIND_OBSTACLE) & (np.abs(points[:, 0]) < tol)
    on_out = (kinds != KIND_OBSTACLE) & (np.abs(points[:, 0] - L) < tol)
    points[on_in, 0] = 0.0
    points[on_out, 0] = L
    kinds[on_in] = KIND_INFLOW
    kinds[on_out] = KIND_OUTFLOW
    return points, kinds


def _orient_ccw(points, tris):
    a, b, c = (points[tris[:, k]] for k in range(3))
    area2 = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])
    flip = area2 < 0
    tris = tris.copy()
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return tris


def _drop_unused(points, kinds, tris):
    used = np.unique(tris)
    remap = -np.ones(points.shape[0], dtype=np.int64)
    remap[used] = np.arange(used.size)
    return points[used], kinds[used], remap[tris]


def generate_mesh(domain, edge_min, seed=0):
    """Generate a graded triangulation of the domain.

    The sizing field targets ``edge_min`` on the obstacle boundary and grows
    linearly (slope ``SIZING_GRADE``) up to ``edge_max = 5 * edge_min``;
    without an obstacle the target is uniform at ``edge_min``. Deterministic
    for fixed (domain, edge_min, seed).

    ``edge_min`` is the target edge length, not a lower bound: edges come
    out on both sides of it, within ``[EDGE_SLACK_LOW * edge_min,
    EDGE_SLACK_HIGH * edge_max]``. A domain without an obstacle gets mean
    edges of about ``edge_min`` and, like an equilateral tiling at edge
    ``h = edge_min`` of a rectangle with area ``A`` and perimeter ``P``,
    about ``2A / (sqrt(3) h^2) + P / (2h) + 1`` nodes.

    Raises :class:`MeshGenerationError` if the sizing is infeasible, if the
    split/collapse pass leaves edges out of range after
    ``SPLIT_COLLAPSE_ROUNDS`` rounds, or if the mesh fails
    :func:`validate_mesh`.
    """
    if not 0 < edge_min < np.inf:
        raise MeshGenerationError(f"edge_min must be positive and finite, got {edge_min!r}")
    edge_max = 5.0 * edge_min
    if domain.has_obstacle:
        clearance = domain.obstacle_clearance()
        if edge_min > clearance:
            raise MeshGenerationError(
                f"edge_min {edge_min:g} exceeds obstacle clearance {clearance:g}; "
                "refine the sizing or move the obstacle"
            )
        if 2 * np.pi * domain.obstacle_radius < 4 * edge_min:
            raise MeshGenerationError(
                "obstacle circumference supports fewer than 4 boundary segments "
                f"at edge_min {edge_min:g}"
            )
    elif edge_min >= min(domain.length, domain.height):
        positions, triangles, kinds = _corner_mesh(domain)
        return TriMesh(positions, triangles, kinds, edge_min, edge_max)

    h_fn = _sizing_field(domain, edge_min, edge_max)
    rng = np.random.default_rng(seed)
    L, H = domain.length, domain.height
    h0 = edge_min

    # Hexagonal candidate lattice thinned by the sizing field.
    xs = np.arange(0.0, L + 0.5 * h0, h0)
    ys = np.arange(0.0, H + 0.5 * h0 * np.sqrt(3) / 2, h0 * np.sqrt(3) / 2)
    gx, gy = np.meshgrid(xs, ys)
    gx[1::2] += h0 / 2
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    pts = pts[domain.signed_distance(pts) < 0.5 * h0]
    density = (h0 / h_fn(pts[:, 0], pts[:, 1])) ** 2
    pts = pts[rng.random(pts.shape[0]) < density / density.max()]

    fixed = [np.array([[0.0, 0.0], [L, 0.0], [L, H], [0.0, H]])]
    if domain.has_obstacle:
        cx, cy = domain.obstacle_center
        r = domain.obstacle_radius
        n_ring = max(int(np.ceil(2 * np.pi * r / edge_min)), 8)
        th = 2 * np.pi * np.arange(n_ring) / n_ring
        fixed.append(np.column_stack([cx + r * np.cos(th), cy + r * np.sin(th)]))
    pfix = np.concatenate(fixed, axis=0)
    # Drop lattice points that collide with fixed ones.
    keep = np.ones(pts.shape[0], dtype=bool)
    for q in pfix:
        keep &= np.hypot(pts[:, 0] - q[0], pts[:, 1] - q[1]) > 0.5 * h0
    pts = np.concatenate([pfix, pts[keep]], axis=0)
    n_fix = pfix.shape[0]

    geps = 1e-3 * h0
    deps = np.sqrt(np.finfo(float).eps) * h0
    fscale, deltat = 1.2, 0.2
    # The force loop keeps x and y as separate contiguous columns.
    n = pts.shape[0]
    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    old_x = old_y = np.full(n, np.inf)
    for _ in range(200):
        # Retriangulate once a point has moved a quarter of its own target
        # size since the last triangulation (DistMesh's test at the local
        # size; a tenth made twice the Delaunay calls for meshes of equal
        # quality).
        if np.any(np.hypot(x - old_x, y - old_y) > 0.25 * h_fn(x, y)):
            # No copy: each iteration binds x and y to new arrays before the
            # projection writes into them.
            old_x, old_y = x, y
            tris = Delaunay(np.column_stack([x, y])).simplices
            tris = _interior_triangles(domain, x, y, tris, geps)
            first, second = triangle_edges(tris, n).T.copy()
            ends = np.concatenate([first, second])
        x1, y1, x2, y2 = x[first], y[first], x[second], y[second]
        vx, vy = x1 - x2, y1 - y2
        lengths = np.hypot(vx, vy)
        hbars = h_fn(0.5 * (x1 + x2), 0.5 * (y1 + y2))
        l0 = hbars * fscale * np.sqrt((lengths**2).sum() / (hbars**2).sum())
        force = np.maximum(l0 - lengths, 0.0)
        ratio = force / np.maximum(lengths, 1e-300)
        fx, fy = ratio * vx, ratio * vy
        # bincount sums each node's terms in order, from 0.0: the bars it
        # starts (+f), then the bars it ends (-f).
        move_x = np.bincount(ends, np.concatenate([fx, -fx]), minlength=n)
        move_y = np.bincount(ends, np.concatenate([fy, -fy]), minlength=n)
        move_x[:n_fix] = 0.0
        move_y[:n_fix] = 0.0
        x = x + deltat * move_x
        y = y + deltat * move_y
        interior = _project_to_boundary(domain, x, y, deps) < -geps
        disp = deltat * np.hypot(move_x, move_y)
        if np.max(disp[interior], initial=0.0) < 1e-3 * h0:
            break
    pts = np.column_stack([x, y])

    protected = np.zeros(pts.shape[0], dtype=bool)
    protected[:n_fix] = True
    fresh = np.zeros(pts.shape[0], dtype=bool)
    for rounds in range(SPLIT_COLLAPSE_ROUNDS + 1):
        tris = Delaunay(pts).simplices
        tris = _interior_triangles(domain, pts[:, 0], pts[:, 1], tris, geps)
        bars = triangle_edges(tris, pts.shape[0])
        vec = pts[bars[:, 0]] - pts[bars[:, 1]]
        lengths = np.hypot(vec[:, 0], vec[:, 1])
        short = lengths < 0.55 * edge_min
        long = lengths > 1.35 * edge_max
        if not np.any(short) and not np.any(long):
            break
        if rounds == SPLIT_COLLAPSE_ROUNDS:
            bad = int(np.flatnonzero(short | long)[0])
            a, b = pts[bars[bad, 0]], pts[bars[bad, 1]]
            raise MeshGenerationError(
                f"split/collapse pass did not converge after {rounds} rounds: edge "
                f"({a[0]:.4g}, {a[1]:.4g})-({b[0]:.4g}, {b[1]:.4g}) has length "
                f"{lengths[bad]:.3g}, outside [{0.55 * edge_min:.3g}, "
                f"{1.35 * edge_max:.3g}]"
            )
        # Collapse over-short edges by deleting one endpoint; split over-long
        # edges at their midpoint. Fixed points and the midpoints inserted in
        # the previous round are never deleted: removing a fresh midpoint
        # would restore the long edge it split and the pass would cycle.
        pinned = protected | fresh
        victims = set()
        for i, j in bars[short]:
            if i in victims or j in victims or (pinned[i] and pinned[j]):
                continue
            victims.add(int(j) if not pinned[j] else int(i))
        midpoints = 0.5 * (pts[bars[long, 0]] + pts[bars[long, 1]])
        keep = np.ones(pts.shape[0], dtype=bool)
        if victims:
            keep[list(victims)] = False
        pts = np.concatenate([pts[keep], midpoints], axis=0)
        protected = np.concatenate(
            [protected[keep], np.zeros(midpoints.shape[0], dtype=bool)]
        )
        fresh = np.zeros(pts.shape[0], dtype=bool)
        fresh[pts.shape[0] - midpoints.shape[0]:] = True
        _project_to_boundary(domain, pts[:, 0], pts[:, 1], deps)  # writes into pts

    # The pass only leaves the loop through its break, so ``tris`` is the
    # triangulation of the final ``pts``.
    points, kinds = _classify_and_snap(domain, pts, edge_min)
    tris = _remove_slivers(points, tris)
    points, kinds, tris = _drop_unused(points, kinds, tris)
    tris = _orient_ccw(points, tris)
    mesh = TriMesh(points, tris, kinds, edge_min, edge_max)
    validate_mesh(mesh, domain)
    return mesh


def _remove_slivers(points, tris):
    """Drop near-degenerate triangles (boundary slivers from the final pass)."""
    a, b, c = (points[tris[:, k]] for k in range(3))
    area2 = np.abs(
        (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])
    )
    lab = np.hypot(*(b - a).T)
    lbc = np.hypot(*(c - b).T)
    lca = np.hypot(*(a - c).T)
    longest = np.maximum.reduce([lab, lbc, lca])
    # Height of the triangle over its longest edge, relative to that edge.
    flatness = area2 / np.maximum(longest**2, 1e-300)
    return tris[flatness > 0.02]


def out_of_range_triangles(triangles, n_nodes):
    """Row numbers of the triangles with a corner index outside [0, n_nodes)."""
    return np.flatnonzero(((triangles < 0) | (triangles >= n_nodes)).any(axis=1))


def validate_mesh(mesh, domain=None):
    """Check the structural invariants; raises MeshGenerationError on failure."""
    if out_of_range_triangles(mesh.triangles, mesh.n_nodes).size:
        raise MeshGenerationError("triangle index out of range")
    areas = mesh.triangle_areas()
    if np.any(areas <= 0):
        raise MeshGenerationError("non-positive triangle area (degenerate or CW triangle)")
    lengths = mesh.edge_lengths()
    lo = EDGE_SLACK_LOW * mesh.edge_min
    hi = EDGE_SLACK_HIGH * mesh.edge_max
    if lengths.min() < lo or lengths.max() > hi:
        raise MeshGenerationError(
            f"edge length out of bounds: [{lengths.min():.3g}, {lengths.max():.3g}] "
            f"not within [{lo:.3g}, {hi:.3g}]"
        )
    if domain is not None:
        expected = 0 if domain.has_obstacle else 1
        chi = mesh.euler_characteristic()
        if chi != expected:
            raise MeshGenerationError(
                f"euler characteristic {chi} != {expected} for this topology"
            )
    return True


# ---------------------------------------------------------------------------
# Mesh file format: "msmesh v1"
# ---------------------------------------------------------------------------


def mesh_text(mesh):
    """Canonical "msmesh v1" serialization (see README for the grammar)."""
    lines = [
        "msmesh v1",
        f"sizing {mesh.edge_min!r} {mesh.edge_max!r}",
        str(mesh.n_nodes),
    ]
    for p, k in zip(mesh.positions, mesh.node_kind):
        lines.append(f"{float(p[0])!r} {float(p[1])!r} {NODE_KINDS[k]}")
    lines.append(str(mesh.n_triangles))
    for t in mesh.triangles:
        lines.append(f"{t[0]} {t[1]} {t[2]}")
    return "\n".join(lines) + "\n"


def save_mesh(mesh, path):
    """Write the structured-text mesh format."""
    with open(path, "w") as fh:
        fh.write(mesh_text(mesh))


def load_mesh(path):
    """Read a mesh written by :func:`save_mesh`.

    A truncated or malformed file, an unknown node kind or a triangle
    corner index out of range raises ValueError naming the path and line.
    """
    with open(path) as fh:
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, start=1) if ln.strip()]
    cursor = iter(lines)

    def parse(what, convert):
        no, text = next(cursor, (None, None))
        if text is None:
            raise ValueError(f"{path}: file ends before the {what} (truncated mesh file)")
        try:
            return no, convert(text)
        except (ValueError, KeyError) as exc:
            raise ValueError(f"{path}, line {no}: bad {what} {text!r} ({exc})") from None

    def node(text):
        x, y, kind = text.split()
        if kind not in _KIND_CODE:
            raise ValueError(f"unknown node kind {kind!r}")
        return float(x), float(y), _KIND_CODE[kind]

    def triangle(text):
        a, b, c = (int(v) for v in text.split())
        return a, b, c

    def sizing(text):
        word, lo, hi = text.split()
        if word != "sizing":
            raise ValueError("expected 'sizing <edge_min> <edge_max>'")
        return float(lo), float(hi)

    _, header = parse("header", str)
    if header != "msmesh v1":
        raise ValueError(f"not an msmesh v1 file: {path}")
    _, (edge_min, edge_max) = parse("sizing line", sizing)
    _, n_nodes = parse("node count", int)
    positions = np.empty((n_nodes, 2))
    kinds = np.empty(n_nodes, dtype=np.int64)
    for i in range(n_nodes):
        _, (x, y, kinds[i]) = parse(f"node {i}", node)
        positions[i] = (x, y)
    _, n_tris = parse("triangle count", int)
    triangles = np.empty((n_tris, 3), dtype=np.int64)
    tri_lines = []
    for i in range(n_tris):
        no, triangles[i] = parse(f"triangle {i}", triangle)
        tri_lines.append(no)
    bad = out_of_range_triangles(triangles, n_nodes)
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"{path}, line {tri_lines[i]}: triangle {i} {triangles[i].tolist()} "
            f"has a corner index outside [0, {n_nodes})"
        )
    return TriMesh(positions, triangles, kinds, edge_min, edge_max)
