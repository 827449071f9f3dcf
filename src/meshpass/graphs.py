"""Latent graph construction: per-level encoding and cross-level transfers.

Every edge set of the model is a :class:`Graph`: the fine and coarse mesh
edges (both orientations of each mesh edge) and the down and up transfer
edges between the levels. A Graph holds static data only, so it is built
once per mesh or mesh pair and cached in the source mesh's ``_cache``;
latents are plain values that the encoders return and the processor
threads through its steps.

Raw edge features follow the canonical layout [dx, dy, norm] with
dx = x_sender - x_receiver. The Graph constructor is the one place that
puts edges in canonical order (sorted by receiver, then sender), so
aggregation is bit-deterministic and independent of the order in which the
edges were produced.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import nn
from .mesh import KIND_OBSTACLE, NODE_KINDS, ChannelDomain, build_interpolator, unique_edges

ONE_HOT_WIDTH = len(NODE_KINDS)


def one_hot_kinds(kinds):
    return np.eye(ONE_HOT_WIDTH)[np.asarray(kinds, dtype=np.int64)]


def as_field_matrix(fields):
    fields = np.asarray(fields, dtype=np.float64)
    return fields[:, None] if fields.ndim == 1 else fields


def relative_edge_features(positions, senders, receivers, dst_positions=None):
    """[dx, dy, |d|] per edge, d = sender position - receiver position.

    Senders index ``positions``; receivers index ``dst_positions`` when the
    edges cross to another node set, else ``positions``.
    """
    dst_positions = positions if dst_positions is None else dst_positions
    d = positions[senders] - dst_positions[receivers]
    return np.column_stack([d, np.hypot(d[:, 0], d[:, 1])])


class Graph:
    """Directed edges from a source node set to a destination node set.

    Holds the edges in canonical (receiver, sender) order, the sender and
    receiver gathers and the receiver segment-sum built from them, and the
    raw edge features. ``dst_positions`` defaults to ``src_positions`` for
    edges within one node set.
    """

    def __init__(self, senders, receivers, src_positions, dst_positions=None):
        dst_positions = src_positions if dst_positions is None else dst_positions
        senders = np.asarray(senders, dtype=np.int64)
        receivers = np.asarray(receivers, dtype=np.int64)
        order = np.lexsort((senders, receivers))
        self.senders = senders[order]
        self.receivers = receivers[order]
        self.features = relative_edge_features(
            src_positions, self.senders, self.receivers, dst_positions
        )
        self.gather_send = nn.SparseOp.gather(self.senders, len(src_positions))
        self.gather_recv = nn.SparseOp.gather(self.receivers, len(dst_positions))
        self.aggregate = nn.SparseOp.segment_sum(self.receivers, len(dst_positions))


def mesh_graph(mesh):
    """Both orientations of every mesh edge (cached on the mesh)."""
    if "graph" not in mesh._cache:
        und = mesh.undirected_edges()
        mesh._cache["graph"] = Graph(
            np.concatenate([und[:, 0], und[:, 1]]),
            np.concatenate([und[:, 1], und[:, 0]]),
            mesh.positions,
        )
    return mesh._cache["graph"]


def transfer_graph(src_mesh, dst_mesh):
    """Containment edges from ``src_mesh`` to ``dst_mesh`` (cached on the
    source mesh)."""
    key = ("transfer", id(dst_mesh))
    if key not in src_mesh._cache:
        senders, receivers = containment_edges(src_mesh, dst_mesh)
        graph = Graph(senders, receivers, src_mesh.positions, dst_mesh.positions)
        # Hold dst_mesh so the id key cannot be recycled while cached.
        src_mesh._cache[key] = (dst_mesh, graph)
    return src_mesh._cache[key][1]


def encode_edges(graph, kind, params):
    """Edge latents of ``graph`` through the normalizer and edge encoder of
    ``kind`` (fine, coarse, down or up)."""
    feats = params.edge_normalizers[kind].apply(graph.features)
    return nn.mlp_apply(params.edge_encoder(kind), feats)


def encode_fine(mesh, fields, params):
    """Node latents of the simulation mesh and its (normalized) fields.

    Node features are the node-kind one-hot concatenated with the field
    channels. ``fields`` may be a Tensor (differentiable path) or an array.
    The fine edge latents do not depend on the fields; they come from
    ``encode_edges(mesh_graph(mesh), "fine", params)``.
    """
    fields_t = fields if isinstance(fields, nn.Tensor) else nn.Tensor(as_field_matrix(fields))
    if fields_t.data.shape[0] != mesh.n_nodes:
        raise ValueError(
            f"field rows {fields_t.data.shape[0]} != mesh node count {mesh.n_nodes}"
        )
    return params.fine_node_encoder(nn.concat([one_hot_kinds(mesh.node_kind), fields_t]))


def encode_coarse(mesh, params):
    """Encode the auxiliary coarse level from geometric features only.
    Returns (graph, node latents, edge latents)."""
    graph = mesh_graph(mesh)
    nodes = nn.mlp_apply(params.coarse_node_encoder, one_hot_kinds(mesh.node_kind))
    return graph, nodes, encode_edges(graph, "coarse", params)


def containment_edges(src_mesh, dst_mesh):
    """For each source node, edges to the 3 corners of its containing
    destination triangle, as (senders, receivers) in source-node order."""
    corners, _ = build_interpolator(dst_mesh, src_mesh.positions)
    return np.repeat(np.arange(src_mesh.n_nodes, dtype=np.int64), 3), corners.ravel()


def build_transfer(src_mesh, dst_mesh, direction, params):
    """Transfer edges connecting each source node to the corners of the
    destination triangle that contains it (3 edges per source node), with
    their latents: returns (graph, edge latents)."""
    graph = transfer_graph(src_mesh, dst_mesh)
    return graph, encode_edges(graph, direction, params)


class GridLevel:
    """Uniform-grid coarse level; duck-types the mesh surface the coarse
    encoder needs (positions, node_kind, undirected_edges)."""

    def __init__(self, domain, spacing):
        nx = int(np.ceil(domain.length / spacing))
        ny = int(np.ceil(domain.height / spacing))
        if nx < 2 or ny < 2:
            raise ValueError(
                f"grid spacing {spacing:g} must cover the domain with >= 2x2 cells"
            )
        xs = np.linspace(0.0, domain.length, nx + 1)
        ys = np.linspace(0.0, domain.height, ny + 1)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        self.positions = np.column_stack([gx.ravel(), gy.ravel()])
        self.nx, self.ny = nx, ny
        self.spacing = (domain.length / nx, domain.height / ny)
        kinds = np.zeros(self.positions.shape[0], dtype=np.int64)
        boundary = (
            (self.positions[:, 0] == 0.0)
            | (self.positions[:, 0] == domain.length)
            | (self.positions[:, 1] == 0.0)
            | (self.positions[:, 1] == domain.height)
        )
        kinds[boundary] = 1  # wall
        self.inside_obstacle = np.zeros(self.positions.shape[0], dtype=bool)
        if domain.has_obstacle:
            cx, cy = domain.obstacle_center
            r = np.hypot(self.positions[:, 0] - cx, self.positions[:, 1] - cy)
            self.inside_obstacle = r < domain.obstacle_radius
            kinds[self.inside_obstacle] = KIND_OBSTACLE
        self.node_kind = kinds
        self.n_nodes = self.positions.shape[0]
        self._cache = {}

    def node_index(self, ix, iy):
        return ix * (self.ny + 1) + iy

    def cell_of(self, p):
        ix = min(max(int(p[0] // self.spacing[0]), 0), self.nx - 1)
        iy = min(max(int(p[1] // self.spacing[1]), 0), self.ny - 1)
        return ix, iy

    def undirected_edges(self):
        """Lattice links, omitting endpoints inside the obstacle."""
        if "lattice" not in self._cache:
            node = np.arange(self.n_nodes).reshape(self.nx + 1, self.ny + 1)
            pairs = np.concatenate([
                np.column_stack([node[:-1].ravel(), node[1:].ravel()]),
                np.column_stack([node[:, :-1].ravel(), node[:, 1:].ravel()]),
            ])
            ok = ~self.inside_obstacle[pairs].any(axis=1)
            self._cache["lattice"] = unique_edges(pairs[ok], self.n_nodes)
        return self._cache["lattice"]


def _grid_cell_pairs(mesh, grid):
    """(mesh node, grid corner) index pairs: each mesh node with the corners
    of its grid cell that lie outside the obstacle."""
    mesh_idx, grid_idx = [], []
    for i, p in enumerate(mesh.positions):
        ix, iy = grid.cell_of(p)
        corners = [
            grid.node_index(ix, iy),
            grid.node_index(ix + 1, iy),
            grid.node_index(ix, iy + 1),
            grid.node_index(ix + 1, iy + 1),
        ]
        kept = [c for c in corners if not grid.inside_obstacle[c]]
        if not kept:
            warnings.warn(
                f"source node {i} dropped: all grid-cell corners inside obstacle"
            )
            continue
        mesh_idx.extend([i] * len(kept))
        grid_idx.extend(kept)
    return np.asarray(mesh_idx, dtype=np.int64), np.asarray(grid_idx, dtype=np.int64)


def build_grid_transfer(src_mesh, grid_spacing, direction, params, domain=None, grid=None):
    """Transfer edges between mesh nodes and the corners of their grid cell,
    with their latents: returns (graph, edge latents).

    Each source-mesh node pairs with the 4 corners of the uniform-grid cell
    containing it; corners inside the obstacle are omitted. ``direction``
    'down' orients edges mesh->grid, 'up' grid->mesh (the same pairing
    reversed, as the grid variant has no containing triangle to query).
    Nodes whose 4 corners all fall inside the obstacle are dropped with a
    warning. Both graphs are cached on the mesh per grid.
    """
    if grid is None:
        if domain is None:
            lo, hi = src_mesh.bounding_box()
            domain = ChannelDomain(float(hi[0]), float(hi[1]))
        grid = GridLevel(domain, grid_spacing)
    key = ("grid_transfer", id(grid))
    if key not in src_mesh._cache:
        mesh_idx, grid_idx = _grid_cell_pairs(src_mesh, grid)
        pos_m, pos_g = src_mesh.positions, grid.positions
        src_mesh._cache[key] = (grid, {
            "down": Graph(mesh_idx, grid_idx, pos_m, pos_g),
            "up": Graph(grid_idx, mesh_idx, pos_g, pos_m),
        })
    graph = src_mesh._cache[key][1][direction]
    return graph, encode_edges(graph, direction, params)
