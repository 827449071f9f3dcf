"""Latent graph construction: per-level encoding and cross-level transfers.

Every edge set of the model is a :class:`Graph`: the fine and coarse mesh
edges (both orientations of each mesh edge) and the down and up transfer
edges between the levels. A Graph holds static data only, so it is built
once per mesh or mesh pair and cached in the ``_cache`` of its mesh, or of
the fine mesh for transfer edges; latents are plain values that the
encoders return and the processor threads through its steps.

The coarse level is a coarse mesh. One rule links the levels
(``transfer_graph``, and ``build_transfer``, which adds the edge latents):
down links each fine node to the corners of its containing coarse
triangle, and up is the same pairs reversed. So a U step reads, at each
fine node, exactly the coarse nodes that P1 interpolation of a coarse
field reads there, and every fine node receives a U message.

Raw edge features follow the canonical layout [dx, dy, norm] with
dx = x_sender - x_receiver. The Graph constructor is the one place that
puts edges in canonical order (sorted by receiver, then sender), so
aggregation is bit-deterministic and independent of the order in which the
edges were produced.
"""

from __future__ import annotations

import numpy as np

from . import nn
from .mesh import NODE_KINDS, build_interpolator

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


def transfer_graph(fine, coarse, direction):
    """The ``direction`` ('down' or 'up') transfer Graph between a fine mesh
    and a coarse mesh (both cached on ``fine``). Down links each fine node
    to the corners of its containing ``coarse`` triangle; up is the same
    pairs reversed."""
    key = ("transfer", id(coarse))
    if key not in fine._cache:
        fine_idx, coarse_idx = containment_edges(fine, coarse)
        # Hold coarse so the id key cannot be recycled while cached.
        fine._cache[key] = (coarse, {
            "down": Graph(fine_idx, coarse_idx, fine.positions, coarse.positions),
            "up": Graph(coarse_idx, fine_idx, coarse.positions, fine.positions),
        })
    return fine._cache[key][1][direction]


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


def build_transfer(fine, coarse, direction, params):
    """The ``direction`` ('down' or 'up') :func:`transfer_graph` between
    ``fine`` and ``coarse`` and its edge latents: returns (graph, edge
    latents)."""
    graph = transfer_graph(fine, coarse, direction)
    return graph, encode_edges(graph, direction, params)
