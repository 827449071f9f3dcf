"""Hierarchical message-passing processor and the next-step model.

A processor schedule is a sequence of step kinds: H (fine-graph update),
L (coarse-graph update), D (downsample fine->coarse), U (upsample
coarse->fine). Schedules are written as e.g. ``p=1H 11L 1H (U=1,D=1)``:
runs of H and L steps with a D or U inserted at every switch between
levels, and the declared U/D counts double-checked against the switches.
Every step owns an independent pair of update MLPs (no weight tying).
"""

from __future__ import annotations

import re

import numpy as np

from . import graphs, nn
from .graphs import ONE_HOT_WIDTH, as_field_matrix
from .mesh import KIND_INFLOW

STEP_FINE = "H"
STEP_COARSE = "L"
STEP_DOWN = "D"
STEP_UP = "U"

# Node kinds whose values are imposed by boundary conditions after a step.
PRESCRIBED_KINDS = (KIND_INFLOW,)


class ScheduleError(ValueError):
    """Malformed or inconsistent processor schedule."""


class Schedule:
    """Parsed processor schedule: ordered H/L/D/U steps."""

    def __init__(self, steps, text):
        self.steps = tuple(steps)
        self.text = text
        if not self.steps or self.steps[0] != STEP_FINE or self.steps[-1] != STEP_FINE:
            raise ScheduleError("schedule must begin and end with an H step")

    @property
    def total_mps(self):
        return len(self.steps)

    @property
    def u_count(self):
        return self.steps.count(STEP_UP)

    @property
    def d_count(self):
        return self.steps.count(STEP_DOWN)

    @property
    def has_coarse_steps(self):
        """Whether any L, D or U step reads a coarse level. Every L run is
        entered by a D step, so this is ``d_count > 0``."""
        return self.d_count > 0

    def __eq__(self, other):
        return isinstance(other, Schedule) and self.steps == other.steps

    def __repr__(self):
        return f"Schedule({self.text!r})"


_SCHEDULE_RE = re.compile(
    r"^p=\s*((?:\d+[HL]\s+)*\d+[HL])\s*\(\s*U\s*=\s*(\d+)\s*,\s*D\s*=\s*(\d+)\s*\)$"
)


def parse_schedule(text):
    """Parse a schedule string like ``p=3H 6L 3H 6L 3H (U=2, D=2)``.

    A D step is inserted at every H->L switch and a U step at every L->H
    switch; the declared U/D counts must match the switch counts. The total
    message-passing step count includes the D and U steps.
    """
    m = _SCHEDULE_RE.match(text.strip())
    if m is None:
        raise ScheduleError(f"malformed schedule: {text!r}")
    segments = []
    for part in m.group(1).split():
        segments.append((int(part[:-1]), part[-1]))
    if any(n == 0 for n, _ in segments):
        raise ScheduleError("zero-length runs are not allowed")
    steps = []
    prev = None
    u_seen = d_seen = 0
    for n, kind in segments:
        if prev == STEP_FINE and kind == STEP_COARSE:
            steps.append(STEP_DOWN)
            d_seen += 1
        elif prev == STEP_COARSE and kind == STEP_FINE:
            steps.append(STEP_UP)
            u_seen += 1
        steps.extend([kind] * n)
        prev = kind
    u_decl, d_decl = int(m.group(2)), int(m.group(3))
    if (u_decl, d_decl) != (u_seen, d_seen):
        raise ScheduleError(
            f"declared (U={u_decl},D={d_decl}) but the level switches imply "
            f"(U={u_seen},D={d_seen})"
        )
    return Schedule(steps, text=text.strip())


class ProcessorBlock:
    """Edge and node update MLPs for one schedule step."""

    def __init__(self, kind, latent_size, hidden_size, rng):
        self.kind = kind
        self.edge_mlp = nn.Mlp(3 * latent_size, latent_size, hidden_size, True, rng)
        self.node_mlp = nn.Mlp(2 * latent_size, latent_size, hidden_size, True, rng)

    def named_parameters(self, prefix):
        out = self.edge_mlp.named_parameters(f"{prefix}/edge")
        out.update(self.node_mlp.named_parameters(f"{prefix}/node"))
        return out

    def zero_(self):
        self.edge_mlp.zero_()
        self.node_mlp.zero_()
        return self


# The kind of coarse level a checkpoint's ``meta/coarse_kind`` names: the
# one kind there is, a coarse TriMesh.
COARSE_KIND = "mesh"


def _text_codes(text):
    """A text as the float64 character codes of a checkpoint block."""
    return np.array([ord(c) for c in text], dtype=np.float64)


def _bad_block(blocks, name, what):
    return nn.CheckpointError(f"checkpoint {blocks.path}: block {name!r} {what}")


def _code_text(blocks, name):
    """The text whose ASCII codes block ``name`` holds; CheckpointError
    naming the file and the block if it holds anything else."""
    codes = blocks[name]
    if codes.ndim != 1 or not np.all((codes >= 0) & (codes < 128) & (codes == np.floor(codes))):
        raise _bad_block(blocks, name, "holds no ASCII character codes")
    return "".join(chr(int(c)) for c in codes)


class ModelParams:
    """All learnable state: encoders, per-step processor blocks, decoder,
    and the running normalizers."""

    def __init__(
        self,
        schedule,
        field_width=1,
        latent_size=128,
        hidden_size=128,
        seed=0,
    ):
        if isinstance(schedule, str):
            schedule = parse_schedule(schedule)
        self.schedule = schedule
        self.field_width = field_width
        self.latent_size = latent_size
        self.hidden_size = hidden_size
        self.seed = seed
        rng = np.random.default_rng(seed)
        d, h = latent_size, hidden_size
        self.fine_node_encoder = nn.Mlp(ONE_HOT_WIDTH + field_width, d, h, True, rng)
        self.fine_edge_encoder = nn.Mlp(3, d, h, True, rng)
        self.coarse_node_encoder = nn.Mlp(ONE_HOT_WIDTH, d, h, True, rng)
        self.coarse_edge_encoder = nn.Mlp(3, d, h, True, rng)
        self.down_edge_encoder = nn.Mlp(3, d, h, True, rng)
        self.up_edge_encoder = nn.Mlp(3, d, h, True, rng)
        self.blocks = [ProcessorBlock(k, d, h, rng) for k in schedule.steps]
        self.decoder = nn.Mlp(d, field_width, h, layer_norm=False, rng=rng)
        self.node_field_normalizer = nn.Normalizer(field_width)
        self.edge_normalizers = {
            k: nn.Normalizer(3) for k in ("fine", "coarse", "down", "up")
        }
        self.output_normalizer = nn.Normalizer(field_width)

    def reads_coarse_level(self, coarse_level):
        """Whether a forward pass reads ``coarse_level``: True iff the
        schedule has an L, D or U step. ValueError if ``coarse_level`` is
        None and would be read."""
        if not self.schedule.has_coarse_steps:
            return False
        if coarse_level is None:
            raise ValueError("schedule uses L/D/U steps but no coarse level was given")
        return True

    def edge_encoder(self, kind):
        """The edge encoder of ``kind``: fine, coarse, down or up."""
        return self._encoders()[f"enc_{kind}_edge"]

    def _encoders(self):
        return {
            "enc_fine_node": self.fine_node_encoder,
            "enc_fine_edge": self.fine_edge_encoder,
            "enc_coarse_node": self.coarse_node_encoder,
            "enc_coarse_edge": self.coarse_edge_encoder,
            "enc_down_edge": self.down_edge_encoder,
            "enc_up_edge": self.up_edge_encoder,
        }

    def named_parameters(self):
        out = {}
        for name, mlp in self._encoders().items():
            out.update(mlp.named_parameters(name))
        for i, block in enumerate(self.blocks):
            out.update(block.named_parameters(f"block_{i:03d}_{block.kind}"))
        out.update(self.decoder.named_parameters("decoder"))
        return out

    def parameters(self):
        return list(self.named_parameters().values())

    def zero_(self):
        """Zero all MLP weights; the model becomes the identity map."""
        for mlp in self._encoders().values():
            mlp.zero_()
        for block in self.blocks:
            block.zero_()
        self.decoder.zero_()
        return self

    # -- checkpoint round-trip ------------------------------------------

    def to_blocks(self):
        """Checkpoint blocks: meta, parameters and normalizer state."""
        blocks = {
            "meta/config": np.array(
                [self.field_width, self.latent_size, self.hidden_size, self.seed],
                dtype=np.float64,
            ),
            "meta/schedule": _text_codes(self.schedule.text),
            "meta/coarse_kind": _text_codes(COARSE_KIND),
        }
        for name, tensor in self.named_parameters().items():
            blocks[f"param/{name}"] = tensor.data
        for group, norm in self._normalizers().items():
            for key, arr in norm.state().items():
                blocks[f"norm/{group}/{key}"] = arr
        return blocks

    def _normalizers(self):
        out = {"node_fields": self.node_field_normalizer, "output": self.output_normalizer}
        for k, v in self.edge_normalizers.items():
            out[f"edge_{k}"] = v
        return out

    @classmethod
    def from_blocks(cls, blocks):
        """The params that :meth:`to_blocks` wrote, from the blocks that
        ``nn.load_blocks`` read back; CheckpointError naming the file and a
        block that is missing, whose shape does not fit the model of the
        meta blocks, or whose meta value is invalid."""
        config = blocks.shaped("meta/config", (4,))
        if not (np.all(np.isfinite(config)) and np.all(config == np.floor(config))
                and np.all(config[:3] >= 1) and config[3] >= 0):
            raise _bad_block(blocks, "meta/config",
                             f"holds {config.tolist()}, not three positive integer "
                             "widths and a non-negative integer seed")
        fw, d, h, seed = (int(v) for v in config)
        try:
            schedule = parse_schedule(_code_text(blocks, "meta/schedule"))
        except ScheduleError as exc:
            raise _bad_block(blocks, "meta/schedule", f"holds a bad schedule: {exc}") from None
        kind = _code_text(blocks, "meta/coarse_kind")
        if kind != COARSE_KIND:
            raise _bad_block(blocks, "meta/coarse_kind",
                             f"is {kind!r}; the only coarse level is a {COARSE_KIND!r}")
        params = cls(schedule, fw, d, h, seed)
        for name, tensor in params.named_parameters().items():
            tensor.data[...] = blocks.shaped(f"param/{name}", tensor.shape)
        for group, norm in params._normalizers().items():
            norm.load_state({key: blocks.shaped(f"norm/{group}/{key}", arr.shape)
                             for key, arr in norm.state().items()})
        return params


# ---------------------------------------------------------------------------
# The four message-passing operators (residual on both edges and nodes)
# ---------------------------------------------------------------------------


def update(graph, src, dst, edges, block):
    """One interaction-network step on ``graph``: edges read their sender
    in ``src`` and receiver in ``dst``; ``dst`` nodes sum their incoming
    edges. Returns the new (dst, edges); ``src`` is untouched.

    The edge MLP reads ``[e, v_s, v_r]`` per edge. Its first affine map is
    applied by row blocks of its (3d, h) weight,
    ``e @ W_e + b + (src @ W_s)[s] + (dst @ W_r)[r]``, so the sender and
    receiver blocks are multiplied on node rows and then gathered to the
    edges, instead of on the gathered E x 3d concatenation. A gather only
    copies rows, so this is the same map in exact arithmetic; in floating
    point only the order of the sums differs.

    Under ``nn.no_tape`` the sum accumulates into the first product, both
    gathers share one buffer, the MLPs reuse those dead buffers, and each
    residual is added into the MLP's output; ``src``, ``dst`` and
    ``edges`` are never written.
    """
    mlp, d = block.edge_mlp, edges.shape[-1]
    w0 = mlp.weights[0]
    pre = nn.matmul(edges, nn.row_block(w0, 0, d), mlp.biases[0])
    vs = nn.matmul(src, nn.row_block(w0, d, 2 * d))
    vr = nn.matmul(dst, nn.row_block(w0, 2 * d, 3 * d))
    gathered = nn.spmm(graph.gather_send, vs)
    pre = nn.add(pre, gathered, out=pre)
    gathered = nn.spmm(graph.gather_recv, vr, out=gathered)
    pre = nn.add(pre, gathered, out=pre)
    out = mlp.tail(pre, gathered)
    edges = nn.add(edges, out, out=out)
    agg = nn.spmm(graph.aggregate, edges)
    out = block.node_mlp(nn.concat([dst, agg]), agg)
    return nn.add(dst, out, out=out), edges


def high_res_update(graph, nodes, edges, block):
    """One message-passing step on the fine graph."""
    return update(graph, nodes, nodes, edges, block)


def low_res_update(graph, nodes, edges, block):
    """One message-passing step on the coarse graph."""
    return update(graph, nodes, nodes, edges, block)


def downsample_update(graph, fine, coarse, edges, block):
    """Move information fine->coarse; returns the new (coarse, edges)."""
    return update(graph, fine, coarse, edges, block)


def upsample_update(graph, coarse, fine, edges, block):
    """Move information coarse->fine; returns the new (fine, edges)."""
    return update(graph, coarse, fine, edges, block)


# ---------------------------------------------------------------------------
# Full encode - process - decode step
# ---------------------------------------------------------------------------


class StaticLatents:
    """The part of a forward pass that does not depend on the fields.

    For one fine mesh and coarse level: the fine Graph and edge latents and,
    when the schedule has L, D or U steps, the coarse Graph, node and edge
    latents and the down/up transfer Graphs and edge latents (otherwise
    those are None). They are valid while ``params`` (weights and
    normalizer statistics) stay unchanged.
    """

    def __init__(self, params, fine_mesh, coarse_level):
        self.fine_graph = graphs.mesh_graph(fine_mesh)
        self.fine_edges = graphs.encode_edges(self.fine_graph, "fine", params)
        self.coarse_graph = self.coarse = self.coarse_edges = None
        self.down_graph = self.down_edges = self.up_graph = self.up_edges = None
        if not params.reads_coarse_level(coarse_level):
            return
        self.coarse_graph, self.coarse, self.coarse_edges = graphs.encode_coarse(
            coarse_level, params
        )
        self.down_graph, self.down_edges = graphs.build_transfer(
            fine_mesh, coarse_level, "down", params
        )
        self.up_graph, self.up_edges = graphs.build_transfer(
            fine_mesh, coarse_level, "up", params
        )


def forward_normalized_delta(params, fine_mesh, coarse_level, fields, static=None):
    """Differentiable core of the model: normalized per-node delta.

    Returns (delta Tensor (N, field_width), input leaf Tensor) so callers
    can take gradients with respect to either parameters or inputs. The
    :class:`StaticLatents` of (fine_mesh, coarse_level) are encoded here
    unless ``static`` holds them for these params; the per-step part
    normalizes the fields, encodes the fine nodes, runs the schedule and
    decodes.
    """
    if static is None:
        static = StaticLatents(params, fine_mesh, coarse_level)
    leaf = fields if isinstance(fields, nn.Tensor) else nn.Tensor(as_field_matrix(fields))
    xn = params.node_field_normalizer.apply(leaf)
    fine = graphs.encode_fine(fine_mesh, xn, params)
    fine_e, coarse, coarse_e = static.fine_edges, static.coarse, static.coarse_edges
    down_e, up_e = static.down_edges, static.up_edges
    for step, block in zip(params.schedule.steps, params.blocks):
        if step == STEP_FINE:
            fine, fine_e = high_res_update(static.fine_graph, fine, fine_e, block)
        elif step == STEP_COARSE:
            coarse, coarse_e = low_res_update(static.coarse_graph, coarse, coarse_e, block)
        elif step == STEP_DOWN:
            coarse, down_e = downsample_update(static.down_graph, fine, coarse, down_e, block)
        else:
            fine, up_e = upsample_update(static.up_graph, coarse, fine, up_e, block)
    return params.decoder(fine), leaf


def predict_step(fine_mesh, coarse_mesh, fields, params, boundary_values=None, static=None):
    """One next-step prediction on the fine mesh, computed without a tape.

    Encodes the fine nodes, runs the schedule, decodes a normalized delta,
    and adds its unnormalized value to the current fields. The static
    latents are encoded here unless ``static`` holds the
    :class:`StaticLatents` of (fine_mesh, coarse_mesh) for these params.
    Nodes of a prescribed kind (inflow) are overwritten with their
    boundary values afterwards; by default they keep their current value,
    matching a time-constant Dirichlet condition.
    """
    fields_mat = as_field_matrix(fields)
    with nn.no_tape():
        delta_n, _ = forward_normalized_delta(params, fine_mesh, coarse_mesh, fields_mat, static)
    delta = params.output_normalizer.unapply(delta_n.data)
    nxt = fields_mat + delta
    mask = np.isin(fine_mesh.node_kind, PRESCRIBED_KINDS)
    if boundary_values is not None:
        nxt[mask] = as_field_matrix(boundary_values)[mask]
    else:
        nxt[mask] = fields_mat[mask]
    fields = np.asarray(fields, dtype=np.float64)
    return nxt[:, 0] if fields.ndim == 1 else nxt
