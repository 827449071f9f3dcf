"""Schedule grammar, update operators, and predict_step tests."""

import contextlib
import sys
import threading
import weakref

import numpy as np
import pytest

from meshpass import graphs as G
from meshpass import mesh as M
from meshpass import nn
from meshpass import processor as P
from meshpass import training as T
from meshpass.solver import unroll


@pytest.fixture(scope="module")
def channel():
    domain = M.ChannelDomain(1.0, 0.4, (0.275, 0.25), 0.05)
    fine = M.generate_mesh(domain, 8e-3)
    coarse = M.generate_mesh(domain, 2.5e-2)
    return domain, fine, coarse


class TestScheduleParsing:
    def test_single_v_cycle_15_steps(self):
        s = P.parse_schedule("p=1H 11L 1H (U=1,D=1)")
        assert s.total_mps == 15
        assert s.steps == ("H", "D") + ("L",) * 11 + ("U", "H")
        assert (s.u_count, s.d_count) == (1, 1)

    def test_two_v_cycles_25_steps(self):
        s = P.parse_schedule("p=3H 6L 3H 6L 3H (U=2, D=2)")
        assert s.total_mps == 25
        assert s.u_count == 2 and s.d_count == 2

    def test_pure_fine_schedule(self):
        s = P.parse_schedule("p=15H (U=0,D=0)")
        assert s.total_mps == 15
        assert s.steps == ("H",) * 15

    @pytest.mark.parametrize(
        "bad",
        [
            "1H 2L 1H (U=1,D=1)",        # missing p=
            "p=1H 2L 1H",                # missing counts
            "p=1H 2L 1H (U=2,D=1)",      # inconsistent U
            "p=1H 2L 1H (U=1,D=0)",      # inconsistent D
            "p=0H 2L 1H (U=1,D=1)",      # zero-length run
            "p=1X (U=0,D=0)",            # unknown letter
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(P.ScheduleError):
            P.parse_schedule(bad)

    def test_must_begin_and_end_with_fine(self):
        with pytest.raises(P.ScheduleError):
            P.parse_schedule("p=2L 1H (U=1,D=0)")
        with pytest.raises(P.ScheduleError):
            P.parse_schedule("p=1H 2L (U=0,D=1)")

    def test_counts_include_transfers(self):
        s = P.parse_schedule("p=2H 3L 2H (U=1,D=1)")
        assert s.total_mps == 2 + 1 + 3 + 1 + 2


def tiny_graph(senders, receivers, n_src, n_dst=None):
    """A Graph from n_src to n_dst (default n_src) nodes at the origin: the
    update reads no positions."""
    n_dst = n_src if n_dst is None else n_dst
    return G.Graph(np.asarray(senders), np.asarray(receivers),
                   np.zeros((n_src, 2)), np.zeros((n_dst, 2)))


class TestGraphUpdates:
    def test_zero_weight_block_is_identity(self):
        rng = np.random.default_rng(0)
        block = P.ProcessorBlock("H", 4, 4, rng)
        block.edge_mlp.zero_()
        block.node_mlp.zero_()
        v = nn.Tensor(rng.normal(size=(3, 4)))
        e = nn.Tensor(rng.normal(size=(2, 4)))
        v_out, e_out = P.high_res_update(tiny_graph([0, 1], [1, 2], 3), v, e, block)
        np.testing.assert_array_equal(v_out.data, v.data)
        np.testing.assert_array_equal(e_out.data, e.data)

    def test_node_without_incoming_edges_aggregates_zero(self):
        rng = np.random.default_rng(1)
        block = P.ProcessorBlock("H", 4, 4, rng)
        v = rng.normal(size=(3, 4))
        e = rng.normal(size=(1, 4))
        g = tiny_graph([0], [1], 3)  # node 2 receives nothing
        v_out, _ = P.high_res_update(g, nn.Tensor(v), nn.Tensor(e), block)
        # manual: v2' = v2 + node_mlp([v2, zeros])
        manual = v[2] + block.node_mlp(
            nn.Tensor(np.concatenate([v[2], np.zeros(4)])[None])
        ).data[0]
        np.testing.assert_allclose(v_out.data[2], manual, atol=1e-12)

    def test_permuted_edge_storage_bit_identical(self):
        # A Graph built from any permutation of the same edge list has the
        # same canonical edges, operators and features, so latents encoded
        # from its features update bit-identically.
        rng = np.random.default_rng(2)
        block = P.ProcessorBlock("H", 4, 4, rng)
        encoder = nn.Mlp(3, 4, 4, True, rng)
        v = nn.Tensor(rng.normal(size=(5, 4)))
        pos = rng.normal(size=(5, 2))
        senders = np.array([0, 1, 2, 3, 4, 0])
        receivers = np.array([1, 2, 3, 4, 0, 2])
        perm = np.array([5, 2, 0, 4, 1, 3])
        g1 = G.Graph(senders, receivers, pos)
        g2 = G.Graph(senders[perm], receivers[perm], pos)
        assert np.array_equal(g1.senders, g2.senders)
        assert np.array_equal(g1.receivers, g2.receivers)
        assert np.array_equal(g1.features, g2.features)
        for op in ("gather_send", "gather_recv", "aggregate"):
            m1, m2 = getattr(g1, op).mat, getattr(g2, op).mat
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(m1, part), getattr(m2, part))
        o1 = P.high_res_update(g1, v, nn.mlp_apply(encoder, g1.features), block)
        o2 = P.high_res_update(g2, v, nn.mlp_apply(encoder, g2.features), block)
        assert np.array_equal(o1[0].data, o2[0].data)
        assert np.array_equal(
            o1[1].data[np.lexsort((g1.senders, g1.receivers))],
            o2[1].data[np.lexsort((g2.senders, g2.receivers))],
        )

    def test_fine_step_equals_transfer_step_when_src_is_dst(self):
        # H/L and D/U steps are one update: on the same graph and latents a
        # fine step and a downsample step with src is dst agree bit for bit.
        rng = np.random.default_rng(8)
        block = P.ProcessorBlock("H", 4, 4, rng)
        g = tiny_graph([0, 1, 2, 3, 4, 0], [1, 2, 3, 4, 0, 2], 5)
        v = nn.Tensor(rng.normal(size=(5, 4)))
        e = nn.Tensor(rng.normal(size=(6, 4)))
        v_h, e_h = P.high_res_update(g, v, e, block)
        v_d, e_d = P.downsample_update(g, v, v, e, block)
        assert np.array_equal(v_h.data, v_d.data)
        assert np.array_equal(e_h.data, e_d.data)

    def test_low_res_update_one_hop_jacobian(self):
        # One coarse update propagates influence exactly one graph hop.
        rng = np.random.default_rng(3)
        block = P.ProcessorBlock("L", 16, 16, rng)
        # path graph 0-1-2-3 (directed both ways)
        senders = np.array([0, 1, 1, 2, 2, 3])
        receivers = np.array([1, 0, 2, 1, 3, 2])
        v_leaf = nn.Tensor(rng.normal(size=(4, 16)))
        g = tiny_graph(senders, receivers, 4)
        out, _ = P.low_res_update(g, v_leaf, nn.Tensor(rng.normal(size=(6, 16))), block)
        adjacency = {0: {0, 1}, 1: {0, 1, 2}, 2: {1, 2, 3}, 3: {2, 3}}
        seed_rng = np.random.default_rng(99)
        seeds = np.zeros((4, 4, 16))
        for i in range(4):
            seeds[i, i] = seed_rng.normal(size=16)
        for i, (grad,) in enumerate(nn.backward(out, wrt=[v_leaf], seeds=seeds)):
            influencing = set(np.nonzero(np.any(grad != 0, axis=1))[0].tolist())
            assert influencing <= adjacency[i]
            assert i in influencing

    def test_downsample_touches_only_coarse(self):
        rng = np.random.default_rng(4)
        block = P.ProcessorBlock("D", 4, 4, rng)
        v_fine = nn.Tensor(rng.normal(size=(3, 4)))
        v_coarse = nn.Tensor(rng.normal(size=(2, 4)))
        e = nn.Tensor(rng.normal(size=(3, 4)))
        fine_before = v_fine.data.copy()
        transfer = tiny_graph([0, 1, 2], [0, 0, 1], 3, 2)
        new_coarse, new_e = P.downsample_update(transfer, v_fine, v_coarse, e, block)
        assert new_coarse is not v_coarse
        assert not np.array_equal(new_coarse.data, v_coarse.data)
        assert not np.array_equal(new_e.data, e.data)
        # fine latents untouched
        assert np.array_equal(v_fine.data, fine_before)

    def test_downsample_jacobian_respects_transfer_edges(self):
        rng = np.random.default_rng(5)
        block = P.ProcessorBlock("D", 16, 16, rng)
        v_fine = nn.Tensor(rng.normal(size=(3, 16)))
        v_coarse = nn.Tensor(rng.normal(size=(2, 16)))
        # fine 0 and 1 -> coarse 0; fine 2 -> coarse 1
        transfer = tiny_graph([0, 1, 2], [0, 0, 1], 3, 2)
        new_coarse, _ = P.downsample_update(
            transfer, v_fine, v_coarse, nn.Tensor(rng.normal(size=(3, 16))), block
        )
        influence = {0: {0, 1}, 1: {2}}
        seed_rng = np.random.default_rng(98)
        seeds = np.zeros((2, 2, 16))
        for j in range(2):
            seeds[j, j] = seed_rng.normal(size=16)
        for j, (grad,) in enumerate(nn.backward(new_coarse, wrt=[v_fine], seeds=seeds)):
            got = set(np.nonzero(np.any(grad != 0, axis=1))[0].tolist())
            assert got == influence[j]

    def test_coarse_node_without_transfer_edges_aggregates_zero(self):
        rng = np.random.default_rng(6)
        block = P.ProcessorBlock("D", 4, 4, rng)
        v_fine = nn.Tensor(rng.normal(size=(2, 4)))
        v_coarse = rng.normal(size=(2, 4))
        transfer = tiny_graph([0, 1], [0, 0], 2, 2)
        new_coarse, _ = P.downsample_update(
            transfer, v_fine, nn.Tensor(v_coarse), nn.Tensor(rng.normal(size=(2, 4))), block
        )
        manual = v_coarse[1] + block.node_mlp(
            nn.Tensor(np.concatenate([v_coarse[1], np.zeros(4)])[None])
        ).data[0]
        np.testing.assert_allclose(new_coarse.data[1], manual, atol=1e-12)

    def test_upsample_mirrors_downsample(self):
        rng = np.random.default_rng(7)
        block = P.ProcessorBlock("U", 16, 16, rng)
        v_fine = nn.Tensor(rng.normal(size=(3, 16)))
        v_coarse = nn.Tensor(rng.normal(size=(2, 16)))
        transfer = tiny_graph([0, 0, 1], [0, 1, 2], 2, 3)
        new_fine, _ = P.upsample_update(
            transfer, v_coarse, v_fine, nn.Tensor(rng.normal(size=(3, 16))), block
        )
        assert not np.array_equal(new_fine.data, v_fine.data)
        # coarse -> fine influence only along transfer edges
        influence = {0: {0}, 1: {0}, 2: {1}}
        seed_rng = np.random.default_rng(97)
        seeds = np.zeros((3, 3, 16))
        for j in range(3):
            seeds[j, j] = seed_rng.normal(size=16)
        for j, (grad,) in enumerate(nn.backward(new_fine, wrt=[v_coarse], seeds=seeds)):
            got = set(np.nonzero(np.any(grad != 0, axis=1))[0].tolist())
            assert got == influence[j]


def concat_update(graph, src, dst, edges, block):
    """The edge update written as the graph-network formula: the edge MLP
    on ``concat([e, v_s, v_r])``, with the senders and receivers gathered
    to the edges first."""
    vs = nn.spmm(graph.gather_send, src)
    vr = nn.spmm(graph.gather_recv, dst)
    edges = nn.add(edges, block.edge_mlp(nn.concat([edges, vs, vr])))
    agg = nn.spmm(graph.aggregate, edges)
    return nn.add(dst, block.node_mlp(nn.concat([dst, agg]))), edges


def max_rel_diff(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestBlockFactoredEdgeUpdate:
    """``update`` applies the edge MLP's first layer by row blocks of its
    weight; it must equal the concatenated formula up to sum order."""

    D, H = 8, 16

    @pytest.fixture(scope="class")
    def level_graphs(self, channel):
        _, fine, coarse = channel
        return {
            "H": (G.mesh_graph(fine), fine.n_nodes, fine.n_nodes),
            "D": (G.transfer_graph(fine, coarse, "down"), fine.n_nodes, coarse.n_nodes),
            "U": (G.transfer_graph(fine, coarse, "up"), coarse.n_nodes, fine.n_nodes),
        }

    def _inputs(self, graph, n_src, n_dst, kind):
        rng = np.random.default_rng(ord(kind))
        block = P.ProcessorBlock(kind, self.D, self.H, rng)
        src = nn.Tensor(rng.normal(size=(n_src, self.D)))
        dst = src if kind == "H" else nn.Tensor(rng.normal(size=(n_dst, self.D)))
        edges = nn.Tensor(rng.normal(size=(len(graph.senders), self.D)))
        return block, src, dst, edges

    @pytest.mark.parametrize("kind", ["H", "D", "U"])
    @pytest.mark.parametrize("taped", [True, False])
    def test_outputs_match_concat_formula(self, level_graphs, kind, taped):
        graph, n_src, n_dst = level_graphs[kind]
        block, src, dst, edges = self._inputs(graph, n_src, n_dst, kind)
        if taped:
            new = P.update(graph, src, dst, edges, block)
            ref = concat_update(graph, src, dst, edges, block)
        else:
            with nn.no_tape():
                new = P.update(graph, src, dst, edges, block)
                ref = concat_update(graph, src, dst, edges, block)
            assert new[0].vjp is None and new[1].vjp is None
        for got, want in zip(new, ref):
            assert got.shape == want.shape
            assert max_rel_diff(got.data, want.data) < 1e-12

    @pytest.mark.parametrize("kind", ["H", "D", "U"])
    def test_gradients_match_concat_formula(self, level_graphs, kind):
        graph, n_src, n_dst = level_graphs[kind]
        block, src, dst, edges = self._inputs(graph, n_src, n_dst, kind)
        leaves = [src, dst, edges] + block.edge_mlp.parameters()
        seeds = np.random.default_rng(1).normal(size=(n_dst, self.D))
        new = nn.backward(P.update(graph, src, dst, edges, block)[0], seed=seeds, wrt=leaves)
        ref = nn.backward(concat_update(graph, src, dst, edges, block)[0], seed=seeds,
                          wrt=leaves)
        for got, want in zip(new, ref):
            assert max_rel_diff(got, want) < 1e-12

    def test_taped_update_keeps_only_arrays_vjps_read(self, level_graphs, monkeypatch):
        # With the loss alive, the gathers, the first-layer sums, the
        # segment sum and the layer-norm inputs are freed: no vjp reads
        # them. The relu outputs stay, read by their own vjp and the next
        # matmul's, as do the new latents, read by mean_sq's.
        graph, n_src, n_dst = level_graphs["D"]
        block, src, dst, edges = self._inputs(graph, n_src, n_dst, "D")
        made = {"spmm": [], "add": [], "relu": [], "layer_norm": []}

        def recording(module, name):
            op = getattr(module, name)

            def call(*args, **kwargs):
                out = op(*args, **kwargs)
                # layer_norm's input, every other op's output
                made[name].append(weakref.ref(nn.value(args[0] if name == "layer_norm" else out)))
                return out
            return call

        with monkeypatch.context() as patch:
            for module, name in ((nn, "spmm"), (nn, "add"), (nn.autodiff, "relu"),
                                 (nn.autodiff, "layer_norm")):
                patch.setattr(module, name, recording(module, name))
            new_dst, new_edges = P.update(graph, src, dst, edges, block)
        loss = nn.add(nn.mean_sq(new_dst), nn.mean_sq(new_edges))
        del new_dst, new_edges
        alive = {name: [ref() is not None for ref in refs] for name, refs in made.items()}
        assert alive == {"spmm": [False] * 3, "add": [False, False, True, True],
                         "relu": [True] * 4, "layer_norm": [False] * 2}
        leaves = [src, dst, edges] + block.edge_mlp.parameters() + block.node_mlp.parameters()
        again = nn.add(*(nn.mean_sq(t) for t in P.update(graph, src, dst, edges, block)))
        for got, want in zip(nn.backward(loss, wrt=leaves), nn.backward(again, wrt=leaves)):
            assert got.tobytes() == want.tobytes()

    def test_parameter_names_and_shapes_unchanged(self):
        d, h = self.D, self.H
        params = P.ModelParams("p=1H 1L 1H (U=1,D=1)", 1, d, h, seed=0)
        block_shapes = {
            "edge/w0": (3 * d, h), "edge/b0": (h,), "edge/w1": (h, h), "edge/b1": (h,),
            "edge/w2": (h, d), "edge/b2": (d,), "edge/ln_gain": (d,), "edge/ln_bias": (d,),
            "node/w0": (2 * d, h), "node/b0": (h,), "node/w1": (h, h), "node/b1": (h,),
            "node/w2": (h, d), "node/b2": (d,), "node/ln_gain": (d,), "node/ln_bias": (d,),
        }
        shapes = {name: t.shape for name, t in params.named_parameters().items()}
        for i, kind in enumerate("HDLUH"):
            for name, shape in block_shapes.items():
                assert shapes.pop(f"block_{i:03d}_{kind}/{name}") == shape
        assert all(name.startswith(("enc_", "decoder/")) for name in shapes)


class TestModelParams:
    def test_mlps_list_every_parameter_in_checkpoint_order(self):
        params = P.ModelParams("p=1H 1L 1H (U=1,D=1)", 1, 8, 8, seed=0)
        mlps = params.mlps()
        assert list(mlps) == [
            "enc_fine_node", "enc_fine_edge", "enc_coarse_node", "enc_coarse_edge",
            "enc_down_edge", "enc_up_edge",
            "block_000_H/edge", "block_000_H/node", "block_001_D/edge", "block_001_D/node",
            "block_002_L/edge", "block_002_L/node", "block_003_U/edge", "block_003_U/node",
            "block_004_H/edge", "block_004_H/node", "decoder"]
        prefixes = [name.rsplit("/", 1)[0] for name in params.named_parameters()]
        assert list(dict.fromkeys(prefixes)) == list(mlps)
        assert params.zero_() is params
        for mlp in mlps.values():
            for t in mlp.weights + mlp.biases:
                assert not np.any(t.data)

    def test_one_block_per_step_no_sharing(self):
        params = P.ModelParams("p=2H 2L 2H (U=1,D=1)", 1, 8, 8, seed=0)
        assert len(params.blocks) == 8
        ids = {id(b.edge_mlp) for b in params.blocks}
        assert len(ids) == 8
        w0 = params.blocks[0].edge_mlp.weights[0].data
        w1 = params.blocks[1].edge_mlp.weights[0].data
        assert not np.array_equal(w0, w1)

    def test_save_load_roundtrip(self, tmp_path):
        params = P.ModelParams("p=1H 2L 1H (U=1,D=1)", 2, 8, 8, seed=3)
        params.node_field_normalizer.accumulate(np.random.default_rng(0).normal(size=(10, 2)))
        path = tmp_path / "params.bin"
        T.save_checkpoint(path, params, nn.Adam(params.parameters()), 0)
        loaded = T.load_checkpoint(path)[0]
        assert loaded.schedule == params.schedule
        assert loaded.field_width == 2
        for (na, a), (nb, b) in zip(
            params.named_parameters().items(), loaded.named_parameters().items()
        ):
            assert na == nb
            assert np.array_equal(a.data, b.data)
        np.testing.assert_array_equal(
            loaded.node_field_normalizer.mean, params.node_field_normalizer.mean
        )


class TestPredictStep:
    def test_zero_weight_model_identity(self, channel):
        _, fine, coarse = channel
        params = P.ModelParams("p=1H 2L 1H (U=1,D=1)", 1, 8, 8, seed=0).zero_()
        fields = np.random.default_rng(0).normal(size=fine.n_nodes)
        out = P.predict_step(fine, coarse, fields, params)
        interior = fine.node_kind == M.KIND_INTERIOR
        assert np.abs(out[interior] - fields[interior]).max() <= 1e-15

    def test_output_changes_with_nonzero_params(self, channel):
        _, fine, coarse = channel
        params = P.ModelParams("p=1H 2L 1H (U=1,D=1)", 1, 8, 8, seed=0)
        fields = np.random.default_rng(0).normal(size=fine.n_nodes)
        out = P.predict_step(fine, coarse, fields, params)
        assert np.abs(out - fields).max() > 0

    def test_prescribed_nodes_keep_boundary_values(self, channel):
        _, fine, coarse = channel
        params = P.ModelParams("p=1H 1L 1H (U=1,D=1)", 1, 8, 8, seed=1)
        fields = np.random.default_rng(1).normal(size=fine.n_nodes)
        bc = np.random.default_rng(2).normal(size=fine.n_nodes)
        out = P.predict_step(fine, coarse, fields, params, boundary_values=bc)
        mask = np.isin(fine.node_kind, P.PRESCRIBED_KINDS)
        np.testing.assert_array_equal(out[mask], bc[mask])

    def test_translation_invariance(self, channel):
        _, fine, coarse = channel
        params = P.ModelParams("p=1H 1L 1H (U=1,D=1)", 1, 8, 8, seed=0)
        fields = np.random.default_rng(3).normal(size=fine.n_nodes)
        out = P.predict_step(fine, coarse, fields, params)
        shift = np.array([0.3, -0.1])
        fine_t = M.TriMesh(fine.positions + shift, fine.triangles, fine.node_kind,
                           fine.edge_min, fine.edge_max)
        coarse_t = M.TriMesh(coarse.positions + shift, coarse.triangles,
                             coarse.node_kind, coarse.edge_min, coarse.edge_max)
        out_t = P.predict_step(fine_t, coarse_t, fields, params)
        np.testing.assert_allclose(out_t, out, atol=1e-12)

    def test_pure_fine_schedule_needs_no_coarse(self, channel):
        _, fine, _ = channel
        params = P.ModelParams("p=2H (U=0,D=0)", 1, 8, 8, seed=0)
        out = P.predict_step(fine, None, np.zeros(fine.n_nodes), params)
        assert out.shape == (fine.n_nodes,)

    def test_du_schedule_requires_coarse(self, channel):
        _, fine, _ = channel
        params = P.ModelParams("p=1H 1L 1H (U=1,D=1)", 1, 8, 8, seed=0)
        with pytest.raises(ValueError):
            P.predict_step(fine, None, np.zeros(fine.n_nodes), params)

    def test_single_level_schedule_skips_coarse_encode(self, channel, monkeypatch):
        _, fine, coarse = channel
        params = P.ModelParams("p=3H (U=0,D=0)", 1, 8, 8, seed=0)
        fields = np.random.default_rng(4).normal(size=fine.n_nodes)
        calls = []
        real = G.encode_coarse
        monkeypatch.setattr(G, "encode_coarse", lambda *a: calls.append(a) or real(*a))
        with_coarse = P.predict_step(fine, coarse, fields, params)
        assert calls == []
        without = P.predict_step(fine, None, fields, params)
        assert with_coarse.tobytes() == without.tobytes()

    def test_run_schedule_yields_the_steps_in_order(self, channel):
        _, fine, coarse = channel
        params = P.ModelParams("p=1H 2L 1H 1L 1H (U=2,D=2)", 1, 8, 8, seed=0)
        fields = np.random.default_rng(5).normal(size=(fine.n_nodes, 1))
        static = P.StaticLatents(params, fine, coarse)
        latents = G.encode_fine(fine, params.node_field_normalizer.apply(fields), params)
        yielded = list(P.run_schedule(params, static, latents))
        assert tuple(kind for kind, _ in yielded) == params.schedule.steps
        delta, _ = P.forward_normalized_delta(params, fine, coarse, fields, static)
        assert params.decoder(yielded[-1][1]).data.tobytes() == delta.data.tobytes()

    def test_static_latents_never_locate_in_the_fine_mesh(self, channel, monkeypatch):
        # Fresh copies, so no point location is hidden by a cached Graph.
        fine, coarse = (M.TriMesh(m.positions, m.triangles, m.node_kind, m.edge_min, m.edge_max)
                        for m in channel[1:])
        located = []
        real = M.locate_points
        monkeypatch.setattr(M, "locate_points",
                            lambda mesh, points: located.append(mesh) or real(mesh, points))
        P.StaticLatents(P.ModelParams("p=1H 1L 1H (U=1,D=1)", 1, 8, 8, seed=0), fine, coarse)
        assert located and all(mesh is coarse for mesh in located)


def _model_arrays(params, static):
    """Copies of every param and every static latent."""
    tensors = params.parameters() + [v for v in vars(static).values()
                                     if isinstance(v, nn.Tensor)]
    return [t.data.copy() for t in tensors]


class TestTapeFreeBuffers:
    """Under no_tape the forward pass writes into buffers it owns; it must
    never write into the params, the static latents or the input field,
    and must give the taped pass's bytes."""

    @pytest.mark.parametrize("schedule,hidden", [
        ("p=1H 11L 1H (U=1,D=1)", 8),
        ("p=3H (U=0,D=0)", 8),
        ("p=1H 2L 1H (U=1,D=1)", 12),  # hidden buffers unlike the latents
    ])
    def test_steps_keep_inputs_and_match_taped_bytes(self, channel, schedule, hidden):
        _, fine, coarse = channel
        params = P.ModelParams(schedule, 1, 8, hidden, seed=5)
        stepper = T.ModelStepper(params, coarse).bind(fine)
        before = _model_arrays(params, stepper.static)
        held = np.isin(fine.node_kind, P.PRESCRIBED_KINDS)
        u = np.random.default_rng(6).normal(size=fine.n_nodes)
        for _ in range(3):
            given = u.copy()
            nxt = stepper.step(u)
            assert u.tobytes() == given.tobytes()
            delta, _ = P.forward_normalized_delta(params, fine, coarse, u)
            taped = u + params.output_normalizer.unapply(delta.data)[:, 0]
            taped[held] = u[held]
            assert nxt.tobytes() == taped.tobytes()
            u = nxt
        after = _model_arrays(params, stepper.static)
        assert len(after) == len(before)
        for a, b in zip(after, before):
            assert a.tobytes() == b.tobytes()

    def test_threads_give_sequential_bytes(self, channel):
        # Three steppers on three threads share the params and the coarse
        # mesh, and two of them the fine mesh; each thread must write only
        # into the buffers of its own pass.
        domain, fine, coarse = channel
        meshes = (fine, M.generate_mesh(domain, 1.2e-2, seed=3), fine)
        params = P.ModelParams("p=1H 2L 1H (U=1,D=1)", 1, 8, 8, seed=7)

        def run(i, start=None):
            stepper = T.ModelStepper(params, coarse).bind(meshes[i])
            initial = np.random.default_rng(i).normal(size=meshes[i].n_nodes)
            if start is not None:
                start.wait(10)
            return unroll(stepper, initial, 4)[0]

        sequential = [run(i) for i in range(3)]
        start, threaded = threading.Barrier(3), [None] * 3
        threads = [threading.Thread(target=lambda i=i: threaded.__setitem__(i, run(i, start)))
                   for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(threaded, sequential):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("taped", [True, False])
    def test_overflowing_residual_names_add(self, taped):
        # The residual is added into the MLP's output buffer under no_tape;
        # its overflow must still be reported as the add's.
        rng = np.random.default_rng(3)
        block = P.ProcessorBlock("H", 4, 4, rng)
        block.edge_mlp.weights[0].data[:4] = 0.0  # no edge latent reaches the MLP
        block.edge_mlp.ln_bias.data[:] = 1e308
        v = nn.Tensor(rng.normal(size=(3, 4)))
        e = nn.Tensor(np.full((2, 4), 1.5e308))
        mode = contextlib.nullcontext() if taped else nn.no_tape()
        with mode, np.errstate(over="ignore"), pytest.raises(nn.NonFiniteError) as err:
            P.update(tiny_graph([0, 1], [1, 2], 3), v, v, e, block)
        assert err.value.op_name == "add"


@pytest.fixture(scope="module")
def small_pair():
    domain = M.ChannelDomain(1.0, 0.25)
    fine = M.generate_mesh(domain, 0.05)   # elongated: large hop diameter
    coarse = M.generate_mesh(domain, 0.25)
    return domain, fine, coarse


class TestReceptiveField:
    """Jacobian sparsity of the full encode-process-decode map."""

    def test_single_fine_step_influence_within_bound(self, small_pair):
        from meshpass.analysis import fine_graph_distances, receptive_field

        _, fine, coarse = small_pair
        params = P.ModelParams("p=1H (U=0,D=0)", 1, 8, 8, seed=0)
        mask = receptive_field(params, fine, coarse)
        dist = fine_graph_distances(fine)
        n = 1
        assert not np.any(mask & (dist > n + 1))

    def test_vcycle_reaches_beyond_fine_budget(self, small_pair):
        from meshpass.analysis import fine_graph_distances, receptive_field

        _, fine, coarse = small_pair
        params = P.ModelParams("p=1H 2L 1H (U=1,D=1)", 1, 8, 8, seed=0)
        mask = receptive_field(params, fine, coarse)
        dist = fine_graph_distances(fine)
        fine_budget = 2  # H steps only
        assert np.any(mask & (dist > fine_budget + 1))
