"""Latent graph encoding and transfer-graph construction tests."""

import numpy as np
import pytest

from meshpass import graphs as G
from meshpass import mesh as M
from meshpass import nn
from meshpass.processor import ModelParams


def square_mesh(shift=(0.0, 0.0), scale=1.0):
    """Two-triangle unit square, optionally scaled/translated."""
    sx, sy = shift
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]) * scale
    pos[:, 0] += sx
    pos[:, 1] += sy
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    kinds = np.array([M.KIND_INFLOW, M.KIND_OUTFLOW, M.KIND_OUTFLOW, M.KIND_INFLOW])
    return M.TriMesh(pos, tris, kinds, scale, 5 * scale)


@pytest.fixture(scope="module")
def params():
    return ModelParams("p=1H 1L 1H (U=1,D=1)", field_width=1, latent_size=8,
                       hidden_size=8, seed=0)


@pytest.fixture(scope="module")
def channel():
    domain = M.ChannelDomain(1.0, 0.4, (0.275, 0.25), 0.05)
    return domain, M.generate_mesh(domain, 1e-2), M.generate_mesh(domain, 2.5e-2)


class TestEncodeFine:
    def test_two_triangle_square_counts(self, params):
        mesh = square_mesh()
        nodes = G.encode_fine(mesh, np.zeros(4), params)
        edges = G.encode_edges(G.mesh_graph(mesh), "fine", params)
        assert nodes.data.shape[0] == 4
        assert edges.data.shape[0] == 10  # 5 undirected edges

    def test_zero_weight_encoders_zero_latents(self):
        p = ModelParams("p=1H (U=0,D=0)", 1, 8, 8, seed=0).zero_()
        mesh = square_mesh()
        nodes = G.encode_fine(mesh, np.random.default_rng(0).normal(size=4), p)
        edges = G.encode_edges(G.mesh_graph(mesh), "fine", p)
        assert np.all(nodes.data == 0)
        assert np.all(edges.data == 0)

    def test_translation_leaves_edge_latents_unchanged(self, params):
        a = G.encode_edges(G.mesh_graph(square_mesh()), "fine", params)
        b = G.encode_edges(G.mesh_graph(square_mesh(shift=(0.3, -0.1))), "fine", params)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_field_count_mismatch(self, params):
        with pytest.raises(ValueError):
            G.encode_fine(square_mesh(), np.zeros(5), params)


class TestEncodeCoarse:
    def test_node_feature_width_is_kind_one_hot_only(self):
        # The coarse node encoder consumes exactly the node-kind one-hot.
        p = ModelParams("p=1H 1L 1H (U=1,D=1)", field_width=3, latent_size=8,
                        hidden_size=8, seed=0)
        assert p.encoders["coarse_node"].in_width == G.ONE_HOT_WIDTH
        assert p.encoders["fine_node"].in_width == G.ONE_HOT_WIDTH + 3

    def test_coarse_latents_independent_of_fields(self, params):
        mesh = square_mesh()
        _, a, _ = G.encode_coarse(mesh, params)
        _, b, _ = G.encode_coarse(mesh, params)
        np.testing.assert_array_equal(a.data, b.data)

    def test_zero_weights_zero_latents(self):
        p = ModelParams("p=1H 1L 1H (U=1,D=1)", 1, 8, 8, seed=0).zero_()
        _, nodes, edges = G.encode_coarse(square_mesh(), p)
        assert np.all(nodes.data == 0)
        assert np.all(edges.data == 0)

    def test_translation_invariance(self, params):
        _, _, a = G.encode_coarse(square_mesh(), params)
        _, _, b = G.encode_coarse(square_mesh(shift=(0.3, -0.1)), params)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)


class TestBuildTransfer:
    def test_fine_mesh_inside_one_coarse_triangle(self, params):
        coarse = square_mesh()
        fine = square_mesh(shift=(0.55, 0.05), scale=0.3)  # inside triangle 0
        t, _ = G.build_transfer(fine, coarse, "down", params)
        assert len(t.senders) == 3 * fine.n_nodes
        assert set(t.receivers.tolist()) <= set(coarse.triangles[0].tolist())

    def test_three_edges_per_source_node(self, params, channel):
        # Every fine node sends 3 down edges and receives 3 up edges.
        _, fine, coarse = channel
        down, _ = G.build_transfer(fine, coarse, "down", params)
        counts = np.bincount(down.senders, minlength=fine.n_nodes)
        assert np.all(counts == 3)
        up, _ = G.build_transfer(fine, coarse, "up", params)
        counts = np.bincount(up.receivers, minlength=fine.n_nodes)
        assert np.all(counts == 3)

    def test_receivers_match_brute_force_oracle(self, params, channel):
        # Down and up edges of each fine node link it with the corners of
        # its brute-force containing coarse triangle; up reverses down.
        _, fine, coarse = channel
        down, _ = G.build_transfer(fine, coarse, "down", params)
        up, _ = G.build_transfer(fine, coarse, "up", params)
        for i in range(fine.n_nodes):
            loc = M.locate_point_brute(coarse, fine.positions[i])
            expected = set(coarse.triangles[loc.triangle_index].tolist())
            assert set(down.receivers[down.senders == i].tolist()) == expected
            assert set(up.senders[up.receivers == i].tolist()) == expected
        assert (sorted(zip(up.receivers.tolist(), up.senders.tolist()))
                == sorted(zip(down.senders.tolist(), down.receivers.tolist())))

    def test_receivers_are_interpolator_corners(self, channel):
        _, fine, coarse = channel
        for src, dst in ((fine, coarse), (coarse, fine)):
            senders, receivers = G.containment_edges(src, dst)
            corners, _ = M.build_interpolator(dst, src.positions)
            assert np.array_equal(senders, np.repeat(np.arange(src.n_nodes), 3))
            assert np.array_equal(receivers, corners.ravel())

    def test_obstacle_exclusion(self, params, channel):
        # No transfer endpoint may lie strictly inside the obstacle.
        domain, fine, coarse = channel
        cx, cy = domain.obstacle_center
        for src, dst, direction in ((fine, coarse, "down"), (coarse, fine, "up")):
            t, _ = G.build_transfer(fine, coarse, direction, params)
            for pos, idx in ((src.positions, t.senders), (dst.positions, t.receivers)):
                r = np.hypot(pos[idx, 0] - cx, pos[idx, 1] - cy)
                assert np.all(r >= domain.obstacle_radius - 1e-9)

    def test_deterministic(self, params, channel):
        _, fine, coarse = channel
        a, a_edges = G.build_transfer(fine, coarse, "down", params)
        b, b_edges = G.build_transfer(fine, coarse, "down", params)
        assert np.array_equal(a.senders, b.senders)
        assert np.array_equal(a.receivers, b.receivers)
        assert np.array_equal(a_edges.data, b_edges.data)


class TestGraph:
    def test_canonical_order_and_features(self):
        pos = np.random.default_rng(2).normal(size=(4, 2))
        g = G.Graph(np.array([3, 0, 2, 1]), np.array([0, 1, 0, 2]), pos)
        assert g.receivers.tolist() == [0, 0, 1, 2]
        assert g.senders.tolist() == [2, 3, 0, 1]
        np.testing.assert_array_equal(
            g.features, G.relative_edge_features(pos, g.senders, g.receivers)
        )

    def test_cross_level_features_and_shapes(self):
        src = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
        dst = np.array([[0.0, 0.0], [1.0, 0.0]])
        g = G.Graph(np.array([1, 2]), np.array([0, 1]), src, dst)
        np.testing.assert_allclose(g.features, [[3.0, 4.0, 5.0], [0.0, 1.0, 1.0]])
        # Each operator's matrix is the (n_rows, n_edges) segment sum.
        assert g.gather_send.mat.shape == (3, 2)
        assert g.gather_recv.mat.shape == (2, 2)
        assert g.aggregate.mat is g.gather_recv.mat
        x = np.arange(6.0).reshape(3, 2)
        assert nn.spmm(g.gather_send, x).shape == (2, 2)
        assert nn.spmm(g.aggregate, np.ones((2, 4))).shape == (2, 4)

    def test_built_once_per_mesh_and_pair(self, params, channel):
        _, fine, coarse = channel
        a = G.mesh_graph(fine)
        G.encode_fine(fine, np.ones(fine.n_nodes), params)
        assert G.mesh_graph(fine) is a
        assert G.encode_coarse(coarse, params)[0] is G.mesh_graph(coarse)
        down, _ = G.build_transfer(fine, coarse, "down", params)
        assert G.build_transfer(fine, coarse, "down", params)[0] is down
        assert G.transfer_graph(fine, coarse, "down") is down

    def test_aggregate_shares_receiver_gather(self, channel):
        # The segment sum is the receiver gather read the other way: one
        # index list and one sparse matrix for both.
        _, fine, coarse = channel
        graphs = [G.mesh_graph(fine), G.mesh_graph(coarse),
                  G.transfer_graph(fine, coarse, "down"), G.transfer_graph(fine, coarse, "up"),
                  G.Graph(np.array([1, 2]), np.array([0, 1]), np.zeros((3, 2)),
                          np.zeros((2, 2)))]
        for g in graphs:
            assert g.aggregate.indices is g.gather_recv.indices
            assert g.aggregate.mat is g.gather_recv.mat
            assert g.gather_recv.is_gather and not g.aggregate.is_gather
            assert g.gather_recv.mat.nnz == g.gather_send.mat.nnz == len(g.receivers)


class TestEdgeFeatures:
    def test_antisymmetry(self):
        pos = np.random.default_rng(0).normal(size=(5, 2))
        s = np.array([0, 1, 2])
        r = np.array([3, 4, 0])
        f_sr = G.relative_edge_features(pos, s, r)
        f_rs = G.relative_edge_features(pos, r, s)
        np.testing.assert_allclose(f_sr[:, :2], -f_rs[:, :2], atol=1e-15)
        np.testing.assert_allclose(f_sr[:, 2], f_rs[:, 2], atol=1e-15)

    def test_canonical_layout(self):
        pos = np.array([[0.0, 0.0], [3.0, 4.0]])
        f = G.relative_edge_features(pos, np.array([1]), np.array([0]))
        np.testing.assert_allclose(f, [[3.0, 4.0, 5.0]])
