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
        assert p.coarse_node_encoder.in_width == G.ONE_HOT_WIDTH
        assert p.fine_node_encoder.in_width == G.ONE_HOT_WIDTH + 3

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


class TestGridTransfer:
    def test_node_at_cell_center_four_edges(self, params):
        mesh = square_mesh(shift=(0.05, 0.05), scale=0.4)
        t, _ = G.build_transfer(mesh, G.GridLevel(M.ChannelDomain(1.0, 1.0), 0.5), "down",
                                params)
        counts = np.bincount(t.senders, minlength=mesh.n_nodes)
        assert np.all(counts == 4)

    def test_corner_inside_obstacle_omitted(self, params):
        domain = M.ChannelDomain(1.0, 0.4, (0.275, 0.25), 0.06)
        grid = G.GridLevel(domain, 0.1)
        assert grid.inside_obstacle.sum() >= 1
        mesh = M.generate_mesh(domain, 1.2e-2)
        t, _ = G.build_transfer(mesh, grid, "down", params)
        counts = np.bincount(t.senders, minlength=mesh.n_nodes)
        assert counts.max() == 4
        assert counts.min() >= 1
        assert (counts < 4).any()  # some nodes lost an obstacle corner
        assert len(t.senders) <= 4 * mesh.n_nodes

    def test_up_direction_mirrors_pairs(self, params):
        mesh = square_mesh(shift=(0.1, 0.1), scale=0.5)
        domain = M.ChannelDomain(1.0, 1.0)
        grid = G.GridLevel(domain, 0.5)
        down, _ = G.build_transfer(mesh, grid, "down", params)
        up, _ = G.build_transfer(mesh, grid, "up", params)
        pairs_down = set(zip(down.senders.tolist(), down.receivers.tolist()))
        pairs_up = set(zip(up.receivers.tolist(), up.senders.tolist()))
        assert pairs_down == pairs_up

    def test_transfer_matches_cell_loop_bytes(self):
        # Each mesh node with the corners of its (clamped) grid cell that lie
        # outside the obstacle, one node at a time; up reverses the pairs.
        domain = M.ChannelDomain(1.0, 0.4, (0.275, 0.25), 0.06)
        grid = G.GridLevel(domain, 0.1)
        mesh = M.generate_mesh(domain, 1.2e-2)
        mesh_idx, grid_idx = [], []
        for i, p in enumerate(mesh.positions):
            ix = min(max(int(p[0] // grid.spacing[0]), 0), grid.nx - 1)
            iy = min(max(int(p[1] // grid.spacing[1]), 0), grid.ny - 1)
            corners = [grid.node_index(ix, iy), grid.node_index(ix + 1, iy),
                       grid.node_index(ix, iy + 1), grid.node_index(ix + 1, iy + 1)]
            kept = [c for c in corners if not grid.inside_obstacle[c]]
            mesh_idx.extend([i] * len(kept))
            grid_idx.extend(kept)
        assert len(mesh_idx) < 4 * mesh.n_nodes  # some nodes lost a corner
        expected = {
            "down": G.Graph(mesh_idx, grid_idx, mesh.positions, grid.positions),
            "up": G.Graph(grid_idx, mesh_idx, grid.positions, mesh.positions),
        }
        got = {d: G.transfer_graph(mesh, grid, d) for d in ("down", "up")}
        for direction, ref in expected.items():
            for name in ("senders", "receivers", "features"):
                a, b = getattr(got[direction], name), getattr(ref, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (direction, name)

    def test_node_with_every_corner_inside_obstacle_dropped(self):
        # A 0.1 grid around a 0.2 disk: cell [0.4, 0.5]^2 has all 4 corners
        # inside, so node 2, at (0.45, 0.45), is dropped with a warning.
        grid = G.GridLevel(M.ChannelDomain(1.0, 1.0, (0.5, 0.5), 0.2), 0.1)
        mesh = square_mesh(shift=(0.05, 0.05), scale=0.4)
        with pytest.warns(UserWarning, match="source node 2 dropped"):
            down = G.transfer_graph(mesh, grid, "down")
        assert 2 not in down.senders and set(down.senders.tolist()) == {0, 1, 3}
        assert 2 not in G.transfer_graph(mesh, grid, "up").receivers

    def test_lattice_edges_match_link_loop(self):
        # Every x and y link between grid nodes, both ends outside the
        # obstacle, as unique sorted (i < j) rows.
        domain = M.ChannelDomain(1.0, 0.4, (0.275, 0.25), 0.06)
        grid = G.GridLevel(domain, 0.05)
        pairs = []
        for ix in range(grid.nx + 1):
            for iy in range(grid.ny + 1):
                a = grid.node_index(ix, iy)
                if ix < grid.nx:
                    pairs.append((a, grid.node_index(ix + 1, iy)))
                if iy < grid.ny:
                    pairs.append((a, grid.node_index(ix, iy + 1)))
        pairs = np.array(pairs, dtype=np.int64)
        pairs = pairs[~grid.inside_obstacle[pairs].any(axis=1)]
        expected = np.unique(np.sort(pairs, axis=1), axis=0)
        assert grid.inside_obstacle.sum() >= 1
        edges = grid.undirected_edges()
        assert edges.dtype == expected.dtype and edges.tobytes() == expected.tobytes()

    def test_grid_must_cover_2x2_cells(self, params):
        mesh = square_mesh()
        with pytest.raises(ValueError):
            G.build_transfer(mesh, G.GridLevel(M.ChannelDomain(1.0, 1.0), 2.0), "down", params)


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
        assert g.gather_send.mat.shape == (2, 3)
        assert g.gather_recv.mat.shape == (2, 2)
        assert g.aggregate.mat.shape == (2, 2)

    def test_built_once_per_mesh_and_pair(self, params, channel):
        _, fine, coarse = channel
        a = G.mesh_graph(fine)
        G.encode_fine(fine, np.ones(fine.n_nodes), params)
        assert G.mesh_graph(fine) is a
        assert G.encode_coarse(coarse, params)[0] is G.mesh_graph(coarse)
        down, _ = G.build_transfer(fine, coarse, "down", params)
        assert G.build_transfer(fine, coarse, "down", params)[0] is down
        assert G.transfer_graph(fine, coarse, "down") is down


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
