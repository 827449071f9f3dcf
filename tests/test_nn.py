"""Autodiff, MLP, normalizer, optimizer, and checkpoint tests."""

import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from meshpass import nn
from meshpass.nn import autodiff as ad


def finite_diff(loss_fn, leaves, h=1e-6):
    """Central finite differences of a rebuildable scalar loss."""
    out = []
    for p in leaves:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for k in range(flat.size):
            old = flat[k]
            flat[k] = old + h
            lp = float(loss_fn().data)
            flat[k] = old - h
            lm = float(loss_fn().data)
            flat[k] = old
            gflat[k] = (lp - lm) / (2 * h)
        out.append(g)
    return out


def max_rel_err(a, b, floor=1e-6):
    return max(
        abs(x - y) / max(abs(x), abs(y), floor)
        for x, y in zip(np.ravel(a), np.ravel(b))
    )


class TestAutodiffOps:
    @pytest.mark.parametrize(
        "name",
        ["matmul", "matmul_bias", "add_bias", "row_block", "relu", "concat", "mul",
         "sub", "layer_norm", "gather", "segment_sum"],
    )
    def test_op_gradients_match_finite_differences(self, name):
        rng = np.random.default_rng(hash(name) % 2**32)
        x = ad.Tensor(rng.normal(size=(6, 4)))
        w = ad.Tensor(rng.normal(size=(4, 3)))
        b = ad.Tensor(rng.normal(size=3))
        c = rng.normal(size=(6, 4))
        idx = np.array([0, 2, 2, 5, 1, 3])
        builders = {
            "matmul": (lambda: ad.matmul(x, w), [x, w]),
            "matmul_bias": (lambda: ad.matmul(x, w, b), [x, w, b]),
            "add_bias": (lambda: ad.add(ad.matmul(x, w), b), [x, w, b]),
            # Overlapping blocks: their gradients add up on rows 2 and 3.
            "row_block": (lambda: ad.add(ad.matmul(ad.row_block(x, 0, 4), w),
                                         ad.matmul(ad.row_block(x, 2, 6), w)), [x, w]),
            "relu": (lambda: ad.relu(ad.matmul(x, w)), [x, w]),
            "concat": (lambda: ad.concat([x, ad.mul(x, 2.0)]), [x]),
            "mul": (lambda: ad.mul(x, c), [x]),
            "sub": (lambda: ad.sub(x, c), [x]),
            "layer_norm": (lambda: ad.layer_norm(ad.matmul(x, w), b, b), [x, w, b]),
            "gather": (lambda: ad.spmm(ad.SparseOp.gather(idx, 6), x), [x]),
            "segment_sum": (lambda: ad.spmm(ad.SparseOp.segment_sum(idx, 6), x), [x]),
        }
        build, leaves = builders[name]
        loss_fn = lambda: ad.mean_sq(build())
        grads = ad.backward(loss_fn(), wrt=leaves)
        fd = finite_diff(loss_fn, leaves)
        for g, f in zip(grads, fd):
            assert max_rel_err(g, f) < 1e-4

    def test_nonfinite_forward_raises_named_op(self):
        x = ad.Tensor([[1.0, np.inf]])
        with pytest.raises(nn.NonFiniteError) as err:
            ad.mul(x, 2.0)
        assert "mul" in str(err.value)

    def test_nonfinite_bias_raises_at_matmul(self):
        x = ad.Tensor(np.ones((2, 2)))
        w = ad.Tensor(np.ones((2, 3)))
        b = ad.Tensor([0.0, np.nan, 0.0])
        with pytest.raises(nn.NonFiniteError) as err:
            ad.matmul(x, w, b)
        assert err.value.op_name == "matmul"

    def test_matmul_bias_matches_separate_add_bytes(self):
        rng = np.random.default_rng(3)
        x = ad.Tensor(rng.normal(size=(7, 4)))
        w = ad.Tensor(rng.normal(size=(4, 5)))
        b = ad.Tensor(rng.normal(size=5))
        g = rng.normal(size=(7, 5))
        fused = ad.matmul(x, w, b)
        split = ad.add(ad.matmul(x, w), b)
        assert fused.data.tobytes() == split.data.tobytes()
        fused_grads = ad.backward(fused, seed=g, wrt=[x, w, b])
        split_grads = ad.backward(split, seed=g, wrt=[x, w, b])
        for a, c in zip(fused_grads, split_grads):
            assert a.tobytes() == c.tobytes()

    def test_gather_take_matches_csr_bytes(self):
        rng = np.random.default_rng(4)
        idx = np.array([3, 0, 0, 4, 2, 4, 1])
        op = ad.SparseOp.gather(idx, 5)
        x = ad.Tensor(rng.normal(size=(5, 3)))
        g = rng.normal(size=(len(idx), 3))
        out = ad.spmm(op, x)
        assert out.data.tobytes() == (op.mat @ x.data).tobytes()
        (gx,) = ad.backward(out, seed=g, wrt=[x])
        assert gx.tobytes() == (op.mat_t @ g).tobytes()

    def test_layer_norm_matches_two_pass_formula_bytes(self):
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.normal(size=(40, 16)) * 3.0 + 1.0)
        gain, bias = ad.Tensor(rng.normal(size=16)), ad.Tensor(rng.normal(size=16))
        g = rng.normal(size=(40, 16))
        # The formula before the centred rows were computed once: np.var
        # recomputes the mean, and the VJP builds new arrays at every step.
        xv, gv, bv = x.data, gain.data, bias.data
        inv = 1.0 / np.sqrt(xv.var(axis=-1, keepdims=True) + ad._LN_EPS)
        xhat = (xv - xv.mean(axis=-1, keepdims=True)) * inv
        gx_hat = g * gv
        m1 = gx_hat.mean(axis=-1, keepdims=True)
        m2 = (gx_hat * xhat).mean(axis=-1, keepdims=True)
        expected = [xhat * gv + bv, inv * (gx_hat - m1 - xhat * m2),
                    (g * xhat).sum(axis=0), g.sum(axis=0)]
        out = ad.layer_norm(x, gain, bias)
        got = [out.data] + ad.backward(out, seed=g, wrt=[x, gain, bias])
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()

    def test_relu_mask_read_off_output_matches_input(self):
        # The vjp masks by relu's output: max(x, 0) > 0 exactly where
        # x > 0, also at signed zeros and subnormals.
        sub = np.finfo(np.float64).smallest_subnormal
        x = ad.Tensor([[0.0, -0.0, sub, -sub, 3 * sub, np.finfo(np.float64).tiny, -1.0, 2.0]])
        g = np.arange(1.0, 9.0)[None]
        (gx,) = ad.backward(ad.relu(x), seed=g, wrt=[x])
        assert gx.tobytes() == (g * (x.data > 0.0)).tobytes()
        assert gx.tolist() == [[0.0, 0.0, 3.0, 0.0, 5.0, 6.0, 0.0, 8.0]]

    def test_shared_subexpression_accumulates(self):
        x = ad.Tensor([[2.0]])
        y = ad.add(ad.mul(x, 3.0), ad.mul(x, 4.0))  # 7x
        (g,) = ad.backward(y, wrt=[x])
        assert g[0, 0] == 7.0


class TestNoTape:
    @pytest.mark.parametrize("taped", [True, False])
    def test_nan_into_relu_raises_named_op(self, taped):
        x = ad.Tensor([[1.0, np.nan]])
        with pytest.raises(nn.NonFiniteError) as err:
            if taped:
                ad.relu(x)
            else:
                with nn.no_tape():
                    ad.relu(x)
        assert err.value.op_name == "relu"

    def test_outputs_have_no_parents_and_same_bytes(self):
        rng = np.random.default_rng(0)
        mlp = nn.Mlp(4, 3, hidden=8, rng=rng)
        x = rng.normal(size=(6, 4))
        taped = nn.mlp_apply(mlp, x)
        with nn.no_tape():
            free = nn.mlp_apply(mlp, x)
        assert taped.parents and taped.vjp is not None
        assert free.parents == () and free.vjp is None and free.op == "layer_norm"
        assert free.data.tobytes() == taped.data.tobytes()

    def _out_cases(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 4))
        w = rng.normal(size=(4, 4))
        b = rng.normal(size=4)
        gather = ad.SparseOp.gather(np.array([2, 0, 5, 5, 1, 3]), 6)
        # op -> a call of it that hands over ``out`` (None hands over nothing)
        return {
            "matmul": lambda out: ad.matmul(x, w, b, out=out),
            "add": lambda out: ad.add(x, w[0], out=out),
            "relu": lambda out: ad.relu(x, out=out),
            "gather": lambda out: ad.spmm(gather, x, out=out),
            "layer_norm": lambda out: ad.layer_norm(x.copy(), w[0], b, out=out),
        }

    @pytest.mark.parametrize("name", ["matmul", "add", "relu", "gather", "layer_norm"])
    def test_out_buffer_used_only_without_tape(self, name):
        call = self._out_cases()[name]
        fresh = call(None)
        buf = np.full(fresh.shape, np.pi)
        taped = call(buf)
        assert not np.shares_memory(taped.data, buf) and np.all(buf == np.pi)
        with nn.no_tape():
            free = call(buf)
            wrong_shape = np.zeros((fresh.shape[0] + 1, fresh.shape[1]))
            assert not np.shares_memory(call(wrong_shape).data, wrong_shape)
        assert free.data is buf
        assert free.data.tobytes() == taped.data.tobytes() == fresh.data.tobytes()

    def test_segment_sum_never_writes_out(self):
        op = ad.SparseOp.segment_sum(np.array([0, 0, 1]), 2)
        buf = np.zeros((2, 3))
        with nn.no_tape():
            out = ad.spmm(op, np.ones((3, 3)), out=buf)
        assert not np.shares_memory(out.data, buf) and np.all(buf == 0.0)

    def test_taped_tail_ignores_handed_buffers(self):
        # While taping, ``out`` is ignored: the caller's arrays keep their
        # values, and output and gradients equal those of a pass handed
        # no buffer.
        rng = np.random.default_rng(8)
        mlp = nn.Mlp(3, 6, hidden=6, rng=rng)
        for b in mlp.biases:
            b.data[...] = rng.normal(size=b.shape)
        pre = ad.matmul(rng.normal(size=(9, 3)), mlp.weights[0], mlp.biases[0])
        spare = rng.normal(size=(9, 6))
        kept = pre.data.copy(), spare.copy()
        out = mlp.tail(pre, spare)
        plain = mlp.tail(pre)
        assert (pre.data < 0).any()
        assert pre.data.tobytes() == kept[0].tobytes() and spare.tobytes() == kept[1].tobytes()
        assert not np.shares_memory(out.data, pre.data) and not np.shares_memory(out.data, spare)
        assert out.op == "layer_norm" and out.data.tobytes() == plain.data.tobytes()
        seed = rng.normal(size=out.shape)
        leaves = [pre] + mlp.parameters()
        for a, c in zip(ad.backward(out, seed=seed, wrt=leaves),
                        ad.backward(plain, seed=seed, wrt=leaves)):
            assert a.tobytes() == c.tobytes()

    def test_reusing_op_names_its_non_finite_output(self):
        # Each op's output is scanned where it is made: relu would map this
        # -inf to 0, so a later scan would miss it.
        mlp = nn.Mlp(2, 4, hidden=4, rng=np.random.default_rng(9))
        mlp.weights[1].data[...] = -1e308
        with nn.no_tape(), np.errstate(over="ignore"):
            with pytest.raises(nn.NonFiniteError) as err:
                mlp.tail(ad.Tensor(np.full((5, 4), 10.0)), np.zeros((5, 4)))
            assert err.value.op_name == "matmul"
            big = ad.Tensor(np.full((2, 3), 1e308))
            with pytest.raises(nn.NonFiniteError) as err:
                ad.add(np.full((2, 3), 1e308), big, out=big)
            assert err.value.op_name == "add"

    def test_mode_restored_after_exception(self):
        w = ad.Tensor(np.array([[2.0]]))
        with pytest.raises(nn.NonFiniteError):
            with nn.no_tape():
                ad.mul(w, np.inf)
        (g,) = ad.backward(ad.mean_sq(ad.matmul(np.ones((1, 1)), w)), wrt=[w])
        assert g[0, 0] == 4.0

    def test_mode_is_per_thread(self):
        # While one thread sits inside no_tape, another thread's ops still
        # record their tape; a thread started inside the block tapes too.
        x = ad.Tensor([[1.0, -2.0]])
        inside, release, held = threading.Event(), threading.Event(), []

        def hold():
            with nn.no_tape():
                held.append(ad.relu(x))
                inside.set()
                release.wait(10)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert inside.wait(10)
            taped = ad.relu(x)
        finally:
            release.set()
            holder.join(10)
        assert not holder.is_alive()
        assert held[0].parents == () and held[0].vjp is None
        assert taped.parents and taped.vjp is not None
        with nn.no_tape():
            with ThreadPoolExecutor(1) as pool:
                worker = pool.submit(ad.relu, x).result()
            assert ad.relu(x).parents == ()
        assert worker.parents and worker.vjp is not None


class TestBackwardWrt:
    @staticmethod
    def three_block_loss():
        # Three residual MLP blocks on 2000 rows, as one processor step each.
        rng = np.random.default_rng(6)
        mlps = [nn.Mlp(32, 32, hidden=32, rng=rng) for _ in range(3)]
        h = ad.Tensor(rng.normal(size=(2000, 32)))
        for mlp in mlps:
            h = ad.add(h, mlp(h))
        return ad.mean_sq(h), [p for mlp in mlps for p in mlp.parameters()]

    def test_spent_adjoints_freed(self):
        loss, params = self.three_block_loss()
        tracemalloc.start()
        ad.backward(loss, wrt=params)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # One (2000, 32) adjoint per taped node would take about 10 MB;
        # only a few are alive at any time.
        held_by_all = len(ad._topo_order(loss.node)) * 2000 * 32 * 8
        assert peak < held_by_all / 2


class TestGrad:
    def test_quadratic_loss_hand_derivation(self):
        # loss = 0.5 ||W x||^2  =>  dloss/dW = (W x) x^T
        rng = np.random.default_rng(0)
        w = ad.Tensor(rng.normal(size=(3, 3)))
        x = rng.normal(size=(3, 1))
        y = ad.matmul(w, x)
        (g,) = ad.backward(ad.mul(ad.mul(y, y), 0.5), wrt=[w])
        expected = (w.data @ x) @ x.T
        np.testing.assert_allclose(g, expected, rtol=1e-12)

    def test_constant_loss_zero_gradients(self):
        w = ad.Tensor(np.ones((2, 2)))
        (g,) = ad.backward(ad.mul(ad.mul(w, 0.0), 1.0), wrt=[w])
        assert np.all(g == 0.0)


class TestMlp:
    def test_zero_weights_zero_output(self):
        mlp = nn.Mlp(4, 3, hidden=8, rng=np.random.default_rng(0)).zero_()
        out = nn.mlp_apply(mlp, np.random.default_rng(1).normal(size=(5, 4)))
        assert np.all(out.data == 0.0)

    def test_identity_construction(self):
        # A wide-enough ReLU MLP can represent the identity via x = relu(x) - relu(-x).
        d = 3
        mlp = nn.Mlp(d, d, hidden=2 * d, layer_norm=False, rng=np.random.default_rng(0))
        w0 = np.zeros((d, 2 * d))
        w0[:, :d] = np.eye(d)
        w0[:, d:] = -np.eye(d)
        mlp.weights[0].data[...] = w0
        mlp.biases[0].data[...] = 0.0
        mlp.weights[1].data[...] = np.eye(2 * d)
        mlp.biases[1].data[...] = 0.0
        w2 = np.zeros((2 * d, d))
        w2[:d] = np.eye(d)
        w2[d:] = -np.eye(d)
        mlp.weights[2].data[...] = w2
        mlp.biases[2].data[...] = 0.0
        x = np.random.default_rng(2).normal(size=(7, d))
        np.testing.assert_allclose(nn.mlp_apply(mlp, x).data, x, atol=1e-15)

    def test_batch_equals_concatenated_singles(self):
        # BLAS may pick different kernels per shape, so allow 1-ulp slack.
        mlp = nn.Mlp(4, 2, hidden=8, rng=np.random.default_rng(3))
        x = np.random.default_rng(4).normal(size=(2, 4))
        both = nn.mlp_apply(mlp, x).data
        one = nn.mlp_apply(mlp, x[:1]).data
        two = nn.mlp_apply(mlp, x[1:]).data
        np.testing.assert_allclose(both, np.concatenate([one, two]), rtol=1e-13, atol=1e-15)

    def test_width_mismatch_raises(self):
        mlp = nn.Mlp(4, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            nn.mlp_apply(mlp, np.zeros((3, 5)))


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = ad.Tensor(np.array([1.0, -2.0]))
        opt = nn.Adam([p], lr=0.1)
        before = p.data.copy()
        opt.step([np.zeros(2)])
        np.testing.assert_array_equal(p.data, before)

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        p = ad.Tensor(np.array([0.0]))
        opt = nn.Adam([p], lr=0.05)
        g = np.array([3.7])
        prev = p.data.copy()
        for _ in range(200):
            prev = p.data.copy()
            opt.step([g])
        assert abs(abs(p.data[0] - prev[0]) - 0.05) < 1e-3

    def test_independent_groups(self):
        pa, pb = ad.Tensor(np.ones(2)), ad.Tensor(np.ones(3))
        opt = nn.Adam([pa, pb], lr=0.1)
        opt.step([np.ones(2), np.zeros(3)])
        assert not np.array_equal(pa.data, np.ones(2))
        np.testing.assert_array_equal(pb.data, np.ones(3))

    def test_shape_mismatch_raises(self):
        p = ad.Tensor(np.ones(2))
        opt = nn.Adam([p])
        with pytest.raises(ValueError):
            opt.step([np.ones(3)])


class TestNormalizer:
    def test_two_point_stats(self):
        norm = nn.Normalizer(1)
        norm.accumulate(np.array([[0.0], [2.0]]))
        np.testing.assert_allclose(norm.mean, [1.0])
        np.testing.assert_allclose(norm.std, [1.0])
        out = norm.apply(np.array([[0.0], [2.0]]))
        np.testing.assert_allclose(out, [[-1.0], [1.0]])

    def test_zero_variance_floor(self):
        norm = nn.Normalizer(1)
        norm.accumulate(np.full((10, 1), 3.0))
        assert norm.std[0] == nn.Normalizer.STD_FLOOR
        assert np.all(np.isfinite(norm.apply(np.array([[4.0]]))))

    def test_apply_unapply_identity(self):
        norm = nn.Normalizer(2)
        rng = np.random.default_rng(0)
        norm.accumulate(rng.normal(2.0, 3.0, size=(50, 2)))
        x = rng.normal(size=(6, 2))
        np.testing.assert_allclose(norm.unapply(norm.apply(x)), x, atol=1e-12)

    def test_fresh_normalizer_is_identity(self):
        norm = nn.Normalizer(2)
        x = np.random.default_rng(1).normal(size=(4, 2))
        np.testing.assert_array_equal(norm.apply(x), x)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        blocks = {
            "a/w": np.arange(6.0).reshape(2, 3),
            "b": np.array(3.14),
        }
        path = tmp_path / "ck.bin"
        nn.save_blocks(path, blocks)
        loaded = nn.load_blocks(path)
        assert list(loaded) == ["a/w", "b"]
        np.testing.assert_array_equal(loaded["a/w"], blocks["a/w"])
        np.testing.assert_array_equal(loaded["b"], blocks["b"])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + b"\0" * 16)
        with pytest.raises(nn.CheckpointError):
            nn.load_blocks(path)

    def test_truncated_file_names_path(self, tmp_path):
        path = tmp_path / "ck.bin"
        nn.save_blocks(path, {"a/w": np.arange(6.0).reshape(2, 3), "b": np.ones(4)})
        whole = path.read_bytes()
        # Cuts inside the count, a name length, a name, a shape and the data
        # (the last one leaves a byte count that is not a multiple of 8).
        for size in (12, 17, 20, 30, len(whole) - 8, len(whole) - 3):
            path.write_bytes(whole[:size])
            with pytest.raises(nn.CheckpointError, match="truncated checkpoint") as info:
                nn.load_blocks(path)
            assert str(path) in str(info.value)
