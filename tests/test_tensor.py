import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from amulet import tensor as tc

from oracles import (
    finite_difference_grads,
    matmul_triple_loop,
    pick,
    random_graph,
    relative_error,
    smul,
    srecip,
    sum_all,
    transpose,
)


def dims(lo=1, hi=10):
    return st.integers(min_value=lo, max_value=hi)


class TestMatmul:
    def test_identity(self):
        b = np.array([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(tc.matmul_values(np.eye(2), b), b)

    def test_zero_annihilates(self):
        a = np.zeros((2, 3))
        b = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(tc.matmul_values(a, b), np.zeros((2, 2)))

    def test_hand_case(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        b = np.array([[1.0, 0.0], [2.0, 1.0]])
        expected = matmul_triple_loop(a, b)
        assert np.array_equal(expected, np.array([[5.0, 2.0], [2.0, 1.0]]))
        assert np.array_equal(tc.matmul_values(a, b), expected)

    def test_shape_error(self):
        with pytest.raises(tc.ShapeError):
            tc.matmul_values(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_exhaustive_small_shapes_bitwise(self):
        rng = np.random.default_rng(11)
        for p in range(1, 7):
            for q in range(1, 7):
                for s in range(1, 7):
                    a = rng.standard_normal((p, q))
                    b = rng.standard_normal((q, s))
                    assert np.array_equal(tc.matmul_values(a, b), matmul_triple_loop(a, b)), (p, q, s)

    def test_training_shapes_bitwise(self):
        rng = np.random.default_rng(12)
        shapes = [(200, 160, 64), (160, 200, 64), (64, 200, 160), (200, 64, 1), (1, 64, 5),
                  (100, 64, 1), (64, 200, 1), (100, 160, 4), (160, 100, 4), (4, 100, 64)]
        for p, q, s in shapes:
            a = rng.standard_normal((p, q))
            b = rng.standard_normal((q, s))
            assert np.array_equal(tc.matmul_values(a, b), matmul_triple_loop(a, b))

    def test_transposed_view_bitwise(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((20, 12))
        b = rng.standard_normal((20, 7))
        assert np.array_equal(tc.matmul_values(a.T, b), matmul_triple_loop(a.T, b))

    def test_transposed_second_operand_bitwise(self):
        # g @ W.T as `matmul`'s backward takes it: (rows, inner, W's rows) at
        # the encoder, adapter, expert head, gate and fusion head shapes
        rng = np.random.default_rng(14)
        shapes = [(100, 64, 64), (100, 64, 160), (100, 64, 4), (100, 4, 160), (100, 4, 64),
                  (100, 1, 64), (1, 2, 128), (1, 64, 64), (1, 2, 64), (1, 5, 64), (1, 64, 100),
                  (3, 8, 3)]
        for p, q, s in shapes:
            a = rng.standard_normal((p, q))
            w = rng.standard_normal((s, q))
            assert np.array_equal(tc.matmul_values(a, w.T), matmul_triple_loop(a, w.T)), (p, q, s)

    @given(p=dims(), q=dims(), s=dims(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_triple_loop(self, p, q, s, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((p, q)) * rng.uniform(0.01, 100)
        b = rng.standard_normal((q, s)) * rng.uniform(0.01, 100)
        assert np.array_equal(tc.matmul_values(a, b), matmul_triple_loop(a, b))


class TestLinear:
    """`linear` against the composition it replaces, bit for bit."""

    @staticmethod
    def values(rng, shape):
        """Normal draws with about a quarter of the entries zeros of either sign."""
        v = rng.standard_normal(shape)
        zeros = rng.random(shape) < 0.25
        return np.where(zeros, np.where(rng.random(shape) < 0.5, 0.0, -0.0), v)

    @settings(max_examples=200, deadline=None)
    @given(counts=st.lists(st.integers(0, 3), min_size=1, max_size=4), k=dims(0, 5),
           n=dims(0, 10), grads=st.tuples(st.booleans(), st.booleans(), st.booleans()),
           segmented=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(counts=[0], k=3, n=2, grads=(True, True, True), segmented=True, seed=1)
    @example(counts=[2, 3], k=0, n=0, grads=(True, True, True), segmented=True, seed=2)
    @example(counts=[1], k=4, n=9, grads=(True, False, True), segmented=False, seed=3)
    def test_bitwise_the_add_of_a_matmul(self, counts, k, n, grads, segmented, seed):
        rng = np.random.default_rng(seed)
        rows = sum(counts)
        a, w, bias = (self.values(rng, shape) for shape in ((rows, k), (k, n), (1, n)))
        weights, other = self.values(rng, (rows, n)), self.values(rng, (rows, k))
        segments = tc.row_segments(counts) if segmented else None

        def run(layer):
            leaves = [tc.leaf(v, requires_grad=g) for v, g in zip((a, w, bias), grads)]
            out = layer(*leaves)
            # a second use of `a` fixes the order in which its gradients arrive
            loss = tc.add(sum_all(tc.mul(out, tc.constant(weights))),
                          sum_all(tc.mul(leaves[0], tc.constant(other))))
            tc.backward(loss)
            return out, loss, leaves

        out, loss, leaves = run(lambda x, m, b: tc.linear(x, m, b, segments))
        ref_out, ref_loss, ref_leaves = run(
            lambda x, m, b: tc.add(tc.matmul(x, m, segments), b, segments))
        assert out.value.tobytes() == ref_out.value.tobytes()
        # the layout too: a row sum's rounding depends on it
        layout = [(v.flags.c_contiguous, v.flags.f_contiguous) for v in (out.value, ref_out.value)]
        assert layout[0] == layout[1]
        assert loss.value.tobytes() == ref_loss.value.tobytes()
        for leaf, ref in zip(leaves, ref_leaves):
            assert leaf.grad.tobytes() == ref.grad.tobytes()

    def test_frozen_weight_gets_no_product(self, monkeypatch):
        rng = np.random.default_rng(5)
        x = tc.leaf(rng.standard_normal((3, 4)), requires_grad=True)
        w = tc.leaf(rng.standard_normal((4, 2)), requires_grad=False)
        b = tc.leaf(rng.standard_normal((1, 2)), requires_grad=True)
        out = sum_all(tc.linear(x, w, b))
        calls = []
        real = tc.matmul_values

        def counting(a, b):
            calls.append((a.shape, b.shape))
            return real(a, b)

        monkeypatch.setattr(tc, "matmul_values", counting)
        tc.backward(out)
        assert calls == [((3, 2), (2, 4))]  # g @ W.T only; no x.T @ g for the frozen W
        assert np.array_equal(x.grad, real(np.ones((3, 2)), w.value.T))
        assert np.array_equal(w.grad, np.zeros((4, 2)))
        assert np.array_equal(b.grad, np.full((1, 2), 3.0))

    def test_one_node_over_the_operands(self):
        x, w = tc.leaf(np.ones((3, 4)), True), tc.leaf(np.ones((4, 2)), True)
        b = tc.leaf(np.ones((1, 2)), True)
        out = tc.linear(x, w, b)
        assert out.parents == (x, w, b) and out.op == "linear"
        with pytest.raises(tc.ShapeError):
            tc.linear(x, w, tc.leaf(np.ones((1, 3)), True))
        with pytest.raises(tc.ShapeError):
            tc.linear(x, tc.leaf(np.ones((3, 2)), True), b)


class TestLayerNorm:
    def test_constant_row_returns_bias(self):
        x = np.array([[5.0, 5.0, 5.0]])
        out, _, _ = tc.layer_norm_values(x, np.ones((1, 3)), np.zeros((1, 3)), 1e-5)
        assert np.array_equal(out, np.zeros((1, 3)))

    def test_unit_gain_row(self):
        x = np.array([[1.0, 2.0, 3.0]])
        # independent evaluation: (x - mean) / population std
        std = math.sqrt(2.0 / 3.0)
        expected = (x - 2.0) / std
        out, _, _ = tc.layer_norm_values(x, np.ones((1, 3)), np.zeros((1, 3)), 1e-12)
        assert np.allclose(out, expected, atol=1e-9)
        assert np.allclose(out, [[-1.22474, 0.0, 1.22474]], atol=1e-5)

    def test_affine_row(self):
        x = np.array([[1.0, 2.0, 3.0]])
        out, _, _ = tc.layer_norm_values(x, np.full((1, 3), 2.0), np.ones((1, 3)), 1e-12)
        assert np.allclose(out, [[-1.44949, 1.0, 3.44949]], atol=1e-5)

    def test_degenerate_width(self):
        with pytest.raises(tc.DegenerateInputError):
            tc.layer_norm_values(np.ones((2, 1)), np.ones((1, 1)), np.zeros((1, 1)), 1e-5)

    @given(
        t=dims(1, 6), d=dims(2, 8), seed=st.integers(0, 2**32 - 1)
    )
    @example(t=3, d=2, seed=236762531)  # a row whose two values nearly cancel
    @settings(max_examples=60, deadline=None)
    def test_row_statistics(self, t, d, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((t, d)) * 3.0
        x += rng.standard_normal((t, 1))  # non-constant rows with arbitrary offsets
        eps = 1e-12
        _, xhat, _ = tc.layer_norm_values(x, np.ones((1, d)), np.zeros((1, d)), eps)
        var = x.var(axis=1)
        assert np.all(np.abs(xhat.mean(axis=1)) < 1e-9)
        # the mean square is var / (var + eps), not 1: eps matters for tiny variances
        assert np.all(np.abs((xhat**2).mean(axis=1) - var / (var + eps)) < 1e-9)


class TestSoftmax:
    def test_uniform(self):
        out = tc.softmax_values(np.full((1, 4), 2.5))
        assert np.allclose(out, 0.25, atol=1e-15)

    def test_closed_form(self):
        out = tc.softmax_values(np.array([[0.0, math.log(3.0)]]))
        assert np.allclose(out, [[0.25, 0.75]], atol=1e-12)

    @given(
        n=dims(1, 12), seed=st.integers(0, 2**32 - 1),
        shift=st.floats(-200, 200, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, n, seed, shift):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((1, n)) * 5.0
        out = tc.softmax_values(v)
        assert np.all(out > 0)
        assert abs(out.sum() - 1.0) < 1e-12
        shifted = tc.softmax_values(v + shift)
        assert np.max(np.abs(shifted - out)) < 1e-12


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = tc.cross_entropy_values(np.zeros((1, 2)), 0)
        assert abs(loss - math.log(2.0)) < 1e-12

    def test_saturated_correct(self):
        loss = tc.cross_entropy_values(np.array([[40.0, -40.0]]), 0)
        assert 0.0 <= loss < 1e-12

    def test_closed_form(self):
        # -log sigmoid(1) computed independently
        expected = math.log(1.0 + math.exp(-1.0))
        loss = tc.cross_entropy_values(np.array([[1.0, 2.0]]), 1)
        assert abs(loss - expected) < 1e-12
        assert abs(loss - 0.31326) < 1e-5

    def test_invalid_label(self):
        node = tc.leaf(np.zeros((1, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            tc.cross_entropy(node, 2)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            logits = rng.standard_normal((1, 2)) * 10
            assert tc.cross_entropy_values(logits, int(rng.integers(0, 2))) >= 0.0


class TestBackward:
    def test_linear_gradient_exact(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4))
        w = tc.leaf(rng.standard_normal((4, 2)), requires_grad=True)
        out = sum_all(tc.matmul(tc.constant(x), w))
        tc.backward(out)
        expected = tc.matmul_values(x.T, np.ones((3, 2)))
        assert np.allclose(w.grad, expected, atol=1e-12)

    def test_frozen_leaf_keeps_zero_grad(self):
        rng = np.random.default_rng(1)
        frozen = tc.leaf(rng.standard_normal((4, 2)), requires_grad=False)
        free = tc.leaf(rng.standard_normal((4, 2)), requires_grad=True)
        out = sum_all(tc.add(tc.matmul(tc.constant(rng.standard_normal((3, 4))), frozen),
                             tc.matmul(tc.constant(rng.standard_normal((3, 4))), free)))
        tc.backward(out)
        assert np.array_equal(frozen.grad, np.zeros((4, 2)))
        assert np.any(free.grad != 0)

    def test_frozen_matmul_operand_gets_no_product(self, monkeypatch):
        rng = np.random.default_rng(5)
        x = tc.leaf(rng.standard_normal((3, 4)), requires_grad=True)
        w = tc.leaf(rng.standard_normal((4, 2)), requires_grad=False)
        out = sum_all(tc.matmul(x, w))
        calls = []
        real = tc.matmul_values

        def counting(a, b):
            calls.append((a.shape, b.shape))
            return real(a, b)

        monkeypatch.setattr(tc, "matmul_values", counting)
        tc.backward(out)
        assert calls == [((3, 2), (2, 4))]  # g @ W.T only; no x.T @ g for the frozen W
        assert np.array_equal(x.grad, real(np.ones((3, 2)), w.value.T))
        assert np.array_equal(w.grad, np.zeros((4, 2)))

    def test_gradient_buffers_only_where_gradients_land(self):
        rng = np.random.default_rng(6)
        x = tc.constant(rng.standard_normal((3, 4)))
        frozen = tc.leaf(rng.standard_normal((4, 2)), requires_grad=False)
        w = tc.leaf(rng.standard_normal((1, 1)), requires_grad=True)
        # both parents of each add receive the same incoming array, and p's
        # buffer takes a second gradient after q's was filled
        p, q = tc.scale(w, 3.0), tc.scale(w, 5.0)
        out = tc.add(sum_all(tc.matmul(x, frozen)), tc.add(tc.add(p, q), p))
        tc.backward(out)
        for node in (x, frozen):
            assert node._grad is None
            assert np.array_equal(node.grad, np.zeros(node.shape))
        assert np.array_equal(w.grad, [[11.0]])  # 3 + 5 + 3

        v = tc.leaf(np.ones((1, 1)), requires_grad=True)
        tc.backward(tc.scale(v, -0.0))
        assert not np.signbit(v.grad).any()  # zeros + (-0.0) is +0.0

    def test_interior_gradients_released_after_push(self):
        rng = np.random.default_rng(10)
        w = tc.leaf(rng.standard_normal((4, 2)), requires_grad=True)
        hidden = tc.tanh(tc.matmul(tc.constant(rng.standard_normal((3, 4))), w))
        out = sum_all(tc.mul(hidden, hidden))
        tc.backward(out)
        assert hidden._grad is None and out._grad is None
        assert np.array_equal(w.grad, w._grad) and np.any(w.grad != 0)

    def test_scalar_root_required(self):
        node = tc.leaf(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(tc.ShapeError):
            tc.backward(node)

    def test_cycle_detection(self):
        a = tc.leaf(np.zeros((1, 1)), requires_grad=True)
        b = tc.scale(a, 2.0)
        a.parents = (b,)  # forge a cycle
        with pytest.raises(tc.GraphError):
            tc.backward(b)

    def test_non_finite_guard(self):
        with pytest.raises(tc.NonFiniteError):
            tc.leaf(np.array([[np.inf, 0.0]]))

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(12):
            loss_only, loss_and_grads, params = random_graph(rng)
            _, grads = loss_and_grads(params)
            fd = finite_difference_grads(loss_only, params)
            for name in params:
                worst = max(worst, relative_error(grads[name], fd[name]))
        assert worst < 1e-4

    def test_gradient_accumulates_on_reuse(self):
        w = tc.leaf(np.array([[2.0]]), requires_grad=True)
        out = tc.add(tc.scale(w, 3.0), tc.scale(w, 4.0))
        tc.backward(out)
        assert np.allclose(w.grad, [[7.0]])

    def test_smul_and_pick_and_srecip_gradients(self):
        rng = np.random.default_rng(7)
        params = {
            "m": rng.standard_normal((3, 3)),
            "v": rng.uniform(0.5, 2.0, size=(1, 4)),
        }

        def build(values):
            m = tc.Node(values["m"], requires_grad=True)
            v = tc.Node(values["v"], requires_grad=True)
            s = pick(v, 2)
            scaled = smul(m, srecip(s))
            out = sum_all(tc.mul(scaled, scaled))
            return out, {"m": m, "v": v}

        out, leaves = build(params)
        tc.backward(out)

        def loss_only(values):
            loss, _ = build(values)
            return float(loss.value[0, 0])

        fd = finite_difference_grads(loss_only, params)
        assert relative_error(leaves["m"].grad, fd["m"]) < 1e-4
        assert relative_error(leaves["v"].grad, fd["v"]) < 1e-4

    def test_transpose_mean_rows_gradients(self):
        rng = np.random.default_rng(8)
        params = {"x": rng.standard_normal((4, 3))}

        def build(values):
            x = tc.Node(values["x"], requires_grad=True)
            w = tc.softmax_rows(transpose(tc.mean_rows(x)))
            out = sum_all(tc.mul(w, w))
            return out, x

        out, x_node = build(params)
        tc.backward(out)
        fd = finite_difference_grads(lambda v: float(build(v)[0].value[0, 0]), params)
        assert relative_error(x_node.grad, fd["x"]) < 1e-4

    def test_pooling_op_gradients(self):
        rng = np.random.default_rng(9)
        params = {"x": rng.standard_normal((6, 4)) + 0.5}

        def build(values):
            x = tc.Node(values["x"], requires_grad=True)
            mag = tc.pair_magnitude(x)
            contrast = tc.log_shift(tc.std_rows(mag), 1e-4)
            motion = tc.log_shift(tc.mean_rows(tc.absval(tc.diff_rows(mag))), 1e-4)
            pooled = tc.scale(tc.hconcat(contrast, motion), 3.0)
            return sum_all(tc.mul(pooled, pooled)), x

        out, x_node = build(params)
        tc.backward(out)
        fd = finite_difference_grads(lambda v: float(build(v)[0].value[0, 0]), params)
        assert relative_error(x_node.grad, fd["x"]) < 1e-4

    def test_pair_magnitude_value(self):
        x = np.array([[3.0, 4.0, 0.0, 1.0]])
        node = tc.pair_magnitude(tc.constant(x))
        assert np.allclose(node.value, [[5.0, 1.0]], atol=1e-6)
        with pytest.raises(tc.ShapeError):
            tc.pair_magnitude(tc.constant(np.zeros((2, 3))))

    def test_diff_rows_value_and_shape(self):
        x = np.array([[1.0, 2.0], [4.0, 6.0], [9.0, 12.0]])
        node = tc.diff_rows(tc.constant(x))
        assert np.array_equal(node.value, [[3.0, 4.0], [5.0, 6.0]])
        with pytest.raises(tc.ShapeError):
            tc.diff_rows(tc.constant(np.zeros((1, 2))))

    def test_hconcat_value(self):
        a = tc.constant(np.array([[1.0, 2.0]]))
        b = tc.constant(np.array([[3.0]]))
        assert np.array_equal(tc.hconcat(a, b).value, [[1.0, 2.0, 3.0]])



class TestGradientFreeNodes:
    """An op result that needs no gradient keeps its value only."""

    @staticmethod
    def ops():
        """(name, build) pairs: `build(x)` applies one op, with `x` (7 x 4, in
        segments of 3 and 4 rows) the operand that may need a gradient."""
        rng = np.random.default_rng(20)
        segs = tc.row_segments([3, 4])
        rows = tc.row_segments([1, 1])
        w = tc.constant(rng.standard_normal((4, 6)))
        left = tc.constant(rng.standard_normal((2, 7)))
        other = tc.constant(rng.standard_normal((7, 4)))
        att = tc.constant(rng.standard_normal((7, 1)))
        a = tc.constant(rng.standard_normal((4, 1)))
        gain = tc.constant(rng.uniform(0.5, 1.5, (1, 4)))
        bias = tc.constant(rng.normal(0.0, 0.1, (1, 4)))
        gate = tc.constant(rng.standard_normal((4, 3)))
        tracks = [rng.standard_normal((7, 4)) for _ in range(3)]
        w_bias = tc.constant(rng.normal(0.0, 0.1, (1, 6)))
        return [
            ("matmul", lambda x: tc.matmul(x, w, segs)),
            ("matmul right", lambda x: tc.matmul(left, x)),
            ("linear", lambda x: tc.linear(x, w, w_bias, segs)),
            ("linear weight", lambda x: tc.linear(left, x, bias)),
            ("add", lambda x: tc.add(x, other)),
            ("add row", lambda x: tc.add(other, tc.mean_rows(x), segs)),
            ("mul", lambda x: tc.mul(x, other)),
            ("scale", lambda x: tc.scale(x, -1.5)),
            ("tanh", tc.tanh),
            ("mean_rows", lambda x: tc.mean_rows(x, segs)),
            ("std_rows", lambda x: tc.std_rows(x, segments=segs)),
            ("pair_magnitude", tc.pair_magnitude),
            ("diff_rows", lambda x: tc.diff_rows(x, segs)),
            ("absval", tc.absval),
            ("hconcat", lambda x: tc.hconcat(other, x)),
            ("log_shift", lambda x: tc.log_shift(tc.absval(x), 1e-4)),
            ("softmax_rows", tc.softmax_rows),
            ("layer_norm", lambda x: tc.layer_norm(x, gain, bias, 1e-5, segs)),
            ("layer_norm gain", lambda x: tc.layer_norm(other, tc.mean_rows(x), bias)),
            ("cross_entropy", lambda x: tc.cross_entropy(tc.mean_rows(x, segs), [1, 3])),
            ("attention_pool scores", lambda x: tc.attention_pool(tc.matmul(x, a), other, segs)),
            ("attention_pool rows", lambda x: tc.attention_pool(att, x, segs)),
            ("topk_mix", lambda x: tc.topk_mix(
                tc.softmax_rows(tc.matmul(tc.mean_rows(x, segs), gate, rows)), tracks, 2, True, segs)),
        ]

    def test_no_graph_and_bitwise_the_tracked_value(self):
        x = np.random.default_rng(21).standard_normal((7, 4))
        for name, build in self.ops():
            free = build(tc.constant(x))
            tracked = build(tc.leaf(x, requires_grad=True))
            assert free.parents == () and free._push is None and not free.needs_grad, name
            assert tracked.parents and tracked._push is not None and tracked.needs_grad, name
            assert np.array_equal(free.value, tracked.value), name

    def test_results_are_checked_only_on_a_gradient_path(self):
        big = np.array([[1e308, 1.0]])
        with np.errstate(over="ignore"):
            assert np.isinf(tc.scale(tc.constant(big), 10.0).value[0, 0])  # inference
            with pytest.raises(tc.NonFiniteError):
                tc.scale(tc.leaf(big, requires_grad=True), 10.0)
            with pytest.raises(tc.NonFiniteError):  # a constant is checked itself
                tc.constant(big * 10.0)
