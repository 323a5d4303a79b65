"""Tensor core: op semantics, tape mechanics, gradient correctness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_grads
from ddilstm import autodiff as ad


class TestMatmul:
    def test_identity(self):
        a = ad.Tensor([[7.0], [9.0]])
        out = ad.matmul(ad.Tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_hand_product(self):
        out = ad.matmul(ad.Tensor([[1.0, 2.0], [3.0, 4.0]]),
                        ad.Tensor([[5.0], [6.0]]))
        np.testing.assert_array_equal(out.data, [[17.0], [39.0]])

    def test_zero_matrix(self):
        z = ad.Tensor(np.zeros((3, 2)))
        b = ad.Tensor(np.arange(10.0).reshape(2, 5))
        assert not ad.matmul(z, b).data.any()

    def test_inner_dim_mismatch(self):
        with pytest.raises(ad.ShapeMismatch):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))

    def test_vector_vector_rejected(self):
        with pytest.raises(ad.ShapeMismatch):
            ad.matmul(ad.Tensor([1.0]), ad.Tensor([1.0]))

    @pytest.mark.parametrize("sa,sb", [((3, 4), (4, 2)), ((3, 4), (4,)), ((4,), (4, 2))])
    def test_gradients(self, float64_mode, sa, sb):
        rng = np.random.default_rng(0)
        a = ad.Tensor(rng.normal(size=sa), requires_grad=True)
        b = ad.Tensor(rng.normal(size=sb), requires_grad=True)
        w = ad.Tensor(rng.normal(size=np.matmul(a.data, b.data).shape))

        def loss():
            prod = ad.matmul(a, b)
            flat = prod if prod.data.ndim == 1 else ad.matmul(prod, ad.Tensor(np.ones(prod.data.shape[1])))
            return ad.pick(ad.softmax_vec(flat), 0)

        check_grads(loss, [a, b])


class TestAffine:
    def test_bias_added_to_every_row(self):
        x = ad.Tensor([[1.0, 2.0], [0.0, 0.0]])
        out = ad.affine(x, ad.Tensor(np.eye(2)), ad.Tensor([5.0, 7.0]))
        np.testing.assert_array_equal(out.data, [[6.0, 9.0], [5.0, 7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeMismatch):
            ad.affine(ad.Tensor(np.ones(3)), ad.Tensor(np.ones((2, 4))),
                      ad.Tensor(np.ones(4)))
        with pytest.raises(ad.ShapeMismatch):
            ad.affine(ad.Tensor(np.ones(2)), ad.Tensor(np.ones((2, 4))),
                      ad.Tensor(np.ones(3)))

    @pytest.mark.parametrize("shape", [(3,), (2, 3)])
    def test_gradients(self, float64_mode, shape):
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.normal(size=shape), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=4), requires_grad=True)

        def loss():
            out = ad.affine(x, w, b)
            if out.data.ndim == 2:
                out = ad.matmul(ad.Tensor(np.ones(2)), out)
            return ad.pick(ad.softmax_vec(out), 2)

        check_grads(loss, [x, w, b])


class TestPointwise:
    def test_sigmoid_at_zero(self):
        out = ad.sigmoid(ad.Tensor([0.0]))
        np.testing.assert_allclose(out.data, [0.5])

    def test_tanh_at_zero(self):
        assert ad.tanh(ad.Tensor([0.0])).data[0] == 0.0

    def test_mul_elementwise(self):
        out = ad.mul(ad.Tensor([1.0, 2.0]), ad.Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [3.0, 8.0])

    def test_add_shape_mismatch(self):
        with pytest.raises(ad.ShapeMismatch):
            ad.add(ad.Tensor([1.0]), ad.Tensor([1.0, 2.0]))

    def test_binary_needs_two_operands(self):
        with pytest.raises(ValueError):
            ad.pointwise("mul", ad.Tensor([1.0]))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            ad.pointwise("relu", ad.Tensor([1.0]))

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = ad.sigmoid(ad.Tensor([-200.0, 200.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] >= 0.0 and out.data[1] <= 1.0

    @pytest.mark.parametrize("mode", ["sigmoid", "tanh", "add", "mul"])
    def test_gradients(self, float64_mode, mode):
        rng = np.random.default_rng(1)
        a = ad.Tensor(rng.normal(size=5), requires_grad=True)
        b = ad.Tensor(rng.normal(size=5), requires_grad=True)

        def loss():
            if mode in ("sigmoid", "tanh"):
                out = ad.pointwise(mode, a)
            else:
                out = ad.pointwise(mode, a, b)
            return ad.pick(ad.softmax_vec(out), 2)

        check_grads(loss, [a, b])


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(ad.softmax_vec(ad.Tensor([0.0, 0.0])).data,
                                   [0.5, 0.5])

    def test_constant_vector_is_uniform(self):
        out = ad.softmax_vec(ad.Tensor([3.7] * 5))
        np.testing.assert_allclose(out.data, [0.2] * 5, atol=1e-7)

    def test_two_point_value(self):
        out = ad.softmax_vec(ad.Tensor([1.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.73106, 0.26894], atol=1e-5)

    def test_empty_rejected(self):
        with pytest.raises(ad.ShapeMismatch):
            ad.softmax_vec(ad.Tensor(np.zeros(0)))

    def test_masked_positions_exactly_zero(self):
        out = ad.softmax_vec(ad.Tensor([5.0, 1.0, -2.0]), mask=[True, False, True])
        assert out.data[1] == 0.0
        np.testing.assert_allclose(out.data.sum(), 1.0, atol=1e-7)

    def test_all_masked_rejected(self):
        with pytest.raises(ValueError):
            ad.softmax_vec(ad.Tensor([1.0, 2.0]), mask=[False, False])

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=12),
           st.floats(-100, 100))
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, values, shift):
        with ad.use_dtype(np.float64):
            v = ad.Tensor(values)
            p = ad.softmax_vec(v)
            assert abs(p.data.sum() - 1.0) < 1e-9
            assert np.all(p.data > 0.0) and np.all(p.data < 1.0 + 1e-15)
            shifted = ad.softmax_vec(ad.Tensor([x + shift for x in values]))
            np.testing.assert_allclose(p.data, shifted.data, atol=1e-9)

    def test_gradients_with_mask(self, float64_mode):
        rng = np.random.default_rng(2)
        v = ad.Tensor(rng.normal(size=6), requires_grad=True)

        def loss():
            return ad.pick(ad.softmax_vec(v, mask=[1, 1, 0, 1, 0, 1]), 3)

        check_grads(loss, [v])


class TestConcat:
    def test_definition(self):
        out = ad.concat(ad.Tensor([1.0]), ad.Tensor([2.0, 3.0]))
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_empty_identity(self):
        x = ad.Tensor([4.0, 5.0])
        np.testing.assert_array_equal(ad.concat(x, ad.Tensor(np.zeros(0))).data,
                                      x.data)

    def test_rank_mismatch(self):
        with pytest.raises(ad.ShapeMismatch):
            ad.concat(ad.Tensor([1.0]), ad.Tensor(np.ones((1, 2))))

    def test_backward_restores_shapes(self):
        a = ad.Tensor(np.ones(2), requires_grad=True)
        b = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.concat(a, b)
            loss = ad.pick(out, 4)
        tape.backward(loss)
        assert a.grad.shape == (2,) and b.grad.shape == (3,)
        np.testing.assert_array_equal(b.grad, [0.0, 0.0, 1.0])

    def test_matrix_concat_gradients(self, float64_mode):
        rng = np.random.default_rng(3)
        a = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)

        def loss():
            joined = ad.concat(a, b)
            return ad.pick(ad.softmax_vec(ad.matmul(joined, ad.Tensor(np.ones(6)))), 1)

        check_grads(loss, [a, b])


class TestStructuralOps:
    def test_rows_gather_and_scatter(self, float64_mode):
        m = ad.Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        with ad.Tape() as tape:
            picked = ad.rows(m, [1, 1, 3])
            loss = ad.pick(ad.matmul(picked, ad.Tensor(np.ones(3))), 0)
        np.testing.assert_array_equal(picked.data, m.data[[1, 1, 3]])
        tape.backward(loss)
        # row 1 used twice but only the first output row contributes
        assert m.grad[1].sum() == 3.0 and m.grad[3].sum() == 0.0

    def test_rows_out_of_range(self):
        with pytest.raises(ValueError):
            ad.rows(ad.Tensor(np.ones((2, 2))), [0, 2])

    def test_row_and_pick_bounds(self):
        with pytest.raises(ValueError):
            ad.pick(ad.Tensor([1.0]), 1)

    def test_scale_gradient(self, float64_mode):
        a = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)

        def loss():
            return ad.pick(ad.scale(a, 0.25), 1)

        check_grads(loss, [a])


class TestTape:
    def test_linear_sum_seed(self):
        w = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.Tape() as tape:
            total = ad.matmul(w, ad.Tensor(np.ones((3, 1))))
            loss = ad.pick(total, 0)
        tape.backward(loss)
        np.testing.assert_array_equal(w.grad, [1.0, 1.0, 1.0])

    def test_fanout_accumulates(self):
        w = ad.Tensor(np.array(2.0).reshape(()), requires_grad=True)
        # scalars flow through shape-() pointwise ops
        with ad.Tape() as tape:
            y = ad.add(w, w)
        tape.backward(y)
        assert w.grad == pytest.approx(2.0)

    def test_sigmoid_chain_quarter_slope(self, float64_mode):
        w = ad.Tensor(np.zeros(()), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.sigmoid(w)
        tape.backward(y)
        assert w.grad == pytest.approx(0.25)

    def test_loss_must_be_scalar(self):
        w = ad.Tensor(np.ones(2), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.add(w, w)
        with pytest.raises(ValueError):
            tape.backward(y)

    def test_double_sweep_rejected(self):
        w = ad.Tensor(np.zeros(()), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.add(w, w)
        tape.backward(y)
        with pytest.raises(RuntimeError):
            tape.backward(y)

    def test_no_tape_means_no_recording(self):
        w = ad.Tensor(np.ones(2), requires_grad=True)
        out = ad.add(w, w)
        assert out.requires_grad is False and out.grad is None

    def test_nonfinite_detected(self):
        with pytest.raises(ad.NonFiniteError):
            ad.Tensor([np.inf])


class TestDtypeControl:
    def test_default_is_float32(self):
        assert ad.Tensor([1.0]).data.dtype == np.float32

    def test_context_switches_and_restores(self):
        with ad.use_dtype(np.float64):
            assert ad.Tensor([1.0]).data.dtype == np.float64
        assert ad.Tensor([1.0]).data.dtype == np.float32
