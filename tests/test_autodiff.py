"""Tensor core: op semantics, tape mechanics, gradient correctness.

The op classes check the stages of `model.output_layer`, the one fused
op after pooling: its product with W_o, the bias, the tanh squash, the
dropout scale and the join of the pooled inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_grads, head, use_dtype, weighted_sum
from ddilstm import autodiff as ad
from ddilstm.model import output_layer
from ddilstm.training import softmax_cross_entropy


def mul(a, b):
    """a * b elementwise as one tape op, for graphs with fan-out."""
    return ad.record_op(ad.Tensor(a.data * b.data), (a, b),
                        lambda g: (g * b.data, g * a.data))


def squash(x, drop=None):
    """`output_layer` with an identity W_o and a zero bias: tanh(h2 * drop),
    where h2 is x, or a tuple of tensors joined end to end."""
    pooled = x if isinstance(x, tuple) else (x,)
    width = sum(p.data.shape[-1] for p in pooled)
    return output_layer(pooled, drop, ad.Tensor(np.eye(width)), ad.Tensor(np.zeros(width)))


class TestMatmul:
    """The product h3 @ W_o inside `output_layer`, with a zero bias."""

    @staticmethod
    def product(a, b):
        return output_layer([a], None, b, ad.Tensor(np.zeros(b.data.shape[1])))

    def test_identity(self):
        a = ad.Tensor([[0.5, -2.0], [7.0, 0.0]])
        out = self.product(a, ad.Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, np.tanh(a.data))

    def test_hand_product(self):
        out = self.product(ad.Tensor([[1.0, 2.0], [3.0, 4.0]]),
                           ad.Tensor([[5.0], [6.0]]))
        np.testing.assert_allclose(out.data, [[9.592136], [10.971251]], rtol=1e-6)

    def test_zero_matrix(self):
        z = ad.Tensor(np.zeros((3, 2)))
        b = ad.Tensor(np.arange(10.0).reshape(2, 5))
        assert not self.product(z, b).data.any()

    def test_inner_dim_mismatch(self):
        with pytest.raises(ad.ShapeMismatch):
            self.product(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))

    def test_vector_vector_rejected(self):
        with pytest.raises(ad.ShapeMismatch):
            output_layer([ad.Tensor([1.0])], None, ad.Tensor([[1.0]]), ad.Tensor([0.0]))
        with pytest.raises(ad.ShapeMismatch):
            output_layer([ad.Tensor([[1.0]])], None, ad.Tensor([1.0]), ad.Tensor([0.0]))

    @pytest.mark.parametrize("sa,sb", [((3, 4), (4, 2)), ((1, 4), (4, 2)),
                                       ((3, 4), (4, 1))])
    def test_gradients(self, float64_mode, sa, sb):
        rng = np.random.default_rng(0)
        a = ad.Tensor(rng.normal(size=sa), requires_grad=True)
        b = ad.Tensor(rng.normal(size=sb), requires_grad=True)
        labels = [1, 4, 0][:sa[0]]
        check_grads(lambda: head(self.product(a, b), labels), [a, b])


class TestAffine:
    """The bias of `output_layer`, and its shape checks."""

    def test_bias_added_to_every_row(self):
        x = ad.Tensor([[1.0, 2.0], [0.0, 0.0]])
        out = output_layer([x], None, ad.Tensor(np.eye(2)), ad.Tensor([5.0, 7.0]))
        np.testing.assert_allclose(out.data, [[5.7615943, 7.9640274], [5.0, 7.0]],
                                   rtol=1e-7)
        np.testing.assert_array_equal(out.data[1], [5.0, 7.0])

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeMismatch):  # one (k,) vector is not a batch
            output_layer([ad.Tensor(np.ones(3))], None, ad.Tensor(np.ones((3, 4))),
                         ad.Tensor(np.ones(4)))
        with pytest.raises(ad.ShapeMismatch):
            output_layer([ad.Tensor(np.ones((1, 3)))], None, ad.Tensor(np.ones((2, 4))),
                         ad.Tensor(np.ones(4)))
        with pytest.raises(ad.ShapeMismatch):
            output_layer([ad.Tensor(np.ones((1, 2)))], None, ad.Tensor(np.ones((2, 4))),
                         ad.Tensor(np.ones(3)))
        with pytest.raises(ad.ShapeMismatch):  # a broadcastable bias is refused
            output_layer([ad.Tensor(np.ones((1, 2)))], None, ad.Tensor(np.ones((2, 4))),
                         ad.Tensor(np.ones(1)))

    @pytest.mark.parametrize("shape", [(1, 3), (2, 3)])
    def test_gradients(self, float64_mode, shape):
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.normal(size=shape), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=4), requires_grad=True)
        labels = [2, 0][:shape[0]]
        check_grads(lambda: softmax_cross_entropy(output_layer([x], None, w, b), labels),
                    [x, w, b])


class TestPointwise:
    """The recurrence's sigmoid, and the tanh and the dropout scale of
    `output_layer`."""

    def test_sigmoid_at_zero(self):
        np.testing.assert_allclose(ad._sigmoid(np.zeros(1)), [0.5])

    def test_tanh_at_zero(self):
        assert squash(ad.Tensor([[0.0]])).data[0, 0] == 0.0

    def test_mul_elementwise(self):
        out = squash(ad.Tensor([[1.0, 2.0]]), np.array([[3.0, 4.0]], dtype=np.float32))
        np.testing.assert_allclose(out.data, [[0.9950548, 0.99999976]], rtol=1e-7)

    def test_mul_shape_mismatch(self):
        x = ad.Tensor([[1.0, 2.0]])
        with pytest.raises(ad.ShapeMismatch):
            squash(x, np.ones((1, 1), dtype=np.float32))
        with pytest.raises(ad.ShapeMismatch):  # no broadcasting either
            squash(x, np.ones(2, dtype=np.float32))

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = ad._sigmoid(np.array([-200.0, 200.0], dtype=np.float32))
        assert np.all(np.isfinite(out))
        assert out[0] >= 0.0 and out[1] <= 1.0

    @pytest.mark.parametrize("mode", ["tanh", "mul"])
    def test_gradients(self, float64_mode, mode):
        rng = np.random.default_rng(1)
        a = ad.Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(5, 5)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=5), requires_grad=True)
        drop = rng.normal(size=(2, 5)) if mode == "mul" else None

        def loss():
            return softmax_cross_entropy(output_layer([a], drop, w, b), [2, 4])

        check_grads(loss, [a, w, b])


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(ad.softmax([0.0, 0.0]), [0.5, 0.5])

    def test_constant_vector_is_uniform(self):
        np.testing.assert_allclose(ad.softmax([3.7] * 5), [0.2] * 5, atol=1e-7)

    def test_two_point_value(self):
        np.testing.assert_allclose(ad.softmax([1.0, 0.0]), [0.73106, 0.26894],
                                   atol=1e-5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ad.softmax(np.zeros(0))

    def test_masked_positions_exactly_zero(self):
        out = ad.softmax([5.0, -np.inf, -2.0])
        assert out[1] == 0.0
        np.testing.assert_allclose(out.sum(), 1.0, atol=1e-7)

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=12),
           st.floats(-100, 100))
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, values, shift):
        p = ad.softmax(values)
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(p > 0.0) and np.all(p < 1.0 + 1e-15)
        shifted = ad.softmax([x + shift for x in values])
        np.testing.assert_allclose(p, shifted, atol=1e-9)


class TestConcat:
    """The pooled inputs of `output_layer`, joined end to end."""

    def test_definition(self):
        out = squash((ad.Tensor([[1.0]]), ad.Tensor([[2.0, 3.0]])))
        np.testing.assert_array_equal(out.data, np.tanh(np.float32([[1.0, 2.0, 3.0]])))

    def test_empty_identity(self):
        x = ad.Tensor([[4.0, 5.0]])
        w, b = ad.Tensor(np.arange(6.0).reshape(2, 3)), ad.Tensor(np.ones(3))
        np.testing.assert_array_equal(
            output_layer([x, ad.Tensor(np.zeros((1, 0)))], None, w, b).data,
            output_layer([x], None, w, b).data)

    def test_rank_mismatch(self):
        w, b = ad.Tensor(np.ones((3, 2))), ad.Tensor(np.zeros(2))
        with pytest.raises(ad.ShapeMismatch):
            output_layer([ad.Tensor([1.0]), ad.Tensor(np.ones((1, 2)))], None, w, b)
        with pytest.raises(ad.ShapeMismatch):  # and the batch sizes must agree
            output_layer([ad.Tensor([[1.0]]), ad.Tensor(np.ones((2, 2)))], None, w, b)

    def test_backward_restores_shapes(self):
        a = ad.Tensor(np.ones((1, 2)), requires_grad=True)
        b = ad.Tensor(np.ones((1, 3)), requires_grad=True)
        with ad.Tape() as tape:
            out = squash((a, b))
            loss = weighted_sum(out, np.eye(5)[4:])
        tape.backward(loss)
        assert a.grad.shape == (1, 2) and b.grad.shape == (1, 3)
        assert not np.shares_memory(a.grad, b.grad)
        np.testing.assert_allclose(b.grad, [[0.0, 0.0, 1.0 - np.tanh(1.0) ** 2]],
                                   rtol=1e-6)

    def test_matrix_concat_gradients(self, float64_mode):
        rng = np.random.default_rng(3)
        a = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        check_grads(lambda: head((a, b), [1, 0, 3]), [a, b])


class TestTape:
    def test_linear_sum_seed(self):
        w = ad.Tensor(np.ones((1, 3)), requires_grad=True)
        with ad.Tape() as tape:
            total = weighted_sum(w, np.ones((1, 3)))
            loss = weighted_sum(total, 1.0)
        tape.backward(loss)
        np.testing.assert_array_equal(w.grad, [[1.0, 1.0, 1.0]])

    def test_fanout_accumulates(self):
        w = ad.Tensor(np.array(1.0).reshape(()), requires_grad=True)
        # scalars flow through shape-() elementwise ops; d(w*w)/dw = 2w
        with ad.Tape() as tape:
            y = mul(w, w)
        tape.backward(y)
        assert w.grad == pytest.approx(2.0)

    def test_first_gradient_is_adopted(self):
        w = ad.Tensor(np.ones(2), requires_grad=True)
        g = np.full(2, 3.0, dtype=np.float32)
        w.accumulate(g)
        assert w.grad is g
        w.accumulate(g.copy())
        np.testing.assert_array_equal(w.grad, [6.0, 6.0])

    def test_loss_must_be_scalar(self):
        w = ad.Tensor(np.ones(2), requires_grad=True)
        with ad.Tape() as tape:
            y = mul(w, w)
        with pytest.raises(ValueError):
            tape.backward(y)

    def test_double_sweep_rejected(self):
        w = ad.Tensor(np.zeros(()), requires_grad=True)
        with ad.Tape() as tape:
            y = mul(w, w)
        tape.backward(y)
        with pytest.raises(RuntimeError):
            tape.backward(y)

    def test_no_tape_means_no_recording(self):
        w = ad.Tensor(np.ones(2), requires_grad=True)
        out = mul(w, w)
        assert out.requires_grad is False and out.grad is None

    def test_nonfinite_detected(self):
        with pytest.raises(ad.NonFiniteError):
            ad.Tensor([np.inf])

    def test_large_finite_values_pass_without_a_warning(self):
        """Their float32 sum overflows; the check takes no sum."""
        big = np.full(4, 3e38, dtype=np.float32)
        assert ad.Tensor(big).data is not None
        with pytest.raises(ad.NonFiniteError, match="^non-finite values in tensor constructor$"):
            ad.Tensor(np.append(big, np.nan))


class TestDtypeControl:
    def test_default_is_float32(self):
        assert ad.Tensor([1.0]).data.dtype == np.float32

    def test_context_switches_and_restores(self):
        with use_dtype(np.float64):
            assert ad.Tensor([1.0]).data.dtype == np.float64
        assert ad.Tensor([1.0]).data.dtype == np.float32
