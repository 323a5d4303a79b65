"""Max and attentive pooling: oracles, masking, convexity, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_grads
from ddilstm import autodiff as ad
from ddilstm.pooling import AttentionParams, attentive_pool, max_pool


def reference_attentive(z_rows, w_a):
    """Straight-line weighted pooling: tanh, score, softmax, mix."""
    h = np.tanh(z_rows)
    scores = h @ w_a
    e = np.exp(scores - scores.max())
    alpha = e / e.sum()
    return alpha @ z_rows, alpha


class TestMaxPool:
    def test_elementwise_max(self):
        out = max_pool(ad.Tensor([[1.0, 5.0], [3.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [3.0, 5.0])

    def test_singleton(self):
        out = max_pool(ad.Tensor([[4.0, -1.0, 0.5]]))
        np.testing.assert_array_equal(out.data, [4.0, -1.0, 0.5])

    def test_masked_rows_never_win(self):
        Z = ad.Tensor([[100.0, 100.0], [1.0, 2.0]])
        out = max_pool(Z, mask=[False, True])
        np.testing.assert_array_equal(out.data, [1.0, 2.0])

    def test_all_masked_rejected(self):
        with pytest.raises(ValueError):
            max_pool(ad.Tensor(np.ones((2, 2))), mask=[False, False])

    def test_dominates_every_unmasked_row(self):
        rng = np.random.default_rng(0)
        Z = ad.Tensor(rng.normal(size=(6, 4)))
        mask = [True, False, True, True, False, True]
        out = max_pool(Z, mask)
        for i, keep in enumerate(mask):
            if keep:
                assert np.all(out.data >= Z.data[i])

    def test_tie_gradient_goes_to_first_row(self):
        Z = ad.Tensor([[2.0], [2.0]], requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.pick(max_pool(Z), 0)
        tape.backward(loss)
        np.testing.assert_array_equal(Z.grad, [[1.0], [0.0]])

    def test_gradients_through_mask(self, float64_mode):
        rng = np.random.default_rng(1)
        Z = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        mask = [True, True, False, True, False]

        def loss():
            return ad.pick(ad.softmax_vec(max_pool(Z, mask)), 1)

        check_grads(loss, [Z])


class TestAttentivePool:
    def _params(self, width, seed=0):
        return AttentionParams(width, np.random.default_rng(seed))

    def test_singleton_weight_is_one(self):
        Z = ad.Tensor([[1.0, -2.0]])
        z, alpha = attentive_pool(Z, self._params(2))
        np.testing.assert_allclose(alpha.data, [1.0])
        np.testing.assert_array_equal(z.data, Z.data[0])

    def test_zero_scorer_uniform_weights(self):
        p = self._params(3)
        p.w_a.data[...] = 0.0
        Z = ad.Tensor(np.arange(12.0).reshape(4, 3))
        _, alpha = attentive_pool(Z, p)
        np.testing.assert_allclose(alpha.data, [0.25] * 4, atol=1e-7)

    def test_matches_reference(self):
        rng = np.random.default_rng(9)
        p = self._params(4, seed=9)
        Z = ad.Tensor(rng.uniform(-2, 2, size=(2, 4)).astype(np.float32))
        z, alpha = attentive_pool(Z, p)
        z_ref, alpha_ref = reference_attentive(Z.data.astype(np.float64),
                                               p.w_a.data.astype(np.float64))
        np.testing.assert_allclose(z.data, z_ref, atol=1e-6)
        np.testing.assert_allclose(alpha.data, alpha_ref, atol=1e-6)

    def test_masked_weights_exactly_zero(self):
        rng = np.random.default_rng(2)
        p = self._params(3, seed=2)
        Z = ad.Tensor(rng.normal(size=(5, 3)))
        mask = [True, False, True, False, True]
        _, alpha = attentive_pool(Z, p, mask)
        assert alpha.data[1] == 0.0 and alpha.data[3] == 0.0
        np.testing.assert_allclose(alpha.data.sum(), 1.0, atol=1e-7)
        assert np.all(alpha.data >= 0.0)

    def test_all_masked_rejected(self):
        with pytest.raises(ValueError):
            attentive_pool(ad.Tensor(np.ones((2, 2))), self._params(2),
                           mask=[False, False])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_output_in_convex_hull(self, seed):
        rng = np.random.default_rng(seed)
        with ad.use_dtype(np.float64):
            m = int(rng.integers(1, 8))
            Z = ad.Tensor(rng.normal(size=(m, 4)))
            mask = rng.random(m) < 0.7
            if not mask.any():
                mask[0] = True
            p = AttentionParams(4, rng)
            z, _ = attentive_pool(Z, p, mask.tolist())
            kept = Z.data[mask]
            assert np.all(z.data <= kept.max(axis=0) + 1e-12)
            assert np.all(z.data >= kept.min(axis=0) - 1e-12)

    def test_gradients_through_mask(self, float64_mode):
        rng = np.random.default_rng(4)
        Z = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        p = AttentionParams(3, rng)
        mask = [True, True, True, False, False]

        def loss():
            z, _ = attentive_pool(Z, p, mask)
            return ad.pick(ad.softmax_vec(z), 2)

        check_grads(loss, [Z, p.w_a])


class TestBatchedPooling:
    LENGTHS = np.array([3, 1, 4])

    def _batch(self, rng):
        Z = ad.Tensor(rng.normal(size=(4, 3, 2)), requires_grad=True)
        return Z, np.arange(4)[:, None] < self.LENGTHS

    def test_each_column_pools_like_its_own_sentence(self):
        rng = np.random.default_rng(6)
        Z, mask = self._batch(rng)
        p = AttentionParams(2, rng)
        z_max = max_pool(Z, mask)
        z_att, alpha = attentive_pool(Z, p, mask)
        for b, m in enumerate(self.LENGTHS):
            rows = ad.Tensor(Z.data[:m, b])
            np.testing.assert_array_equal(z_max.data[b], max_pool(rows).data)
            z_one, alpha_one = attentive_pool(rows, p)
            np.testing.assert_allclose(z_att.data[b], z_one.data, atol=1e-6)
            np.testing.assert_allclose(alpha.data[:m, b], alpha_one.data, atol=1e-7)
            assert not alpha.data[m:, b].any()

    def test_gradients(self, float64_mode):
        rng = np.random.default_rng(7)
        Z, mask = self._batch(rng)
        p = AttentionParams(2, rng)
        w = ad.Tensor(rng.normal(size=(4, 5)))
        b = ad.Tensor(np.zeros(5))

        def loss():
            pooled = ad.concat(max_pool(Z, mask), attentive_pool(Z, p, mask)[0])
            return ad.pick(ad.softmax_vec(ad.matmul(
                ad.Tensor(np.ones(3)), ad.affine(pooled, w, b))), 1)

        check_grads(loss, [Z, p.w_a])
