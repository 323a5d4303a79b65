"""Max and attentive pooling: oracles, masking, convexity, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import attention_vector, check_grads, head, weighted_sum
from ddilstm import autodiff as ad
from ddilstm.pooling import attentive_pool, max_pool


def column(rows, mask=None, requires_grad=False):
    """One (m, k) sentence as an (m, 1, k) batch, and its (m, 1) mask
    (all real unless given)."""
    rows = np.asarray(rows)
    keep = np.ones(len(rows), dtype=bool) if mask is None else np.asarray(mask)
    return ad.Tensor(rows[:, None, :], requires_grad=requires_grad), keep[:, None]


def reference_attentive(z_rows, w_a):
    """Straight-line weighted pooling: tanh, score, softmax, mix."""
    h = np.tanh(z_rows)
    scores = h @ w_a
    e = np.exp(scores - scores.max())
    alpha = e / e.sum()
    return alpha @ z_rows, alpha


class TestMaxPool:
    def test_elementwise_max(self):
        out = max_pool(*column([[1.0, 5.0], [3.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[3.0, 5.0]])

    def test_singleton(self):
        out = max_pool(*column([[4.0, -1.0, 0.5]]))
        np.testing.assert_array_equal(out.data, [[4.0, -1.0, 0.5]])

    def test_masked_rows_never_win(self):
        out = max_pool(*column([[100.0, 100.0], [1.0, 2.0]], mask=[False, True]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]])

    def test_all_masked_rejected(self):
        with pytest.raises(ValueError):
            max_pool(*column(np.ones((2, 2)), mask=[False, False]))

    def test_dominates_every_unmasked_row(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(6, 4))
        mask = [True, False, True, True, False, True]
        Z, keep = column(rows, mask)
        out = max_pool(Z, keep)
        for i, real in enumerate(mask):
            if real:
                assert np.all(out.data[0] >= Z.data[i, 0])

    def test_tie_gradient_goes_to_first_row(self):
        Z, keep = column([[2.0], [2.0]], requires_grad=True)
        with ad.Tape() as tape:
            loss = weighted_sum(max_pool(Z, keep), np.ones((1, 1)))
        tape.backward(loss)
        np.testing.assert_array_equal(Z.grad, [[[1.0]], [[0.0]]])

    def test_gradients_through_mask(self, float64_mode):
        rng = np.random.default_rng(1)
        Z, keep = column(rng.normal(size=(5, 3)), [True, True, False, True, False],
                         requires_grad=True)
        check_grads(lambda: head(max_pool(Z, keep), [1]), [Z])


class TestAttentivePool:
    def _params(self, width, seed=0):
        return attention_vector(width, np.random.default_rng(seed))

    def test_singleton_weight_is_one(self):
        Z, keep = column([[1.0, -2.0]])
        z, alpha = attentive_pool(Z, self._params(2), keep)
        np.testing.assert_allclose(alpha.data, [[1.0]])
        np.testing.assert_array_equal(z.data, Z.data[0])

    def test_zero_scorer_uniform_weights(self):
        p = self._params(3)
        p.data[...] = 0.0
        Z, keep = column(np.arange(12.0).reshape(4, 3))
        _, alpha = attentive_pool(Z, p, keep)
        np.testing.assert_allclose(alpha.data[:, 0], [0.25] * 4, atol=1e-7)

    def test_matches_reference(self):
        rng = np.random.default_rng(9)
        p = self._params(4, seed=9)
        rows = rng.uniform(-2, 2, size=(2, 4)).astype(np.float32)
        Z, keep = column(rows)
        z, alpha = attentive_pool(Z, p, keep)
        z_ref, alpha_ref = reference_attentive(rows.astype(np.float64),
                                               p.data.astype(np.float64))
        np.testing.assert_allclose(z.data[0], z_ref, atol=1e-6)
        np.testing.assert_allclose(alpha.data[:, 0], alpha_ref, atol=1e-6)

    def test_masked_weights_exactly_zero(self):
        rng = np.random.default_rng(2)
        p = self._params(3, seed=2)
        Z, keep = column(rng.normal(size=(5, 3)), [True, False, True, False, True])
        _, alpha = attentive_pool(Z, p, keep)
        assert alpha.data[1, 0] == 0.0 and alpha.data[3, 0] == 0.0
        np.testing.assert_allclose(alpha.data.sum(), 1.0, atol=1e-7)
        assert np.all(alpha.data >= 0.0)

    def test_all_masked_rejected(self):
        with pytest.raises(ValueError):
            attentive_pool(column(np.ones((2, 2)))[0], self._params(2),
                           [[False], [False]])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_output_in_convex_hull(self, seed):
        rng = np.random.default_rng(seed)
        with ad.use_dtype(np.float64):
            m = int(rng.integers(1, 8))
            rows = rng.normal(size=(m, 4))
            mask = rng.random(m) < 0.7
            if not mask.any():
                mask[0] = True
            p = attention_vector(4, rng)
            Z, keep = column(rows, mask)
            z, _ = attentive_pool(Z, p, keep)
            kept = rows[mask]
            assert np.all(z.data[0] <= kept.max(axis=0) + 1e-12)
            assert np.all(z.data[0] >= kept.min(axis=0) - 1e-12)

    def test_gradients_through_mask(self, float64_mode):
        rng = np.random.default_rng(4)
        Z, keep = column(rng.normal(size=(5, 3)), [True, True, True, False, False],
                         requires_grad=True)
        p = attention_vector(3, rng)
        check_grads(lambda: head(attentive_pool(Z, p, keep)[0], [2]), [Z, p])


class TestBatchedPooling:
    LENGTHS = np.array([3, 1, 4])

    def _batch(self, rng):
        Z = ad.Tensor(rng.normal(size=(4, 3, 2)), requires_grad=True)
        return Z, np.arange(4)[:, None] < self.LENGTHS

    def test_each_column_pools_like_its_own_sentence(self):
        rng = np.random.default_rng(6)
        Z, mask = self._batch(rng)
        p = attention_vector(2, rng)
        z_max = max_pool(Z, mask)
        z_att, alpha = attentive_pool(Z, p, mask)
        for b, m in enumerate(self.LENGTHS):
            sentence = column(Z.data[:m, b])
            np.testing.assert_array_equal(z_max.data[b], max_pool(*sentence).data[0])
            z_one, alpha_one = attentive_pool(sentence[0], p, sentence[1])
            np.testing.assert_allclose(z_att.data[b], z_one.data[0], atol=1e-6)
            np.testing.assert_allclose(alpha.data[:m, b], alpha_one.data[:, 0],
                                       atol=1e-7)
            assert not alpha.data[m:, b].any()

    def test_gradients(self, float64_mode):
        rng = np.random.default_rng(7)
        Z, mask = self._batch(rng)
        p = attention_vector(2, rng)

        def loss():
            pooled = ad.concat(max_pool(Z, mask), attentive_pool(Z, p, mask)[0])
            return head(pooled, [1, 0, 4])

        check_grads(loss, [Z, p])

    def test_rank_two_sentence_rejected(self):
        rows = ad.Tensor(np.ones((3, 2)))
        with pytest.raises(ValueError):
            max_pool(rows, np.ones(3, dtype=bool))
        with pytest.raises(ValueError):
            attentive_pool(rows, attention_vector(2, np.random.default_rng(0)),
                           np.ones(3, dtype=bool))
