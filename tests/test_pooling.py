"""Max and attentive pooling of packed batches: oracles, sentence
boundaries, convexity and gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import attention_vector, batch_of, check_grads, head, use_dtype, weighted_sum
from ddilstm import autodiff as ad
from ddilstm.pooling import attentive_pool, max_pool


def packed(*sentences, requires_grad=False):
    """Sentences of (m_b, k) rows packed end to end into one (T, k) batch,
    and the layout `collate` gives them."""
    rows = np.concatenate([np.asarray(x, dtype=np.float64) for x in sentences])
    return (ad.Tensor(rows, requires_grad=requires_grad),
            batch_of([len(x) for x in sentences]))


def segments(data, batch):
    """The per-sentence slices of a packed array."""
    return np.split(data, batch.starts[1:])


def reference_attentive(z_rows, w_a):
    """Straight-line weighted pooling: tanh, score, softmax, mix."""
    h = np.tanh(z_rows)
    scores = h @ w_a
    e = np.exp(scores - scores.max())
    alpha = e / e.sum()
    return alpha @ z_rows, alpha


class TestMaxPool:
    def test_elementwise_max(self):
        out = max_pool(*packed([[1.0, 5.0], [3.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[3.0, 5.0]])

    def test_singleton(self):
        out = max_pool(*packed([[4.0, -1.0, 0.5]]))
        np.testing.assert_array_equal(out.data, [[4.0, -1.0, 0.5]])

    def test_masked_rows_never_win(self):
        # the rows of a neighbouring sentence, which a padded batch masked
        out = max_pool(*packed([[100.0, 100.0]], [[1.0, 2.0]], [[100.0, 100.0]]))
        np.testing.assert_array_equal(out.data[1], [1.0, 2.0])

    def test_all_masked_rejected(self):
        # a sentence of no rows, the packed form of an all-masked column,
        # never reaches the pooling: collate refuses it
        with pytest.raises(ValueError, match="empty sequence"):
            max_pool(*packed(np.ones((2, 2)), np.ones((0, 2))))

    def test_dominates_every_unmasked_row(self):
        rng = np.random.default_rng(0)
        Z, batch = packed(*(rng.normal(size=(m, 4)) for m in (2, 1, 3)))
        out = max_pool(Z, batch)
        for b, rows in enumerate(segments(Z.data, batch)):
            assert np.all(out.data[b] >= rows)
            assert np.all((out.data[b] == rows).any(axis=0))

    def test_tie_gradient_goes_to_first_row(self):
        Z, batch = packed([[2.0, 0.0]], [[5.0, 1.0], [1.0, 3.0], [5.0, 3.0]],
                            requires_grad=True)
        with ad.Tape() as tape:
            loss = weighted_sum(max_pool(Z, batch), np.ones((2, 2)))
        tape.backward(loss)
        np.testing.assert_array_equal(
            Z.grad, [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])

    def test_gradients_through_mask(self, float64_mode):
        # finite differences across sentence boundaries, length-1 included
        rng = np.random.default_rng(1)
        Z, batch = packed(rng.normal(size=(2, 3)), rng.normal(size=(1, 3)),
                            rng.normal(size=(3, 3)), requires_grad=True)
        check_grads(lambda: head(max_pool(Z, batch), [1, 4, 0]), [Z])


class TestAttentivePool:
    def _params(self, width, seed=0):
        return attention_vector(width, np.random.default_rng(seed))

    def test_singleton_weight_is_one(self):
        Z, batch = packed([[1.0, -2.0]])
        z, alpha = attentive_pool(Z, self._params(2), batch)
        np.testing.assert_allclose(alpha.data, [1.0])
        np.testing.assert_array_equal(z.data, Z.data)

    def test_zero_scorer_uniform_weights(self):
        p = self._params(3)
        p.data[...] = 0.0
        Z, batch = packed(np.arange(12.0).reshape(4, 3))
        _, alpha = attentive_pool(Z, p, batch)
        np.testing.assert_allclose(alpha.data, [0.25] * 4, atol=1e-7)

    def test_matches_reference(self):
        rng = np.random.default_rng(9)
        p = self._params(4, seed=9)
        rows = rng.uniform(-2, 2, size=(2, 4)).astype(np.float32)
        Z, batch = packed(rows)
        z, alpha = attentive_pool(Z, p, batch)
        z_ref, alpha_ref = reference_attentive(rows.astype(np.float64),
                                               p.data.astype(np.float64))
        np.testing.assert_allclose(z.data[0], z_ref, atol=1e-6)
        np.testing.assert_allclose(alpha.data, alpha_ref, atol=1e-6)

    def test_masked_weights_exactly_zero(self):
        # no weight leaks onto a neighbouring sentence's rows, which a padded
        # batch masked: each sentence's own weights already sum to one
        rng = np.random.default_rng(2)
        p = self._params(3, seed=2)
        Z, batch = packed(*(rng.normal(size=(m, 3)) for m in (2, 1, 2)))
        _, alpha = attentive_pool(Z, p, batch)
        assert alpha.shape == (5,)
        for weights in segments(alpha.data.astype(np.float64), batch):
            np.testing.assert_allclose(weights.sum(), 1.0, atol=1e-7)
        assert np.all(alpha.data >= 0.0)

    def test_all_masked_rejected(self):
        with pytest.raises(ValueError, match="empty sequence"):
            Z, batch = packed(np.ones((0, 2)), np.ones((2, 2)))
            attentive_pool(Z, self._params(2), batch)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_output_in_convex_hull(self, seed):
        rng = np.random.default_rng(seed)
        with use_dtype(np.float64):
            sentences = [rng.normal(size=(int(rng.integers(1, 8)), 4))
                         for _ in range(int(rng.integers(1, 4)))]
            p = attention_vector(4, rng)
            Z, batch = packed(*sentences)
            z, _ = attentive_pool(Z, p, batch)
            for b, rows in enumerate(sentences):
                assert np.all(z.data[b] <= rows.max(axis=0) + 1e-12)
                assert np.all(z.data[b] >= rows.min(axis=0) - 1e-12)

    def test_gradients_through_mask(self, float64_mode):
        # finite differences across sentence boundaries, length-1 included
        rng = np.random.default_rng(4)
        Z, batch = packed(rng.normal(size=(3, 3)), rng.normal(size=(1, 3)),
                            rng.normal(size=(2, 3)), requires_grad=True)
        p = attention_vector(3, rng)
        check_grads(lambda: head(attentive_pool(Z, p, batch)[0], [2, 0, 3]),
                    [Z, p])


class TestBatchedPooling:
    LENGTHS = np.array([3, 1, 4])

    def _batch(self, rng):
        return ad.Tensor(rng.normal(size=(8, 2)), requires_grad=True), batch_of(self.LENGTHS)

    def test_each_column_pools_like_its_own_sentence(self):
        rng = np.random.default_rng(6)
        Z, batch = self._batch(rng)
        p = attention_vector(2, rng)
        z_max = max_pool(Z, batch)
        z_att, alpha = attentive_pool(Z, p, batch)
        weights = segments(alpha.data, batch)
        for b, rows in enumerate(segments(Z.data, batch)):
            sentence = packed(rows)
            np.testing.assert_array_equal(z_max.data[b], max_pool(*sentence).data[0])
            z_one, alpha_one = attentive_pool(sentence[0], p, sentence[1])
            np.testing.assert_allclose(z_att.data[b], z_one.data[0], atol=1e-6)
            np.testing.assert_allclose(weights[b], alpha_one.data, atol=1e-7)

    def test_gradients(self, float64_mode):
        rng = np.random.default_rng(7)
        Z, batch = self._batch(rng)
        p = attention_vector(2, rng)

        def loss():
            pooled = (max_pool(Z, batch), attentive_pool(Z, p, batch)[0])
            return head(pooled, [1, 0, 4])

        check_grads(loss, [Z, p])
