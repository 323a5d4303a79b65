"""LSTM step and bidirectional encoder against straight-line oracles."""

import numpy as np
import pytest

from conftest import check_grads
from ddilstm import autodiff as ad
from ddilstm.recurrent import (
    BiLstmStack,
    LstmParams,
    bilstm_forward,
    lstm_sequence,
    lstm_step,
)


def reference_step(p, x, h_prev, c_prev):
    """Independent plain-numpy update, no shared code with the module."""

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    i = sig(p.U_i.data @ x + p.W_i.data @ h_prev + p.b_i.data)
    f = sig(p.U_f.data @ x + p.W_f.data @ h_prev + p.b_f.data)
    o = sig(p.U_o.data @ x + p.W_o.data @ h_prev + p.b_o.data)
    g = np.tanh(p.U_g.data @ x + p.W_g.data @ h_prev + p.b_g.data)
    c = c_prev * f + g * i
    h = np.tanh(c) * o
    return h, c


def weighted_sum(t, weights):
    """sum(t * weights) as one tape op: a smooth read-out of every entry."""
    out = ad.Tensor(np.asarray((t.data * weights).sum()))
    return ad.record_op(out, (t,), lambda g: (g * weights,))


def _randomized(params, rng, scale=0.5):
    for p in params.parameters():
        p.data[...] = rng.uniform(-scale, scale, size=p.data.shape).astype(p.data.dtype)


class TestLstmStep:
    def test_all_zero_params(self):
        p = LstmParams(3, 2, np.random.default_rng(0))
        for t in p.parameters():
            t.data[...] = 0.0
        h, c = lstm_step(p, ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(3)),
                         ad.Tensor(np.zeros(3)))
        np.testing.assert_array_equal(c.data, np.zeros(3))
        np.testing.assert_array_equal(h.data, np.zeros(3))

    def test_unit_cell_state_halves(self):
        p = LstmParams(3, 2, np.random.default_rng(0))
        for t in p.parameters():
            t.data[...] = 0.0
        h, c = lstm_step(p, ad.Tensor(np.zeros(2)), ad.Tensor(np.zeros(3)),
                         ad.Tensor(np.ones(3)))
        np.testing.assert_allclose(c.data, 0.5, atol=1e-7)
        np.testing.assert_allclose(h.data, np.tanh(0.5) * 0.5, atol=1e-6)

    def test_matches_reference_step(self):
        rng = np.random.default_rng(42)
        p = LstmParams(2, 2, rng)
        _randomized(p, rng)
        x = rng.uniform(-1, 1, 2).astype(np.float32)
        h_prev = rng.uniform(-1, 1, 2).astype(np.float32)
        c_prev = rng.uniform(-1, 1, 2).astype(np.float32)
        h, c = lstm_step(p, ad.Tensor(x), ad.Tensor(h_prev), ad.Tensor(c_prev))
        h_ref, c_ref = reference_step(p, x, h_prev, c_prev)
        np.testing.assert_allclose(h.data, h_ref, atol=1e-6)
        np.testing.assert_allclose(c.data, c_ref, atol=1e-6)

    def test_gate_ranges(self):
        rng = np.random.default_rng(3)
        p = LstmParams(4, 3, rng)
        _randomized(p, rng, scale=2.0)
        h = ad.Tensor(rng.uniform(-1, 1, 4))
        c = ad.Tensor(rng.uniform(-3, 3, 4))
        h_new, c_new = lstm_step(p, ad.Tensor(rng.uniform(-1, 1, 3)), h, c)
        assert np.all(np.abs(h_new.data) < 1.0)
        assert np.all(np.isfinite(c_new.data))

    def test_gradients_through_unrolled_sequence(self, float64_mode):
        rng = np.random.default_rng(7)
        p = LstmParams(3, 2, rng)
        _randomized(p, rng)
        xs = [ad.Tensor(rng.uniform(-1, 1, 2)) for _ in range(4)]

        def loss():
            h, c = p.h0, p.c0
            for x in xs:
                h, c = lstm_step(p, x, h, c)
            return ad.pick(ad.softmax_vec(h), 0)

        check_grads(loss, p.parameters())


class TestBilstm:
    def _stack(self, hidden=3, dim=2, seed=0):
        rng = np.random.default_rng(seed)
        stack = BiLstmStack(hidden, dim, rng)
        _randomized(stack.fwd, rng)
        _randomized(stack.bwd, rng)
        return stack

    def test_single_token_shape(self):
        stack = self._stack()
        Z = bilstm_forward(stack, ad.Tensor(np.ones((1, 2))))
        assert Z.shape == (1, 6)

    def test_zero_params_zero_output(self):
        stack = self._stack()
        for p in stack.parameters():
            p.data[...] = 0.0
        Z = bilstm_forward(stack, ad.Tensor(np.ones((4, 2))))
        assert not Z.data.any()

    def test_palindrome_symmetry(self):
        """With identical directional cells, reading a palindrome backwards
        reproduces the forward state sequence in reverse."""
        rng = np.random.default_rng(11)
        stack = self._stack(seed=11)
        for p_f, p_b in zip(stack.fwd.parameters(), stack.bwd.parameters()):
            p_b.data[...] = p_f.data
        x = rng.uniform(-1, 1, 2).astype(np.float32)
        # palindrome: row t equals row m-1-t
        X = ad.Tensor(np.stack([x, x * 0.5, x * 0.5, x]))
        Z = bilstm_forward(stack, X)
        n = stack.hidden
        fwd_states = Z.data[:, :n]
        bwd_states = Z.data[:, n:]
        np.testing.assert_allclose(fwd_states, bwd_states[::-1], atol=1e-6)

    def test_determinism(self):
        stack = self._stack(seed=5)
        X = ad.Tensor(np.random.default_rng(1).uniform(-1, 1, (5, 2)))
        a = bilstm_forward(stack, X).data
        b = bilstm_forward(stack, X).data
        np.testing.assert_array_equal(a, b)

    def test_empty_sequence_rejected(self):
        stack = self._stack()
        with pytest.raises(ValueError):
            bilstm_forward(stack, ad.Tensor(np.ones((2, 2))), mask=[False, False])

    def test_padding_rows_are_zero_and_ignored(self):
        stack = self._stack(seed=9)
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (3, 2)).astype(np.float32)
        plain = bilstm_forward(stack, ad.Tensor(x))
        padded_input = np.vstack([x, rng.uniform(-1, 1, (2, 2)).astype(np.float32)])
        padded = bilstm_forward(stack, ad.Tensor(padded_input),
                                mask=[True, True, True, False, False])
        np.testing.assert_array_equal(padded.data[:3], plain.data)
        assert not padded.data[3:].any()

    def test_non_suffix_padding_rejected(self):
        stack = self._stack()
        with pytest.raises(ValueError):
            bilstm_forward(stack, ad.Tensor(np.ones((3, 2))),
                           mask=[True, False, True])

    def test_output_width_always_2n(self):
        for hidden in (1, 4):
            stack = self._stack(hidden=hidden)
            Z = bilstm_forward(stack, ad.Tensor(np.ones((3, 2))))
            assert Z.shape == (3, 2 * hidden)


class TestLstmSequence:
    LENGTHS = np.array([4, 1, 3, 4])  # mixed, with a length-1 row

    def _setup(self, seed, dtype=np.float64):
        rng = np.random.default_rng(seed)
        p = LstmParams(3, 2, rng)
        _randomized(p, rng)
        X = ad.Tensor(rng.uniform(-1, 1, (4, len(self.LENGTHS), 2)).astype(dtype),
                      requires_grad=True)
        return rng, p, X

    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_per_row_reference_steps(self, reverse):
        _, p, X = self._setup(21, np.float32)
        out = lstm_sequence(p, X, self.LENGTHS, reverse=reverse).data
        for b, m in enumerate(self.LENGTHS):
            h, c = p.h0.data, p.c0.data
            order = range(m - 1, -1, -1) if reverse else range(m)
            for t in order:
                h, c = reference_step(p, X.data[t, b], h, c)
                np.testing.assert_allclose(out[t, b], h, atol=1e-6)
            assert not out[m:, b].any()

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients_mixed_lengths(self, float64_mode, reverse):
        rng, p, X = self._setup(22)
        weights = rng.normal(size=(4, len(self.LENGTHS), 3))

        def loss():
            return weighted_sum(lstm_sequence(p, X, self.LENGTHS, reverse), weights)

        check_grads(loss, [X, *p.parameters()])

    def test_bilstm_batch_gradients(self, float64_mode):
        rng = np.random.default_rng(23)
        stack = BiLstmStack(2, 2, rng)
        for p in stack.parameters():
            p.data[...] = rng.uniform(-0.5, 0.5, size=p.data.shape)
        X = ad.Tensor(rng.uniform(-1, 1, (4, 3, 2)), requires_grad=True)
        mask = np.arange(4)[:, None] < np.array([2, 4, 1])
        weights = rng.normal(size=(4, 3, 4))

        def loss():
            return weighted_sum(bilstm_forward(stack, X, mask), weights)

        check_grads(loss, [X, *stack.parameters()])
