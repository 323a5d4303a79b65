"""LSTM step and bidirectional encoder against straight-line oracles.

A single step is the one-token, one-sentence case of the forward cell,
the left half of `bilstm_forward`, started from h0 = h_prev and
c0 = c_prev; the cell state is observable only through the steps that
follow. Batches are packed: the sentences' rows one sentence after
another, laid out by `collate` from their lengths.
"""

import numpy as np
import pytest

from conftest import batch_of, check_grads, use_dtype, weighted_sum
from ddilstm import autodiff as ad
from ddilstm.recurrent import BiLstmStack, LstmParams, bilstm_forward


def reference_step(p, x, h_prev, c_prev):
    """Independent plain-numpy update, no shared code with the module."""

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    def gate(k):
        # row block k of the stacked maps; blocks are in order i, f, o, g
        rows = slice(k * len(h_prev), (k + 1) * len(h_prev))
        return p.U.data[rows] @ x + p.W.data[rows] @ h_prev + p.b.data[rows]

    i, f, o = sig(gate(0)), sig(gate(1)), sig(gate(2))
    g = np.tanh(gate(3))
    c = c_prev * f + g * i
    h = np.tanh(c) * o
    return h, c


def _randomized(params, rng, scale=0.5):
    for p in params.parameters():
        p.data[...] = rng.uniform(-scale, scale, size=p.data.shape).astype(p.data.dtype)


def with_forward_cell(p):
    """A stack whose forward cell is p: its states are the left half."""
    stack = BiLstmStack(p.W.data.shape[1], p.U.data.shape[1],
                        np.random.default_rng(0))
    stack.fwd = p
    return stack


def run_steps(p, xs, h_prev, c_prev):
    """h after each of the inputs xs (one row each), read by the forward
    cell p as one sentence started from h_prev and c_prev."""
    p.h0.data[...] = h_prev
    p.c0.data[...] = c_prev
    X = ad.Tensor(np.asarray(xs, dtype=p.h0.data.dtype))
    n = p.h0.data.shape[0]
    return bilstm_forward(with_forward_cell(p), X, batch_of([len(xs)])).data[:, :n]


def column(x):
    """One (L, d) sentence as a packed batch, and its layout."""
    return ad.Tensor(np.asarray(x)), batch_of([len(x)])


class TestLstmStep:
    def test_all_zero_params(self):
        p = LstmParams(3, 2, np.random.default_rng(0))
        for t in p.parameters():
            t.data[...] = 0.0
        h = run_steps(p, [np.ones(2)], np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(h, np.zeros((1, 3)))

    def test_unit_cell_state_halves(self):
        p = LstmParams(3, 2, np.random.default_rng(0))
        for t in p.parameters():
            t.data[...] = 0.0
        h = run_steps(p, [np.zeros(2)], np.zeros(3), np.ones(3))[0]
        np.testing.assert_allclose(h, np.tanh(0.5) * 0.5, atol=1e-6)
        # every gate is 1/2, so h = tanh(c) / 2 gives back c = 1/2
        np.testing.assert_allclose(np.arctanh(2.0 * h), 0.5, atol=1e-6)

    def test_matches_reference_step(self):
        rng = np.random.default_rng(42)
        p = LstmParams(2, 2, rng)
        _randomized(p, rng)
        x, x_next = rng.uniform(-1, 1, (2, 2)).astype(np.float32)
        h_prev = rng.uniform(-1, 1, 2).astype(np.float32)
        c_prev = rng.uniform(-1, 1, 2).astype(np.float32)
        h, h_next = run_steps(p, [x, x_next], h_prev, c_prev)
        h_ref, c_ref = reference_step(p, x, h_prev, c_prev)
        np.testing.assert_allclose(h, h_ref, atol=1e-6)
        # the cell state shows through the step that reads it
        np.testing.assert_allclose(h_next, reference_step(p, x_next, h_ref, c_ref)[0],
                                   atol=1e-6)

    def test_gate_ranges(self):
        rng = np.random.default_rng(3)
        p = LstmParams(4, 3, rng)
        _randomized(p, rng, scale=2.0)
        h = run_steps(p, [rng.uniform(-1, 1, 3)], rng.uniform(-1, 1, 4),
                      rng.uniform(-3, 3, 4))
        assert np.all(np.abs(h) < 1.0)

    def test_gate_blocks_drawn_in_gate_order(self):
        # U_i, W_i, U_f, W_f, U_o, W_o, U_g, W_g: the stream order of the
        # per-gate layout, so a seed keeps giving the same weights
        n, d = 3, 2
        p = LstmParams(n, d, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        for k in range(4):
            rows = slice(k * n, (k + 1) * n)
            for stacked, cols in ((p.U, d), (p.W, n)):
                block = rng.uniform(-1 / np.sqrt(n), 1 / np.sqrt(n), (n, cols))
                np.testing.assert_array_equal(stacked.data[rows],
                                              block.astype(np.float32))
        assert not (p.b.data.any() or p.h0.data.any() or p.c0.data.any())
        assert [t.name for t in p.parameters()] == [
            "lstm.U", "lstm.W", "lstm.b", "lstm.h0", "lstm.c0"]

    def test_gradients_through_unrolled_sequence(self, float64_mode):
        rng = np.random.default_rng(7)
        p = LstmParams(3, 2, rng)
        _randomized(p, rng)
        X = ad.Tensor(rng.uniform(-1, 1, (4, 2)))
        weights = np.zeros((4, 6))
        weights[-1, :3] = rng.normal(size=3)  # read the final state only
        stack = with_forward_cell(p)

        def loss():
            return weighted_sum(bilstm_forward(stack, X, batch_of([4])), weights)

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
        Z = bilstm_forward(stack, *column(np.ones((1, 2))))
        assert Z.shape == (1, 6)

    def test_zero_params_zero_output(self):
        stack = self._stack()
        for p in stack.parameters():
            p.data[...] = 0.0
        Z = bilstm_forward(stack, *column(np.ones((4, 2))))
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
        Z = bilstm_forward(stack, *column(np.stack([x, x * 0.5, x * 0.5, x])))
        n = 3
        fwd_states = Z.data[:, :n]
        bwd_states = Z.data[:, n:]
        np.testing.assert_allclose(fwd_states, bwd_states[::-1], atol=1e-6)

    def test_determinism(self):
        stack = self._stack(seed=5)
        X, batch = column(np.random.default_rng(1).uniform(-1, 1, (5, 2)))
        a = bilstm_forward(stack, X, batch).data
        b = bilstm_forward(stack, X, batch).data
        np.testing.assert_array_equal(a, b)

    def test_packed_neighbours_are_ignored(self, float64_mode):
        stack = self._stack(seed=9)
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (3, 2))
        alone = bilstm_forward(stack, *column(x)).data
        before, after = rng.uniform(-1, 1, (4, 2)), rng.uniform(-1, 1, (1, 2))
        batch = bilstm_forward(stack, ad.Tensor(np.vstack([before, x, after])),
                               batch_of([4, 3, 1])).data
        np.testing.assert_allclose(batch[4:7], alone, rtol=0, atol=1e-12)

    def test_output_width_always_2n(self):
        for hidden in (1, 4):
            stack = self._stack(hidden=hidden)
            Z = bilstm_forward(stack, *column(np.ones((3, 2))))
            assert Z.shape == (3, 2 * hidden)


class TestLstmSequence:
    """Each half of the fused op as one direction over packed sentences:
    the left half reads each sentence first to last, the right half last
    to first."""

    LENGTHS = np.array([4, 1, 3, 4])  # mixed, with a length-1 sentence and a tie
    # sorted 6, 3, 2, 1: steps of 4, 3 and 2 rows, then the longest alone
    # for three 1-row steps inside a multi-sentence batch
    LONE_TAIL = np.array([6, 1, 3, 2])

    def _setup(self, seed, dtype=np.float64, lengths=LENGTHS):
        rng = np.random.default_rng(seed)
        stack = BiLstmStack(3, 2, rng)
        _randomized(stack.fwd, rng)
        _randomized(stack.bwd, rng)
        X = ad.Tensor(rng.uniform(-1, 1, (lengths.sum(), 2)).astype(dtype),
                      requires_grad=True)
        return rng, stack, X

    def _check_reference_steps(self, reverse, lengths, seed):
        _, stack, X = self._setup(seed, np.float32, lengths)
        p, half = (stack.bwd, slice(3, 6)) if reverse else (stack.fwd, slice(0, 3))
        out = bilstm_forward(stack, X, batch_of(lengths)).data[:, half]
        start = 0
        for m in lengths:
            h, c = p.h0.data, p.c0.data
            order = range(m - 1, -1, -1) if reverse else range(m)
            for t in order:
                h, c = reference_step(p, X.data[start + t], h, c)
                np.testing.assert_allclose(out[start + t], h, atol=1e-6)
            start += m

    def _check_half_gradients(self, reverse, lengths, seed):
        # one half read out: its cell's h0 starts every sentence, and the
        # other cell gets no gradient
        rng, stack, X = self._setup(seed, lengths=lengths)
        weights = np.zeros((lengths.sum(), 6))
        half = slice(3, 6) if reverse else slice(0, 3)
        weights[:, half] = rng.normal(size=(lengths.sum(), 3))
        batch = batch_of(lengths)

        def loss():
            return weighted_sum(bilstm_forward(stack, X, batch), weights)

        check_grads(loss, [X, *stack.parameters()])

    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_per_row_reference_steps(self, reverse):
        self._check_reference_steps(reverse, self.LENGTHS, 21)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients_mixed_lengths(self, float64_mode, reverse):
        self._check_half_gradients(reverse, self.LENGTHS, 22)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lone_tail_matches_reference_steps(self, reverse):
        self._check_reference_steps(reverse, self.LONE_TAIL, 25)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lone_tail_gradients(self, float64_mode, reverse):
        self._check_half_gradients(reverse, self.LONE_TAIL, 26)

    def test_bilstm_batch_gradients(self, float64_mode):
        rng = np.random.default_rng(23)
        stack = BiLstmStack(2, 2, rng)
        for p in stack.parameters():
            p.data[...] = rng.uniform(-0.5, 0.5, size=p.data.shape)
        X = ad.Tensor(rng.uniform(-1, 1, (7, 2)), requires_grad=True)
        batch = batch_of([2, 4, 1])
        weights = rng.normal(size=(7, 4))

        def loss():
            return weighted_sum(bilstm_forward(stack, X, batch), weights)

        check_grads(loss, [X, *stack.parameters()])


def textbook_bilstm(stack, x, lengths):
    """Both directions written out gate by gate, each gate's sigmoid taken
    on its own unscaled pre-activation.

    Only the products share the module's layouts, since a BLAS product's
    bits can depend on its shape and on where a row sits in it: x U^T over
    all T rows in step-major order (step t holds the rows of the sentences
    still running, longest first), and at step t their states times a
    contiguous W^T.
    """

    def sigmoid(v):
        return 0.5 + 0.5 * np.tanh(0.5 * v)

    lengths = np.asarray(lengths)
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(-lengths, kind="stable")
    n = stack.fwd.W.data.shape[1]
    out = np.empty((len(x), 2 * n), dtype=x.dtype)
    for p, reverse, half in ((stack.fwd, False, slice(0, n)), (stack.bwd, True, slice(n, 2 * n))):
        live = [order[lengths[order] > t] for t in range(lengths.max())]
        rows = [starts[b] + (lengths[b] - 1 - t if reverse else t) for t, b in enumerate(live)]
        xu = x[np.concatenate(rows)] @ p.U.data.T
        w_t = np.ascontiguousarray(p.W.data.T)
        h = np.tile(p.h0.data, (len(lengths), 1))
        c = np.tile(p.c0.data, (len(lengths), 1))
        done = 0
        for b, r in zip(live, rows):
            z = xu[done:done + len(b)] + p.b.data
            done += len(b)
            z += h[b] @ w_t
            i, f, o = (sigmoid(z[:, k * n:(k + 1) * n]) for k in range(3))
            g = np.tanh(z[:, 3 * n:])
            c[b] = f * c[b] + i * g
            h[b] = o * np.tanh(c[b])
            out[r, half] = h[b]
    return out


class TestExactness:
    """The fused recurrence gives the textbook update's bits, and its
    sigmoid gates stay exact and bounded at the extremes."""

    # ragged, with a tie and a 1-token sentence
    LENGTHS = np.array([5, 1, 9, 3, 5, 2])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("hidden", [200, 7])
    def test_matches_textbook_bits(self, dtype, hidden):
        rng = np.random.default_rng(hidden)
        with use_dtype(dtype):
            stack = BiLstmStack(hidden, 11, rng)
            _randomized(stack.fwd, rng, scale=1.0)
            _randomized(stack.bwd, rng, scale=1.0)
            x = rng.normal(size=(self.LENGTHS.sum(), 11)).astype(dtype)
            out = bilstm_forward(stack, ad.Tensor(x), batch_of(self.LENGTHS)).data
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, textbook_bilstm(stack, x, self.LENGTHS))

    def _one_step(self, b, c0):
        """h after one token of a cell with zero maps, bias b and cell state c0."""
        p = LstmParams(len(c0), 2, np.random.default_rng(0))
        for t in p.parameters():
            t.data[...] = 0.0
        p.b.data[...] = b
        return run_steps(p, [np.ones(2)], np.zeros(len(c0)), c0)[0]

    def test_zero_pre_activations_give_half_gates(self):
        c0 = np.float32([-2.0, 0.0, 0.75])
        # i, f, o at 0, g at 1: h = o tanh(f c0 + i g) only if each is 1/2
        h = self._one_step(np.repeat(np.float32([0, 0, 0, 1]), 3), c0)
        half = np.float32(0.5)
        np.testing.assert_array_equal(h, half * np.tanh(half * c0 + half * np.tanh(np.float32(1))))

    def test_extreme_pre_activations_stay_finite(self):
        c0 = np.float32([-2.0, 0.0, 0.75])
        # every gate saturates to exactly 0, or to exactly 1
        np.testing.assert_array_equal(self._one_step(np.float32(-200), c0), np.zeros(3))
        np.testing.assert_array_equal(self._one_step(np.float32(200), c0),
                                      np.tanh(c0 + np.float32(1)))
