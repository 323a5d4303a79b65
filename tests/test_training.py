"""Loss, optimizer, and the training protocol."""

import json
import math
import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from conftest import make_synthetic_instances, raw_instance
from ddilstm import autodiff as ad
from ddilstm import training as tr
from ddilstm.features import (
    InstanceFeatures,
    PositionVocab,
    build_vocab,
    collate,
    featurize,
)
from ddilstm.files import write_json_lines
from ddilstm.model import ModelConfig, build_model, default_config, scores
from ddilstm.rng import named_stream
from ddilstm.training import (
    BETA1,
    BETA2,
    EPS,
    AdamState,
    EpochRecord,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    select_epoch,
    softmax_cross_entropy,
    train,
)


def featurized_synthetic(n=20, seed=3):
    insts = make_synthetic_instances(n, seed=seed)
    vocab = build_vocab([i.tokens for i in insts])
    pv = PositionVocab(10)
    return insts, vocab, pv, featurize(insts, vocab, pv)


def small_model(vocab, pv, variant="b-lstm", keep_prob=1.0, l2=0.0, seed=0):
    cfg = ModelConfig(variant=variant, hidden=4, word_dim=6, pos_dim=2,
                      keep_prob=keep_prob, l2=l2)
    return cfg, build_model(cfg, len(vocab), len(pv), seed=seed)


class TestCrossEntropy:
    """The loss of one (1, C) row of scores."""

    def test_one_hot_true_label_is_zero(self):
        s = ad.Tensor([[0.0, 100.0, 0.0, 0.0, 0.0]])
        assert softmax_cross_entropy(s, [1]).item() == 0.0

    def test_uniform_is_log5(self):
        s = ad.Tensor(np.zeros((1, 5)))
        assert softmax_cross_entropy(s, [3]).item() == pytest.approx(math.log(5),
                                                                     abs=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(ad.Tensor([[1.0, 0.0]]), [2])

    def test_gradient_matches_finite_differences(self, float64_mode):
        from conftest import check_grads

        rng = np.random.default_rng(0)
        s = ad.Tensor(rng.normal(size=(1, 5)), requires_grad=True)
        check_grads(lambda: softmax_cross_entropy(s, [2]), [s])


class TestSoftmaxCrossEntropy:
    def test_equals_floored_probability_loss(self):
        rng = np.random.default_rng(1)
        s = ad.Tensor(rng.normal(scale=3.0, size=(1, 5)))
        for label in range(5):
            expected = -math.log(ad.softmax(s.data[0])[label])
            assert softmax_cross_entropy(s, [label]).item() == pytest.approx(
                expected, rel=1e-6)

    def test_batch_is_mean_of_rows(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=(3, 5)).astype(np.float32)
        labels = [4, 0, 2]
        rows = [softmax_cross_entropy(ad.Tensor(s[i:i + 1]), [y]).item()
                for i, y in enumerate(labels)]
        assert softmax_cross_entropy(ad.Tensor(s), labels).item() == pytest.approx(
            np.mean(rows), rel=1e-6)

    def test_confidently_wrong_example_keeps_its_gradient(self):
        # p(label) is about e^-40 < 1e-12: a loss floored there goes flat
        s = ad.Tensor([[40.0, 0.0, 0.0, 0.0, 0.0]], requires_grad=True)
        with ad.Tape() as tape:
            loss = softmax_cross_entropy(s, [1])
        tape.backward(loss)
        assert loss.item() == pytest.approx(40.0, rel=1e-6)
        np.testing.assert_allclose(s.grad, [[1.0, -1.0, 0.0, 0.0, 0.0]], atol=1e-6)

    def test_gradient_matches_finite_differences(self, float64_mode):
        from conftest import check_grads

        rng = np.random.default_rng(3)
        s = ad.Tensor(rng.normal(scale=2.0, size=(4, 5)), requires_grad=True)
        check_grads(lambda: softmax_cross_entropy(s, [0, 3, 3, 4]), [s])

    def test_labels_validated(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(ad.Tensor(np.zeros((2, 5))), [0, 5])
        with pytest.raises(ad.ShapeMismatch):
            softmax_cross_entropy(ad.Tensor(np.zeros((2, 5))), [0])
        with pytest.raises(ad.ShapeMismatch):  # one (C,) vector is not a batch
            softmax_cross_entropy(ad.Tensor(np.zeros(5)), [0])


class TestAdam:
    def _scalar_param(self, value=0.0):
        return ad.Parameter(np.asarray(value, dtype=np.float32), name="theta")

    @pytest.mark.parametrize("g", [1.0, -1.0, 0.01, -0.01])
    def test_first_step_closed_form(self, g):
        cfg = TrainConfig(lr=1e-3)
        p = self._scalar_param(0.0)
        p.grad = np.asarray(g, dtype=np.float32)
        state = AdamState([("theta", p)])
        adam_step(state, [("theta", p)], cfg)
        expected = -cfg.lr * g / (abs(g) + EPS)
        assert abs(float(p.data) - expected) < 1e-9

    def test_zero_gradient_no_motion(self):
        cfg = TrainConfig()
        p = self._scalar_param(1.5)
        p.grad = np.asarray(0.0, dtype=np.float32)
        state = AdamState([("theta", p)])
        adam_step(state, [("theta", p)], cfg, l2=0.0)
        assert float(p.data) == 1.5

    def test_non_finite_update_names_the_parameter(self):
        p = self._scalar_param(3e38)
        p.grad = np.asarray(-1.0, dtype=np.float32)
        state = AdamState([("theta", p)])
        with np.errstate(over="ignore"), pytest.raises(
                ad.NonFiniteError, match=r"^non-finite values in parameter theta$"):
            adam_step(state, [("theta", p)], TrainConfig(lr=1e38))

    def test_missing_grads_rejected(self):
        cfg = TrainConfig()
        p = self._scalar_param(1.0)
        state = AdamState([("theta", p)])
        with pytest.raises(ValueError):
            adam_step(state, [("theta", p)], cfg)

    def test_quadratic_descends_monotonically(self):
        # independent scalar oracle: minimize 0.5 * theta^2, gradient theta
        cfg = TrainConfig(lr=0.05)
        p = self._scalar_param(1.0)
        state = AdamState([("theta", p)])
        trajectory = [float(p.data)]
        for _ in range(10):
            p.grad = p.data.copy()
            adam_step(state, [("theta", p)], cfg)
            trajectory.append(float(p.data))
        assert all(b < a for a, b in zip(trajectory, trajectory[1:]))

    def test_l2_pulls_weights_but_not_exempt_params(self):
        cfg = TrainConfig(lr=1e-2)
        w = ad.Parameter(np.asarray(2.0, dtype=np.float32), name="w")
        b = ad.Parameter(np.asarray(2.0, dtype=np.float32), name="b",
                         weight_decay=False)
        w.grad = np.asarray(0.0, dtype=np.float32)
        b.grad = np.asarray(0.0, dtype=np.float32)
        named = [("w", w), ("b", b)]
        adam_step(AdamState(named), named, cfg, l2=0.1)
        assert float(w.data) < 2.0
        assert float(b.data) == 2.0

    def test_in_place_update_equals_the_textbook_expressions(self):
        # the float64 update written out as expressions, step after step;
        # the in-place one must agree to the bit
        cfg = TrainConfig(lr=3e-3)
        rng = np.random.default_rng(4)
        w = ad.Parameter(rng.normal(size=(5, 3)), name="w")
        b = ad.Parameter(rng.normal(size=3), name="b", weight_decay=False)
        named = [("w", w), ("b", b)]
        state = AdamState(named)
        ref = {n: p.data.copy() for n, p in named}
        m = {n: np.zeros_like(p.data) for n, p in named}
        v = {n: np.zeros_like(p.data) for n, p in named}
        for t in range(1, 4):
            for n, p in named:
                p.grad = rng.normal(size=p.data.shape).astype(np.float32)
                g = p.grad.astype(np.float64)
                if p.weight_decay:
                    g = g + 0.01 * ref[n].astype(np.float64)
                m64 = BETA1 * m[n].astype(np.float64) + (1.0 - BETA1) * g
                v64 = BETA2 * v[n].astype(np.float64) + (1.0 - BETA2) * g * g
                m[n], v[n] = m64.astype(np.float32), v64.astype(np.float32)
                update = cfg.lr * (m64 / (1.0 - BETA1 ** t)) / (
                    np.sqrt(v64 / (1.0 - BETA2 ** t)) + EPS)
                ref[n] = ref[n] - update.astype(np.float32)
            adam_step(state, named, cfg, l2=0.01)
            for n, p in named:
                assert p.data.tobytes() == ref[n].tobytes()
                assert state.m[n].tobytes() == m[n].tobytes()
                assert state.v[n].tobytes() == v[n].tobytes()

    def test_step_touches_exactly_grad_bearing_params(self):
        _, vocab, pv, feats = featurized_synthetic(6)
        mcfg, params = small_model(vocab, pv)
        named = params.named_parameters()
        params.zero_grads()
        with ad.Tape() as tape:
            loss = tr._batch_loss(params, mcfg, feats[:1], None)
        tape.backward(loss)
        before = {n: p.data.copy() for n, p in named}
        nonzero = {n for n, p in named
                   if p.grad is not None and np.any(p.grad)}
        adam_step(AdamState(named), named, TrainConfig(), l2=0.0)
        changed = {n for n, p in named if not np.array_equal(p.data, before[n])}
        assert changed == nonzero


class TestSelectEpoch:
    def _log(self, f1s):
        return [EpochRecord(i, 1.0, 0.0, 0.0, f) for i, f in enumerate(f1s)]

    def test_argmax(self):
        assert select_epoch(self._log([0.1, 0.5, 0.3])) == 1

    def test_ties_take_earliest(self):
        assert select_epoch(self._log([0.4, 0.4, 0.4])) == 0

    def test_single_epoch(self):
        assert select_epoch(self._log([0.2])) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_epoch([])


class TestPadding:
    def test_padded_loss_equals_unpadded(self):
        _, vocab, pv, feats = featurized_synthetic(4)
        mcfg, params = small_model(vocab, pv, variant="joint")
        f, longer = sorted(feats, key=lambda g: g.length)[::len(feats) - 1]
        assert longer.length > f.length  # f's column of the batch is padded
        plain, _ = scores(params, mcfg, collate([f]))
        padded, _ = scores(params, mcfg, collate([f, longer]))
        a = softmax_cross_entropy(plain, [f.label]).item()
        b = softmax_cross_entropy(ad.Tensor(padded.data[:1]), [f.label]).item()
        assert abs(a - b) < 1e-6


class TestTapeSize:
    def test_records_per_batch_independent_of_size_and_length(self):
        vocab = build_vocab([["DRUG-A", "w", "DRUG-B"]])
        pv = PositionVocab(10)
        mcfg, params = small_model(vocab, pv, variant="joint", keep_prob=0.7)
        sizes = set()
        for batch_size in (2, 8):
            for length in (3, 9):
                tokens = ["DRUG-A"] + ["w"] * (length - 2) + ["DRUG-B"]
                batch = featurize([raw_instance(tokens, 0, length - 1, i % 5)
                                   for i in range(batch_size)], vocab, pv)
                with ad.Tape() as tape:
                    tr._batch_loss(params, mcfg, batch, named_stream(0, "dropout"))
                sizes.add(len(tape))
        assert len(sizes) == 1, sizes


    @pytest.mark.parametrize("variant, records", [
        ("b-lstm", 5), ("ab-lstm", 5), ("joint", 7)])
    def test_records_per_variant(self, variant, records):
        # embed, one per stack, one per pooling, output layer, loss; at each
        # variant's default keep_prob
        vocab = build_vocab([["DRUG-A", "w", "DRUG-B"]])
        pv = PositionVocab(10)
        mcfg = default_config(variant)
        params = build_model(mcfg, len(vocab), len(pv))
        batch = featurize([raw_instance(["DRUG-A", "w", "DRUG-B"], 0, 2, 1)],
                          vocab, pv)
        with ad.Tape() as tape:
            tr._batch_loss(params, mcfg, batch, named_stream(0, "dropout"))
        assert len(tape) == records


class TestGradientBuffers:
    """Each input's gradient is adopted without a copy, so no backward may
    return the output gradient, or two gradients that share a buffer."""

    @pytest.mark.parametrize("variant", ["b-lstm", "ab-lstm", "joint"])
    def test_no_gradient_shares_memory(self, variant):
        _, vocab, pv, feats = featurized_synthetic(6)
        mcfg, params = small_model(vocab, pv, variant=variant, keep_prob=0.7)
        shared = []

        def checked(backward):
            def wrapper(g):
                grads = backward(g)
                arrays = [d for d in grads if d is not None]
                for k, d in enumerate(arrays):
                    if any(np.shares_memory(d, e) for e in (g, *arrays[:k])):
                        shared.append((backward.__qualname__, k))
                return grads
            return wrapper

        with ad.Tape() as tape:
            loss = tr._batch_loss(params, mcfg, feats, named_stream(0, "dropout"))
        for record in tape._records:
            record.backward = checked(record.backward)
        tape.backward(loss)
        assert not shared
        assert all(p.grad is not None for _, p in params.named_parameters())


class TestStepMemory:
    """What a training step keeps, traced on a fixed packed batch.

    After the forward the tape should hold little more than the floor:
    per stack, each direction's gate activations (T, 4N) and cell states
    (T, N) and the (T, 2N) output, plus the (T, d) embeddings. The
    backward may add at most two (T, 2N) buffers on top of that.
    """

    HIDDEN, LENGTHS = 48, [60, 50, 40, 30, 20] * 10

    @pytest.mark.parametrize("variant", ["b-lstm", "ab-lstm", "joint"])
    def test_forward_holds_the_floor_and_backward_two_buffers(self, variant):
        mcfg = ModelConfig(variant=variant, hidden=self.HIDDEN, word_dim=24,
                           pos_dim=4, keep_prob=0.7)
        params = build_model(mcfg, 40, 22, seed=1)
        rng = np.random.default_rng(0)
        batch = [InstanceFeatures(rng.integers(0, 40, m), rng.integers(0, 22, m),
                                  rng.integers(0, 22, m), k % 5)
                 for k, m in enumerate(self.LENGTHS)]
        t, n, stacks = sum(self.LENGTHS), self.HIDDEN, len(params.stacks)
        floor = 4 * t * (stacks * (2 * (4 * n + n) + 2 * n) + mcfg.input_dim)
        buffer = 4 * t * 2 * n
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with ad.Tape() as tape:
                loss = tr._batch_loss(params, mcfg, batch, named_stream(0, "dropout"))
            held = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert held <= 1.1 * floor, f"forward holds {held / floor:.2f} x the floor"
        assert peak <= 1.1 * floor + 2 * buffer, (
            f"backward peaks {(peak - floor) / buffer:.2f} buffers above the floor")


class TestTrain:
    def test_loss_decreases_without_regularization(self):
        _, vocab, pv, feats = featurized_synthetic(10)
        mcfg, params = small_model(vocab, pv)
        cfg = TrainConfig(lr=5e-3, batch_size=10, max_epochs=5, seed=1,
                          val_fraction=0.0)
        result = train(params, feats, cfg, mcfg)
        losses = [r.train_loss for r in result.log]
        assert losses[-1] < losses[0]

    def test_same_seed_same_trajectory(self):
        _, vocab, pv, feats = featurized_synthetic(12)
        cfg = TrainConfig(lr=1e-3, batch_size=4, max_epochs=3, seed=9,
                          val_fraction=0.25)
        mcfg1, params1 = small_model(vocab, pv, keep_prob=0.7, seed=2)
        mcfg2, params2 = small_model(vocab, pv, keep_prob=0.7, seed=2)
        log1 = train(params1, feats, cfg, mcfg1).log
        log2 = train(params2, feats, cfg, mcfg2).log
        assert log1 == log2
        for (n1, p1), (n2, p2) in zip(params1.named_parameters(),
                                      params2.named_parameters()):
            assert n1 == n2
            assert p1.data.tobytes() == p2.data.tobytes()

    def test_reported_loss_excludes_l2_penalty(self):
        _, vocab, pv, feats = featurized_synthetic(8)
        cfg = TrainConfig(lr=1e-3, batch_size=8, max_epochs=1, seed=4,
                          val_fraction=0.0)
        mcfg_plain, params_plain = small_model(vocab, pv, l2=0.0, seed=6)
        mcfg_l2, params_l2 = small_model(vocab, pv, l2=10.0, seed=6)
        plain = train(params_plain, feats, cfg, mcfg_plain).log[0].train_loss
        heavy = train(params_l2, feats, cfg, mcfg_l2).log[0].train_loss
        # one batch, loss recorded before the update: penalty never appears
        assert plain == pytest.approx(heavy, abs=1e-7)

    def test_returns_best_heldout_epoch_params(self):
        _, vocab, pv, feats = featurized_synthetic(20)
        mcfg, params = small_model(vocab, pv)
        cfg = TrainConfig(lr=5e-3, batch_size=5, max_epochs=6, seed=2,
                          val_fraction=0.2)
        result = train(params, feats, cfg, mcfg)
        assert result.best_epoch == select_epoch(result.log)

    def test_empty_data_rejected(self):
        _, vocab, pv, _ = featurized_synthetic(4)
        mcfg, params = small_model(vocab, pv)
        with pytest.raises(ValueError):
            train(params, [], TrainConfig(), mcfg)

    def test_nonfinite_loss_aborts_with_location(self):
        """A real divergence: the first Adam step at lr 1e300 overflows
        float32, and the run ends naming the epoch, the batch and the
        parameter."""
        _, vocab, pv, feats = featurized_synthetic(4)
        mcfg, params = small_model(vocab, pv)
        with np.errstate(over="ignore"), pytest.raises(TrainingDiverged) as caught:
            train(params, feats, TrainConfig(lr=1e300, max_epochs=1, val_fraction=0.0),
                  mcfg)
        assert re.match(r"epoch 0, batch at 0: non-finite values in parameter embed\.word$",
                        str(caught.value)), caught.value
        assert isinstance(caught.value, ad.NonFiniteError)

    def test_log_roundtrip(self, tmp_path):
        log = [EpochRecord(0, 1.25, 0.5, 0.25, 0.333),
               EpochRecord(1, 0.75, 0.6, 0.5, 0.545)]
        path = tmp_path / "log.jsonl"
        write_json_lines(path, map(asdict, log))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [EpochRecord(**json.loads(line)) for line in lines] == log
