"""Variant assembly, dropout placement, parameter counts, checkpoints."""

import numpy as np
import pytest

from conftest import featurize_one
from ddilstm import autodiff as ad
from ddilstm.features import (
    PositionVocab,
    build_vocab,
    collate,
    featurize,
)
from ddilstm.model import (
    ModelConfig,
    build_model,
    default_config,
    forward,
    load_checkpoint,
    predict,
    save_checkpoint,
    scores,
)
from ddilstm.pooling import attentive_pool, max_pool
from ddilstm.recurrent import bilstm_forward
from ddilstm.features import embed
from ddilstm.labels import NUM_CLASSES
from ddilstm.rng import named_stream
from ddilstm.synthetic import make_synthetic_instances


def tiny_setup(variant="b-lstm", hidden=4, seed=0):
    vocab = build_vocab([["DRUG-A", "boosts", "DRUG-B", "levels", "slowly"]])
    pv = PositionVocab(6)
    cfg = ModelConfig(variant=variant, hidden=hidden, word_dim=5, pos_dim=2,
                      keep_prob=0.7, l2=0.0)
    params = build_model(cfg, len(vocab), len(pv), seed=seed)
    f = featurize_one(["DRUG-A", "boosts", "DRUG-B", "levels"], 0, 2, 1, vocab, pv)
    return vocab, pv, cfg, params, f


def lstm_count(n, d):
    return 4 * n * d + 4 * n * n + 4 * n + 2 * n


class TestConfig:
    def test_variant_validated(self):
        with pytest.raises(ValueError):
            ModelConfig(variant="cnn")

    def test_keep_prob_range(self):
        with pytest.raises(ValueError):
            ModelConfig(keep_prob=0.0)
        with pytest.raises(ValueError):
            ModelConfig(keep_prob=1.5)

    def test_defaults_per_variant(self):
        assert default_config("b-lstm").hidden == 200
        assert default_config("b-lstm").l2 == pytest.approx(0.001)
        assert default_config("ab-lstm").l2 == pytest.approx(0.0001)
        joint = default_config("joint")
        assert joint.hidden == 150
        assert joint.keep_prob == 1.0  # keep-probability one disables dropout

    def test_pooled_width(self):
        assert ModelConfig(variant="b-lstm", hidden=8).pooled_width == 16
        assert ModelConfig(variant="joint", hidden=8).pooled_width == 32


class TestForward:
    @pytest.mark.parametrize("variant", ["b-lstm", "ab-lstm", "joint"])
    def test_probs_are_a_distribution(self, variant):
        _, _, cfg, params, f = tiny_setup(variant)
        probs, alpha = forward(params, cfg, f)
        assert probs.shape == (5,)
        assert abs(float(probs.data.astype(np.float64).sum()) - 1.0) < 1e-7
        assert (alpha is None) == (variant == "b-lstm")
        if alpha is not None:
            assert alpha.shape == (f.length,)

    def test_zero_weights_uniform_probs(self):
        _, _, cfg, params, f = tiny_setup("b-lstm")
        for _, p in params.named_parameters():
            p.data[...] = 0.0
        probs, _ = forward(params, cfg, f)
        np.testing.assert_allclose(probs.data, [0.2] * 5, atol=1e-7)

    def test_inference_deterministic(self):
        _, _, cfg, params, f = tiny_setup("joint")
        a, _ = forward(params, cfg, f)
        b, _ = forward(params, cfg, f)
        np.testing.assert_array_equal(a.data, b.data)

    def test_keep_prob_one_training_equals_inference(self):
        _, pv, _, _, f = tiny_setup()
        vocab = build_vocab([["DRUG-A", "boosts", "DRUG-B", "levels", "slowly"]])
        cfg = ModelConfig(variant="ab-lstm", hidden=4, word_dim=5, pos_dim=2,
                          keep_prob=1.0, l2=0.0)
        params = build_model(cfg, len(vocab), len(pv), seed=3)
        train_scores, _ = scores(params, cfg, collate([f]), training=True)
        infer_scores, _ = scores(params, cfg, collate([f]), training=False)
        np.testing.assert_array_equal(train_scores.data, infer_scores.data)

    def test_dropout_needs_stream(self):
        _, _, cfg, params, f = tiny_setup()
        with pytest.raises(ValueError):
            scores(params, cfg, collate([f]), training=True)

    def test_dropout_reproducible_from_stream(self):
        _, _, cfg, params, f = tiny_setup()
        a, _ = scores(params, cfg, collate([f]), training=True,
                      dropout_rng=named_stream(5, "dropout"))
        b, _ = scores(params, cfg, collate([f]), training=True,
                      dropout_rng=named_stream(5, "dropout"))
        np.testing.assert_array_equal(a.data, b.data)

    def test_joint_matches_hand_composed_pipeline(self):
        _, _, cfg, params, f = tiny_setup("joint", hidden=3)
        batch = collate([f])
        mask = batch.mask
        X = embed(batch, params.word_emb, params.p1_emb, params.p2_emb)
        z_max = max_pool(bilstm_forward(params.stacks[0], X, mask), mask)
        z_att, _ = attentive_pool(bilstm_forward(params.stacks[1], X, mask),
                                  params.w_a, mask)
        h2 = ad.concat(z_max, z_att)
        h3 = ad.tanh(h2)
        raw = ad.affine(h3, params.W_o, params.b_o)
        expected = ad.softmax(raw.data[0])
        probs, _ = forward(params, cfg, f)
        np.testing.assert_allclose(probs.data, expected, atol=1e-5)

    def test_joint_stacks_share_nothing(self):
        _, _, cfg, params, f = tiny_setup("joint")
        batch = collate([f])
        X = embed(batch, params.word_emb, params.p1_emb, params.p2_emb)
        before = bilstm_forward(params.stacks[1], X, batch.mask).data.copy()
        for p in params.stacks[0].parameters():
            p.data += 0.37
        after = bilstm_forward(params.stacks[1], X, batch.mask).data
        np.testing.assert_array_equal(before, after)


class TestBatch:
    def _mixed(self, variant):
        insts = make_synthetic_instances(7, seed=4)
        vocab = build_vocab([i.tokens for i in insts])
        pv = PositionVocab(10)
        cfg = ModelConfig(variant=variant, hidden=8, word_dim=6, pos_dim=2,
                          keep_prob=0.7, l2=0.0)
        params = build_model(cfg, len(vocab), len(pv), seed=5)
        feats = featurize(insts, vocab, pv)
        assert len({f.length for f in feats}) > 1
        return cfg, params, feats

    @pytest.mark.parametrize("variant", ["b-lstm", "ab-lstm", "joint"])
    def test_instance_alone_matches_its_batch_column(self, variant):
        # float32 tolerance only: a 1-row product goes to GEMV, a batch to GEMM
        cfg, params, feats = self._mixed(variant)
        batch_scores, batch_alpha = scores(params, cfg, collate(feats))
        for b, f in enumerate(feats):
            alone, alpha = scores(params, cfg, collate([f]))
            np.testing.assert_allclose(batch_scores.data[b], alone.data[0],
                                       rtol=1e-5, atol=1e-6)
            if alpha is not None:
                np.testing.assert_allclose(batch_alpha.data[:f.length, b],
                                           alpha.data[:, 0], rtol=1e-5, atol=1e-7)
                assert not batch_alpha.data[f.length:, b].any()

    def test_batch_dropout_draws_instance_order(self):
        cfg, params, feats = self._mixed("ab-lstm")
        batch, _ = scores(params, cfg, collate(feats), training=True,
                          dropout_rng=named_stream(3, "dropout"))
        stream = named_stream(3, "dropout")
        for b, f in enumerate(feats):
            alone, _ = scores(params, cfg, collate([f]), training=True,
                              dropout_rng=stream)
            np.testing.assert_allclose(batch.data[b], alone.data[0],
                                       rtol=1e-5, atol=1e-6)

    def test_predict_matches_per_instance_argmax(self, monkeypatch):
        import ddilstm.model as model_mod

        cfg, params, feats = self._mixed("joint")
        expected = [int(np.argmax(forward(params, cfg, f)[0].data)) for f in feats]
        preds, alphas = predict(params, cfg, feats)
        assert preds == expected
        assert [len(a) for a in alphas] == [f.length for f in feats]
        monkeypatch.setattr(model_mod, "PREDICT_CHUNK", 3)
        assert predict(params, cfg, feats) == (preds, alphas)


class TestParameterCount:
    @pytest.mark.parametrize("variant", ["b-lstm", "ab-lstm", "joint"])
    def test_closed_form(self, variant):
        vocab_size, pos_size = 9, 14
        cfg = ModelConfig(variant=variant, hidden=5, word_dim=6, pos_dim=3)
        params = build_model(cfg, vocab_size, pos_size, seed=0)
        n, d, c = cfg.hidden, cfg.input_dim, NUM_CLASSES
        expected = vocab_size * 6 + 2 * pos_size * 3
        stacks = 2 if variant == "joint" else 1
        expected += stacks * 2 * lstm_count(n, d)
        if variant != "b-lstm":
            expected += 2 * n
        expected += cfg.pooled_width * c + c
        total = sum(p.data.size for _, p in params.named_parameters())
        assert total == expected

    def test_names_are_unique(self):
        _, _, _, params, _ = tiny_setup("joint")
        names = [name for name, _ in params.named_parameters()]
        assert len(names) == len(set(names))


class TestPredictClass:
    """`predict` takes the argmax of the scores; ties go to the lowest id."""

    def _predict_with_scores(self, bias):
        # all-zero weights: the scores are the output bias
        _, _, cfg, params, f = tiny_setup()
        for _, p in params.named_parameters():
            p.data[...] = 0.0
        params.b_o.data[...] = bias
        return predict(params, cfg, [f])[0][0]

    def test_argmax(self):
        assert self._predict_with_scores([0.1, 0.6, 0.1, 0.1, 0.1]) == 1

    def test_uniform_tie_breaks_low(self):
        assert self._predict_with_scores([0.2] * 5) == 0

    def test_one_hot_last(self):
        assert self._predict_with_scores([0.0, 0.0, 0.0, 0.0, 1.0]) == 4


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        vocab, pv, cfg, params, f = tiny_setup("joint")
        before = {name: p.data.copy() for name, p in params.named_parameters()}
        probs_before, _ = forward(params, cfg, f)
        save_checkpoint(tmp_path, params, cfg, vocab, pv)

        loaded, cfg2, vocab2, pv2 = load_checkpoint(tmp_path)
        assert cfg2 == cfg
        assert vocab2.tokens() == vocab.tokens()
        assert pv2.radius == pv.radius
        for name, p in loaded.named_parameters():
            np.testing.assert_array_equal(p.data, before[name])
        probs_after, _ = forward(loaded, cfg2, f)
        assert probs_before.data.tobytes() == probs_after.data.tobytes()

    def test_truncated_blob_rejected(self, tmp_path):
        vocab, pv, cfg, params, _ = tiny_setup()
        save_checkpoint(tmp_path, params, cfg, vocab, pv)
        blob = (tmp_path / "params.bin").read_bytes()
        (tmp_path / "params.bin").write_bytes(blob[:-8])
        with pytest.raises(ValueError):
            load_checkpoint(tmp_path)

    def test_manifest_lists_params_in_order(self, tmp_path):
        import json

        vocab, pv, cfg, params, _ = tiny_setup()
        save_checkpoint(tmp_path, params, cfg, vocab, pv)
        manifest = json.loads((tmp_path / "manifest").read_text())
        listed = [(e["name"], tuple(e["shape"])) for e in manifest["params"]]
        actual = [(n, p.data.shape) for n, p in params.named_parameters()]
        assert listed == actual
        assert manifest["variant"] == cfg.variant
