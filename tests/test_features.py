"""Vocabularies, distance features, vector loading, embedding lookup."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_grads
from ddilstm import autodiff as ad
from ddilstm.features import (
    PAD_ID,
    UNK_ID,
    EmbeddingMatrix,
    PositionVocab,
    Vocabulary,
    build_vocab,
    collate,
    embed,
    featurize,
    load_word_vectors,
)


class TestVocabulary:
    def test_min_count_threshold(self):
        vocab = build_vocab([["a", "a", "b"]], min_count=2)
        assert "a" in vocab and "b" not in vocab
        assert vocab.lookup("b") == UNK_ID

    def test_min_count_one_keeps_everything(self):
        vocab = build_vocab([["x", "y"], ["z"]], min_count=1)
        assert all(t in vocab for t in "xyz")

    def test_reserved_ids(self):
        vocab = build_vocab([["a"]])
        assert vocab.lookup("<pad>") == PAD_ID == 0
        assert vocab.lookup("<unk>") == UNK_ID == 1
        assert vocab.lookup("a") == 2

    def test_ids_dense_and_reversible(self):
        vocab = build_vocab([["c", "b", "a", "b"]])
        for i in range(len(vocab)):
            assert vocab.lookup(vocab.token(i)) == i

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([])


class TestPositionVocab:
    def test_zero_distance_fixed_id(self):
        pv = PositionVocab(5)
        assert pv.id_for(0) == pv.zero_id

    def test_clamping(self):
        pv = PositionVocab(50)
        assert pv.id_for(100) == pv.id_for(50)
        assert pv.id_for(-100) == pv.id_for(-50)
        assert pv.id_for(49) != pv.id_for(50)

    def test_size_covers_range_plus_pad(self):
        pv = PositionVocab(3)
        ids = {pv.id_for(d) for d in range(-3, 4)}
        assert len(ids) == 7 and PAD_ID not in ids
        assert len(pv) == 8


class TestFeaturize:
    def _vocab(self):
        return build_vocab([["DRUG-A", "and", "DRUG-B", "w"]])

    def test_distances_around_both_drugs(self):
        pv = PositionVocab(50)
        f = featurize(["DRUG-A", "and", "DRUG-B"], 0, 2, 4, self._vocab(), pv)
        assert f.p1_ids == [pv.id_for(0), pv.id_for(1), pv.id_for(2)]
        assert f.p2_ids == [pv.id_for(-2), pv.id_for(-1), pv.id_for(0)]

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            featurize(["DRUG-A", "x"], 0, 0, 4, self._vocab(), PositionVocab(5))

    def test_index_order_enforced(self):
        with pytest.raises(ValueError):
            featurize(["a", "b", "c"], 2, 1, 4, self._vocab(), PositionVocab(5))

    def test_clamped_distance(self):
        pv = PositionVocab(50)
        tokens = ["DRUG-A"] + ["w"] * 99 + ["DRUG-B"]
        f = featurize(tokens, 0, 100, 4, self._vocab(), pv)
        assert f.p1_ids[-1] == pv.id_for(50)

    def test_exactly_one_zero_per_channel(self):
        pv = PositionVocab(8)
        f = featurize(["w", "DRUG-A", "w", "DRUG-B", "w"], 1, 3, 0,
                      self._vocab(), pv)
        assert f.p1_ids.count(pv.zero_id) == 1
        assert f.p2_ids.count(pv.zero_id) == 1

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_translation_consistent(self, shift, data):
        m = data.draw(st.integers(2, 12))
        a = data.draw(st.integers(0, m - 2))
        b = data.draw(st.integers(a + 1, m - 1))
        vocab = self._vocab()
        pv = PositionVocab(4)
        base = featurize(["w"] * m, a, b, 4, vocab, pv)
        moved = featurize(["w"] * (m + shift), a + shift, b + shift, 4, vocab, pv)
        assert moved.p1_ids[shift:] == base.p1_ids
        assert moved.p2_ids[shift:] == base.p2_ids


class TestCollate:
    def test_time_major_columns_in_order(self):
        vocab = build_vocab([["a", "b", "c"]])
        pv = PositionVocab(3)
        short = featurize(["a", "b"], 0, 1, 2, vocab, pv)
        long = featurize(["c", "a", "b"], 0, 2, 4, vocab, pv)
        batch = collate([short, long])
        assert batch.word_ids.shape == (3, 2)
        assert batch.word_ids[:, 0].tolist() == short.word_ids + [PAD_ID]
        assert batch.p2_ids[:, 1].tolist() == long.p2_ids
        assert batch.mask.T.tolist() == [[True, True, False], [True, True, True]]
        assert batch.labels.tolist() == [2, 4]

    def test_padded_or_empty_input_rejected(self):
        vocab = build_vocab([["a", "b"]])
        f = featurize(["a", "b"], 0, 1, 4, vocab, PositionVocab(3))
        f.mask = [True, True]
        with pytest.raises(ValueError):
            collate([f])
        with pytest.raises(ValueError):
            collate([])


class TestWordVectors:
    def test_copies_known_rows(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("drug 0.1 0.2\nother 0.9 0.9\n")
        vocab = build_vocab([["drug"]])
        emb = load_word_vectors(path, vocab, 2, np.random.default_rng(0))
        np.testing.assert_allclose(emb.param.data[vocab.lookup("drug")],
                                   [0.1, 0.2], atol=1e-7)

    def test_missing_token_rows_seeded(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("drug 0.1 0.2\n")
        vocab = build_vocab([["drug", "novel"]])
        a = load_word_vectors(path, vocab, 2, np.random.default_rng(5))
        b = load_word_vectors(path, vocab, 2, np.random.default_rng(5))
        row = a.param.data[vocab.lookup("novel")]
        np.testing.assert_array_equal(row, b.param.data[vocab.lookup("novel")])
        assert np.all(np.abs(row) <= 0.05)

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("drug 0.1 0.2 0.3\n")
        vocab = build_vocab([["drug"]])
        with pytest.raises(ValueError):
            load_word_vectors(path, vocab, 2, np.random.default_rng(0))

    def test_garbage_float_names_the_line(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("fine 0.1 0.2\ndrug 0.1 oops\n")
        vocab = build_vocab([["drug", "fine"]])
        with pytest.raises(ValueError, match=":2"):
            load_word_vectors(path, vocab, 2, np.random.default_rng(0))


class TestFrozenEmbeddings:
    def test_frozen_matrix_gets_no_gradient(self):
        vocab = build_vocab([["a", "b"]])
        rng = np.random.default_rng(0)
        frozen = EmbeddingMatrix(
            EmbeddingMatrix.random(len(vocab), 3, rng).param, trainable=False)
        assert frozen.param.requires_grad is False
        f = featurize(["a", "b"], 0, 1, 4, vocab, PositionVocab(2))
        live1 = EmbeddingMatrix.random(len(PositionVocab(2)), 2, rng)
        live2 = EmbeddingMatrix.random(len(PositionVocab(2)), 2, rng)
        with ad.Tape() as tape:
            x = embed(f, frozen, live1, live2)
            loss = ad.pick(ad.matmul(ad.Tensor(np.ones(2)), x), 0)
        tape.backward(loss)
        assert frozen.param.grad is None
        assert live1.param.grad is not None


class TestEmbed:
    def _setup(self, n1=2, n2=1, n3=1):
        vocab = build_vocab([["a", "b"]])
        pv = PositionVocab(2)
        rng = np.random.default_rng(0)
        mw = EmbeddingMatrix.random(len(vocab), n1, rng)
        mp1 = EmbeddingMatrix.random(len(pv), n2, rng)
        mp2 = EmbeddingMatrix.random(len(pv), n3, rng)
        return vocab, pv, mw, mp1, mp2

    def test_zero_rows_give_zero_vector(self):
        vocab, pv, mw, mp1, mp2 = self._setup()
        for m in (mw, mp1, mp2):
            m.param.data[...] = 0.0
        f = featurize(["a", "b"], 0, 1, 4, vocab, pv)
        out = embed(f, mw, mp1, mp2)
        assert out.shape == (2, 4)
        assert not out.data.any()

    def test_rows_concatenate_in_order(self):
        vocab, pv, mw, mp1, mp2 = self._setup()
        f = featurize(["a", "b"], 0, 1, 4, vocab, pv)
        mw.param.data[f.word_ids[0]] = [1.0, 2.0]
        mp1.param.data[f.p1_ids[0]] = [3.0]
        mp2.param.data[f.p2_ids[0]] = [4.0]
        out = embed(f, mw, mp1, mp2)
        np.testing.assert_array_equal(out.data[0], [1.0, 2.0, 3.0, 4.0])

    def test_gradient_hits_only_looked_up_rows(self, float64_mode):
        vocab, pv, mw, mp1, mp2 = self._setup()
        f = featurize(["a", "b", "a"], 0, 1, 4, vocab, pv)

        def loss():
            x = embed(f, mw, mp1, mp2)
            pooled = ad.matmul(ad.Tensor(np.ones(3)), x)
            return ad.pick(ad.softmax_vec(pooled), 0)

        check_grads(loss, [mw.param, mp1.param, mp2.param])
        with ad.Tape() as tape:
            value = loss()
        tape.backward(value)
        used = set(f.word_ids)
        for i in range(len(vocab)):
            touched = bool(np.any(mw.param.grad[i]))
            assert touched == (i in used)
