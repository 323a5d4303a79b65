"""Vocabularies, distance features, vector loading, embedding lookup."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import check_grads, featurize_one, raw_instance, weighted_sum
from ddilstm import autodiff as ad
from ddilstm.features import (
    UNK_ID,
    Batch,
    InstanceFeatures,
    PositionVocab,
    build_vocab,
    collate,
    embed,
    featurize,
    load_word_vectors,
    random_table,
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
        vocab = build_vocab([["a", "b"]])
        assert vocab.lookup("<unk>") == UNK_ID == 0
        assert vocab.lookup("a") == 1 and vocab.lookup("b") == 2
        assert vocab.tokens() == ["<unk>", "a", "b"] and len(vocab) == 3

    def test_pad_token_is_an_ordinary_word(self):
        # no id is reserved for padding, so a literal <pad> gets its own
        vocab = build_vocab([["a", "<pad>"], ["<pad>"]], min_count=2)
        assert vocab.tokens() == ["<unk>", "<pad>"]
        f = featurize_one(["<pad>", "a", "<pad>"], 0, 2, 4, vocab, PositionVocab(3))
        assert f.word_ids.tolist() == [1, UNK_ID, 1]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "<unk>", "<pad>"]),
                             min_size=1, max_size=6), min_size=1, max_size=5),
           st.integers(1, 3))
    def test_every_id_is_reachable(self, sentences, min_count):
        vocab = build_vocab(sentences, min_count=min_count)
        reached = {UNK_ID} | {vocab.lookup(t) for s in sentences for t in s}
        assert reached == set(range(len(vocab)))

    def test_ids_dense_and_reversible(self):
        vocab = build_vocab([["c", "b", "a", "b"]])
        for i in range(len(vocab)):
            assert vocab.lookup(vocab.tokens()[i]) == i

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([])


class TestPositionVocab:
    def test_zero_distance_fixed_id(self):
        pv = PositionVocab(5)
        assert pv.id_for(0) == pv.radius == 5
        assert pv.id_for(-5) == 0 and pv.id_for(5) == 10

    def test_clamping(self):
        pv = PositionVocab(50)
        assert pv.id_for(100) == pv.id_for(50)
        assert pv.id_for(-100) == pv.id_for(-50)
        assert pv.id_for(49) != pv.id_for(50)

    def test_size_covers_range(self):
        pv = PositionVocab(3)
        ids = {pv.id_for(d) for d in range(-3, 4)}
        assert ids == set(range(7)) and len(pv) == 7

    @pytest.mark.parametrize("radius", [1, 2, 7, 50])
    def test_every_id_is_reachable(self, radius):
        pv = PositionVocab(radius)
        reached = {int(pv.id_for(d)) for d in range(-radius - 1, radius + 2)}
        assert reached == set(range(len(pv)))


class TestFeaturize:
    def _vocab(self):
        return build_vocab([["DRUG-A", "and", "DRUG-B", "w"]])

    def test_distances_around_both_drugs(self):
        pv = PositionVocab(50)
        f = featurize_one(["DRUG-A", "and", "DRUG-B"], 0, 2, 4, self._vocab(), pv)
        assert f.p1_ids.tolist() == [pv.id_for(0), pv.id_for(1), pv.id_for(2)]
        assert f.p2_ids.tolist() == [pv.id_for(-2), pv.id_for(-1), pv.id_for(0)]

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            featurize_one(["DRUG-A", "x"], 0, 0, 4, self._vocab(), PositionVocab(5))

    def test_index_order_enforced(self):
        with pytest.raises(ValueError):
            featurize_one(["a", "b", "c"], 2, 1, 4, self._vocab(), PositionVocab(5))

    def test_clamped_distance(self):
        pv = PositionVocab(50)
        tokens = ["DRUG-A"] + ["w"] * 99 + ["DRUG-B"]
        f = featurize_one(tokens, 0, 100, 4, self._vocab(), pv)
        assert f.p1_ids[-1] == pv.id_for(50)

    def test_exactly_one_zero_per_channel(self):
        pv = PositionVocab(8)
        f = featurize_one(["w", "DRUG-A", "w", "DRUG-B", "w"], 1, 3, 0,
                          self._vocab(), pv)
        assert f.p1_ids.tolist().count(pv.id_for(0)) == 1
        assert f.p2_ids.tolist().count(pv.id_for(0)) == 1

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_translation_consistent(self, shift, data):
        m = data.draw(st.integers(2, 12))
        a = data.draw(st.integers(0, m - 2))
        b = data.draw(st.integers(a + 1, m - 1))
        vocab = self._vocab()
        pv = PositionVocab(4)
        base = featurize_one(["w"] * m, a, b, 4, vocab, pv)
        moved = featurize_one(["w"] * (m + shift), a + shift, b + shift, 4, vocab, pv)
        assert moved.p1_ids[shift:].tolist() == base.p1_ids.tolist()
        assert moved.p2_ids[shift:].tolist() == base.p2_ids.tolist()


# twelve word types; each file's vocabulary knows only some of them
WORDS = [f"w{i}" for i in range(12)]


@st.composite
def instance_files(draw):
    """1-8 instances of 2-150 tokens, drugs anywhere in order."""
    out = []
    for k in range(draw(st.integers(1, 8))):
        m = draw(st.integers(2, 150))
        a = draw(st.integers(0, m - 2))
        b = draw(st.integers(a + 1, m - 1))
        tokens = draw(st.lists(st.sampled_from(WORDS), min_size=m, max_size=m))
        out.append(raw_instance(tokens, a, b, label=k % 5, pair_id=f"t.s{k}.p0"))
    return out


def reference_ids(inst, vocab, pv):
    """Per-token word and distance ids of one instance."""
    return ([vocab.lookup(t) for t in inst.tokens],
            [pv.id_for(i - inst.drug_a) for i in range(len(inst.tokens))],
            [pv.id_for(i - inst.drug_b) for i in range(len(inst.tokens))])


class TestFeaturizeFile:
    @given(instance_files(), st.sets(st.sampled_from(WORDS)), st.integers(1, 60))
    @example([raw_instance(["w0"] * 150, 0, 149), raw_instance(["w11", "w1"], 0, 1)],
             {"w0"}, 1)
    @settings(max_examples=60, deadline=None)
    def test_equals_per_token_reference(self, instances, known, radius):
        vocab = build_vocab([sorted(known)])
        pv = PositionVocab(radius)
        feats = featurize(instances, vocab, pv)
        assert len(feats) == len(instances)
        for inst, f in zip(instances, feats):
            # each instance gets exactly its own slice of the flat arrays
            assert f.length == len(inst.tokens)
            words, p1, p2 = reference_ids(inst, vocab, pv)
            assert f.word_ids.tolist() == words
            assert f.p1_ids.tolist() == p1
            assert f.p2_ids.tolist() == p2
            assert f.label == inst.label

    @given(instance_files(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_each_result_fits_its_instance(self, instances, data):
        """What InstanceFeatures no longer checks, `featurize` holds: three
        id arrays of the instance's length, at least 2, and its label; and
        `collate` of any subset, in any order, joins those ids."""
        feats = featurize(instances, build_vocab([WORDS[::2]]), PositionVocab(5))
        for inst, f in zip(instances, feats, strict=True):
            assert len(f.word_ids) == len(f.p1_ids) == len(f.p2_ids) == len(inst.tokens) >= 2
            assert f.length == len(inst.tokens)
            assert f.label == inst.label
        picked = data.draw(st.lists(st.sampled_from(range(len(feats))), min_size=1,
                                    unique=True))
        batch = collate([feats[k] for k in picked])
        for name in ("word_ids", "p1_ids", "p2_ids"):
            np.testing.assert_array_equal(
                getattr(batch, name), np.concatenate([getattr(feats[k], name) for k in picked]))
        assert batch.lengths.tolist() == [len(instances[k].tokens) for k in picked]
        assert batch.labels.tolist() == [instances[k].label for k in picked]

    def test_empty_file(self):
        assert featurize([], build_vocab([["a"]]), PositionVocab(3)) == []

    @pytest.mark.parametrize("a, b", [(2, 2), (3, 1), (-1, 2), (0, 4)])
    def test_bad_drug_indices_name_the_instance(self, a, b):
        vocab = build_vocab([["w"]])
        instances = [raw_instance(["w"] * 4, 0, 3, pair_id=f"t.s{k}.p0")
                     for k in range(5)]
        instances[3] = raw_instance(["w"] * 4, a, b, pair_id="t.s3.p0")
        with pytest.raises(ValueError, match=rf"t\.s3\.p0: drug indices "
                                             rf"\({a}, {b}\) invalid for length 4"):
            featurize(instances, vocab, PositionVocab(3))


class TestCollate:
    def test_instances_packed_end_to_end_in_order(self):
        vocab = build_vocab([["a", "b", "c"]])
        pv = PositionVocab(3)
        short = featurize_one(["a", "b"], 0, 1, 2, vocab, pv)
        long = featurize_one(["c", "a", "b"], 0, 2, 4, vocab, pv)
        batch = collate([long, short, long])
        assert batch.lengths.tolist() == [3, 2, 3]
        for name in ("word_ids", "p1_ids", "p2_ids"):
            ids = [getattr(f, name).tolist() for f in (long, short, long)]
            assert getattr(batch, name).tolist() == ids[0] + ids[1] + ids[2]
        assert batch.word_ids.size == batch.lengths.sum()
        assert batch.labels.tolist() == [4, 2, 4]

    def test_array_backed_equals_list_backed(self):
        vocab = build_vocab([["a", "b", "c"]])
        feats = featurize([raw_instance(["a", "b"], 0, 1, 2),
                           raw_instance(["c", "x", "a", "b"], 1, 3, 4)],
                          vocab, PositionVocab(2))
        listed = [InstanceFeatures(f.word_ids.tolist(), f.p1_ids.tolist(),
                                   f.p2_ids.tolist(), f.label) for f in feats]
        from_arrays, from_lists = collate(feats), collate(listed)
        for name in ("word_ids", "p1_ids", "p2_ids"):
            got = getattr(from_arrays, name)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, getattr(from_lists, name))
        np.testing.assert_array_equal(from_arrays.lengths, from_lists.lengths)
        np.testing.assert_array_equal(from_arrays.labels, from_lists.labels)

    def test_padded_or_empty_input_rejected(self):
        # an instance carries no mask, and a batch holds no padding
        with pytest.raises(TypeError):
            InstanceFeatures([2, 0], [1, 0], [1, 0], 4,
                             mask=[True, False])
        with pytest.raises(ValueError):
            collate([])


class TestWordVectors:
    def test_copies_known_rows(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("drug 0.1 0.2\nother 0.9 0.9\n")
        vocab = build_vocab([["drug"]])
        emb = load_word_vectors(path, vocab, 2, np.random.default_rng(0))
        np.testing.assert_allclose(emb.data[vocab.lookup("drug")],
                                   [0.1, 0.2], atol=1e-7)

    def test_missing_token_rows_seeded(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("drug 0.1 0.2\n")
        vocab = build_vocab([["drug", "novel"]])
        a = load_word_vectors(path, vocab, 2, np.random.default_rng(5))
        b = load_word_vectors(path, vocab, 2, np.random.default_rng(5))
        row = a.data[vocab.lookup("novel")]
        np.testing.assert_array_equal(row, b.data[vocab.lookup("novel")])
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


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e39"])
    def test_non_finite_float_names_the_line(self, tmp_path, value):
        # 1e39 is finite in float64 but overflows the float32 table
        path = tmp_path / "vecs.txt"
        path.write_text(f"fine 0.1 0.2\ndrug 0.1 {value}\n")
        vocab = build_vocab([["drug", "fine"]])
        with pytest.raises(ValueError, match=r"vecs\.txt:2: non-finite float"):
            load_word_vectors(path, vocab, 2, np.random.default_rng(0))

    @pytest.mark.parametrize("space", ["\u00a0", "\u2028", "\x85", "\x1c", "\v", "\f"])
    def test_line_of_other_whitespace_has_no_fields(self, tmp_path, space):
        """Only spaces, tabs, CR and LF make a blank line."""
        path = tmp_path / "vecs.txt"
        path.write_text(f"drug 0.1 0.2\n \t\n{space}\n", encoding="utf-8")
        vocab = build_vocab([["drug"]])
        with pytest.raises(ValueError, match=r"^\S*vecs\.txt:3: expected 2 floats, got 0$"):
            load_word_vectors(path, vocab, 2, np.random.default_rng(0))

    def test_repeated_vocabulary_token_names_both_lines(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("aspirin 1 2\ndose 3 4\naspirin 5 6\n")
        vocab = build_vocab([["aspirin", "dose"]])
        with pytest.raises(ValueError, match=r"^\S*vecs\.txt:3: 'aspirin' repeats line 1$"):
            load_word_vectors(path, vocab, 2, np.random.default_rng(0))

    def test_unk_row_is_read_like_a_word(self, tmp_path):
        """A file's `<unk>` row fills row 0; a second one is refused."""
        path = tmp_path / "vecs.txt"
        path.write_text("<unk> 1 2\n")
        vocab = build_vocab([["drug"]])
        emb = load_word_vectors(path, vocab, 2, np.random.default_rng(0))
        np.testing.assert_array_equal(emb.data[UNK_ID], [1, 2])
        path.write_text("<unk> 1 2\ndrug 3 4\n<unk> 5 6\n")
        with pytest.raises(ValueError, match=r"^\S*vecs\.txt:3: '<unk>' repeats line 1$"):
            load_word_vectors(path, vocab, 2, np.random.default_rng(0))

    def test_repeated_token_outside_the_vocabulary_is_skipped(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("rare 1 2\ndrug 3 4\nrare 5 6\n")
        vocab = build_vocab([["drug"]])
        emb = load_word_vectors(path, vocab, 2, np.random.default_rng(0))
        np.testing.assert_array_equal(emb.data[vocab.lookup("drug")], [3, 4])


class TestFrozenEmbeddings:
    def test_frozen_matrix_gets_no_gradient(self):
        vocab = build_vocab([["a", "b"]])
        rng = np.random.default_rng(0)
        frozen = random_table(len(vocab), 3, rng, "embed.word")
        frozen.requires_grad = False
        f = featurize_one(["a", "b"], 0, 1, 4, vocab, PositionVocab(2))
        live1 = random_table(len(PositionVocab(2)), 2, rng, "embed.p1")
        live2 = random_table(len(PositionVocab(2)), 2, rng, "embed.p2")
        with ad.Tape() as tape:
            x = embed(collate([f]), frozen, live1, live2)
            loss = weighted_sum(x, np.ones(x.shape))
        tape.backward(loss)
        assert frozen.grad is None
        assert live1.grad is not None


class TestEmbed:
    def _setup(self, n1=2, n2=1, n3=1):
        vocab = build_vocab([["a", "b"]])
        pv = PositionVocab(2)
        rng = np.random.default_rng(0)
        mw = random_table(len(vocab), n1, rng, "embed.word")
        mp1 = random_table(len(pv), n2, rng, "embed.p1")
        mp2 = random_table(len(pv), n3, rng, "embed.p2")
        return vocab, pv, mw, mp1, mp2

    def test_zero_rows_give_zero_vector(self):
        vocab, pv, mw, mp1, mp2 = self._setup()
        for m in (mw, mp1, mp2):
            m.data[...] = 0.0
        f = featurize_one(["a", "b"], 0, 1, 4, vocab, pv)
        out = embed(collate([f]), mw, mp1, mp2)
        assert out.shape == (2, 4)
        assert not out.data.any()

    def test_rows_concatenate_in_order(self):
        vocab, pv, mw, mp1, mp2 = self._setup()
        f = featurize_one(["a", "b"], 0, 1, 4, vocab, pv)
        mw.data[f.word_ids[0]] = [1.0, 2.0]
        mp1.data[f.p1_ids[0]] = [3.0]
        mp2.data[f.p2_ids[0]] = [4.0]
        out = embed(collate([f]), mw, mp1, mp2)
        np.testing.assert_array_equal(out.data[0], [1.0, 2.0, 3.0, 4.0])

    def test_rows_gather_and_scatter(self, float64_mode):
        vocab, pv, mw, mp1, mp2 = self._setup()
        mw.data[...] = np.arange(6.0).reshape(3, 2)
        batch = Batch(np.array([1, 1, 2]), np.array([0, 0, 0]), np.array([0, 0, 0]),
                      np.array([3]), np.array([0]))
        with ad.Tape() as tape:
            picked = embed(batch, mw, mp1, mp2)
            weights = np.zeros((3, 4))
            weights[0, :2] = 1.0
            loss = weighted_sum(picked, weights)
        np.testing.assert_array_equal(picked.data[:, :2], mw.data[[1, 1, 2]])
        tape.backward(loss)
        # row 1 used twice but only the first output row contributes
        assert mw.grad[1].sum() == 2.0 and not mw.grad[2].any()

    @pytest.mark.parametrize("table", ["word", "p1", "p2"])
    def test_rows_out_of_range(self, table):
        vocab, pv, mw, mp1, mp2 = self._setup()
        f = featurize_one(["a", "b"], 0, 1, 4, vocab, pv)
        batch = collate([f])
        size = {"word": len(vocab), "p1": len(pv), "p2": len(pv)}[table]
        getattr(batch, f"{table}_ids")[1] = size
        with pytest.raises(ValueError,
                           match=rf"^embed\.{table}: id out of range \[0, {size}\)$"):
            embed(batch, mw, mp1, mp2)

    def test_instance_alone_matches_its_batch_rows(self):
        """An instance's rows are the same alone as packed among others."""
        vocab, pv, mw, mp1, mp2 = self._setup()
        feats = [featurize_one(tokens, 0, len(tokens) - 1, 0, vocab, pv)
                 for tokens in (["a", "b", "a"], ["b", "c"], ["c", "a", "b", "b"])]
        batch = embed(collate(feats), mw, mp1, mp2).data
        start = 0
        for f in feats:
            alone = embed(collate([f]), mw, mp1, mp2).data
            np.testing.assert_array_equal(batch[start:start + f.length], alone)
            start += f.length
        assert start == len(batch)

    def test_gradient_hits_only_looked_up_rows(self, float64_mode):
        vocab, pv, mw, mp1, mp2 = self._setup()
        f = featurize_one(["a", "b", "a"], 0, 1, 4, vocab, pv)
        weights = np.random.default_rng(1).normal(size=(3, 4))

        def loss():
            return weighted_sum(embed(collate([f]), mw, mp1, mp2), weights)

        check_grads(loss, [mw, mp1, mp2])
        with ad.Tape() as tape:
            value = loss()
        tape.backward(value)
        used = set(f.word_ids)
        for i in range(len(vocab)):
            touched = bool(np.any(mw.grad[i]))
            assert touched == (i in used)
