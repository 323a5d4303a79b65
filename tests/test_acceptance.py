"""The acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. The last criterion (full-corpus scores) is corpus-dependent and
skips unless DDI_CORPUS_TRAIN / DDI_CORPUS_TEST point at the SemEval XML
directories.
"""

import functools
import json
import math
import os
import time

import numpy as np
import pytest

from conftest import EPS as FD_STEP
from conftest import (
    attention_vector,
    batch_of,
    check_grads,
    featurize_one,
    finite_difference,
    head,
    make_synthetic_instances,
    max_rel_error,
    use_dtype,
    weighted_sum,
)
from ddilstm import autodiff as ad
from ddilstm.cli import main
from ddilstm.corpus import generate_instances, parse_corpus, write_instances
from ddilstm.evaluation import evaluate, mcnemar
from ddilstm.features import (
    InstanceFeatures,
    PositionVocab,
    build_vocab,
    collate,
    embed,
    featurize,
)
from ddilstm.filtering import apply_filters, build_report
from ddilstm.model import (
    ModelConfig,
    build_model,
    forward,
    load_checkpoint,
    output_layer,
    predict,
    save_checkpoint,
    scores,
)
from ddilstm.pooling import attentive_pool, max_pool
from ddilstm.recurrent import BiLstmStack, LstmParams, bilstm_forward
from ddilstm.training import (
    EPS,
    AdamState,
    TrainConfig,
    adam_step,
    select_epoch,
    softmax_cross_entropy,
    train,
)
from test_filtering import EXPECTED_REMOVALS, FIXTURE


def criterion(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} ({name}): FAIL")
                raise
            print(f"criterion {number:2d} ({name}): PASS")
            return result

        return run

    return wrap


def fixed_instance(vocab, pv):
    tokens = ["w1", "DRUG-A", "w3", "w4", "DRUG-B", "w5"]
    return featurize_one(tokens, 1, 4, 2, vocab, pv)


def tiny_vocab():
    words = [f"w{i}" for i in range(10)] + ["DRUG-A", "DRUG-B"]
    return build_vocab([words]), PositionVocab(5)


@criterion(1, "gradient correctness")
def test_criterion_01_gradients_vs_finite_differences():
    started = time.perf_counter()
    with use_dtype(np.float64):
        rng = np.random.default_rng(0)

        # every differentiable op, smallest viable graphs, read out through
        # softmax_cross_entropy over five classes; first the output layer
        # over one pooled input and over two, without and with a dropout
        # scale (the two-input weights from their own stream, so that the
        # graphs below draw what they always drew)
        labels = [1, 4, 0]
        a = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        bias = ad.Tensor(rng.normal(size=5), requires_grad=True)
        drop = rng.normal(size=(3, 4))
        m2 = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        joined = np.random.default_rng(1)
        w6 = ad.Tensor(joined.normal(size=(6, 5)), requires_grad=True)
        drop6 = joined.uniform(0.5, 2.0, size=(3, 6))
        for pooled, w_out, scale in (((a,), w, None), ((a,), w, drop),
                                     ((a, m2), w6, None), ((a, m2), w6, drop6)):
            check_grads(lambda: softmax_cross_entropy(
                output_layer(pooled, scale, w_out, bias), labels),
                [*pooled, w_out, bias])
        # the embedding lookup, with a row picked twice
        tables = [ad.Parameter(rng.normal(size=(3, k)), name=f"embed.t{k}")
                  for k in (2, 1, 1)]
        ids = collate([InstanceFeatures([0, 0, 2], [1, 2, 1], [2, 2, 0], 0)])
        check_grads(lambda: head(embed(ids, *tables), labels), tables)

        # packed batches: each sentence's rows follow the previous sentence's
        Z = ad.Tensor(rng.normal(size=(9, 4)), requires_grad=True)
        z_batch = batch_of([3, 5, 1])
        check_grads(lambda: head(max_pool(Z, z_batch), [1, 2, 3]), [Z])
        att = attention_vector(4, rng)
        check_grads(lambda: head(attentive_pool(Z, att, z_batch)[0], [2, 0, 4]),
                    [Z, att])

        # each direction of the stack alone: one half of its output read out
        cells = BiLstmStack(3, 2, rng)
        for p in cells.parameters():
            p.data[...] = rng.uniform(-0.5, 0.5, size=p.data.shape)
        x_in = ad.Tensor(rng.uniform(-1, 1, (8, 2)), requires_grad=True)
        lengths = np.array([4, 1, 3])
        batch = batch_of(lengths)
        for half in (slice(0, 3), slice(3, 6)):
            weights = np.zeros((8, 6))
            weights[:, half] = rng.normal(size=(8, 3))
            check_grads(lambda w=weights: weighted_sum(
                bilstm_forward(cells, x_in, batch), w),
                [x_in, *cells.parameters()])

        # the batched path: mixed lengths with a length-1 sentence, each op once
        stack = BiLstmStack(3, 2, rng)
        for p in stack.parameters():
            p.data[...] = rng.uniform(-0.5, 0.5, size=p.data.shape)
        xb = ad.Tensor(rng.uniform(-1, 1, (8, 2)), requires_grad=True)
        att6 = attention_vector(6, rng)
        w_o = ad.Tensor(rng.normal(size=(12, 5)), requires_grad=True)
        b_o = ad.Tensor(rng.normal(size=5), requires_grad=True)

        def batch_loss():
            H = bilstm_forward(stack, xb, batch)
            pooled = (max_pool(H, batch), attentive_pool(H, att6, batch)[0])
            return softmax_cross_entropy(output_layer(pooled, None, w_o, b_o),
                                         [0, 3, 4])

        # a step of FD_STEP can swap a max-pool winner with a runner-up that
        # close, and the difference then crosses a kink: name it, rather
        # than fail on the relative error it causes
        H = bilstm_forward(stack, xb, batch).data
        for k, rows in enumerate(np.split(H, np.cumsum(lengths)[:-1])):
            top = np.sort(rows, axis=0)[-2:]
            gap = top[-1] - top[0]
            col = int(np.argmin(gap))
            assert len(rows) == 1 or gap[col] > FD_STEP, (
                f"sentence {k}, column {col}: max-pool winner within the "
                f"finite-difference step {FD_STEP} of its runner-up ({gap[col]:.1e})")
        check_grads(batch_loss, [xb, *stack.parameters(), att6, w_o, b_o])

        # full variants on a random 6-token instance, N=8, d=12
        vocab, pv = tiny_vocab()
        feats = fixed_instance(vocab, pv)
        for variant in ("b-lstm", "ab-lstm", "joint"):
            cfg = ModelConfig(variant=variant, hidden=8, word_dim=8,
                              pos_dim=2, keep_prob=1.0, l2=0.0)
            params = build_model(cfg, len(vocab), len(pv), seed=3)
            named = params.named_parameters()
            mix = np.random.default_rng(9)
            for _, p in named:
                p.data[...] = mix.uniform(-0.5, 0.5, size=p.data.shape)
            tensors = [p for _, p in named]
            params.zero_grads()

            def variant_loss():
                s, _ = scores(params, cfg, collate([feats]))
                return softmax_cross_entropy(s, [feats.label])

            with ad.Tape() as tape:
                loss = variant_loss()
            tape.backward(loss)
            analytic = [np.zeros_like(t.data) if t.grad is None else t.grad
                        for t in tensors]

            def loss_value():
                return variant_loss().item()

            numeric = finite_difference(loss_value, tensors)
            worst = max(max_rel_error(g, n)
                        for g, n in zip(analytic, numeric))
            assert worst < 1e-3, f"{variant}: max rel err {worst:.2e}"

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s"


@criterion(2, "oracle equivalence")
def test_criterion_02_straight_line_oracles():
    rng = np.random.default_rng(17)

    # LSTM step against a spelled-out update: the L = 1, B = 1 sequence
    # started from h0 = h_prev and c0 = c_prev
    cell = LstmParams(5, 4, rng)
    for p in cell.parameters():
        p.data[...] = rng.uniform(-0.8, 0.8, size=p.data.shape).astype(np.float32)
    x = rng.uniform(-1, 1, 4).astype(np.float32)
    h_prev = rng.uniform(-1, 1, 5).astype(np.float32)
    c_prev = rng.uniform(-1, 1, 5).astype(np.float32)

    def sig(t):
        return 1.0 / (1.0 + np.exp(-t))

    # the gates' row blocks of the stacked U, W and b, in order i, f, o, g
    bi, bf, bo, bg = (slice(k * 5, (k + 1) * 5) for k in range(4))
    i = sig(cell.U.data[bi] @ x + cell.W.data[bi] @ h_prev + cell.b.data[bi])
    f = sig(cell.U.data[bf] @ x + cell.W.data[bf] @ h_prev + cell.b.data[bf])
    o = sig(cell.U.data[bo] @ x + cell.W.data[bo] @ h_prev + cell.b.data[bo])
    g = np.tanh(cell.U.data[bg] @ x + cell.W.data[bg] @ h_prev + cell.b.data[bg])
    c_ref = c_prev * f + g * i
    h_ref = np.tanh(c_ref) * o
    cell.h0.data[...] = h_prev
    cell.c0.data[...] = c_prev
    stack = BiLstmStack(5, 4, np.random.default_rng(0))
    stack.fwd = cell  # the forward cell's state is the left half
    h_out = bilstm_forward(stack, ad.Tensor(x[None]), batch_of([1]))
    np.testing.assert_allclose(h_out.data[0, :5], h_ref, atol=1e-6)

    # attentive pooling against the three-line definition
    att = attention_vector(6, rng)
    z_rows = rng.uniform(-2, 2, size=(4, 6)).astype(np.float32)
    raw_scores = np.tanh(z_rows) @ att.data
    e = np.exp(raw_scores - raw_scores.max())
    alpha_ref = e / e.sum()
    z_ref = alpha_ref @ z_rows
    z_out, alpha_out = attentive_pool(ad.Tensor(z_rows), att, batch_of([4]))
    np.testing.assert_allclose(alpha_out.data, alpha_ref, atol=1e-6)
    np.testing.assert_allclose(z_out.data[0], z_ref, atol=1e-6)

    # output layer: join, squash, affine, normalize
    pooled = rng.uniform(-1.5, 1.5, (2, 1, 5)).astype(np.float32)
    w_o = rng.uniform(-0.7, 0.7, (10, 5)).astype(np.float32)
    b_o = rng.uniform(-0.1, 0.1, 5).astype(np.float32)
    h3 = np.tanh(np.concatenate(pooled, axis=1))
    raw = h3 @ w_o + b_o
    e = np.exp(raw - raw.max())
    probs_ref = e / e.sum()
    out = output_layer([ad.Tensor(p) for p in pooled], None, ad.Tensor(w_o),
                       ad.Tensor(b_o))
    np.testing.assert_allclose(ad.softmax(out.data[0]), probs_ref[0], atol=1e-6)


@criterion(3, "normalization invariants")
def test_criterion_03_softmax_and_attention_sums():
    rng = np.random.default_rng(23)
    att_width = 6
    att = attention_vector(att_width, np.random.default_rng(5))
    for trial in range(1000):
        if trial % 2 == 0:
            k = int(rng.integers(1, 40))
            probs = ad.softmax(rng.uniform(-30, 30, k).astype(np.float32))
            assert abs(float(probs.sum()) - 1.0) <= 1e-7
        else:
            # a packed batch of one to four sentences of 1-11 tokens
            lengths = rng.integers(1, 12, size=int(rng.integers(1, 5)))
            Z = ad.Tensor(rng.normal(size=(lengths.sum(), att_width))
                          .astype(np.float32))
            _, alpha = attentive_pool(Z, att, batch_of(lengths))
            for weights in np.split(alpha.data.astype(np.float64),
                                    np.cumsum(lengths)[:-1]):
                assert abs(float(weights.sum()) - 1.0) <= 1e-7
    # a sentence of no tokens never reaches the pooling: collate refuses it
    with pytest.raises(ValueError):
        attentive_pool(ad.Tensor(np.ones((2, att_width))), att, batch_of([2, 0]))


@criterion(4, "Adam first step closed form")
def test_criterion_04_adam_first_step():
    cfg = TrainConfig(lr=1e-3)
    for g in (1.0, -1.0, 0.01, -0.01):
        theta = ad.Parameter(np.asarray(0.0, dtype=np.float32), name="theta")
        theta.grad = np.asarray(g, dtype=np.float32)
        state = AdamState([("theta", theta)])
        adam_step(state, [("theta", theta)], cfg)
        expected = -cfg.lr * g / (abs(g) + EPS)
        assert abs(float(theta.data) - expected) <= 1e-9, f"g={g}"


@criterion(5, "overfit smoke test")
def test_criterion_05_overfit_synthetic_corpus():
    instances = make_synthetic_instances(40, seed=7)
    assert len({i.label for i in instances}) == 5
    vocab = build_vocab([i.tokens for i in instances])
    pv = PositionVocab(10)
    feats = featurize(instances, vocab, pv)

    def run(variant, val_fraction, epochs):
        mcfg = ModelConfig(variant=variant, hidden=8, word_dim=8, pos_dim=2,
                           keep_prob=1.0, l2=0.0)
        params = build_model(mcfg, len(vocab), len(pv), seed=11)
        cfg = TrainConfig(lr=0.015, batch_size=8, max_epochs=epochs, seed=11,
                          val_fraction=val_fraction)
        started = time.perf_counter()
        result = train(params, feats, cfg, mcfg)
        elapsed = time.perf_counter() - started
        return result, mcfg, elapsed

    for variant in ("b-lstm", "ab-lstm", "joint"):
        result, mcfg, elapsed = run(variant, 0.0, 60)
        preds, _ = predict(result.params, mcfg, feats)
        correct = sum(p == f.label for p, f in zip(preds, feats))
        assert correct == len(feats), f"{variant}: {correct}/{len(feats)}"
        assert len(result.log) <= 300
        assert elapsed < 60.0, f"{variant} took {elapsed:.1f}s"

    # epoch selection on the held-out 5% picks a perfect epoch
    result, _, _ = run("joint", 0.05, 25)
    best = select_epoch(result.log)
    assert best == result.best_epoch
    assert result.log[best].heldout_f1 == 1.0


@criterion(6, "filtering fixtures")
def test_criterion_06_filter_fixture_exact():
    instances = generate_instances(parse_corpus(FIXTURE))
    decisions = apply_filters(instances)
    got = {inst.pair_id.split(".", 2)[-1]: hit
           for inst, hit in zip(instances, decisions) if hit is not None}
    assert got == EXPECTED_REMOVALS
    assert build_report("test", instances, decisions)["n_removed_positive"] == 0


@criterion(7, "training determinism")
def test_criterion_07_identical_seed_identical_bytes(tmp_path):
    data = tmp_path / "instances.jsonl"
    write_instances(data, make_synthetic_instances(30, seed=1))
    outs = []
    for name in ("run1", "run2"):
        out_dir = tmp_path / name
        code = main([
            "train", "--instances", str(data), "--out-dir", str(out_dir),
            "--variant", "joint", "--hidden", "4", "--word-dim", "6",
            "--pos-dim", "2", "--radius", "8", "--epochs", "3",
            "--batch-size", "10", "--lr", "0.005", "--seed", "42",
            "--val-fraction", "0.1",
        ])
        assert code == 0
        outs.append(out_dir)
    for fname in ("manifest", "params.bin", "vocab.json", "train_log.jsonl"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, f"{fname} differs between identical runs"
    manifests = []
    for out in outs:
        data_m = json.loads((out / "run_manifest.json").read_text())
        data_m.pop("created_unix")
        data_m.pop("inputs")
        data_m.pop("outputs")
        manifests.append(data_m)
    assert manifests[0] == manifests[1]


@criterion(8, "checkpoint round-trip")
def test_criterion_08_roundtrip_bit_identical(tmp_path):
    instances = make_synthetic_instances(100, seed=3)
    vocab = build_vocab([i.tokens for i in instances])
    pv = PositionVocab(10)
    cfg = ModelConfig(variant="joint", hidden=6, word_dim=8, pos_dim=2,
                      keep_prob=1.0, l2=0.0)
    params = build_model(cfg, len(vocab), len(pv), seed=5)
    feats = featurize(instances, vocab, pv)

    in_memory = [forward(params, cfg, f)[0] for f in feats]
    save_checkpoint(tmp_path, params, cfg, vocab, pv)
    loaded, cfg2, vocab2, pv2 = load_checkpoint(tmp_path)
    feats2 = featurize(instances, vocab2, pv2)
    reloaded = [forward(loaded, cfg2, f)[0] for f in feats2]

    for before, after in zip(in_memory, reloaded):
        assert before.data.tobytes() == after.data.tobytes()
        assert np.argmax(before.data) == np.argmax(after.data)


@criterion(9, "evaluation oracles")
def test_criterion_09_exact_scores():
    advice, effect, negative = 0, 1, 4
    report = evaluate([advice, advice, effect, negative],
                      [advice, effect, effect, negative])
    assert report["micro_p"] == 2 / 3
    assert report["micro_r"] == 2 / 3
    assert report["micro_f1"] == 2 / 3
    assert mcnemar(15, 5)[0] == 4.05


CORPUS_TRAIN = os.environ.get("DDI_CORPUS_TRAIN")
CORPUS_TEST = os.environ.get("DDI_CORPUS_TEST")


@pytest.mark.skipif(not (CORPUS_TRAIN and CORPUS_TEST),
                    reason="set DDI_CORPUS_TRAIN and DDI_CORPUS_TEST to run")
@criterion(10, "full corpus counts")
def test_criterion_10_corpus_dependent_counts():
    train_instances = generate_instances(parse_corpus(CORPUS_TRAIN))
    test_instances = generate_instances(parse_corpus(CORPUS_TEST))
    assert len(train_instances) == 27774
    assert len(test_instances) == 5716

    negative = 4
    test_decisions = apply_filters(test_instances)
    test_kept = [i for i, hit in zip(test_instances, test_decisions) if hit is None]
    positives_in = sum(1 for i in test_instances if i.label != negative)
    positives_kept = sum(1 for i in test_kept if i.label != negative)
    assert positives_in == 979
    assert positives_kept == 979, "a test-set positive was filtered out"
    assert build_report("test", test_instances, test_decisions)["n_removed_positive"] == 0

    train_kept = apply_filters(train_instances).count(None)
    assert abs(train_kept - 16495) <= 0.03 * 16495
    assert abs(len(test_kept) - 4025) <= 0.03 * 4025


@criterion(11, "full-run recipe documented")
def test_criterion_11_readme_documents_full_run():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    text = open(readme, encoding="utf-8").read()
    # desk-scale acceptance cannot reproduce published test-set F1; the
    # recipe for a full run must be written down instead
    for needle in ("DDI_CORPUS_TRAIN", "preprocess", "word vectors"):
        assert needle in text, f"README missing {needle!r}"


def test_probability_floor_keeps_losses_finite():
    # the label's probability underflows to exactly 0; its loss stays finite
    s = ad.Tensor([[1000.0, 0.0, 0.0, 0.0, 0.0]])
    assert ad.softmax(s.data[0])[4] == 0.0
    loss = softmax_cross_entropy(s, [4]).item()
    assert math.isfinite(loss) and loss == pytest.approx(1000.0)
