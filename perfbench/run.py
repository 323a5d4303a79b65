"""The ddilstm benchmark: paper-size training and XML-to-scores inference.

    python3 perfbench/run.py --workload train-b-lstm --seed 1 --seconds 50 --trace 0

Run it from the repository root; it imports the package from `src/`.
Each workload generates seeded DDI-format XML (see corpus_gen.py) and
runs it through the entry points the `ddilstm` CLI uses. Every client is
a closed loop: each call starts after the previous one returned.

    ingest   `preprocess` + `filter` on the training and the test corpus
    setup    read the training JSONL, build_vocab, featurize, build_model
    train    one epoch of training.train over one 200-instance batch
             (plus its 5% held-out slice), then save_checkpoint; the
             first epoch of a pass is checked for descent
    test     `predict` (with `--attention` where the variant has it),
             `evaluate --filter-report`, `analyze`

With `--trace 0` the run lasts `--seconds`. After one untimed warm-up
cycle, cycles of ingest, setup x SETUPS, predict and scoring repeat on one
CPU, while a trainer process (this script with `--train-in`) sets up and
trains, over and over, on the other. Every metric is a median over its
samples; the short stages' samples are scaled to a nominal host speed
(see REF_S). With `--trace 1` the pipeline runs once untraced and once
with tracing.Tracer installed, in one process, checks that both wrote
the same bytes, and reports per-layer totals of the traced pass.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
the environment, the workload's facts and every metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_runs")

# one BLAS thread: the per-token matrix-vector products gain nothing
# from a second one, and a single thread is steadier on a shared machine
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    variant: str
    test_shape: str       # "train": 20-60 tokens; "score": tail to 150
    test_sentences: int


WORKLOADS = {
    "train-b-lstm": Workload("b-lstm", "train", 60),
    "score-ab-lstm": Workload("ab-lstm", "score", 110),
    # not in BENCHMARK.json: the time budget gives two workloads runs long
    # enough to be steady, and score-ab-lstm covers the attention layers
    "train-joint": Workload("joint", "train", 45),
}
TRAIN_SENTENCES = 1100      # ~3080 pairs, ~10k word types
EPOCH_INSTANCES = 211       # 200 trained + round(211 * 0.05) = 11 held out
PROBE = 60                  # shortest epoch instances scored by the descent check
BATCH = 200
VAL_FRACTION = 0.05
RADIUS = 50

SETUPS = 3                  # setup samples per cycle

# The host's speed changes by up to 1.7x from one second to the next and
# drifts over minutes, the same way for every stage. So a reference kernel
# is timed between the short stages, and each stage's time is scaled by
# REF_S over the mean of the reference times just before and just after
# it: the short stages report seconds at the host speed at which the
# kernel takes REF_S. Training runs in its own process; its 15-25 s calls
# are too long for a bracket to follow, so it reports wall time.
REF_S = 0.05
REFERENCE_REPEATS = 18      # about 50 ms per reference time

E2E_UNITS = {
    "setup_s": "s",
    "train_batch_s": "s/batch",
    "train_loss": "nats",
    "predict_inst_per_s": "inst/s",
    "ingest_s": "s",
    "test_total_s": "s",
    "peak_rss_mb": "MB",
}
# per-layer self times: metric name -> span name
LAYER_TIMES = {
    "autodiff.backward_s": "autodiff.backward",
    "recurrent.bilstm_forward_s": "recurrent.bilstm_forward",
    "features.embed_s": "features.embed",
    "features.featurize_s": "features.featurize",
    "features.build_vocab_s": "features.build_vocab",
    "pooling.max_pool_s": "pooling.max_pool",
    "pooling.attentive_pool_s": "pooling.attentive_pool",
    "model.forward_s": "model.forward",
    "model.load_checkpoint_s": "model.load_checkpoint",
    "model.save_checkpoint_s": "model.save_checkpoint",
    "training.train_self_s": "training.train",
    "training.cross_entropy_s": "training.cross_entropy",
    "training.adam_step_s": "training.adam_step",
    "corpus.parse_corpus_s": "corpus.parse_corpus",
    "corpus.generate_instances_s": "corpus.generate_instances",
    "corpus.write_instances_s": "corpus.write_instances",
    "corpus.read_instances_s": "corpus.read_instances",
    "filtering.apply_filters_s": "filtering.apply_filters",
    "evaluation.evaluate_s": "evaluation.evaluate",
    "evaluation.length_stats_s": "evaluation.length_stats",
    "evaluation.write_attention_records_s": "evaluation.write_attention_records",
}
LAYER_COUNTS = {
    "autodiff.tape_records": "autodiff.tape_records",
    "recurrent.lstm_step_calls": "recurrent.lstm_step",
    "model.forward_calls": "model.forward",
}
LAYER_UNITS = {**{k: "s" for k in LAYER_TIMES}, "cli.self_s": "s",
               "autodiff.tape_records": "count/batch",
               "recurrent.lstm_step_calls": "count",
               "model.forward_calls": "count",
               "filtering.removed_share": "ratio",
               "trace.overhead_share": "ratio"}


class BenchError(RuntimeError):
    """The program failed a step; the run reports no result."""


class Checks:
    """Operations attempted and failed: batches, instances and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, ok: bool, what: str, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            self.notes.append(what)


@dataclass
class Round:
    """What one pass of the pipeline measured and wrote."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    train_loss: float = float("nan")
    n_batches: int = 0
    n_test: int = 0
    vocab_size: int = 0
    wall_s: float = 0.0       # one pass, without the descent check
    peak_rss_mb: float = 0.0
    outputs: dict[str, bytes] = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def median(self, key: str) -> float:
        return statistics.median(self.samples[key])


class Bench:
    """One workload run: inputs, rounds, checks and metrics."""

    def __init__(self, name: str, seed: int, work: str):
        from ddilstm import model

        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.mcfg = model.default_config(self.workload.variant)
        self.has_attention = self.workload.variant != "b-lstm"
        self.checks = Checks()
        self.train_xml = os.path.join(work, "xml", "train")
        self.test_xml = os.path.join(work, "xml", "test")

    def generate(self) -> dict:
        import corpus_gen

        lex = corpus_gen.make_lexicon(self.seed)
        lengths = (corpus_gen.score_lengths if self.workload.test_shape == "score"
                   else corpus_gen.train_lengths)
        train_pairs = corpus_gen.write_corpus(
            self.train_xml, self.seed, "train",
            corpus_gen.train_lengths(TRAIN_SENTENCES), lex)
        test_pairs = corpus_gen.write_corpus(
            self.test_xml, self.seed, "test",
            lengths(self.workload.test_sentences), lex)
        return {"train_pairs": train_pairs, "test_pairs": test_pairs}

    # -- one pass of the pipeline ------------------------------------------

    def _cli(self, tracer, *argv: str) -> float:
        from ddilstm import cli

        t0 = time.perf_counter()
        with tracer.span("cli." + argv[0]), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(list(argv))
        elapsed = time.perf_counter() - t0
        if rc != 0:
            raise BenchError(f"ddilstm {argv[0]} exited with {rc}")
        return elapsed

    def _same_bytes(self, paths: list[str], first: dict, what: str) -> None:
        for p in paths:
            data = _read(p)
            if p not in first:
                first[p] = data
            else:
                self.checks.add(data == first[p], f"{what}: {p} changed")

    def _train(self, tracer, params, feats, vocab, pv, q: dict,
               r: Round) -> tuple:
        """One epoch of training.train, then save_checkpoint. Returns the
        arguments of the descent check."""
        from ddilstm import model, training

        epoch = epoch_of(feats, [f.length for f in feats])
        n_train = len(epoch) - int(round(len(epoch) * VAL_FRACTION))
        r.n_batches = math.ceil(n_train / BATCH)
        tcfg = training.TrainConfig(batch_size=BATCH, max_epochs=1,
                                    seed=self.seed, val_fraction=VAL_FRACTION)
        initial = params.state_copy()
        t0 = time.perf_counter()
        try:
            result = training.train(params, epoch, tcfg, self.mcfg)
        except training.TrainingDiverged as exc:
            self.checks.add(False, f"training diverged: {exc}", r.n_batches)
            raise BenchError(str(exc)) from exc
        r.add("train_batch", (time.perf_counter() - t0) / r.n_batches)
        r.train_loss = result.log[0].train_loss
        self.checks.add(math.isfinite(r.train_loss), "epoch loss not finite",
                        r.n_batches)
        for name, param in result.params.named_parameters():
            if param.requires_grad:
                self.checks.add(not (initial[name] == param.data).all(),
                                f"parameter {name} did not move")
        with tracer.span("bench.save"):
            model.save_checkpoint(q["ckpt"], result.params, self.mcfg, vocab, pv)
        return result.params, initial, epoch

    def _check_descent(self, params, initial: dict, epoch: list) -> None:
        """The step lowered the loss, and so did each encoder stack's part.

        The epoch's logged loss is taken before its only Adam step, so it
        guards the forward pass alone. Here the shortest PROBE instances
        are scored without tape or dropout: at the initial weights, at the
        trained ones, and with only one stack's weights trained. A stack
        whose weight gradient has the wrong sign raises the loss.
        """
        from ddilstm import model

        probe = sorted(epoch, key=lambda f: f.length)[:PROBE]

        def loss() -> float:
            return math.fsum(
                -math.log(float(model.forward(params, self.mcfg, f)[0].data[f.label]))
                for f in probe) / len(probe)

        trained = params.state_copy()
        stacks = sorted({n.split(".")[0] for n in trained if n.startswith("stack")})
        self.checks.add(bool(stacks), "no encoder stack parameters found")
        params.load_state(initial)
        before = loss()
        params.load_state(trained)
        self.checks.add(loss() < before, "the training step did not lower the loss")
        for stack in stacks:
            params.load_state({n: trained[n] if n.split(".")[0] == stack
                               else initial[n] for n in trained})
            self.checks.add(loss() < before,
                            f"{stack}'s update alone did not lower the loss")
        params.load_state(trained)

    def _ingest(self, tracer, p: dict, r: Round, first: dict) -> None:
        """`preprocess` and `filter` on the training and the test corpus."""
        t_train = self._cli(tracer, "preprocess", "--corpus", self.train_xml,
                            "--out", p["train_raw"])
        t_train += self._cli(tracer, "filter", "--instances", p["train_raw"],
                             "--out", p["train"], "--report", p["train_report"],
                             "--mode", "train")
        t_test = self._cli(tracer, "preprocess", "--corpus", self.test_xml,
                           "--out", p["test_raw"])
        t_test += self._cli(tracer, "filter", "--instances", p["test_raw"],
                            "--out", p["test"], "--report", p["test_report"],
                            "--mode", "test")
        r.add("ingest", t_train + t_test)
        r.add("test_ingest", t_test)
        self._same_bytes([p["train"], p["train_report"], p["test"],
                          p["test_report"]], first, "repeated ingest")

    def _setup(self, tracer, p: dict, r: Round) -> tuple:
        """Read the training JSONL, build_vocab, featurize, build_model."""
        from ddilstm import cli, corpus, features, model

        with tracer.span("bench.setup"):
            t0 = time.perf_counter()
            instances = corpus.read_instances(p["train"])
            vocab = features.build_vocab([i.tokens for i in instances], min_count=1)
            pv = features.PositionVocab(RADIUS)
            feats = cli._featurize_all(instances, vocab, pv)
            params = model.build_model(self.mcfg, len(vocab), len(pv), seed=self.seed)
            r.add("setup", time.perf_counter() - t0)
        return feats, vocab, pv, params

    def _score(self, tracer, p: dict, q: dict, r: Round, first: dict) -> None:
        """`predict` with checkpoint q["ckpt"], then `evaluate` and `analyze`."""
        argv = ["predict", "--checkpoint", q["ckpt"], "--instances", p["test"],
                "--out", q["preds"]]
        if self.has_attention:
            argv += ["--attention", q["attention"]]
        r.add("predict", self._cli(tracer, *argv))
        r.add("evaluate", self._cli(
            tracer, "evaluate", "--predictions", q["preds"], "--gold", p["test"],
            "--filter-report", p["test_report"], "--out", q["eval"]))
        r.add("analyze", self._cli(
            tracer, "analyze", "--predictions", q["preds"], "--gold", p["test"],
            "--out", q["stats"]))
        written = [q["preds"], q["eval"], q["stats"]]
        if self.has_attention:
            written.append(q["attention"])
        self._same_bytes(written, first, "repeated predict and scoring")

    def _paths(self, out: str) -> tuple[dict, dict, dict]:
        os.makedirs(out, exist_ok=True)
        p = {k: os.path.join(out, v) for k, v in {
            "train_raw": "train_raw.jsonl", "train": "train.jsonl",
            "train_report": "train_filter.json", "test_raw": "test_raw.jsonl",
            "test": "test.jsonl", "test_report": "test_filter.json"}.items()}
        # checkpoints and scoring outputs of the initial and the trained weights
        init, trained = ({k: os.path.join(out, name, v) for k, v in {
            "ckpt": "ckpt", "preds": "preds.jsonl", "attention": "attention.jsonl",
            "eval": "eval.json", "stats": "stats.json"}.items()}
            for name in ("init", "trained"))
        for name in ("init", "trained"):
            os.makedirs(os.path.join(out, name), exist_ok=True)
        return p, init, trained

    def run_round(self, out: str, tracer, probe: bool = True) -> Round:
        """One pass: ingest, setup, train, then predict and score with the
        trained checkpoint."""
        p, _, trained = self._paths(out)
        r = Round()
        first: dict[str, bytes] = {}
        t0 = time.perf_counter()
        with tracer.span("bench.round"):
            self._ingest(tracer, p, r, first)
            feats, vocab, pv, params = self._setup(tracer, p, r)
            descent = self._train(tracer, params, feats, vocab, pv, trained, r)
            self._score(tracer, p, trained, r, first)
        r.wall_s = time.perf_counter() - t0
        r.vocab_size = len(vocab)
        if probe:
            self._check_descent(*descent)
        for key in ("preds", "attention", "eval", "stats"):
            if key != "attention" or self.has_attention:
                r.outputs[key] = first[trained[key]]
        r.n_test = self._check_outputs(p, trained)
        return r

    def run_window(self, out: str, seconds: float) -> Round:
        """Cycles of the short stages for `seconds`, the warm-up cycle
        included, while a trainer process trains beside them (see
        run_trainer). The cycles predict with a checkpoint of the initial
        weights; the trained checkpoint is scored once, after the window."""
        from ddilstm import model

        tracer = tracing.NullTracer()
        p, init, trained = self._paths(out)
        r = Round()
        first: dict[str, bytes] = {}
        deadline = time.perf_counter() + seconds
        warm = Round()
        self._ingest(tracer, p, warm, first)
        feats, vocab, pv, params = self._setup(tracer, p, warm)
        model.save_checkpoint(init["ckpt"], params, self.mcfg, vocab, pv)
        self._score(tracer, p, init, warm, first)
        r.vocab_size = len(vocab)

        trainer_dir = os.path.join(self.work, "trainer")
        os.makedirs(trainer_dir)
        shutil.copy(p["train"], trainer_dir)
        argv = [sys.executable, os.path.abspath(__file__),
                "--workload", self.name, "--seed", str(self.seed),
                "--seconds", str(math.ceil(seconds)), "--train-in", trainer_dir,
                "--train-for", repr(deadline - time.perf_counter())]
        trainer = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        try:
            # one CPU each, so each stage's reference ran where it did
            cpus = sorted(os.sched_getaffinity(0))
            if len(cpus) >= 2:
                os.sched_setaffinity(0, {cpus[0]})
                os.sched_setaffinity(trainer.pid, {cpus[1]})
            reference_s()
            r.add("reference", reference_s())
            while True:
                gc.collect()
                t_cycle = time.perf_counter()
                stages = [lambda part: self._ingest(tracer, p, part, first)]
                stages += [lambda part: self._setup(tracer, p, part)] * SETUPS
                stages += [lambda part: self._score(tracer, p, init, part, first)]
                for stage in stages:
                    part = Round()
                    stage(part)
                    before, after = r.samples["reference"][-1], reference_s()
                    r.add("reference", after)
                    scale = 2 * REF_S / (before + after)
                    for key, values in part.samples.items():
                        for v in values:
                            r.add(key, v * scale)
                            r.add("unscaled." + key, v)
                now = time.perf_counter()
                if now + (now - t_cycle) > deadline:
                    break
            stdout, _ = trainer.communicate()
        finally:
            if trainer.poll() is None:
                trainer.kill()
            trainer.wait()
        if trainer.returncode != 0:
            raise BenchError(f"the trainer exited with {trainer.returncode}")
        result = json.loads(stdout.strip().splitlines()[-1])
        r.samples["train_batch"] = result["train_batch"]
        r.train_loss = result["train_loss"]
        r.n_batches = result["n_batches"]
        r.peak_rss_mb = max(_peak_rss_mb(), result["peak_rss_mb"])
        self.checks.attempted += result["attempted"]
        self.checks.failed += result["failed"]
        self.checks.notes += result["notes"]

        trained["ckpt"] = os.path.join(trainer_dir, "ckpt")
        self._score(tracer, p, trained, Round(), first)
        self._check_outputs(p, init)
        r.n_test = self._check_outputs(p, trained)
        return r

    def run_trainer(self, out: str, seconds: float) -> dict:
        """The trainer process: setup and one training epoch, over and over
        while another fits in `seconds`, and at least twice. Reads
        `out`/train.jsonl and leaves the trained checkpoint in `out`/ckpt."""
        tracer = tracing.NullTracer()
        p = {"train": os.path.join(out, "train.jsonl")}
        q = {"ckpt": os.path.join(out, "ckpt")}
        r = Round()
        first: dict[str, bytes] = {}
        deadline = time.perf_counter() + seconds
        descent = None
        while True:
            feats, vocab, pv, params = self._setup(tracer, p, Round())
            gc.collect()
            t0 = time.perf_counter()
            got = self._train(tracer, params, feats, vocab, pv, q, r)
            descent = descent or got
            self._same_bytes([os.path.join(q["ckpt"], "params.bin")], first,
                             "repeated training")
            now = time.perf_counter()
            if len(r.samples["train_batch"]) >= 2 and now + (now - t0) > deadline:
                break
        self._check_descent(*descent)
        return {"train_batch": r.samples["train_batch"],
                "train_loss": r.train_loss, "n_batches": r.n_batches,
                "peak_rss_mb": _peak_rss_mb(),
                "attempted": self.checks.attempted, "failed": self.checks.failed,
                "notes": self.checks.notes}

    # -- correctness -------------------------------------------------------

    def _check_outputs(self, p: dict, q: dict) -> int:
        """Count the checks on the outputs q of one checkpoint; returns the
        kept test pairs."""
        from ddilstm.labels import LABELS

        kept = _jsonl(p["test"])
        preds = _jsonl(q["preds"])
        aligned = len(preds) == len(kept)
        self.checks.add(aligned, f"{len(preds)} predictions for {len(kept)} pairs")
        for inst, pred in zip(kept, preds):
            self.checks.add(pred.get("pair_id") == inst["pair_id"]
                            and pred.get("label") in LABELS,
                            f"bad prediction for {inst['pair_id']}")

        if self.has_attention:
            rows = _jsonl(q["attention"])
            self.checks.add(len(rows) == len(kept),
                            f"{len(rows)} attention rows for {len(kept)} pairs")
            tol = 8 * 2.0 ** -23  # a few float32 ulps of 1.0
            for inst, row in zip(kept, rows):
                w = row.get("weights", [])
                self.checks.add(len(w) == len(inst["tokens"])
                                and abs(math.fsum(w) - 1.0) <= tol,
                                f"attention row of {inst['pair_id']} is off")

        with open(q["eval"], encoding="utf-8") as fh:
            report = json.load(fh)
        with open(p["test_report"], encoding="utf-8") as fh:
            removed = json.load(fh)["n_removed"]
        total = sum(sum(row) for row in report["confusion"])
        self.checks.add(total == report["n_scored"] + report["n_filtered"]
                        and report["n_scored"] == len(kept)
                        and report["n_filtered"] == removed,
                        "confusion matrix does not total scored + filtered")
        return len(kept)

    def compare_rounds(self, a: Round, b: Round) -> None:
        for key, data in a.outputs.items():
            self.checks.add(b.outputs.get(key) == data,
                            f"{key} differs between untraced and traced run")

    # -- facts -------------------------------------------------------------

    def facts(self, out: str, r: Round, generated: dict) -> dict:
        def share(path):
            with open(path, encoding="utf-8") as fh:
                rep = json.load(fh)
            return {"input": rep["n_input"], "removed": rep["n_removed"],
                    "removed_share": rep["n_removed"] / rep["n_input"]}

        train = _jsonl(os.path.join(out, "train.jsonl"))
        test = _jsonl(os.path.join(out, "test.jsonl"))
        train_len = [len(i["tokens"]) for i in train]
        epoch = epoch_of(train_len, train_len)
        test_len = [len(i["tokens"]) for i in test]
        return {
            "generated_pairs": generated,
            "train_filter": share(os.path.join(out, "train_filter.json")),
            "test_filter": share(os.path.join(out, "test_filter.json")),
            "train_kept": len(train),
            "epoch_instances": len(epoch),
            "batches": r.n_batches,
            "test_kept": len(test),
            "vocab_size": r.vocab_size,
            "epoch_tokens": {"mean": statistics.fmean(epoch), "max": max(epoch)},
            "test_tokens": {"mean": statistics.fmean(test_len), "max": max(test_len)},
            "epoch_pad_share": pad_share(epoch),
            "test_pad_share": pad_share(test_len),
        }


def epoch_of(items: list, lengths: list[int]) -> list:
    """EPOCH_INSTANCES of items at evenly spaced ranks of their lengths, in
    corpus order: the epoch's tokens then barely move between seeds."""
    ranked = sorted(range(len(items)), key=lambda i: (lengths[i], i))
    step = len(items) / EPOCH_INSTANCES
    picked = sorted(ranked[int(k * step)] for k in range(EPOCH_INSTANCES))
    return [items[i] for i in picked]


def pad_share(lengths: list[int]) -> float:
    """Tokens that padding each run of BATCH to its longest would add,
    divided by real tokens."""
    pad = 0
    for start in range(0, len(lengths), BATCH):
        chunk = lengths[start:start + BATCH]
        pad += len(chunk) * max(chunk) - sum(chunk)
    return pad / sum(lengths)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# -- environment -----------------------------------------------------------

def _blas_runtime() -> dict:
    """Thread count and build string as the loaded OpenBLAS reports them."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is None or config is None:
                continue
            threads.argtypes, threads.restype = [], ctypes.c_int
            config.argtypes, config.restype = [], ctypes.c_char_p
            return {"threads": threads(), "config": config().decode()}
    return {}


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "ddilstm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0" + _read(os.path.join(pkg, name)))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_requested": BLAS_THREADS, **_blas_runtime()},
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "loop": "closed; with --trace 0 two clients, short stages and "
                "training, one process and one CPU each",
        "reference": {"nominal_s": REF_S, "repeats": REFERENCE_REPEATS},
    }


# -- results and entry point -----------------------------------------------

def _e2e_metrics(r: Round, prefix: str = "") -> dict:
    def median(key: str) -> float:
        return r.median(prefix + key)

    predict_s = median("predict")
    return {
        "setup_s": median("setup"),
        "train_batch_s": r.median("train_batch"),
        "train_loss": r.train_loss,
        "predict_inst_per_s": r.n_test / predict_s,
        "ingest_s": median("ingest"),
        "test_total_s": (median("test_ingest") + predict_s
                         + median("evaluate") + median("analyze")),
        "peak_rss_mb": r.peak_rss_mb,
    }


class _Reference:
    """A fixed kernel like the program's own work: numpy matrix-vector
    products and gates over a short sequence, then JSON and string work."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.u = rng.standard_normal((800, 120)).astype(np.float32)
        self.w = rng.standard_normal((800, 200)).astype(np.float32)
        self.x = rng.standard_normal((40, 120)).astype(np.float32)

    def __call__(self) -> float:
        np, u, w, x = self.np, self.u, self.w, self.x
        t0 = time.perf_counter()
        for _ in range(REFERENCE_REPEATS):
            h = np.zeros(200, np.float32)
            for t in range(len(x)):
                z = u @ x[t] + w @ h
                h = np.tanh(z[:200]) / (1 + np.exp(-z[200:400]))
            text = json.dumps({f"w{i}": [i, str(i)] for i in range(800)})
            json.loads(text)
            " ".join(sorted(text.split(",")))
        return time.perf_counter() - t0


def reference_s() -> float:
    """Seconds the reference kernel takes now, on this CPU."""
    global _reference
    if _reference is None:
        _reference = _Reference()
    return _reference()


_reference = None


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _layer_metrics(tracer, traced: Round, untraced: Round, out: str) -> dict:
    selfs = tracer.self_times()
    metrics = {name: selfs.get(span, 0.0) for name, span in LAYER_TIMES.items()}
    metrics["cli.self_s"] = sum(v for k, v in selfs.items() if k.startswith("cli."))
    for name, key in LAYER_COUNTS.items():
        metrics[name] = tracer.counts.get(key, 0)
    metrics["autodiff.tape_records"] /= traced.n_batches
    removed = total = 0
    for report in ("train_filter.json", "test_filter.json"):
        with open(os.path.join(out, report), encoding="utf-8") as fh:
            rep = json.load(fh)
        removed += rep["n_removed"]
        total += rep["n_input"]
    metrics["filtering.removed_share"] = removed / total
    metrics["trace.overhead_share"] = traced.wall_s / untraced.wall_s - 1.0
    return metrics


def run(args) -> int:
    bench = Bench(args.workload, args.seed,
                  os.path.join(WORK, f"{args.workload}-s{args.seed}-{os.getpid()}"))
    shutil.rmtree(bench.work, ignore_errors=True)
    try:
        print("env " + json.dumps(environment(args.seed)))
        generated = bench.generate()
        gc.collect()
        if not args.trace:
            out = os.path.join(bench.work, "untraced")
            r = bench.run_window(out, args.seconds)
            print("facts " + json.dumps(bench.facts(out, r, generated)))
            metrics = _e2e_metrics(r)
            units = E2E_UNITS
            print("samples " + json.dumps(r.samples))
            print("unscaled " + json.dumps(_e2e_metrics(r, "unscaled.")))
            refs = r.samples["reference"]
            print("reference " + json.dumps({
                "median_s": statistics.median(refs), "min_s": min(refs),
                "max_s": max(refs), "n": len(refs)}))
        else:
            plain = bench.run_round(os.path.join(bench.work, "untraced"),
                                    tracing.NullTracer())
            gc.collect()
            run_id = f"{args.workload}-s{args.seed}-{os.getpid()}"
            tracer = tracing.Tracer(run_id)
            tracer.install()
            try:
                out = os.path.join(bench.work, "traced")
                traced = bench.run_round(out, tracer, probe=False)
            finally:
                tracer.uninstall()
            bench.checks.add(tracer.losses_finite() and
                             len(tracer.losses) == traced.n_batches,
                             "a batch loss was not finite", traced.n_batches)
            bench.compare_rounds(plain, traced)
            metrics = _layer_metrics(tracer, traced, plain, out)
            units = LAYER_UNITS
            tracer.write(os.path.join(WORK, f"spans-{run_id}.jsonl"))
            if tracer.missing:
                print("missing " + json.dumps(tracer.missing))
            counted = sum(tracer.counts[name] for name in tracing.COUNTED)
            print("trace " + json.dumps({
                "spans": len(tracer.spans), "counted_calls": counted,
                "untraced_s": plain.wall_s, "traced_s": traced.wall_s,
                "per": f"one pass: {traced.n_batches} batch, "
                       f"{traced.n_test} test instances"}))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    checks = bench.checks
    for note in checks.notes:
        print(f"check failed: {note}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(f"failed_share = {checks.failed / checks.attempted:.6g} "
          f"({checks.failed} of {checks.attempted} operations)")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the trainer process that run_window starts
    parser.add_argument("--train-in", help=argparse.SUPPRESS)
    parser.add_argument("--train-for", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "ddilstm", "__init__.py")):
        print(f"error: no ddilstm package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    if args.train_in:
        bench = Bench(args.workload, args.seed, os.path.dirname(args.train_in))
        print(json.dumps(bench.run_trainer(args.train_in, args.train_for)))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
