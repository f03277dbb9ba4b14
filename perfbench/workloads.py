"""The benchmark's workloads and the harness that times them.

Every workload runs in one process:

1. inputs (untimed): a seeded corpus, and a checkpoint where needed;
2. one gen-fakes round: the ``gen-fakes`` subcommand over the workload's
   corpus, in-process (set-up may read its output);
3. set-up (timed ``SETUP_REPS`` times, median reported): the program's
   own loading and model-creation calls that the main job needs;
4. measurement: rounds of the workload's main job, each followed by as
   many gen-fakes rounds as keep gen-fakes at ``GENFAKES_SHARE`` of the
   timed seconds, until ``--seconds`` are spent;
5. the correctness checks (untimed).

Interleaving spreads both kinds of round over the whole run, so a slow or
fast spell of the machine weighs on both alike. Rates are medians over
rounds. Load comes from this one process (a closed loop: each round starts
when the previous one has returned).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import statistics
import sys
from time import perf_counter

import numpy as np

import checks
import inputs
from tracing import UNTIMED

from fakesent import checkpoint, classifier, cli, corpus, fakegen, probe
from fakesent.encoder import SentenceEncoder
from fakesent.errors import FakesentError

GENFAKES_SHARE = 0.2
GENFAKES_SENTENCES = 2048  # per round; many short rounds, reported as their median
SETUP_REPS = 7
MIN_ROUNDS = 2  # the checks compare rounds with each other

# train-mid: mid scale, B=64; each round is one classifier.train call
TRAIN_DIM, TRAIN_HIDDEN, TRAIN_MLP = 64, 256, (256, 128)
TRAIN_EXAMPLES, VALID_EXAMPLES, TRAIN_EPOCHS, BATCH = 128, 64, 1, 64
# encode-paper: paper-shaped encoder; each round is one `encode` command
PAPER_DIM, PAPER_HIDDEN, PAPER_MLP = 300, 512, (512, 256)
ENCODE_SENTENCES, ENCODE_SAMPLE = 128, 8
VOCAB_SENTENCES = 8192  # the checkpoint's vocabulary comes from this many sentences
# probe-desk: desk-scale encoder; each round is one run_probes call
DESK_DIM, DESK_HIDDEN, DESK_MLP = 16, 32, (32, 16)
PROBE_SENTENCES = 6144  # fewer leave wc's ten classes too few test sentences to clear chance
PROBE_TASKS = ("sentlen", "wc", "bshift")


class CommandFailed(FakesentError):
    pass


def cli_call(argv: list[str]) -> str:
    """Run one subcommand in-process; return what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise CommandFailed(f"`fakesent {argv[0]}` exited with {code}")
    return out.getvalue()


class Stage:
    """Timed rounds of one job: ``body`` does ``ops`` operations on ``items``
    items; ``prepare`` and ``after(result)`` run untimed around it."""

    def __init__(self, run, phase, metric, body, ops, items, prepare=None, after=None):
        self.run, self.phase, self.body = run, phase, body
        self.ops, self.items = ops, items
        self.prepare, self.after = prepare, after
        self.rates = run.rates.setdefault(metric, [])
        self.spent = 0.0
        self.rounds = 0
        self.result = None

    def round(self) -> None:
        run = self.run
        if self.prepare is not None:
            self.prepare()
        run.set_phase(self.phase)
        t0 = perf_counter()
        try:
            result, error = self.body(), None
        except FakesentError as e:
            result, error = None, e
        dt = perf_counter() - t0
        run.set_phase(UNTIMED)
        self.spent += dt
        self.rounds += 1
        run.attempted += self.ops
        if error is not None:
            run.failed += self.ops
            print(f"{self.phase} round failed: {error}", file=sys.stderr)
            return
        if self.after is not None:
            self.after(result)
        self.result = result
        self.rates.append(self.items / dt)


class Run:
    """One benchmark run: timing, operation counts and check outcomes."""

    def __init__(self, workdir, seed: int, seconds: float, tracer):
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.setup_times: list[float] = []
        self.rates: dict[str, list[float]] = {}
        self.peak_rss_mb = 0.0
        self.check_failures: list[str] = []

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def set_phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.set_phase(name)

    def check(self, name: str, fn, *args) -> None:
        try:
            fn(*args)
        except checks.CheckFailed as e:
            self.check_failures.append(f"{name}: {e}")

    def gen_fakes(self, lines: list[str]) -> tuple[Stage, str]:
        """The gen-fakes stage over ``lines``, after its first round; also
        returns the JSONL path. ``check_gen_fakes`` verifies it."""
        corpus_path, out_path = self.path("corpus.txt"), self.path("fakes.jsonl")
        inputs.write_lines(corpus_path, lines)
        argv = ["gen-fakes", "--strategy", "shuffle", "--fakes-per-real", "1",
                "--seed", str(self.seed), "--in", corpus_path, "--out", out_path]
        digests: list[str] = []
        self._gen_fakes = (lines, out_path, digests)
        stage = Stage(self, "genfakes", "genfakes.sentences_per_s", lambda: cli_call(argv),
                      len(lines), len(lines), after=lambda _: digests.append(checks.sha256(out_path)))
        stage.round()
        return stage, out_path

    def check_gen_fakes(self) -> None:
        lines, out_path, digests = self._gen_fakes
        self.check("gen-fakes rounds agree", checks.check_all_equal, digests, "gen-fakes outputs")
        self.check("shuffle fakes", checks.check_shuffle_dataset, lines, fakegen.load_dataset(out_path))

    def set_up(self, body):
        """Time ``body`` SETUP_REPS times; return the last result."""
        result = None
        for _ in range(SETUP_REPS):
            result = None
            self.set_phase("setup")
            t0 = perf_counter()
            result = body()
            self.setup_times.append(perf_counter() - t0)
            self.set_phase(UNTIMED)
        return result

    def measure(self, gen: Stage, main: Stage) -> None:
        """Alternate main rounds with gen-fakes rounds until ``seconds`` are
        spent: another main round starts while the time spent plus half a
        mean main round stays within them, and at least MIN_ROUNDS run."""
        while main.rounds < MIN_ROUNDS or (
            gen.spent + main.spent + main.spent / main.rounds / 2 < self.seconds
        ):
            main.round()
            while gen.spent < GENFAKES_SHARE * (gen.spent + main.spent):
                gen.round()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.check_gen_fakes()

    def end_to_end(self) -> dict:
        def med(values):
            return statistics.median(values) if values else 0.0

        return {
            "setup_s": {"value": med(self.setup_times), "unit": "s"},
            "genfakes.sentences_per_s": {
                "value": med(self.rates.get("genfakes.sentences_per_s", [])), "unit": "sentences/s"},
            "main.items_per_s": {"value": med(self.rates.get("main.items_per_s", [])), "unit": "items/s"},
            "peak_rss_mb": {"value": self.peak_rss_mb, "unit": "MiB"},
        }


def train_mid(run: Run) -> None:
    """gen-fakes over a long-tail corpus, then mid-scale training rounds."""
    lines = inputs.corpus_lines(run.seed, GENFAKES_SENTENCES, "long-tail")
    gen, fakes_path = run.gen_fakes(lines)

    def set_up():
        data = fakegen.load_dataset(fakes_path)
        vocab = corpus.build_vocab(ex.sentence for ex in data)
        rng = np.random.default_rng(run.seed)
        table = corpus.init_embeddings(vocab, TRAIN_DIM, rng)
        encoder = SentenceEncoder.create(vocab, table, TRAIN_HIDDEN, rng)
        return data, classifier.DetectorModel.create(encoder, *TRAIN_MLP, rng)

    data, model = run.set_up(set_up)
    train = data[:TRAIN_EXAMPLES]
    valid = data[TRAIN_EXAMPLES : TRAIN_EXAMPLES + VALID_EXAMPLES]
    cfg = classifier.TrainConfig(batch_size=BATCH, epochs=TRAIN_EPOCHS, learning_rate=0.1, seed=run.seed)
    params = model.all_parameters()
    initial = [p.value.copy() for p in params]

    def restore():
        for p, value in zip(params, initial):
            np.copyto(p.value, value)
            p.zero_grad()

    ckpt_path, metrics_path = run.path("model.ckpt"), run.path("model.metrics.jsonl")
    digests, losses = [], []

    def after(report):
        digests.append((checks.sha256(ckpt_path), checks.sha256(metrics_path)))
        losses.extend(e.train_loss for e in report.epochs)

    steps = TRAIN_EPOCHS * math.ceil(len(train) / BATCH)
    run.measure(gen, Stage(run, "main", "main.items_per_s",
                           lambda: classifier.train(model, train, valid, cfg, ckpt_path, metrics_path),
                           steps, TRAIN_EPOCHS * len(train), prepare=restore, after=after))

    run.check("JSONL read back", checks.check_same_examples, data,
              fakegen.build_dataset(corpus.load_corpus(run.path("corpus.txt")), "shuffle", 1, run.seed))
    run.check("epoch losses", checks.check_epoch_losses, losses)
    run.check("REPRO-1", checks.check_all_equal, digests, "checkpoint and metrics bytes")
    # one epoch, so the saved (best) epoch is the model in memory
    reloaded = checkpoint.load_model(ckpt_path)
    for p, q in zip(params, reloaded.all_parameters()):
        run.check(f"checkpoint reload {p.name}", checks.check_same_bits, q.value, p.value, p.name)
    resaved = run.path("resaved.ckpt")
    checkpoint.save_model(resaved, reloaded)
    with open(ckpt_path, "rb") as a, open(resaved, "rb") as b:
        run.check("checkpoint re-save", checks.check_bytes_equal, a.read(), b.read(), "re-saved checkpoint")
    restore()
    order = np.random.default_rng(cfg.seed).permutation(len(train))[:BATCH]
    first = [train[i] for i in order]
    idx, lengths = model.encoder.prepare_batch([ex.sentence for ex in first])
    loss, _ = model.batch_loss(None, idx, lengths, np.array([ex.label for ex in first]))
    run.check("first-batch loss", checks.check_initial_loss, loss.data.item())


def encode_paper(run: Run) -> None:
    """gen-fakes over a moderate-length corpus, then `encode` rounds with a
    paper-shaped checkpoint."""
    lines = inputs.corpus_lines(run.seed, VOCAB_SENTENCES, "moderate")
    ckpt_path, in_path, out_path = run.path("paper.ckpt"), run.path("encode.txt"), run.path("vectors.txt")
    inputs.write_random_checkpoint(ckpt_path, lines, PAPER_DIM, PAPER_HIDDEN, PAPER_MLP, run.seed)
    inputs.write_lines(in_path, lines[:ENCODE_SENTENCES])
    gen, _ = run.gen_fakes(lines[:GENFAKES_SENTENCES])

    model, sentences = run.set_up(lambda: (checkpoint.load_model(ckpt_path), corpus.load_corpus(in_path)))

    captured, digests = {}, []
    encode_batch = SentenceEncoder.encode_batch

    def capture(encoder, batch, batch_size=64):
        captured["vectors"] = encode_batch(encoder, batch, batch_size)
        return captured["vectors"]

    SentenceEncoder.encode_batch = capture
    try:
        argv = ["encode", "--model", ckpt_path, "--in", in_path, "--out", out_path]
        run.measure(gen, Stage(run, "main", "main.items_per_s", lambda: cli_call(argv),
                               len(sentences), len(sentences),
                               after=lambda _: digests.append(checks.sha256(out_path))))
    finally:
        SentenceEncoder.encode_batch = encode_batch

    run.check("encode rounds agree", checks.check_all_equal, digests, "vectors files")
    width = 2 * PAPER_HIDDEN
    try:
        vectors = checks.read_vectors(out_path, [s.id for s in sentences], width)
    except checks.CheckFailed as e:
        run.check_failures.append(f"vectors file: {e}")
        return
    run.check("vectors file", checks.check_same_bits, vectors, captured["vectors"], "parsed vectors")
    _, tokens, params = checks.read_checkpoint(ckpt_path)
    for k in range(0, len(sentences), len(sentences) // ENCODE_SAMPLE):
        s = sentences[k]
        run.check(f"reference encoding {s.id}", checks.check_close, vectors[k],
                  checks.reference_encoding(params, tokens, s.tokens), f"sentence {s.id}")
        run.check(f"POOL-1 {s.id}", checks.check_same_bits, model.encoder.encode(s), vectors[k],
                  f"sentence {s.id} alone vs batched")


def probe_desk(run: Run) -> None:
    """gen-fakes over a short-sentence corpus, then run_probes rounds with a
    desk-scale checkpoint."""
    probe_lines = inputs.corpus_lines(run.seed, PROBE_SENTENCES, "short")
    ckpt_path, probe_path = run.path("desk.ckpt"), run.path("probe.txt")
    inputs.write_random_checkpoint(ckpt_path, probe_lines, DESK_DIM, DESK_HIDDEN, DESK_MLP, run.seed)
    inputs.write_lines(probe_path, probe_lines)
    gen, _ = run.gen_fakes(probe_lines[:GENFAKES_SENTENCES])

    model, sentences = run.set_up(lambda: (checkpoint.load_model(ckpt_path), corpus.load_corpus(probe_path)))
    reports = []
    main = Stage(run, "main", "main.items_per_s",
                 lambda: probe.run_probes(model.encoder, sentences, PROBE_TASKS, seed=run.seed),
                 len(PROBE_TASKS), len(sentences),
                 after=lambda r: reports.append(json.dumps({t: v.to_dict() for t, v in r.items()})))
    run.measure(gen, main)
    run.check("probe rounds agree", checks.check_all_equal, reports, "probe reports")
    if main.result is None:
        return
    results = main.result
    datasets = {
        "sentlen": probe.gen_sentlen(sentences, seed=run.seed),
        "wc": probe.gen_wc(sentences, vocab=model.encoder.vocab, seed=run.seed),
        "bshift": probe.gen_bshift(sentences, seed=run.seed),
    }
    run.check("sentlen labels", checks.check_sentlen, datasets["sentlen"], probe_lines)
    run.check("wc labels", checks.check_wc, datasets["wc"], probe_lines)
    run.check("bshift pairs", checks.check_bshift, datasets["bshift"], probe_lines)
    for task, dataset in datasets.items():
        run.check(f"{task} split sizes", checks.check_split_sizes, results[task], dataset)
    for task in ("sentlen", "wc"):
        run.check(f"{task} above chance", checks.check_above_chance, results[task], datasets[task])


WORKLOADS = {"train-mid": train_mid, "encode-paper": encode_paper, "probe-desk": probe_desk}
