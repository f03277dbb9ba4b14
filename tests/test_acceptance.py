"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to watch the lines appear;
the heavyweight training fixture is shared by the criteria that need a
trained model.
"""

import contextlib
import hashlib
import io
import math
import time
from collections import Counter

import numpy as np
import pytest

from acceptance_report import report

from fakesent import checkpoint as ckpt
from fakesent import classifier as cl
from fakesent import cli
from fakesent import fakegen as fg
from fakesent import numcore as nc
from fakesent import probe as pb
from fakesent.corpus import Sentence, build_vocab, init_embeddings
from fakesent.encoder import SentenceEncoder
from synthetic import ascending_corpus, constant, dp_edit_distance, split_by_source

SEED = 100


def build_sep_model(vocab, emb_scale, mlp, seed):
    rng = np.random.default_rng(seed)
    encoder = SentenceEncoder.create(vocab, init_embeddings(vocab, 16, rng, scale=emb_scale), 32, rng)
    return cl.DetectorModel.create(encoder, *mlp, rng)


def run_sep(strategy, epochs, lr_decay, emb_scale, mlp, out_dir, tag):
    corpus = ascending_corpus(seed=SEED)
    vocab = build_vocab(corpus)
    data = fg.build_dataset(corpus, strategy, 1, seed=SEED)
    train, valid, test = split_by_source(data, seed=SEED)
    model = build_sep_model(vocab, emb_scale, mlp, SEED)
    cfg = cl.TrainConfig(
        batch_size=64, epochs=epochs, learning_rate=0.1, lr_decay_factor=lr_decay, seed=SEED
    )
    ckpt_path = out_dir / f"{tag}.ckpt"
    metrics_path = out_dir / f"{tag}.metrics.jsonl"
    t0 = time.perf_counter()
    train_report = cl.train(model, train, valid, cfg, ckpt_path, metrics_path)
    elapsed = time.perf_counter() - t0
    best = ckpt.load_model(ckpt_path)
    test_accuracy = cl.evaluate(best, test).accuracy
    return {
        "model": model,
        "best": best,
        "report": train_report,
        "ckpt_path": ckpt_path,
        "metrics_path": metrics_path,
        "corpus": corpus,
        "vocab": vocab,
        "train": train,
        "test_accuracy": test_accuracy,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def sep1(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("sep1")
    return run_sep(fg.WORD_SHUFFLE, epochs=15, lr_decay=0.5, emb_scale=2.0,
                   mlp=(32, 16), out_dir=out_dir, tag="sep1")


def test_grad1_full_composition_gradient():
    t0 = time.perf_counter()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        cli.main(["gradcheck"])  # "max relative error <err>", exit 4 when err >= 1e-4
    err = float(stdout.getvalue().split()[-1])
    elapsed = time.perf_counter() - t0
    report("GRAD-1", err < 1e-4 and elapsed < 60,
           f"(max rel err {err:.3e}, {elapsed:.1f}s)")


def test_gen1_corruption_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    sentences = []
    for i in range(1000):
        n = int(rng.integers(2, 13))
        toks = tuple(f"w{int(k)}" for k in rng.integers(0, 40, size=n))
        sentences.append(Sentence(toks, str(i)))

    checked_shuffle = checked_drop = 0
    for s in sentences:
        srng = np.random.default_rng([3, int(s.id)])
        try:
            fake, rec = fg.word_shuffle(s, srng)
        except fg.NoDistinctPair:
            pass
        else:
            assert len(fake.tokens) == len(s.tokens)
            assert Counter(fake.tokens) == Counter(s.tokens)
            assert fake.tokens != s.tokens
            assert dp_edit_distance(s.tokens, fake.tokens) == 2
            checked_shuffle += 1
        fake, rec = fg.word_drop(s, np.random.default_rng([4, int(s.id)]))
        assert len(fake.tokens) == len(s.tokens) - 1
        diff = Counter(s.tokens) - Counter(fake.tokens)
        assert sum(diff.values()) == 1
        assert dp_edit_distance(s.tokens, fake.tokens) == 1
        checked_drop += 1

    d1 = fg.build_dataset(sentences, fg.WORD_SHUFFLE, 1, seed=99)
    d2 = fg.build_dataset(sentences, fg.WORD_SHUFFLE, 1, seed=99)
    assert d1 == d2
    elapsed = time.perf_counter() - t0
    report("GEN-1", checked_shuffle >= 900 and checked_drop == 1000 and elapsed < 10,
           f"({checked_shuffle} shuffles, {checked_drop} drops, {elapsed:.1f}s)")


def test_pool1_pooling_and_batch_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    pairs = 0
    for trial in range(100):
        v = int(rng.integers(8, 30))
        dim = int(rng.integers(2, 7))
        hidden = int(rng.integers(2, 9))
        tokens = [f"t{i}" for i in range(v)]
        vocab = build_vocab([Sentence(tuple(tokens), "v")])
        enc_rng = np.random.default_rng(int(rng.integers(1 << 30)))
        table = init_embeddings(vocab, dim, enc_rng, dtype=np.float32)
        encoder = SentenceEncoder.create(vocab, table, hidden, enc_rng)
        n = int(rng.integers(1, 10))
        s = Sentence(tuple(tokens[int(k)] for k in rng.integers(0, v, size=n)), "s")
        z, u = encoder.encode_with_states(s)
        assert np.array_equal(z, u.max(axis=0)), "pooling dominance violated"
        # batched encodings bit-identical to unbatched
        group = [s] + [
            Sentence(tuple(tokens[int(k)] for k in rng.integers(0, v, size=int(rng.integers(1, 10)))), f"g{j}")
            for j in range(6)
        ]
        batched = encoder.encode_batch(group)
        for row, sent in zip(batched, group):
            assert np.array_equal(row, encoder.encode(sent)), "batch/unbatched mismatch"
        pairs += 1
    elapsed = time.perf_counter() - t0
    report("POOL-1", pairs == 100 and elapsed < 10, f"({pairs} model/sentence pairs, {elapsed:.1f}s)")


def test_sep1_shuffle_learnability(sep1):
    acc = sep1["test_accuracy"]
    report("SEP-1", acc > 0.95 and sep1["elapsed"] < 600,
           f"(held-out accuracy {acc:.3f}, {sep1['elapsed']:.0f}s)")


def test_sep2_drop_learnability(tmp_path):
    result = run_sep(fg.WORD_DROP, epochs=40, lr_decay=1.0, emb_scale=3.0,
                     mlp=(32, 16), out_dir=tmp_path, tag="sep2")
    acc = result["test_accuracy"]
    report("SEP-2", acc > 0.80 and result["elapsed"] < 600,
           f"(held-out accuracy {acc:.3f}, {result['elapsed']:.0f}s)")


def test_probe1_harness_sanity(sep1):
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)

    # (a) linearly separable synthetic encodings: perfect test accuracy
    n = 2000
    sentences = [Sentence(("x",), f"p{i}") for i in range(n)]
    labels = rng.integers(0, 2, size=n)
    centers = np.array([[4.0, 0.0], [-4.0, 1.0]])
    encodings = {
        s.id: centers[labels[i]] + 0.2 * rng.standard_normal(2) for i, s in enumerate(sentences)
    }
    pairs = [(s, int(labels[i])) for i, s in enumerate(sentences)]
    ds = pb.ProbeDataset("synthetic", 2, pairs[:1600], pairs[1600:1800], pairs[1800:])
    separable_acc = pb.train_probe(ds, encodings).test_accuracy

    # (b) label-shuffled dataset: chance-level over five shuffle seeds
    chance_accs = []
    all_labels = [label for _, label in pairs]
    for shuffle_seed in range(5):
        srng = np.random.default_rng(1000 + shuffle_seed)
        shuffled = srng.permutation(all_labels)
        noise_pairs = [(s, int(l)) for (s, _), l in zip(pairs, shuffled)]
        ds_shuffled = pb.ProbeDataset(
            "shuffled", 2, noise_pairs[:1600], noise_pairs[1600:1800], noise_pairs[1800:]
        )
        chance_accs.append(pb.train_probe(ds_shuffled, encodings).test_accuracy)
    chance_dev = abs(float(np.mean(chance_accs)) - 0.5)

    # (c) SentLen probe on the trained encoder clears chance by >= 10 points
    encoder = sep1["best"].encoder
    ckpt_hash_before = hashlib.sha256(sep1["ckpt_path"].read_bytes()).hexdigest()
    dataset = pb.gen_sentlen(sep1["corpus"], seed=SEED)
    needed = dataset.sentences()
    vectors = encoder.encode_batch(needed).astype(np.float64)
    sentlen_result = pb.train_probe(dataset, {s.id: vectors[i] for i, s in enumerate(needed)})
    chance = 1.0 / dataset.num_classes
    margin = sentlen_result.test_accuracy - chance
    ckpt_hash_after = hashlib.sha256(sep1["ckpt_path"].read_bytes()).hexdigest()

    elapsed = time.perf_counter() - t0
    ok = (
        separable_acc == 1.0
        and chance_dev <= 0.05
        and margin >= 0.10
        and ckpt_hash_before == ckpt_hash_after
        and elapsed < 300
    )
    report(
        "PROBE-1",
        ok,
        f"(separable {separable_acc:.2f}, shuffled dev {chance_dev:.3f}, "
        f"sentlen {sentlen_result.test_accuracy:.3f} vs chance {chance:.3f}, {elapsed:.0f}s)",
    )


def test_probe2_trained_encoder_beats_its_untrained_start(sep1):
    # an untrained BiLSTM-max is a strong probing baseline (Wieting & Kiela
    # 2019), so the gate is the gain over the encoder training started from
    t0 = time.perf_counter()
    untrained = build_sep_model(sep1["vocab"], 2.0, (32, 16), SEED).encoder
    trained, start = (pb.run_probes(encoder, sep1["corpus"], tasks=("sentlen", "bshift"), seed=SEED)
                      for encoder in (sep1["best"].encoder, untrained))
    bshift, sentlen = ((trained[task].test_accuracy, start[task].test_accuracy)
                       for task in ("bshift", "sentlen"))
    elapsed = time.perf_counter() - t0
    report(
        "PROBE-2",
        bshift[0] - bshift[1] >= 0.20,
        f"(bshift {bshift[0]:.3f} trained vs {bshift[1]:.3f} untrained; sentlen, not gated, "
        f"{sentlen[0]:.3f} vs {sentlen[1]:.3f}; {elapsed:.0f}s)",
    )


def test_init1_first_batch_loss_near_ln2(sep1):
    model = build_sep_model(sep1["vocab"], emb_scale=2.0, mlp=(32, 16), seed=SEED)
    batch = sep1["train"][:64]
    idx, lengths = model.encoder.prepare_batch([ex.sentence for ex in batch])
    labels = np.array([ex.label for ex in batch])
    loss, _ = model.batch_loss(None, idx, lengths, labels)
    gap = abs(loss.data.item() - math.log(2))
    report("INIT-1", gap < 0.1, f"(loss {loss.data.item():.4f}, ln2 gap {gap:.4f})")


def test_repro1_bitwise_reproducibility(sep1, tmp_path):
    second = run_sep(fg.WORD_SHUFFLE, epochs=15, lr_decay=0.5, emb_scale=2.0,
                     mlp=(32, 16), out_dir=tmp_path, tag="rerun")
    same_ckpt = sep1["ckpt_path"].read_bytes() == second["ckpt_path"].read_bytes()
    same_metrics = sep1["metrics_path"].read_bytes() == second["metrics_path"].read_bytes()
    # checkpoint round trip: bit-identical encodings on 100 sentences
    loaded = ckpt.load_model(sep1["ckpt_path"])
    sample = sep1["corpus"][:100]
    roundtrip = np.array_equal(
        loaded.encoder.encode_batch(sample), sep1["best"].encoder.encode_batch(sample)
    )
    report(
        "REPRO-1",
        same_ckpt and same_metrics and roundtrip,
        f"(checkpoints identical: {same_ckpt}, metrics identical: {same_metrics}, "
        f"round-trip identical: {roundtrip})",
    )


def test_conv1_quadratic_sgd_convergence():
    theta = nc.Parameter("theta", np.array([0.0]))

    def loss_fn(tape):
        t = theta
        shifted = nc.add(tape, t, constant(np.array([-2.0])))
        return nc.mul(tape, shifted, shifted)

    steps = 0
    for k in range(100):
        # closed-form oracle: theta_k = 2 - 2 * 0.8^k
        assert abs(theta.value[0] - (2.0 - 2.0 * 0.8**k)) < 1e-9
        tape = nc.Tape()
        nc.backward(tape, loss_fn(tape))
        nc.sgd_step([theta], 0.1)
        steps += 1
        if abs(theta.value[0] - 2.0) < 1e-6:
            break
    gap = abs(theta.value[0] - 2.0)
    report("CONV-1", gap < 1e-6 and steps <= 100, f"(|theta - 2| = {gap:.2e} after {steps} steps)")


def test_trained_encoder_is_permutation_sensitive(sep1):
    # not a numbered criterion: spot check that encodings change when word
    # order changes, on the trained model
    encoder = sep1["best"].encoder
    rng = np.random.default_rng(31)
    originals, shuffled = [], []
    for s in sep1["corpus"][:500]:
        fake, _ = fg.word_shuffle(s, rng)
        originals.append(s)
        shuffled.append(fake)
    z_orig = encoder.encode_batch(originals)
    z_fake = encoder.encode_batch(shuffled)
    changed = np.mean(np.any(z_orig != z_fake, axis=1))
    assert changed >= 0.99, f"only {changed:.2%} of encodings changed"
