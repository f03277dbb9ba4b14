import tracemalloc

import numpy as np
import pytest

from fakesent import probe as pb
from fakesent.corpus import Sentence, Vocabulary, build_vocab, init_embeddings
from fakesent.encoder import SentenceEncoder
from fakesent.errors import DegenerateBins, InsufficientExamples, MalformedLine
from synthetic import ascending_corpus


def sent(tokens, id):
    return Sentence(tuple(tokens), id)


def length_corpus(lengths):
    return [sent(["tok"] * n + [f"end{i}"], str(i)) for i, n in enumerate(np.asarray(lengths) - 1)]


def test_sentlen_binning_examples():
    # lengths 1..12, six of each: the sextile cuts are 3, 5, 7, 9 and 11, and
    # each bin holds the lengths above the previous cut up to its own
    corpus = [Sentence(("a",) * n, str(i)) for i, n in enumerate(np.repeat(np.arange(1, 13), 6))]
    ds = pb.gen_sentlen(corpus, seed=1)
    labels = {len(s): label for split in (ds.train, ds.valid, ds.test) for s, label in split}
    assert labels == {1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 2, 7: 2, 8: 3, 9: 3, 10: 4, 11: 4, 12: 5}
    assert ds.num_classes == 6


def test_sentlen_sextile_bins_near_equal():
    # sorting oracle: 60 distinct lengths split into six bins of ten
    corpus = length_corpus(np.arange(1, 61))
    thresholds = pb.sextile_thresholds([len(s) for s in corpus])
    assert thresholds == [11, 21, 31, 41, 51]
    counts = np.zeros(6, dtype=int)
    for s in corpus:
        counts[np.searchsorted(thresholds, len(s), side="left")] += 1
    assert all(abs(c - 10) <= 1 for c in counts)
    ds = pb.gen_sentlen(corpus, seed=0)
    total = sum(ds.split_sizes.values())
    assert total == 60


def test_sentlen_empty_bin_raises():
    with pytest.raises(DegenerateBins):
        pb.gen_sentlen(length_corpus([2] * 30 + [9] * 30), seed=0)  # sextiles collapse on two lengths
    with pytest.raises(DegenerateBins):
        # six equal groups: the cuts are the top five lengths, so nothing is above the last
        pb.gen_sentlen(length_corpus([2, 3, 4, 6, 7, 9] * 6), seed=0)


# ten tokens: the default wc targets are the whole vocabulary, in this order
PETS = Vocabulary(["cat", "dog"] + [f"pet{k}" for k in range(2, 10)])


def test_wc_membership_and_exclusion():
    assert pb.default_wc_targets(PETS) == list(PETS.tokens[2:])
    with pytest.raises(InsufficientExamples, match="only 9 tokens"):
        pb.default_wc_targets(Vocabulary(PETS.tokens[:-1]))
    corpus = [
        sent(["the", "cat", "sat"], "0"),
        sent(["a", "dog", "ran"], "1"),
        sent(["cat", "and", "dog"], "2"),  # two targets: excluded
        sent(["no", "pets", "here"], "3"),  # none: excluded
        sent(["cat", "cat", "nap"], "4"),  # repeated target still counts once
    ] + [sent([f"pet{k}", "alone"], f"p{k}") for k in range(2, 10)]
    corpus = [Sentence(s.tokens, str(i)) for i, s in enumerate(corpus * 12)]
    ds = pb.gen_wc(corpus, PETS, seed=3)
    rows = [(s, label) for split in (ds.train, ds.valid, ds.test) for s, label in split]
    assert all(("cat" in s.tokens) == (label == 0) for s, label in rows)
    assert all(("dog" in s.tokens) == (label == 1) for s, label in rows)
    assert all(s.tokens[0] == PETS.tokens[2 + label] for s, label in rows if label >= 2)
    # counting oracle over the corpus
    expected = sum(1 for s in corpus if len(set(s.tokens) & set(PETS.tokens[2:])) == 1)
    assert len(rows) == expected


def test_wc_starved_class_raises():
    corpus = [sent([t, "x"], f"{t}{i}") for t in PETS.tokens[2:] if t != "dog" for i in range(40)]
    corpus.append(sent(["dog", "x"], "dog0"))
    with pytest.raises(InsufficientExamples, match=r"\['dog'\]"):
        pb.gen_wc(corpus, PETS, seed=0)


def test_wc_default_targets_are_mid_frequency():
    # frequency rank r token appears (200 - r) times
    corpus = []
    n = 0
    for r in range(150):
        for _ in range(200 - r):
            corpus.append(sent([f"w{r:03d}", "filler"], str(n)))
            n += 1
    vocab = build_vocab(corpus)
    targets = pb.default_wc_targets(vocab)
    assert targets == list(vocab.tokens[102:112])
    # "filler" is the most frequent token (rank 0), so rank 100 is w099
    assert targets[0] == "w099"


def test_bshift_swaps_one_adjacent_distinct_pair():
    base = ["it", "shone", "in", "the", "light", "."]
    corpus = [sent(base, str(i)) for i in range(400)]
    ds = pb.gen_bshift(corpus, seed=5)
    rows = [(s, label) for split in (ds.train, ds.valid, ds.test) for s, label in split]
    assert len(rows) == 400
    seen_variants = set()
    for s, label in rows:
        if label == 0:
            assert s.tokens == tuple(base)
        else:
            diffs = [k for k, (x, y) in enumerate(zip(s.tokens, base)) if x != y]
            assert len(diffs) == 2 and diffs[1] == diffs[0] + 1
            p = diffs[0]
            assert s.tokens[p] == base[p + 1] and s.tokens[p + 1] == base[p]
            seen_variants.add(s.tokens)
    # the flipped-bigram variant swapping positions 2 and 3 occurs
    assert ("it", "shone", "the", "in", "light", ".") in seen_variants


def test_bshift_ineligible_sentences_skipped():
    corpus = [sent(["a", "a", "a"], "0"), sent(["a", "b"], "1")]
    with pytest.raises(InsufficientExamples):
        pb.gen_bshift(corpus, seed=0)


def test_bshift_class_ratio_near_half():
    rng = np.random.default_rng(9)
    corpus = [
        sent([f"t{int(k)}" for k in rng.integers(0, 50, size=6)], str(i)) for i in range(2000)
    ]
    ds = pb.gen_bshift(corpus, seed=11)
    labels = [label for split in (ds.train, ds.valid, ds.test) for _, label in split]
    ratio = np.mean(labels)
    assert abs(ratio - 0.5) <= 0.03


def test_split_deterministic_and_disjoint():
    corpus = length_corpus(np.arange(1, 61))
    d1 = pb.gen_sentlen(corpus, seed=4)
    d2 = pb.gen_sentlen(corpus, seed=4)
    assert [s.id for s, _ in d1.train] == [s.id for s, _ in d2.train]
    assert [s.id for s, _ in d1.test] == [s.id for s, _ in d2.test]
    ids = [s.id for split in (d1.train, d1.valid, d1.test) for s, _ in split]
    assert len(ids) == len(set(ids))
    d3 = pb.gen_sentlen(corpus, seed=5)
    assert [s.id for s, _ in d3.train] != [s.id for s, _ in d1.train]


def make_synthetic_probe_data(n, num_classes, rng, separation=4.0):
    sentences = [sent(["x"], f"p{i}") for i in range(n)]
    labels = rng.integers(0, num_classes, size=n)
    centers = rng.standard_normal((num_classes, 6)) * separation
    encodings = {
        s.id: centers[labels[i]] + rng.standard_normal(6) * 0.3 for i, s in enumerate(sentences)
    }
    pairs = [(s, int(labels[i])) for i, s in enumerate(sentences)]
    train, valid, test = pairs[: int(0.8 * n)], pairs[int(0.8 * n) : int(0.9 * n)], pairs[int(0.9 * n) :]
    return pb.ProbeDataset("synthetic", num_classes, train, valid, test), encodings


def test_probe_perfect_on_separable_encodings():
    rng = np.random.default_rng(13)
    dataset, encodings = make_synthetic_probe_data(400, 2, rng)
    result = pb.train_probe(dataset, encodings)
    assert result.test_accuracy == 1.0
    assert result.chosen_l2 <= 1e-2


def test_probe_chance_on_shuffled_labels():
    accs = []
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        dataset, encodings = make_synthetic_probe_data(2000, 2, rng)
        shuffled = rng.permutation([label for _, label in dataset.train])
        dataset.train = [(s, int(l)) for (s, _), l in zip(dataset.train, shuffled)]
        result = pb.train_probe(dataset, encodings)
        accs.append(result.test_accuracy)
    assert abs(np.mean(accs) - 0.5) <= 0.05


def test_probe_loss_matches_scipy_oracle():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(17)
    n, d, c, l2 = 60, 3, 3, 0.05
    x = rng.standard_normal((n, d))
    y = rng.integers(0, c, size=n)
    fit = pb.fit_logistic(x, y, c, l2, max_iterations=5000, tolerance=1e-10)
    assert fit.converged

    onehot = np.zeros((n, c))
    onehot[np.arange(n), y] = 1.0

    def pack_loss_grad(theta):
        w_ = theta[: d * c].reshape(d, c)
        b_ = theta[d * c :]
        logits = x @ w_ + b_
        shifted = logits - logits.max(axis=1, keepdims=True)
        logz = np.log(np.exp(shifted).sum(axis=1))
        loss = np.mean(logz - shifted[np.arange(n), y]) + l2 * (w_ * w_).sum()
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        r = (probs - onehot) / n
        gw = x.T @ r + 2 * l2 * w_
        gb = r.sum(axis=0)
        return loss, np.concatenate([gw.ravel(), b_ * 0 + gb])

    res = scipy_opt.minimize(
        pack_loss_grad, np.zeros(d * c + c), jac=True, method="L-BFGS-B",
        options={"maxiter": 5000, "ftol": 1e-15, "gtol": 1e-12},
    )
    ours = pack_loss_grad(np.concatenate([fit.w.ravel(), fit.b]))[0]
    assert abs(ours - res.fun) < 1e-6


def test_fit_logistic_keeps_last_accepted_point_when_line_search_underflows():
    # features of size 1e100 overflow the curvature of the first CG step, so
    # the Newton direction falls back to -g, whose entries reach 1.6e99:
    # even a step of 1e-14 along it moves the logits by up to 6e185, so every
    # step down to 1e-14 fails the Armijo test
    rng = np.random.default_rng(3)
    x = 1e100 * rng.standard_normal((20, 2))
    y = rng.integers(0, 2, size=20)
    with np.errstate(over="ignore"):  # the overflow is the input's point
        fit = pb.fit_logistic(x, y, 2, l2=0.0, max_iterations=5, tolerance=1e-5)
    assert not fit.converged
    assert np.array_equal(fit.w, np.zeros((2, 2)))
    assert np.array_equal(fit.b, np.zeros(2))


def test_fit_logistic_memory_stays_bounded_at_paper_width():
    # 2H = 1,024 features and 10 classes: a dense Hessian over (W, b) would
    # hold 10,250^2 float64s (840 MB), 50 times the features' 16 MB
    rng = np.random.default_rng(31)
    n, d, k = 2000, 1024, 10
    x = rng.standard_normal((n, d))
    y = np.argmax(x @ rng.standard_normal((d, k)) + 30 * rng.standard_normal((n, k)), axis=1)
    tracemalloc.start()
    try:
        fit = pb.fit_logistic(x, y, k, l2=1e-4, max_iterations=100, tolerance=1e-5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fit.converged
    assert peak < 3 * x.nbytes


def test_larger_penalty_never_grows_weight_norm():
    rng = np.random.default_rng(19)
    n, d, c = 80, 4, 2
    x = rng.standard_normal((n, d))
    y = rng.integers(0, c, size=n)
    norms = []
    for l2 in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
        fit = pb.fit_logistic(x, y, c, l2, max_iterations=5000, tolerance=1e-8)
        assert fit.converged
        norms.append(np.linalg.norm(fit.w))
    assert all(a >= b - 1e-9 for a, b in zip(norms, norms[1:]))


def test_ties_prefer_smaller_penalty():
    rng = np.random.default_rng(23)
    dataset, encodings = make_synthetic_probe_data(300, 2, rng, separation=8.0)
    result = pb.train_probe(dataset, encodings)
    # widely separated clusters: every grid value validates at 1.0
    assert result.valid_accuracy == 1.0
    assert result.chosen_l2 == 1e-4


def test_probe_missing_encoding_raises():
    rng = np.random.default_rng(29)
    dataset, encodings = make_synthetic_probe_data(100, 2, rng)
    del encodings["p0"]
    with pytest.raises(ValueError):
        pb.train_probe(dataset, encodings)


def test_probe_dataset_rejects_labels_it_cannot_train():
    rows = [(sent(["a"], str(i)), i % 2) for i in range(4)]
    with pytest.raises(ValueError, match="label 2 outside"):
        pb.ProbeDataset("t", 2, rows, [(sent(["b"], "v"), 2)], [])
    with pytest.raises(InsufficientExamples, match=r"classes \[2\] absent from train split"):
        pb.ProbeDataset("t", 3, rows, [(sent(["b"], "v"), 2)], [])


def test_config_rejects_bad_grid():
    with pytest.raises(ValueError):
        pb.ProbeConfig(l2_grid=())
    with pytest.raises(ValueError):
        pb.ProbeConfig(l2_grid=(0.1, -1.0))
    for not_finite in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            pb.ProbeConfig(l2_grid=(0.1, not_finite))
    for bad in ({"max_iterations": 0}, {"max_iterations": -5}, {"tolerance": float("nan")}, {"tolerance": 0.0}):
        with pytest.raises(ValueError):
            pb.ProbeConfig(**bad)


def test_run_probes_encodes_each_sentence_once(monkeypatch):
    rng = np.random.default_rng(4)
    words = [f"t{i:02d}" for i in range(30)]
    corpus = [sent([words[j] for j in rng.integers(0, 30, size=rng.integers(3, 15))], str(k))
              for k in range(800)]
    vocab = build_vocab(corpus)
    erng = np.random.default_rng(5)
    encoder = SentenceEncoder.create(vocab, init_embeddings(vocab, 4, erng), 4, erng)
    cfg = pb.ProbeConfig(l2_grid=(1e-2,), max_iterations=50)
    # oracle: every task encodes its own sentences in a call of its own
    datasets = {
        "sentlen": pb.gen_sentlen(corpus, seed=3),
        "wc": pb.gen_wc(corpus, vocab=vocab, seed=3),
        "bshift": pb.gen_bshift(corpus, seed=3),
    }
    expected = {}
    for task, dataset in datasets.items():
        needed = dataset.sentences()
        vectors = encoder.encode_batch(needed).astype(np.float64)
        expected[task] = pb.train_probe(dataset, {s.id: vectors[i] for i, s in enumerate(needed)}, cfg)

    seen = []
    encode_batch = SentenceEncoder.encode_batch

    def recording(self, sentences, batch_size=64):
        seen.extend(s.id for s in sentences)
        return encode_batch(self, sentences, batch_size)

    monkeypatch.setattr(SentenceEncoder, "encode_batch", recording)
    results = pb.run_probes(encoder, corpus, seed=3, cfg=cfg)
    assert {t: r.to_dict() for t, r in results.items()} == {t: r.to_dict() for t, r in expected.items()}
    assert len(seen) == len(set(seen))
    assert set(seen) == {s.id for d in datasets.values() for s in d.sentences()}
    assert len(seen) < sum(len(d.sentences()) for d in datasets.values())  # the tasks do share sentences


def test_every_desk_probe_fit_converges(monkeypatch):
    # desk shapes: d=16, H=32, a random encoder; each fit's returned point is
    # checked by a float64 gradient of its own
    corpus = ascending_corpus(3000, seed=2)
    vocab = build_vocab(corpus)
    rng = np.random.default_rng(8)
    encoder = SentenceEncoder.create(vocab, init_embeddings(vocab, 16, rng), 32, rng)
    fits = []
    fit_logistic = pb.fit_logistic

    def recording(x, y, num_classes, l2, max_iterations, tolerance):
        fit = fit_logistic(x, y, num_classes, l2, max_iterations, tolerance)
        fits.append((x, y, l2, tolerance, fit))
        return fit

    monkeypatch.setattr(pb, "fit_logistic", recording)
    results = pb.run_probes(encoder, corpus, seed=5)
    grid = sorted(pb.ProbeConfig().l2_grid)
    sweep = [entry for task in pb.TASKS for entry in results[task].sweep]
    assert [entry["l2"] for entry in sweep] == grid * len(pb.TASKS)
    assert all(entry["converged"] for entry in sweep)
    assert [entry["iterations"] for entry in sweep] == [fit.iterations for *_, fit in fits]
    for x, y, l2, tolerance, fit in fits:
        logits = x @ fit.w + fit.b
        r = np.exp(logits - logits.max(axis=1, keepdims=True))
        r /= r.sum(axis=1, keepdims=True)
        r[np.arange(len(y)), y] -= 1.0
        grad = np.concatenate([(x.T @ r / len(y) + 2 * l2 * fit.w).ravel(), r.mean(axis=0)])
        assert np.linalg.norm(grad) < tolerance


def test_run_probes_rejects_two_sentences_sharing_an_id():
    # one encoding per id would hand both sentences the encoding of one of them
    corpus = length_corpus(np.arange(1, 61))
    corpus[1] = Sentence(corpus[1].tokens, corpus[0].id)
    vocab = build_vocab(corpus)
    rng = np.random.default_rng(6)
    encoder = SentenceEncoder.create(vocab, init_embeddings(vocab, 4, rng), 4, rng)
    with pytest.raises(MalformedLine, match="sentence id '0'"):
        pb.run_probes(encoder, corpus, tasks=("sentlen",), cfg=pb.ProbeConfig(max_iterations=5))


def test_run_probes_rejects_an_empty_task_list():
    corpus = length_corpus(np.arange(1, 61))
    vocab = build_vocab(corpus)
    rng = np.random.default_rng(6)
    encoder = SentenceEncoder.create(vocab, init_embeddings(vocab, 4, rng), 4, rng)
    with pytest.raises(ValueError, match="no probing task"):
        pb.run_probes(encoder, corpus, tasks=())
    with pytest.raises(ValueError, match="unknown probing task 'nope'"):
        pb.run_probes(encoder, corpus, tasks=("sentlen", "nope"))


def test_every_generator_rejects_an_empty_sentence_list():
    vocab = build_vocab(length_corpus(np.arange(1, 61)))
    for gen in (pb.gen_sentlen, lambda s: pb.gen_wc(s, vocab), pb.gen_bshift):
        with pytest.raises(InsufficientExamples):
            gen([])
    rng = np.random.default_rng(6)
    encoder = SentenceEncoder.create(vocab, init_embeddings(vocab, 4, rng), 4, rng)
    with pytest.raises(InsufficientExamples):
        pb.run_probes(encoder, [], tasks=("sentlen",))
