"""Show that every correctness check is live.

Each check is run on a genuine output of the program (it must pass) and on
a copy with one deliberate corruption (it must fail). Desk-scale inputs,
about half a minute on one core:

    python3 perfbench/check_live.py

Prints one line per (check, corruption) and exits 1 if a check passes a
corrupted output or rejects a genuine one.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from checks import CheckFailed  # noqa: E402

from fakesent import checkpoint, cli, corpus, fakegen, probe  # noqa: E402

SEED = 7
results: list[bool] = []


def expect(name: str, fn, genuine: tuple, corrupted: tuple) -> None:
    try:
        fn(*genuine)
    except CheckFailed as e:
        print(f"WRONG  {name}: rejects the genuine output ({e})")
        results.append(False)
        return
    try:
        fn(*corrupted)
    except CheckFailed as e:
        print(f"live   {name}: {e}")
        results.append(True)
        return
    print(f"DEAD   {name}: accepts the corrupted output")
    results.append(False)


def with_tokens(example, tokens):
    return dataclasses.replace(example, sentence=dataclasses.replace(example.sentence, tokens=tuple(tokens)))


def gen_fakes_checks(lines) -> None:
    sentences = [corpus.tokenize(line, str(i)) for i, line in enumerate(lines)]
    data = fakegen.build_dataset(sentences, "shuffle", 1, SEED)
    k = next(i for i, ex in enumerate(data) if ex.label == 0 and len(set(ex.sentence.tokens)) > 3)
    toks = list(data[k].sentence.tokens)
    third = next(p for p in range(len(toks)) if toks[p] == data[k - 1].sentence.tokens[p])
    toks[third] = "zzzzzz"  # the swap's two edits plus one substitution elsewhere
    expect("shuffle fakes / third edit", checks.check_shuffle_dataset, (lines, data),
           (lines, data[:k] + [with_tokens(data[k], toks)] + data[k + 1 :]))
    expect("shuffle fakes / missing fake", checks.check_shuffle_dataset, (lines, data),
           (lines, data[:k] + data[k + 1 :]))
    expect("JSONL read back / one token", checks.check_same_examples, (data, data),
           (data[:1] + [with_tokens(data[1], ("changed",) + data[1].sentence.tokens[1:])] + data[2:], data))


def training_checks(tmp: Path, lines) -> None:
    path = tmp / "desk.ckpt"
    inputs.write_random_checkpoint(path, lines, 16, 32, (32, 16), SEED)
    model = checkpoint.load_model(path)
    batch = [corpus.tokenize(line, str(i)) for i, line in enumerate(lines[:64])]
    idx, lengths = model.encoder.prepare_batch(batch)
    loss = model.batch_loss(None, idx, lengths, np.arange(64) % 2)[0].data.item()
    expect("first-batch loss / off by 0.2", checks.check_initial_loss, (loss,), (loss + 0.2,))
    expect("epoch losses / one NaN", checks.check_epoch_losses, ([0.69, 0.6],), ([0.69, float("nan")],))
    expect("REPRO-1 / one round differs", checks.check_all_equal, (["a", "a"], "x"), (["a", "b"], "x"))
    raw = path.read_bytes()
    flipped = bytearray(raw)
    flipped[-1] ^= 1
    expect("checkpoint reload / one bit", checks.check_bytes_equal, (raw, raw, "x"), (raw, bytes(flipped), "x"))


def encode_checks(tmp: Path, lines) -> None:
    path, text, out = tmp / "desk.ckpt", tmp / "in.txt", tmp / "vectors.txt"
    inputs.write_lines(text, lines[:64])
    assert cli.main(["encode", "--model", str(path), "--in", str(text), "--out", str(out)]) == 0
    model = checkpoint.load_model(path)
    sentences = corpus.load_corpus(text)
    ids = [s.id for s in sentences]
    in_memory = model.encoder.encode_batch(sentences)
    vectors = checks.read_vectors(out, ids, 64)
    bumped = vectors.copy()
    bumped[3, 5] = np.nextafter(bumped[3, 5], np.float32(2))
    expect("vectors file / one ulp", checks.check_same_bits, (vectors, in_memory, "x"), (bumped, in_memory, "x"))
    short = tmp / "short.txt"
    inputs.write_lines(short, out.read_text().splitlines()[:-1])
    expect("vectors file / one line missing", checks.read_vectors, (out, ids, 64), (short, ids, 64))
    _, tokens, params = checks.read_checkpoint(path)
    ref = checks.reference_encoding(params, tokens, sentences[3].tokens)
    off = vectors[3].copy()
    off[5] += 1e-3
    expect("reference encoding / one value +1e-3", checks.check_close,
           (vectors[3], ref, "x"), (off, ref, "x"))
    alone = model.encoder.encode(sentences[3])
    expect("POOL-1 / one ulp", checks.check_same_bits, (alone, vectors[3], "x"), (alone, bumped[3], "x"))


def probe_checks(tmp: Path) -> None:
    lines = inputs.corpus_lines(SEED, 6144, "short")
    path = tmp / "probe.ckpt"
    inputs.write_random_checkpoint(path, lines, 16, 32, (32, 16), SEED)
    model = checkpoint.load_model(path)
    sentences = [corpus.tokenize(line, str(i)) for i, line in enumerate(lines)]
    cfg = probe.ProbeConfig(l2_grid=(1e-3,), max_iterations=100)
    results = probe.run_probes(model.encoder, sentences, ("sentlen", "wc", "bshift"), SEED, cfg)
    data = {
        "sentlen": probe.gen_sentlen(sentences, seed=SEED),
        "wc": probe.gen_wc(sentences, vocab=model.encoder.vocab, seed=SEED),
        "bshift": probe.gen_bshift(sentences, seed=SEED),
    }

    def relabel(dataset, k, label):
        train = list(dataset.train)
        train[k] = (train[k][0], label)
        return dataclasses.replace(dataset, train=train)

    sentlen, wc, bshift = data["sentlen"], data["wc"], data["bshift"]
    expect("sentlen labels / one wrong", checks.check_sentlen, (sentlen, lines),
           (relabel(sentlen, 0, (sentlen.train[0][1] + 1) % 6), lines))
    expect("wc labels / one wrong", checks.check_wc, (wc, lines),
           (relabel(wc, 0, (wc.train[0][1] + 1) % 10), lines))
    k = next(i for i, (s, label) in enumerate(bshift.train) if label == 1 and len(s) >= 6)
    s = bshift.train[k][0]
    toks = list(s.tokens)
    p = next(p for p in range(len(toks) - 4, 0, -1) if toks[p] != toks[p + 1])
    toks[p], toks[p + 1] = toks[p + 1], toks[p]  # a second adjacent transposition
    train = list(bshift.train)
    train[k] = (dataclasses.replace(s, tokens=tuple(toks)), 1)
    expect("bshift pairs / two transpositions", checks.check_bshift, (bshift, lines),
           (dataclasses.replace(bshift, train=train), lines))
    r = results["sentlen"]
    sizes = dict(r.split_sizes, test=r.split_sizes["test"] + 1)
    expect("split sizes / off by one", checks.check_split_sizes, (r, sentlen),
           (dataclasses.replace(r, split_sizes=sizes), sentlen))
    train = [label for _, label in sentlen.train]
    majority = max(set(train), key=lambda c: (train.count(c), -c))
    chance = [label for _, label in sentlen.test].count(majority) / len(sentlen.test)
    expect("above chance / at chance", checks.check_above_chance, (r, sentlen),
           (dataclasses.replace(r, test_accuracy=chance), sentlen))


def main() -> int:
    lines = inputs.corpus_lines(SEED, 256, "long-tail")
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        gen_fakes_checks(lines)
        training_checks(Path(tmp), lines)
        encode_checks(Path(tmp), lines)
        probe_checks(Path(tmp))
    print(f"{sum(results)} of {len(results)} checks live")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
