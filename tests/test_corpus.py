import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fakesent import corpus as cp
from fakesent.errors import (
    DimensionMismatch,
    EmptyCorpus,
    EmptySentence,
    MalformedLine,
)


def sentences(token_lists):
    return [cp.Sentence(tuple(toks), str(i)) for i, toks in enumerate(token_lists)]


def test_tokenize_basic():
    s = cp.tokenize("It shone in the light .")
    assert s.tokens == ("it", "shone", "in", "the", "light", ".")


def test_tokenize_single_token():
    assert cp.tokenize("a").tokens == ("a",)


def test_tokenize_whitespace_only_raises():
    with pytest.raises(EmptySentence):
        cp.tokenize("   ")


@given(st.text(alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=60))
def test_tokenize_idempotent_on_rejoined_output(line):
    try:
        first = cp.tokenize(line)
    except EmptySentence:
        return
    second = cp.tokenize(" ".join(first.tokens))
    assert second.tokens == first.tokens


def test_sentence_rejects_empty_and_whitespace_tokens():
    with pytest.raises(EmptySentence):
        cp.Sentence((), "x")
    with pytest.raises(EmptySentence):
        cp.Sentence(("a", ""), "x")
    with pytest.raises(EmptySentence):
        cp.Sentence(("a b",), "x")


def test_sentence_rejects_what_no_reader_or_checkpoint_takes():
    with pytest.raises(TypeError):
        cp.Sentence(("a",), 3)
    with pytest.raises(TypeError):
        cp.Sentence(("a", b"b"), "x")
    with pytest.raises(ValueError, match="^a token of 65536 UTF-8 bytes, over the 65535 a checkpoint stores$"):
        cp.Sentence(("a", "\u00e9" * 32768), "x")
    with pytest.raises(ValueError, match="surrogates not allowed"):  # no UTF-8 bytes at all
        cp.Sentence(("a", "\ud800"), "x")
    assert cp.Sentence(("a", "\u00e9" * 32767 + "a"), "x").tokens[1].endswith("a")


def test_build_vocab_frequency_order():
    vocab = cp.build_vocab(sentences([["a", "b"], ["a"]]), min_count=1)
    assert len(vocab) == 4
    assert vocab.index("a") == 2
    assert vocab.index("b") == 3
    assert vocab.tokens[:2] == (cp.PAD, cp.UNK)


def test_build_vocab_min_count_cutoff():
    vocab = cp.build_vocab(sentences([["a", "b"], ["a"]]), min_count=2)
    assert len(vocab) == 3
    assert "b" not in vocab
    assert vocab.index("b") == cp.UNK_INDEX


def test_build_vocab_tie_break_is_lexicographic():
    vocab = cp.build_vocab(sentences([["b", "a", "c"]]))
    assert [vocab.index(t) for t in ("a", "b", "c")] == [2, 3, 4]


def test_build_vocab_counts_distinct_tokens_of_generated_corpus():
    # oracle: an independent scan counting distinct tokens
    rng = np.random.default_rng(123)
    alphabet = [f"tok{i:02d}" for i in range(50)]
    corpus = []
    for i in range(1000):
        k = rng.integers(3, 10)
        toks = [alphabet[j] for j in rng.integers(0, 50, size=k)]
        corpus.append(cp.Sentence(tuple(toks), str(i)))
    distinct = set()
    for s in corpus:
        distinct.update(s.tokens)
    assert len(distinct) == 50  # every alphabet token was drawn
    vocab = cp.build_vocab(corpus, min_count=1)
    assert len(vocab) == len(distinct) + 2 == 52


def test_build_vocab_empty_corpus_raises():
    with pytest.raises(EmptyCorpus):
        cp.build_vocab([])


def test_build_vocab_deterministic():
    corpus = sentences([["d", "c", "c"], ["b", "b", "a"], ["a", "a"]])
    v1 = cp.build_vocab(corpus)
    v2 = cp.build_vocab(corpus)
    assert v1.tokens == v2.tokens


def test_unknown_token_maps_to_unk():
    vocab = cp.build_vocab(sentences([["a"]]))
    assert vocab.index("zzz") == cp.UNK_INDEX
    assert vocab.indices(["a", "zzz"]) == [2, cp.UNK_INDEX]
    # a corpus that writes rare words as a literal <unk> (Penn Treebank, WikiText)
    vocab = cp.build_vocab(sentences([[cp.UNK, "a", cp.UNK], [cp.PAD, "a"]]))
    assert vocab.tokens == (cp.PAD, cp.UNK, "a")


@given(st.lists(st.sampled_from(["a", "b", "c", cp.PAD, cp.UNK]) | st.text(min_size=1, max_size=3), max_size=20))
def test_vocabulary_is_reserved_rows_then_each_word_once_in_first_seen_order(words):
    vocab = cp.Vocabulary(words)
    expected = list(cp.RESERVED)
    for w in words:
        if w not in expected:
            expected.append(w)
    assert vocab.tokens == tuple(expected)
    assert [vocab.index(t) for t in vocab.tokens] == list(range(len(vocab)))
    assert cp.Vocabulary(vocab.tokens).tokens == vocab.tokens


def test_load_embeddings_copies_present_rows(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("a 1.0 2.0\n")
    vocab = cp.build_vocab(sentences([["a"]]))
    table = cp.load_embeddings(p, vocab, np.random.default_rng(0), dtype=np.float64)
    assert table.shape[1] == 2
    assert np.array_equal(table[vocab.index("a")], [1.0, 2.0])
    assert np.array_equal(table[cp.PAD_INDEX], [0.0, 0.0])
    unk_row = table[cp.UNK_INDEX]
    assert np.all(np.abs(unk_row) <= 0.1) and np.any(unk_row != 0.0)


def test_load_embeddings_ragged_lines_raise(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("a 1.0\nb 2.0 3.0\n")
    vocab = cp.build_vocab(sentences([["a", "b"]]))
    with pytest.raises(DimensionMismatch):
        cp.load_embeddings(p, vocab, np.random.default_rng(0))


def test_load_embeddings_non_numeric_raises(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("a 1.0 oops\n")
    vocab = cp.build_vocab(sentences([["a"]]))
    with pytest.raises(MalformedLine):
        cp.load_embeddings(p, vocab, np.random.default_rng(0))


@pytest.mark.parametrize(
    "value, dtype",
    [("nan", np.float32), ("inf", np.float64), ("-inf", np.float32), ("1e39", np.float32)],
)
def test_load_embeddings_non_finite_raises(tmp_path, value, dtype):
    p = tmp_path / "vec.txt"
    p.write_text(f"a 1.0 2.0\nb 0.5 {value}\n")
    vocab = cp.build_vocab(sentences([["a", "b"]]))
    with pytest.raises(MalformedLine, match=rf"^{re.escape(str(p))}:2: "):
        cp.load_embeddings(p, vocab, np.random.default_rng(0), dtype=dtype)


def test_load_embeddings_coverage_matches_set_intersection(tmp_path):
    # oracle: brute-force set intersection between file tokens and vocab
    rng = np.random.default_rng(9)
    vocab_tokens = [f"w{i}" for i in range(40)]
    file_tokens = [f"w{i}" for i in range(0, 80, 3)]
    p = tmp_path / "vec.txt"
    with open(p, "w") as f:
        for t in file_tokens:
            vals = " ".join(str(v) for v in rng.uniform(1, 2, size=4))
            f.write(f"{t} {vals}\n")
    corpus = sentences([vocab_tokens])
    vocab = cp.build_vocab(corpus)
    table = cp.load_embeddings(p, vocab, np.random.default_rng(1), dtype=np.float64)
    covered = sum(
        1
        for t in vocab_tokens
        if np.all(np.abs(table[vocab.index(t)]) >= 1.0)  # file values lie in [1, 2]
    )
    expected = len(set(vocab_tokens) & set(file_tokens))
    assert covered == expected


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_load_embeddings_peak_memory_is_about_one_table(tmp_path, dtype):
    # 2,100 rows of d=50: half the vocabulary in the file, plus tokens outside it
    rng = np.random.default_rng(4)
    tokens = [f"w{i}" for i in range(2098)]
    vocab = cp.build_vocab(sentences([tokens]))
    p = tmp_path / "vec.txt"
    with open(p, "w") as f:
        for t in tokens[::2] + [f"oov{i}" for i in range(200)]:
            f.write(" ".join([t, *map(str, rng.uniform(-1, 1, size=50).tolist())]) + "\n")
    tracemalloc.start()
    try:
        table = cp.load_embeddings(p, vocab, np.random.default_rng(0), dtype=dtype)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.shape == (2100, 50) and table.dtype == dtype
    assert peak <= 1.5 * table.nbytes, peak / table.nbytes


def test_read_corpus_skips_blank_lines(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("A b\n\n  \nc\n")
    sents = cp.load_corpus(p)
    assert [s.tokens for s in sents] == [("a", "b"), ("c",)]
    assert [s.id for s in sents] == ["0", "3"]


def test_load_corpus_empty_raises(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("\n\n")
    with pytest.raises(EmptyCorpus):
        cp.load_corpus(p)
