"""Fuzz tests for the text readers: corpus, JSONL dataset, embedding file and
config file (the checkpoint reader has its own in test_classifier.py).

Each test feeds a reader generated file contents and asserts that only a
FakesentError subclass escapes it. When the reader rejects the contents,
the CLI command that reads such a file must print exactly one
``<category>: <message>`` line on stderr and exit with that category's code.
"""

import codecs
import contextlib
import io
import json

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from fakesent import cli
from fakesent import corpus as cp
from fakesent import fakegen as fg
from fakesent.errors import FakesentError

FUZZ = settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

# deeper than the JSON parser can recurse; random generation never gets there
DEEP_JSON = b"[" * 200_000 + b"\n"


def text_file(words):
    """File contents: arbitrary bytes, or up to four lines of ``words`` mixed
    with arbitrary text (lone surrogates come out as invalid UTF-8)."""
    line = st.lists(st.sampled_from(words) | st.text(max_size=4), max_size=5).map(" ".join)
    lines = st.lists(line, max_size=4).map(lambda ls: "\n".join(ls).encode("utf-8", "surrogatepass"))
    return st.binary(max_size=40) | lines


def rejection(read, path):
    """The FakesentError ``read(path)`` raised, or None if it accepted the file."""
    try:
        read(path)
    except FakesentError as e:
        return e
    return None


def assert_cli_prints_one_line(argv, category, code):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main([str(a) for a in argv]) == code
    text = err.getvalue()
    assert text.startswith(f"{category}: ") and text.count("\n") == 1, text


@FUZZ
@given(raw=text_file(["a", "B", "\t", "\r", "\x85", " "]))
def test_corpus_reader_raises_only_package_errors(tmp_path, raw):
    p = tmp_path / "corpus.txt"
    p.write_bytes(raw)
    if rejection(cp.load_corpus, p) is not None:
        assert_cli_prints_one_line(["gen-fakes", "--strategy", "shuffle", "--seed", 0,
                                    "--in", p, "--out", tmp_path / "d.jsonl"], "data-error", 3)


_json_value = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)
# each field plausible or arbitrary, present or absent
_record = st.fixed_dictionaries({}, optional={
    key: values | _json_value
    for key, values in {
        "id": st.text(max_size=3),
        "tokens": st.lists(st.sampled_from(["a", "b", "", " ", "a b"]), max_size=4),
        "label": st.sampled_from([fg.FAKE, fg.REAL, 2, True, 1.0, "1"]),
        "source_id": st.text(max_size=3),
        "strategy": st.sampled_from([fg.WORD_SHUFFLE, fg.WORD_DROP, "swap"]),
        "i": st.integers(-1, 4),
        "j": st.integers(-1, 4),
    }.items()
})
_dataset_line = _record.map(json.dumps) | _json_value.map(json.dumps) | st.text(max_size=12)


@FUZZ
@given(raw=st.binary(max_size=40) | st.lists(_dataset_line, max_size=3).map(
    lambda ls: "\n".join(ls).encode("utf-8", "surrogatepass")))
@example(raw=DEEP_JSON)
@example(raw=b'{"id": "0", "tokens": ' + DEEP_JSON)
def test_dataset_reader_raises_only_package_errors(tmp_path, raw):
    p = tmp_path / "data.jsonl"
    p.write_bytes(raw)
    if rejection(fg.load_dataset, p) is not None:
        assert_cli_prints_one_line(["train", "--data", p, "--valid", p, "--seed", 0,
                                    "--out", tmp_path / "m.ckpt"], "data-error", 3)


def write_small_dataset(tmp_path):
    sentences = [cp.Sentence(("a", "b", "c"), "0"), cp.Sentence(("c", "a"), "1")]
    path = tmp_path / "small.jsonl"
    fg.write_dataset(path, fg.build_dataset(sentences, fg.WORD_SHUFFLE, 1, seed=0))
    return path


@FUZZ
@given(
    raw=text_file(["a", "b", cp.PAD, cp.UNK, "0", "-1.5", "2e-45", "1e39", "1e400", "nan", "-inf", "1_0", "x"]),
    precision=st.sampled_from(["float32", "float64"]),
)
def test_embedding_reader_raises_only_package_errors(tmp_path, raw, precision):
    p = tmp_path / "vec.txt"
    p.write_bytes(raw)
    vocab = cp.build_vocab([cp.Sentence(("a", "b", "c"), "0")])
    try:
        table = cp.load_embeddings(p, vocab, np.random.default_rng(0), dtype=np.dtype(precision))
    except FakesentError:
        data = write_small_dataset(tmp_path)
        assert_cli_prints_one_line(["train", "--data", data, "--valid", data, "--embeddings", p,
                                    "--precision", precision, "--seed", 0,
                                    "--out", tmp_path / "m.ckpt"], "data-error", 3)
    else:
        assert table.shape[0] == len(vocab) and table.dtype == np.dtype(precision)
        assert np.isfinite(table).all() and not table[cp.PAD_INDEX].any()


_config_line = (
    st.tuples(
        st.sampled_from([*cli.SCHEMAS["train"], "nope", ""]),
        st.sampled_from(["0", "-1", "3", "0.5", "nan", "1e400", "true", "maybe", "4,4", "4,0", "float16"])
        | st.text(max_size=4),
    ).map("=".join)
    | st.text(max_size=8)
)


@FUZZ
@given(raw=st.binary(max_size=40) | st.lists(_config_line, max_size=4).map(
    lambda ls: "\n".join(ls).encode("utf-8", "surrogatepass")))
def test_config_reader_raises_only_package_errors(tmp_path, raw):
    p = tmp_path / "run.cfg"
    p.write_bytes(raw)
    if rejection(lambda path: cli.resolve_config("train", path, {}), p) is not None:
        assert_cli_prints_one_line(["train", "--config", p], "usage-error", 2)


def test_a_leading_byte_order_mark_is_not_part_of_the_data(tmp_path):
    vocab = cp.build_vocab([cp.Sentence(("the", "cat"), "0")])
    readers = {
        "corpus.txt": cp.load_corpus,
        "small.jsonl": fg.load_dataset,
        "vec.txt": lambda path: cp.load_embeddings(path, vocab, np.random.default_rng(0)).tolist(),
        "run.cfg": lambda path: cli.resolve_config("gen-fakes", path, {}),
    }
    write_small_dataset(tmp_path)
    (tmp_path / "corpus.txt").write_text("The cat sat\nthe end\n", encoding="utf-8")
    (tmp_path / "vec.txt").write_text("the 1.0 2.0\ncat 0.5 -1.5\n", encoding="utf-8")
    (tmp_path / "run.cfg").write_text("seed=3\nstrategy=drop\n", encoding="utf-8")
    for name, read in readers.items():
        plain = tmp_path / name
        marked = tmp_path / f"bom-{name}"
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        assert read(marked) == read(plain), name
