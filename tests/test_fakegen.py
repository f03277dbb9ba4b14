import json
import re
from collections import Counter

import numpy as np
import pytest

from fakesent import fakegen as fg
from fakesent.corpus import Sentence
from fakesent.errors import EmptyDataset, EmptySentence, MalformedLine, NoDistinctPair, TooShort
from synthetic import dp_edit_distance


def sent(tokens, id="s"):
    return Sentence(tuple(tokens), id)


def random_sentence(rng, min_len=2, max_len=12, alphabet_size=30):
    n = int(rng.integers(min_len, max_len + 1))
    toks = tuple(f"w{int(k)}" for k in rng.integers(0, alphabet_size, size=n))
    return Sentence(toks, f"r{rng.integers(1 << 30)}")


def test_swap_positions_matches_flipped_bigram_example():
    s = sent(["it", "shone", "in", "the", "light", "."])
    out = fg.swap_positions(s, 2, 3, "x")
    assert out.tokens == ("it", "shone", "the", "in", "light", ".")


def test_shuffle_two_tokens_forced_outcome():
    out, rec = fg.word_shuffle(sent(["a", "b"]), np.random.default_rng(0))
    assert out.tokens == ("b", "a")
    assert rec.strategy == fg.WORD_SHUFFLE
    assert {rec.i, rec.j} == {0, 1}


def test_shuffle_identical_tokens_raises():
    with pytest.raises(NoDistinctPair):
        fg.word_shuffle(sent(["a", "a", "a"]), np.random.default_rng(0))


def test_shuffle_too_short_raises():
    with pytest.raises(TooShort):
        fg.word_shuffle(sent(["a"]), np.random.default_rng(0))


def test_shuffle_swaps_exactly_the_recorded_pair():
    rng = np.random.default_rng(7)
    for _ in range(200):
        s = random_sentence(rng)
        try:
            out, rec = fg.word_shuffle(s, rng)
        except NoDistinctPair:
            continue
        assert len(out.tokens) == len(s.tokens)
        assert out.tokens != s.tokens
        assert Counter(out.tokens) == Counter(s.tokens)
        assert out.tokens[rec.i] == s.tokens[rec.j]
        assert out.tokens[rec.j] == s.tokens[rec.i]
        assert s.tokens[rec.i] != s.tokens[rec.j]
        back = list(out.tokens)
        back[rec.i], back[rec.j] = back[rec.j], back[rec.i]
        assert tuple(back) == s.tokens


def test_drop_removes_recorded_position():
    out, rec = fg.word_drop(sent(["a", "b", "c"]), np.random.default_rng(3))
    assert len(out.tokens) == 2
    assert out.tokens == tuple(t for k, t in enumerate(("a", "b", "c")) if k != rec.i)


def test_drop_forced_cases():
    s = sent(["a", "b", "c"])
    seen = set()
    for seed in range(50):
        out, rec = fg.word_drop(s, np.random.default_rng(seed))
        seen.add(rec.i)
        if rec.i == 1:
            assert out.tokens == ("a", "c")
    assert seen == {0, 1, 2}
    out, rec = fg.word_drop(sent(["a", "b"]), np.random.default_rng(1))
    if rec.i == 0:
        assert out.tokens == ("b",)
    with pytest.raises(TooShort):
        fg.word_drop(sent(["a"]), np.random.default_rng(0))


def test_edit_distance_of_shuffles_is_two_against_dp_oracle():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 200:
        s = random_sentence(rng, min_len=3)
        try:
            out, _ = fg.word_shuffle(s, rng)
        except NoDistinctPair:
            continue
        # adjacent or not, a distinct swap is two substitutions
        assert dp_edit_distance(s.tokens, out.tokens) == 2
        checked += 1


def test_edit_distance_of_drops_is_one():
    rng = np.random.default_rng(12)
    for _ in range(100):
        s = random_sentence(rng)
        out, _ = fg.word_drop(s, rng)
        assert dp_edit_distance(s.tokens, out.tokens) == 1


def test_build_dataset_single_pair():
    data = fg.build_dataset([sent(["a", "b"], "0")], fg.WORD_SHUFFLE, 1, seed=5)
    assert len(data) == 2
    real, fake = data
    assert real.label == fg.REAL and real.record is None
    assert fake.label == fg.FAKE and fake.sentence.tokens == ("b", "a")
    assert fake.source_id == "0"
    assert fake.record.strategy == fg.WORD_SHUFFLE


def test_build_dataset_ineligible_only_raises():
    with pytest.raises(EmptyDataset):
        fg.build_dataset([sent(["a"], "0")], fg.WORD_DROP, 1, seed=0)


def test_build_dataset_skips_ineligible_sentences_entirely():
    corpus = [sent(["a"], "0"), sent(["x", "y"], "1"), sent(["q", "q"], "2")]
    data = fg.build_dataset(corpus, fg.WORD_SHUFFLE, 1, seed=0)
    assert [ex.sentence.id for ex in data] == ["1", "1:f0"]


def test_build_dataset_counts_and_balance():
    # oracle: simple counting over a fully eligible corpus
    rng = np.random.default_rng(21)
    corpus = [random_sentence(rng, min_len=4, alphabet_size=1000) for _ in range(1000)]
    corpus = [Sentence(s.tokens, str(i)) for i, s in enumerate(corpus)]
    data = fg.build_dataset(corpus, fg.WORD_SHUFFLE, 1, seed=3)
    assert len(data) == 2000
    labels = Counter(ex.label for ex in data)
    assert labels[fg.REAL] == labels[fg.FAKE] == 1000


def test_build_dataset_fakes_per_real():
    data = fg.build_dataset([sent(["a", "b", "c"], "0")], fg.WORD_DROP, 3, seed=1)
    assert len(data) == 4
    assert [ex.label for ex in data] == [fg.REAL, fg.FAKE, fg.FAKE, fg.FAKE]
    assert len({ex.sentence.id for ex in data}) == 4


def test_build_dataset_reproducible_and_order_independent_per_sentence():
    rng = np.random.default_rng(33)
    corpus = [random_sentence(rng, min_len=4) for _ in range(50)]
    corpus = [Sentence(s.tokens, str(i)) for i, s in enumerate(corpus)]
    d1 = fg.build_dataset(corpus, fg.WORD_SHUFFLE, 2, seed=9)
    d2 = fg.build_dataset(corpus, fg.WORD_SHUFFLE, 2, seed=9)
    assert d1 == d2
    d3 = fg.build_dataset(corpus, fg.WORD_SHUFFLE, 2, seed=10)
    assert d3 != d1
    # per-sentence streams: reversing corpus order permutes but does not change fakes
    rev = fg.build_dataset(list(reversed(corpus)), fg.WORD_SHUFFLE, 2, seed=9)
    assert sorted(ex.sentence.tokens for ex in rev) == sorted(ex.sentence.tokens for ex in d1)


def test_seeds_that_agree_in_their_low_32_bits_give_different_datasets():
    rng = np.random.default_rng(34)
    corpus = [Sentence(random_sentence(rng, min_len=4).tokens, str(i)) for i in range(50)]
    low, high = (fg.build_dataset(corpus, fg.WORD_SHUFFLE, 2, seed=s) for s in (0, 2**32))
    assert high != low


def test_every_fake_differs_from_source():
    rng = np.random.default_rng(44)
    corpus = [Sentence(random_sentence(rng, min_len=2).tokens, str(i)) for i in range(300)]
    for strategy in fg.STRATEGIES:
        data = fg.build_dataset(corpus, strategy, 1, seed=8)
        by_id = {ex.sentence.id: ex for ex in data}
        for ex in data:
            if ex.label == fg.FAKE:
                assert ex.sentence.tokens != by_id[ex.source_id].sentence.tokens


def test_dataset_jsonl_roundtrip(tmp_path):
    data = fg.build_dataset([sent(["a", "b", "c"], "7")], fg.WORD_SHUFFLE, 2, seed=2)
    p = tmp_path / "d.jsonl"
    fg.write_dataset(p, data)
    back = fg.load_dataset(p)
    assert back == data
    first = p.read_text().splitlines()[0]
    assert '"strategy"' not in first  # real record carries no corruption fields


def test_real_record_json_shape(tmp_path):
    import json

    data = fg.build_dataset([sent(["a", "b"], "0")], fg.WORD_DROP, 1, seed=2)
    objs = [json.loads(fg.example_to_json(ex)) for ex in data]
    assert set(objs[0]) == {"id", "tokens", "label", "source_id"}
    assert set(objs[1]) == {"id", "tokens", "label", "source_id", "strategy", "i"}
    assert objs[1]["strategy"] == "drop"


_REAL_LINE = '{"id": "0", "tokens": ["a", "b", "c"], "label": 1, "source_id": "0"}'


@pytest.mark.parametrize(
    "line",
    [
        '{"id": "0", "tokens": ["a", "b", "c"], "label": 5, "source_id": "0"}',
        '{"id": "0", "tokens": ["a", "b", "c"], "label": true, "source_id": "0"}',
        '{"id": "0", "tokens": ["a", "b", "c"], "label": "1", "source_id": "0"}',
        '{"id": "0:f0", "tokens": ["a", "b"], "label": 0, "source_id": "0", "strategy": "swap", "i": 0, "j": 1}',
        '{"id": "0:f0", "tokens": ["a", "b"], "label": 0, "source_id": "0", "strategy": "shuffle", "i": 0, "j": 2}',
        '{"id": "0:f0", "tokens": ["a", "b"], "label": 0, "source_id": "0", "strategy": "shuffle", "i": -1, "j": 1}',
        '{"id": "0:f0", "tokens": ["a", "b"], "label": 0, "source_id": "0", "strategy": "shuffle", "i": 1, "j": 1}',
        '{"id": "0:f0", "tokens": ["a", "b"], "label": 0, "source_id": "0", "strategy": "shuffle", "i": 0}',
        '{"id": "0:f0", "tokens": ["a", "b"], "label": 0, "source_id": "0", "strategy": "shuffle", "i": 0.0, "j": 1}',
        '{"id": "0:f0", "tokens": ["a", "b"], "label": 0, "source_id": "0", "strategy": "drop", "i": 3}',
        '{"id": "0:f0", "tokens": ["a", "b"], "label": 0, "source_id": "0", "strategy": "drop", "i": 0, "j": 1}',
        '{"id": "0:f0", "tokens": ["a", "b"], "label": 1, "source_id": "0", "strategy": "drop", "i": 0}',
        '{"id": "0", "tokens": "abc", "label": 1, "source_id": "0"}',
        '{"id": "0", "tokens": ["a", 2], "label": 1, "source_id": "0"}',
        '{"id": "0", "tokens": ["a", "\\ud800"], "label": 1, "source_id": "0"}',
        '{"id": "0", "tokens": [], "label": 1, "source_id": "0"}',
        '{"id": "0", "tokens": ["a"], "label": 1}',
        '{"id": [1, 2], "tokens": ["a"], "label": 1, "source_id": null}',
        '{"id": 3, "tokens": ["b", "a"], "label": 0, "source_id": 4, "strategy": "shuffle", "i": 0, "j": 1}',
        '{"id": 7, "tokens": ["a", "b", "c"], "label": 1, "source_id": "0"}',
        '{"id": "0", "tokens": ["a", "b", "c"], "label": 1, "source_id": null}',
        '["a", "b"]',
        "not json",
    ],
)
def test_example_from_json_rejects_records_build_dataset_cannot_write(line):
    with pytest.raises(MalformedLine):
        fg.example_from_json(line)
    # the constructors hold the rules, so a library caller handing them the same fields is refused too
    obj = json.loads(line) if line.startswith("{") else None
    if obj is None or not isinstance(obj["tokens"], list) or "source_id" not in obj:
        return  # no fields to hand over: the reader alone rejects the line
    with pytest.raises((ValueError, TypeError, EmptySentence)):
        record = fg.CorruptionRecord(obj["strategy"], obj["i"], obj.get("j")) if "strategy" in obj else None
        fg.LabeledExample(Sentence(tuple(obj["tokens"]), obj["id"]), obj["label"], record, obj["source_id"])


def test_example_from_json_accepts_edge_positions():
    # a drop may have removed the source's last token: i == len(fake tokens)
    ex = fg.example_from_json(
        '{"id": "0:f0", "tokens": ["a", "b"], "label": 0, "source_id": "0", "strategy": "drop", "i": 2}'
    )
    assert ex.record == fg.CorruptionRecord(fg.WORD_DROP, 2)
    assert fg.example_from_json(_REAL_LINE).record is None


def test_read_dataset_names_path_and_line_of_a_bad_record(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text(_REAL_LINE + "\n\n" + _REAL_LINE.replace('"label": 1', '"label": 5') + "\n")
    with pytest.raises(MalformedLine, match=rf"^{re.escape(str(p))}:3: bad dataset record: label 5"):
        fg.load_dataset(p)


def record_with(token, escaped):
    return json.dumps({"id": "0", "tokens": ["a", token, "c"], "label": 1, "source_id": "0"}, ensure_ascii=escaped)


@pytest.mark.parametrize("escaped", [False, True], ids=["raw", "escaped"])
@pytest.mark.parametrize("token", ["a" * 65535, "\u00e9" * 32767 + "a", "\U0001f600" * 16383 + "abc"],
                         ids=["ascii", "two-byte", "four-byte"])
def test_load_dataset_keeps_a_token_of_65535_utf8_bytes(tmp_path, token, escaped):
    p = tmp_path / "d.jsonl"
    p.write_text(record_with(token, escaped) + "\n", encoding="utf-8")
    assert fg.load_dataset(p)[0].sentence.tokens[1] == token


@pytest.mark.parametrize("escaped", [False, True], ids=["raw", "escaped"])
@pytest.mark.parametrize("token", ["a" * 65536, "\u00e9" * 32768, "\U0001f600" * 16384],
                         ids=["ascii", "two-byte", "four-byte"])
def test_load_dataset_rejects_a_token_a_checkpoint_cannot_store(tmp_path, token, escaped):
    p = tmp_path / "d.jsonl"
    p.write_text(_REAL_LINE + "\n" + record_with(token, escaped) + "\n", encoding="utf-8")
    with pytest.raises(MalformedLine, match=rf"^{re.escape(str(p))}:2: bad dataset record: a token of 65536 "):
        fg.load_dataset(p)
