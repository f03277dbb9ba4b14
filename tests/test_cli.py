import json
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fakesent
from fakesent import __version__
from fakesent import cli
from fakesent import numcore as nc
from fakesent.checkpoint import MAGIC, load_model, save_model
from fakesent.classifier import DetectorModel
from fakesent.corpus import build_vocab, init_embeddings, load_corpus
from fakesent.encoder import SentenceEncoder
from fakesent.errors import ConfigParseError


@pytest.fixture()
def tiny_corpus(tmp_path):
    rng = np.random.default_rng(41)
    lines = []
    for i in range(80):
        n = int(rng.integers(2, 14))
        lines.append(" ".join(f"w{int(k):02d}" for k in rng.integers(0, 30, size=n)))
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def run_cli(args):
    return cli.main([str(a) for a in args])


def test_defaults_match_documented_values():
    resolved = cli.resolve_config("train", None, {})
    assert resolved["epochs"] == 15
    assert resolved["batch"] == 64
    assert resolved["lr"] == 0.1
    assert resolved["hidden"] == 2048
    assert resolved["mlp"] == (1024, 512)


def test_flag_beats_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lr=0.05\nepochs=3\nfreeze_embeddings=yes\n")
    resolved = cli.resolve_config("train", cfg, {"lr": 0.2})
    assert resolved["lr"] == 0.2  # flag wins
    assert resolved["epochs"] == 3  # file beats default
    assert resolved["freeze_embeddings"] is True


def test_config_file_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense=1\n")
    with pytest.raises(ConfigParseError):
        cli.resolve_config("train", cfg, {})


def test_resolved_config_is_a_fixed_point(tmp_path):
    probe = {"model": "m.ckpt", "corpus": "c.txt", "report": "r.json"}
    inputs = [
        ("train", {"seed": 7, "data": "d.jsonl", "valid": "v.jsonl", "out": "m.ckpt"}),
        ("probe", {**probe, "tasks": ("bshift", "wc"), "l2_grid": (0.5, 2e-3)}),
        ("probe", probe),
    ]
    for i, (command, flags) in enumerate(inputs):
        resolved = cli.resolve_config(command, None, flags)
        out = tmp_path / f"resolved{i}.cfg"
        cli.write_resolved_config(out, resolved)
        again = cli.resolve_config(command, out, {})
        assert again == resolved
        text = out.read_text()
        assert f"# fakesent {__version__}" in text
    assert "\nl2_grid=0.0001,0.001,0.01,0.1,1.0\n" in text  # the default grid


def test_every_schema_default_round_trips_through_its_parser():
    for command, schema in cli.SCHEMAS.items():
        for key, (parse, default) in schema.items():
            if default is not None and default is not cli.REQUIRED:
                assert parse(cli._format_value(default)) == default, (command, key)


def test_list_settings_in_a_config_file_parse_to_tuples(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mlp= 4, 4\n")
    assert cli.resolve_config("train", cfg, {})["mlp"] == (4, 4)
    cfg.write_text("tasks=sentlen,,wc\nl2_grid=1e-4,1\n")
    resolved = cli.resolve_config("probe", cfg, {})
    assert resolved["tasks"] == ("sentlen", "wc")
    assert resolved["l2_grid"] == (1e-4, 1.0) and all(type(x) is float for x in resolved["l2_grid"])


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen-fakes", "--bogus"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen-fakes", "--strategy", "shuffle"])
    assert exc.value.code == 2


def test_data_error_exit_code(tmp_path, capsys):
    corpus = tmp_path / "one.txt"
    corpus.write_text("single\nwords\nonly\n")
    rc = run_cli(["gen-fakes", "--strategy", "drop", "--seed", 1,
                  "--in", corpus, "--out", tmp_path / "d.jsonl"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("data-error:")


def test_train_on_a_record_with_a_bad_label_is_a_data_error(tiny_corpus, tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    assert run_cli(["gen-fakes", "--strategy", "shuffle", "--seed", 3,
                    "--in", tiny_corpus, "--out", data]) == 0
    lines = data.read_text().splitlines(keepends=True)
    lines[4] = lines[4].replace('"label": 1', '"label": 5').replace('"label": 0', '"label": 5')
    data.write_text("".join(lines))
    capsys.readouterr()
    rc = run_cli(["train", "--data", data, "--valid", data, "--dim", 4, "--hidden", 4,
                  "--mlp", "4,4", "--epochs", 1, "--seed", 5, "--out", tmp_path / "m.ckpt"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data-error: {data}:5: bad dataset record: label 5")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--batch", "0"],
        ["train", "--epochs", "0"],
        ["train", "--mlp", "0,4"],
        ["train", "--mlp", "4,4,"],
        ["train", "--mlp", ",4,4"],
        ["train", "--precision", "float16"],
        ["train", "--hidden", "0"],
        ["train", "--dim", "0"],
        ["train", "--emb-scale", "1e308"],  # numpy cannot draw the table
        ["train", "--emb-scale", "1e39"],  # the float32 table would be infinite
        ["gen-fakes", "--fakes-per-real", "0"],
        ["probe", "--l2-grid", "0"],
        ["probe", "--l2-grid", "1e-3,"],
        ["probe", "--l2-grid", "nan"],
        ["probe", "--tasks", "nope"],
        ["probe", "--tasks", ","],
        ["probe", "--tasks", ""],
        ["probe", "--report", ""],
        ["train", "--metrics", ""],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_out_of_range_flag_is_one_usage_error_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage-error:") and argv[1] in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("train", "hidden=0\n", "config key hidden:"),
        ("train", "freeze_embeddings=maybe\n", "config key freeze_embeddings:"),
        ("probe", "report=\n", "config key report: expected a non-empty path"),
        ("train", None, "cannot read config"),  # --config names a directory
    ],
    ids=["hidden-0", "freeze-embeddings-maybe", "empty-report", "config-is-a-directory"],
)
def test_out_of_range_config_value_is_one_usage_error_line(tmp_path, capsys, command, text, message):
    cfg = tmp_path
    if text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
    assert run_cli([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage-error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [["gradcheck", "--h", "8"], ["train", "--hid", "8"]], ids=" ".join)
def test_abbreviated_flag_is_one_usage_error_line(argv, capsys):
    # a unique prefix is not a second spelling: "--h" would otherwise match --help
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"usage-error: fakesent: unrecognized arguments: {argv[1]} 8\n"


@pytest.mark.parametrize(
    "metrics, clash",
    [("m.ckpt", "--out and --metrics"), ("data.jsonl", "--metrics and --data"),
     ("m.ckpt.config", "--metrics and the config of --out")],
    ids=["out", "data", "out-config"],
)
def test_train_metrics_on_another_file_of_the_run_is_one_usage_error_line(
        tiny_corpus, tmp_path, capsys, metrics, clash):
    data = tmp_path / "data.jsonl"
    assert run_cli(["gen-fakes", "--strategy", "shuffle", "--seed", 3,
                    "--in", tiny_corpus, "--out", data]) == 0
    dataset = data.read_bytes()
    capsys.readouterr()
    assert run_cli(["train", "--data", data, "--valid", data, "--dim", 4, "--hidden", 4,
                    "--mlp", "4,4", "--epochs", 1, "--seed", 5, "--out", tmp_path / "m.ckpt",
                    "--metrics", tmp_path / metrics]) == 2
    assert capsys.readouterr().err == f"usage-error: {clash} are the same file: {tmp_path / metrics}\n"
    assert data.read_bytes() == dataset
    assert not (tmp_path / "m.ckpt").exists() and not (tmp_path / "m.ckpt.config").exists()


def test_gen_fakes_out_on_its_input_is_one_usage_error_line(tiny_corpus, capsys):
    corpus = tiny_corpus.read_bytes()
    assert run_cli(["gen-fakes", "--strategy", "shuffle", "--seed", 3,
                    "--in", tiny_corpus, "--out", tiny_corpus]) == 2
    assert capsys.readouterr().err == f"usage-error: --out and --in are the same file: {tiny_corpus}\n"
    assert tiny_corpus.read_bytes() == corpus


def one_data_error_line(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("data-error:") and err.count("\n") == 1, err
    assert all(f in err for f in fragments), err


def test_non_utf8_corpus_is_a_data_error(tmp_path, capsys):
    corpus = tmp_path / "bad.txt"
    corpus.write_bytes(b"\xff\n")
    assert run_cli(["gen-fakes", "--strategy", "shuffle", "--seed", 1,
                    "--in", corpus, "--out", tmp_path / "d.jsonl"]) == 3
    one_data_error_line(capsys, str(corpus), "not UTF-8")


def test_missing_model_is_a_data_error(tiny_corpus, tmp_path, capsys):
    missing = tmp_path / "none.ckpt"
    assert run_cli(["encode", "--model", missing, "--in", tiny_corpus, "--out", tmp_path / "v.txt"]) == 3
    one_data_error_line(capsys, str(missing))


def test_output_into_a_missing_directory_is_a_data_error(tiny_corpus, tmp_path, capsys):
    out = tmp_path / "nowhere" / "d.jsonl"
    assert run_cli(["gen-fakes", "--strategy", "shuffle", "--seed", 1,
                    "--in", tiny_corpus, "--out", out]) == 3
    one_data_error_line(capsys, str(out))


def test_metrics_into_a_missing_directory_is_a_data_error(tiny_corpus, tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    assert run_cli(["gen-fakes", "--strategy", "shuffle", "--seed", 3,
                    "--in", tiny_corpus, "--out", data]) == 0
    capsys.readouterr()
    metrics = tmp_path / "nowhere" / "m.jsonl"
    assert run_cli(["train", "--data", data, "--valid", data, "--dim", 4, "--hidden", 4,
                    "--mlp", "4,4", "--epochs", 1, "--seed", 5, "--out", tmp_path / "m.ckpt",
                    "--metrics", metrics]) == 3
    one_data_error_line(capsys, str(metrics))


def test_divergence_found_by_validation_is_one_numerical_error_line(tiny_corpus, tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    assert run_cli(["gen-fakes", "--strategy", "shuffle", "--seed", 3,
                    "--in", tiny_corpus, "--out", data]) == 0
    capsys.readouterr()
    # one batch per epoch, so the first step succeeds and validation overflows
    assert run_cli(["train", "--data", data, "--valid", data, "--dim", 4, "--hidden", 4,
                    "--mlp", "4,4", "--epochs", 1, "--batch", 1000, "--lr", 1e22, "--seed", 5,
                    "--out", tmp_path / "m.ckpt"]) == 4
    assert capsys.readouterr().err == "numerical-error: epoch 1: non-finite value in output of bilstm\n"


def test_corpus_with_literal_reserved_tokens_trains_and_encodes(tiny_corpus, tmp_path, capsys):
    # preprocessed corpora (Penn Treebank, WikiText) write rare words as a literal <unk>
    lines = tiny_corpus.read_text().splitlines()
    for i in range(0, len(lines), 4):
        lines[i] += " <unk>"
    for i in range(2, len(lines), 8):
        lines[i] = "<PAD> " + lines[i]
    corpus = tmp_path / "reserved.txt"
    corpus.write_text("\n".join(lines) + "\n")
    data, model = tmp_path / "data.jsonl", tmp_path / "m.ckpt"
    assert run_cli(["gen-fakes", "--strategy", "shuffle", "--seed", 3, "--in", corpus, "--out", data]) == 0
    assert run_cli(["train", "--data", data, "--valid", data, "--dim", 4, "--hidden", 4,
                    "--mlp", "4,4", "--epochs", 1, "--seed", 5, "--out", model]) == 0
    assert run_cli(["encode", "--model", model, "--in", corpus, "--out", tmp_path / "v.txt"]) == 0
    assert capsys.readouterr().err == ""
    vocab = load_model(model).encoder.vocab
    assert vocab.tokens[:2] == ("<pad>", "<unk>") and len(vocab) == 32  # w00..w29 and the reserved rows
    assert vocab.index("<unk>") == 1 and vocab.index("<pad>") == 0


def test_checkpoint_with_a_nan_parameter_is_a_data_error(tiny_corpus, tmp_path, capsys):
    corpus = load_corpus(tiny_corpus)
    rng = np.random.default_rng(2)
    vocab = build_vocab(corpus)
    encoder = SentenceEncoder.create(vocab, init_embeddings(vocab, 4, rng), 3, rng)
    path = tmp_path / "m.ckpt"
    save_model(path, DetectorModel.create(encoder, 4, 2, rng))
    raw = bytearray(path.read_bytes())
    # the first value of fwd.w: after its name, ndim byte, two uint32 dims and dtype code
    first = raw.index(b"fwd.w") + len(b"fwd.w") + 1 + 8 + 2
    raw[first : first + 4] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    assert run_cli(["encode", "--model", path, "--in", tiny_corpus, "--out", tmp_path / "v.txt"]) == 3
    one_data_error_line(capsys, str(path), "fwd.w")


def test_deeply_nested_dataset_record_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "deep.jsonl"
    data.write_text("[" * 200_000 + "\n")
    assert run_cli(["train", "--data", data, "--valid", data, "--seed", 0, "--out", tmp_path / "m.ckpt"]) == 3
    one_data_error_line(capsys, f"{data}:1", "bad dataset record")


def test_deeply_nested_checkpoint_header_is_a_data_error(tiny_corpus, tmp_path, capsys):
    header = b"[" * 200_000
    path = tmp_path / "deep.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
    assert run_cli(["encode", "--model", path, "--in", tiny_corpus, "--out", tmp_path / "v.txt"]) == 3
    one_data_error_line(capsys, str(path), "bad header")


@pytest.mark.parametrize("seed, split", [(0, "valid"), (1, "test")])
def test_empty_probe_split_is_a_data_error(tmp_path, capsys, seed, split):
    # six sentences over ten hash buckets: the seed decides which split stays empty
    corpus = tmp_path / "six.txt"
    corpus.write_text("the cat sat on the mat\na dog ran in the park\nbirds sing at dawn today\n"
                      "she reads a long book\nwe walk to the river\nrain falls on the roof\n")
    rng = np.random.default_rng(2)
    vocab = build_vocab(load_corpus(corpus))
    encoder = SentenceEncoder.create(vocab, init_embeddings(vocab, 4, rng), 3, rng)
    model = tmp_path / "m.ckpt"
    save_model(model, DetectorModel.create(encoder, 4, 2, rng))
    assert run_cli(["probe", "--model", model, "--corpus", corpus, "--tasks", "bshift",
                    "--seed", seed, "--report", tmp_path / "probe.json"]) == 3
    one_data_error_line(capsys, "bshift", f"'{split}': 0")


def test_gradcheck_passes_and_prints_error(capsys):
    assert run_cli(["gradcheck"]) == 0
    assert capsys.readouterr().out == "max relative error 1.130274e-06\n"


def test_gradcheck_fail_path(monkeypatch, capsys):
    real_tanh = nc.tanh

    def doubled_tanh(tape, x):  # the head's activation, with a backward twice too strong
        out = real_tanh(None, x)
        if tape is not None:
            tape.record(out, (x,), lambda g: (2.0 * g * (1.0 - out.data * out.data),))
        return out

    monkeypatch.setattr(nc, "tanh", doubled_tanh)
    assert run_cli(["gradcheck"]) == 4
    assert capsys.readouterr().err == "numerical-error: gradient check failed at threshold 0.0001\n"


def test_full_pipeline_smoke(tiny_corpus, tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    valid = tmp_path / "valid.jsonl"
    model = tmp_path / "model.ckpt"
    vecs = tmp_path / "vecs.txt"
    report = tmp_path / "probe.json"

    assert run_cli(["gen-fakes", "--strategy", "shuffle", "--fakes-per-real", 1,
                    "--seed", 3, "--in", tiny_corpus, "--out", data]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["real"] == stats["fake"]
    assert (tmp_path / "data.jsonl.config").exists()

    # reuse the dataset as a small validation split
    valid.write_text("".join(data.read_text().splitlines(keepends=True)[:40]))

    assert run_cli(["train", "--data", data, "--valid", valid, "--dim", 8,
                    "--hidden", 8, "--mlp", "8,4", "--epochs", 2, "--batch", 16,
                    "--lr", 0.1, "--seed", 5, "--out", model]) == 0
    train_out = json.loads(capsys.readouterr().out)
    assert train_out["best_epoch"] >= 1
    assert model.exists()
    assert (tmp_path / "model.ckpt.config").exists()
    metrics_lines = Path(train_out["metrics"]).read_text().splitlines()
    assert len(metrics_lines) == 2
    assert json.loads(metrics_lines[0])["epoch"] == 1

    assert run_cli(["encode", "--model", model, "--in", tiny_corpus, "--out", vecs]) == 0
    capsys.readouterr()
    lines = vecs.read_text().splitlines()
    assert len(lines) == 80
    first = lines[0].split()
    assert first[0] == "0"  # sentence id
    assert len(first) == 1 + 16  # id then 2H floats
    float(first[1])

    assert run_cli(["evaluate", "--model", model, "--data", data,
                    "--report", tmp_path / "eval.json"]) == 0
    eval_out = json.loads(capsys.readouterr().out)
    assert 0.0 <= eval_out["accuracy"] <= 1.0
    assert set(eval_out["per_class"]) == {"real", "fake"}
    assert (tmp_path / "eval.json.config").exists()

    assert run_cli(["probe", "--model", model, "--corpus", tiny_corpus,
                    "--tasks", "sentlen,bshift", "--seed", 2,
                    "--report", report]) == 0
    probe_out = json.loads(capsys.readouterr().out)
    assert set(probe_out) == {"sentlen", "bshift"}
    for task in probe_out.values():
        assert 0.0 <= task["test_accuracy"] <= 1.0
        assert task["chosen_l2"] > 0
    on_disk = json.loads(report.read_text())
    assert on_disk == probe_out
    assert (tmp_path / "probe.json.config").exists()


def test_identical_configs_identical_outputs(tiny_corpus, tmp_path, capsys):
    outs = []
    for tag in ("a", "b"):
        data = tmp_path / f"{tag}.jsonl"
        assert run_cli(["gen-fakes", "--strategy", "drop", "--seed", 11,
                        "--in", tiny_corpus, "--out", data]) == 0
        capsys.readouterr()
        outs.append(data.read_bytes())
    assert outs[0] == outs[1]


def test_config_file_drives_gen_fakes(tiny_corpus, tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    out = tmp_path / "from_cfg.jsonl"
    cfg.write_text(
        f"strategy=shuffle\nfakes_per_real=2\nseed=9\nin={tiny_corpus}\nout={out}\n"
    )
    assert run_cli(["gen-fakes", "--config", cfg]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["fake"] == 2 * stats["real"]
    resolved = cli.parse_config_file(out.with_suffix(".jsonl.config"))
    assert resolved["seed"] == "9"


@pytest.mark.parametrize("again,first_line", [("seed=2", 3), ("strategy=drop", 2)])
def test_config_key_set_twice_is_one_usage_error_line(tiny_corpus, tmp_path, capsys, again, first_line):
    cfg = tmp_path / "gen.cfg"
    out = tmp_path / "twice.jsonl"
    cfg.write_text(f"# twice\nstrategy=shuffle\nseed=1\nin={tiny_corpus}\nout={out}\n{again}\n")
    assert run_cli(["gen-fakes", "--config", cfg]) == 2
    key = again.partition("=")[0]
    assert capsys.readouterr().err == f"usage-error: {cfg}:6: key {key} already set on line {first_line}\n"
    assert not out.exists()


def test_module_entrypoint_usage_error():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "fakesent", "definitely-not-a-command"],
        capture_output=True,
        text=True,
        cwd=root,
        env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


@pytest.mark.parametrize("module", [fakesent, nc], ids=["fakesent", "numcore"])
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_readme_quick_start_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()  # join continued lines
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("fakesent ")]
    assert {argv[0] for argv in commands} == set(cli.COMMANDS)
    for argv in commands:
        cli.build_parser().parse_args(argv)
