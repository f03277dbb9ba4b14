"""Command-line interface: the pipeline as subcommands.

    gen-fakes   corrupt a corpus into a labeled real/fake dataset
    train       train the encoder + classifier on a labeled dataset
    encode      dump encodings for a corpus with a trained model
    evaluate    accuracy and per-class metrics on a labeled dataset
    probe       logistic-regression probing of a frozen encoder
    gradcheck   finite-difference check of the gradient of GRAD-1's model

Configuration: ``SCHEMAS`` states each command's settings once: the
parser of each key and its default (``REQUIRED`` for a key the command
needs). Every value can come from a key=value config file (``--config``);
explicit flags win over the file, the file wins over defaults. List
settings (``--mlp``, ``--tasks``, ``--l2-grid``) are comma-separated and
parse to tuples. Each run with a file output writes its fully resolved
config next to that output as ``<output>.config`` (with the tool version
in a comment, lists comma-joined), and resolving that file again
reproduces the same settings. A flag has one spelling (no abbreviations),
and a run that would write one file twice or over its input stops first.

Exit codes: 0 success, 2 usage or config error (including out-of-range
values), 3 data error (including files that cannot be read or written),
4 numerical error. Failures print one line: ``<category>: <message>``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from . import checkpoint as ckpt
from . import classifier as cl
from . import fakegen as fg
from . import numcore as nc
from . import probe as pb
from .corpus import (
    Sentence,
    build_vocab,
    init_embeddings,
    load_corpus,
    load_embeddings,
    text_lines,
)
from .encoder import SentenceEncoder
from .errors import ConfigParseError, DataError, MalformedLine, NumericalError


def _bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _checked(parse, ok, expected: str):
    """A SCHEMAS parser: ``parse(text)``, rejected unless ``ok`` holds for it."""

    def checked(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return checked


_COUNT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_SEED = _checked(int, lambda v: v >= 0, "an integer >= 0")
_RATE = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_F32_MAX = float(np.finfo(np.float32).max)  # the largest scale whose table is finite in either precision
_EMB_SCALE = _checked(float, lambda v: 0 < v <= _F32_MAX, f"a number in (0, {_F32_MAX!r}]")
_PATH = _checked(str, bool, "a non-empty path")

REQUIRED = object()  # the default of a key the command cannot run without

# key -> (parser, default); a None default means optional. Parsers reject
# out-of-range values, as flags (argparse) and in config files.
SCHEMAS = {
    "gen-fakes": {
        "strategy": (_checked(str, lambda v: v in fg.STRATEGIES, f"one of {fg.STRATEGIES}"), REQUIRED),
        "fakes_per_real": (_COUNT, 1),
        "seed": (_SEED, REQUIRED),
        "in": (_PATH, REQUIRED),
        "out": (_PATH, REQUIRED),
    },
    "train": {
        "data": (_PATH, REQUIRED),
        "valid": (_PATH, REQUIRED),
        "embeddings": (_PATH, None),
        "dim": (_COUNT, 300),
        "emb_scale": (_EMB_SCALE, 1.0),
        "min_count": (_COUNT, 1),
        "hidden": (_COUNT, 2048),
        "mlp": (_checked(lambda t: tuple(map(int, t.split(","))), lambda v: len(v) == 2 and min(v) >= 1,
                         "two integers >= 1, like 1024,512"), (1024, 512)),
        "epochs": (_COUNT, cl.TrainConfig.epochs),
        "batch": (_COUNT, cl.TrainConfig.batch_size),
        "lr": (_RATE, cl.TrainConfig.learning_rate),
        "lr_decay": (_checked(float, lambda v: 0 < v <= 1, "a number in (0, 1]"),
                     cl.TrainConfig.lr_decay_factor),
        "precision": (_checked(str, lambda v: v in ("float32", "float64"), "float32 or float64"),
                      "float32"),
        "freeze_embeddings": (_bool, cl.TrainConfig.freeze_embeddings),
        "seed": (_SEED, REQUIRED),
        "out": (_PATH, REQUIRED),
        "metrics": (_PATH, None),
    },
    "encode": {
        "model": (_PATH, REQUIRED),
        "in": (_PATH, REQUIRED),
        "out": (_PATH, REQUIRED),
        "batch": (_COUNT, 64),
    },
    "evaluate": {
        "model": (_PATH, REQUIRED),
        "data": (_PATH, REQUIRED),
        "report": (_PATH, None),
        "batch": (_COUNT, 64),
    },
    "probe": {
        "model": (_PATH, REQUIRED),
        "corpus": (_PATH, REQUIRED),
        # only tasks drop blank items: "sentlen,,wc" names two tasks, "4,4," is no mlp
        "tasks": (_checked(lambda t: tuple(v.strip() for v in t.split(",") if v.strip()),
                           lambda v: len(v) > 0 and set(v) <= set(pb.TASKS),
                           f"one or more comma-separated tasks from {pb.TASKS}"), pb.TASKS),
        "seed": (_SEED, 0),
        "report": (_PATH, REQUIRED),
        "l2_grid": (_checked(lambda t: tuple(map(float, t.split(","))),
                             lambda v: all(0 < x < math.inf for x in v), "comma-separated numbers > 0"),
                    pb.ProbeConfig.l2_grid),
        "max_iter": (_COUNT, pb.ProbeConfig.max_iterations),
        "tol": (_RATE, pb.ProbeConfig.tolerance),
    },
    "gradcheck": {
        "seed": (_SEED, 1),
    },
}

def parse_config_file(path) -> dict[str, str]:
    """key -> value of a key=value file; ``#`` starts a comment line, and a key may appear once."""
    values, set_at = {}, {}
    try:
        for lineno, line in text_lines(path):
            line = line.strip()
            if line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigParseError(f"{path}:{lineno}: expected key=value")
            key, _, value = (part.strip() for part in line.partition("="))
            if key in set_at:
                raise ConfigParseError(f"{path}:{lineno}: key {key} already set on line {set_at[key]}")
            values[key], set_at[key] = value, lineno
    except OSError as e:
        raise ConfigParseError(f"cannot read config {path}: {e}")
    except MalformedLine as e:
        raise ConfigParseError(str(e))
    return values


def resolve_config(command: str, config_path, flags: dict) -> dict:
    """Merge defaults, config-file values, and flags (highest precedence).
    A required key that none of them sets stays ``REQUIRED``."""
    schema = SCHEMAS[command]
    file_values = parse_config_file(config_path) if config_path else {}
    if unknown := set(file_values) - set(schema):
        raise ConfigParseError(f"unknown config keys for {command}: {sorted(unknown)}")
    resolved = {}
    for key, (parse, default) in schema.items():
        flag_value = flags.get(key)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in file_values:
            try:
                resolved[key] = parse(file_values[key])
            except (ValueError, argparse.ArgumentTypeError) as e:
                raise ConfigParseError(f"config key {key}: {e}")
        else:
            resolved[key] = default
    return resolved


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(map(_format_value, value))
    return repr(value) if isinstance(value, float) else str(value)


def write_resolved_config(path, resolved: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# fakesent {__version__}\n")
        for key in sorted(resolved):
            if resolved[key] is not None:
                f.write(f"{key}={_format_value(resolved[key])}\n")


def _check_files(cfg) -> None:
    """Reject a run that writes one file twice or over a file it reads
    (two inputs may be the same file: ``--data d --valid d``)."""
    written = {f"--{key}": cfg[key] for key in ("out", "report", "metrics") if cfg.get(key)}
    written |= {f"the config of {flag}": path + ".config"
                for flag, path in written.items() if flag != "--metrics"}
    read = {f"--{key}": cfg[key] for key in ("in", "data", "valid", "embeddings", "model", "corpus")
            if cfg.get(key)}
    writer = {}
    for name, path in [*written.items(), *read.items()]:
        real = os.path.realpath(path)
        if real in writer:
            raise ConfigParseError(f"{writer[real]} and {name} are the same file: {path}")
        if name in written:
            writer[real] = name


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_fakes(cfg) -> int:
    corpus = load_corpus(cfg["in"])
    data = fg.build_dataset(corpus, cfg["strategy"], cfg["fakes_per_real"], cfg["seed"])
    fg.write_dataset(cfg["out"], data)
    write_resolved_config(cfg["out"] + ".config", cfg)
    reals = sum(1 for ex in data if ex.label == fg.REAL)
    print(json.dumps({"examples": len(data), "real": reals, "fake": len(data) - reals}))
    return 0


def cmd_train(cfg) -> int:
    train_data = fg.load_dataset(cfg["data"])
    valid_data = fg.load_dataset(cfg["valid"])
    vocab = build_vocab((ex.sentence for ex in train_data), min_count=cfg["min_count"])
    rng = np.random.default_rng(cfg["seed"])
    dtype = np.float32 if cfg["precision"] == "float32" else np.float64
    if cfg["embeddings"]:
        table = load_embeddings(cfg["embeddings"], vocab, rng, dtype=dtype)
    else:
        table = init_embeddings(vocab, cfg["dim"], rng, dtype=dtype, scale=cfg["emb_scale"])
    encoder = SentenceEncoder.create(vocab, table, cfg["hidden"], rng)
    model = cl.DetectorModel.create(encoder, *cfg["mlp"], rng)
    train_cfg = cl.TrainConfig(batch_size=cfg["batch"], epochs=cfg["epochs"], learning_rate=cfg["lr"],
                               lr_decay_factor=cfg["lr_decay"], seed=cfg["seed"],
                               freeze_embeddings=cfg["freeze_embeddings"])
    write_resolved_config(cfg["out"] + ".config", cfg)
    report = cl.train(model, train_data, valid_data, train_cfg, cfg["out"], cfg["metrics"])
    print(json.dumps({"best_epoch": report.best_epoch, "best_valid_accuracy": report.best_valid_accuracy,
                      "checkpoint": cfg["out"], "metrics": cfg["metrics"]}))
    return 0


def cmd_encode(cfg) -> int:
    model = ckpt.load_model(cfg["model"])
    corpus = load_corpus(cfg["in"])
    vectors = model.encoder.encode_batch(corpus, batch_size=cfg["batch"])
    with open(cfg["out"], "w", encoding="utf-8") as f:
        for sent, vec in zip(corpus, vectors):
            values = " ".join(np.format_float_positional(v, unique=True, trim="-") for v in vec)
            f.write(f"{sent.id} {values}\n")
    write_resolved_config(cfg["out"] + ".config", cfg)
    print(json.dumps({"sentences": len(corpus), "dim": int(vectors.shape[1])}))
    return 0


def _report(cfg, payload: dict) -> int:
    """Print ``payload`` as one JSON line; with a ``report`` path, also write
    that line there and the resolved config to ``<report>.config``."""
    text = json.dumps(payload, sort_keys=True)
    if cfg["report"]:
        with open(cfg["report"], "w", encoding="utf-8") as f:
            f.write(text + "\n")
        write_resolved_config(cfg["report"] + ".config", cfg)
    print(text)
    return 0


def cmd_evaluate(cfg) -> int:
    model = ckpt.load_model(cfg["model"])
    data = fg.load_dataset(cfg["data"])
    return _report(cfg, asdict(cl.evaluate(model, data, batch_size=cfg["batch"])))


def cmd_probe(cfg) -> int:
    model = ckpt.load_model(cfg["model"])
    corpus = load_corpus(cfg["corpus"])
    probe_cfg = pb.ProbeConfig(l2_grid=cfg["l2_grid"], max_iterations=cfg["max_iter"], tolerance=cfg["tol"])
    results = pb.run_probes(model.encoder, corpus, cfg["tasks"], seed=cfg["seed"], cfg=probe_cfg)
    return _report(cfg, {task: r.to_dict() for task, r in results.items()})


def cmd_gradcheck(cfg) -> int:
    """GRAD-1's model in float64, drawn from ``seed``: d = H = 8, mlp 16,8, 50
    words, four labeled sentences of 2-6 tokens. 200 sampled coordinates meet
    central differences at eps 1e-5; a relative error of 1e-4 or more fails."""
    rng = np.random.default_rng(cfg["seed"])
    tokens = [f"t{i:03d}" for i in range(50)]
    vocab = build_vocab([Sentence(tuple(tokens), "v")])
    encoder = SentenceEncoder.create(vocab, init_embeddings(vocab, 8, rng, dtype=np.float64), 8, rng)
    model = cl.DetectorModel.create(encoder, 16, 8, rng)
    # each sentence draws its length, then its tokens
    sentences = [Sentence(tuple(tokens[k] for k in rng.integers(0, 50, size=int(rng.integers(2, 7)))), str(i))
                 for i in range(4)]
    idx, lengths = encoder.prepare_batch(sentences)
    labels = rng.integers(0, 2, size=4)
    err = nc.grad_check(lambda tape: model.batch_loss(tape, idx, lengths, labels)[0],
                        model.all_parameters(), eps=1e-5, samples=200, rng=np.random.default_rng(cfg["seed"]))
    print(f"max relative error {err:.6e}")
    if err >= 1e-4:
        raise NumericalError("gradient check failed at threshold 0.0001")
    return 0


COMMANDS = {
    "gen-fakes": cmd_gen_fakes,
    "train": cmd_train,
    "encode": cmd_encode,
    "evaluate": cmd_evaluate,
    "probe": cmd_probe,
    "gradcheck": cmd_gradcheck,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line in the "<category>: <message>" form, like every other failure
        self.exit(2, f"usage-error: {self.prog}: {message}\n")


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fakesent", allow_abbrev=False,
                     description="Train and probe sentence encoders on fake-sentence detection.")
    parser.add_argument("--version", action="version", version=f"fakesent {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in SCHEMAS.items():
        p = sub.add_parser(command, allow_abbrev=False)
        p.add_argument("--config", default=None, help="key=value config file")
        for key, (parse, default) in schema.items():
            flag = "--" + key.replace("_", "-")
            if parse is _bool:
                p.add_argument(flag, dest=key, action="store_const", const=True, default=None)
            else:
                shown = default is not None and default is not REQUIRED
                p.add_argument(flag, dest=key, type=parse, default=None,
                               help=f"default: {_format_value(default)}" if shown else None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        resolved = resolve_config(args.command, args.config, flags)
        if missing := [key for key, value in resolved.items() if value is REQUIRED]:
            parser.error(f"{args.command}: --{missing[0].replace('_', '-')} is required")
        if args.command == "train":
            resolved["metrics"] = resolved["metrics"] or resolved["out"] + ".metrics.jsonl"
        _check_files(resolved)
        return COMMANDS[args.command](resolved)
    except ConfigParseError as e:
        print(f"usage-error: {e}", file=sys.stderr)
        return 2
    except (DataError, OSError) as e:  # OSError: a file that cannot be opened, read or written
        print(f"data-error: {e}", file=sys.stderr)
        return 3
    except NumericalError as e:
        print(f"numerical-error: {e}", file=sys.stderr)
        return 4
