"""Spans around the package's public calls, recorded from outside ``src/``.

``Tracer.install()`` replaces public functions and methods of the
``fakesent`` modules with wrappers that record one span each (name, start,
end, parent, phase) into in-memory arrays; nothing is written until
``save()``. Backward closures are timed by wrapping ``Tape.record``: the
closure an op records is wrapped in a span named ``numcore.<op>.backward``.

Per-layer metrics are self times (a span's duration minus the part its
child spans cover) and counts, summed per phase and divided by the number
of times that phase ran, so every figure is "per pass": one gen-fakes
round, plus one set-up, plus one main round. Spans in the untimed phase
(input generation, correctness checks) are kept in the span file but
weigh nothing in the metrics.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# numcore primitives the model calls; each gets forward, backward and call metrics
OPS = (
    "matmul", "add", "mul", "concat", "narrow", "pick", "sigmoid", "tanh",
    "softmax_cross_entropy", "max_over_time", "rows", "stack", "reshape", "reverse_within",
)

UNTIMED = "untimed"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.phase = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.phases: list[str] = [UNTIMED]
        self.phase_reps: Counter[str] = Counter()
        self._phase = 0
        self.counts: Counter[tuple[int, str]] = Counter()
        self._probe_seen: set[tuple[str, ...]] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def set_phase(self, phase: str) -> None:
        """Attribute the following spans to ``phase``; each call is one repetition."""
        if phase not in self.phases:
            self.phases.append(phase)
        self._phase = self.phases.index(phase)
        if phase != UNTIMED:
            self.phase_reps[phase] += 1

    def count(self, key: str, value) -> None:
        self.counts[(self._phase, key)] += value

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as a span; ``after(result, *args)`` may count outside it."""
        nid = self._id(name)
        stack, start, end = self.stack, self.start, self.end

        def traced(*args, **kwargs):
            i = len(start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.phase.append(self._phase)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def current(self) -> str | None:
        return self.names[self.name[self.stack[-1]]] if self.stack else None

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        orig = getattr(owner, attr)
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, orig, after))

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        from fakesent import checkpoint, classifier, cli, corpus, encoder, fakegen, probe
        from fakesent import numcore as nc

        for op in OPS:
            self._patch(nc, op, f"numcore.{op}")
        self._patch(nc, "backward", "numcore.backward", self._count_backward)
        self._patch(nc, "sgd_step", "numcore.sgd_step")
        orig_record = nc.Tape.record
        self._patched.append((nc.Tape, "record", orig_record))

        def record(tape, out, inputs, fn):
            op = self.current() or "numcore.unknown"
            orig_record(tape, out, inputs, self.wrap(op + ".backward", fn))

        nc.Tape.record = record

        enc = encoder.SentenceEncoder
        orig_forward = enc.forward_batch
        self._patched.append((enc, "forward_batch", orig_forward))
        untaped = self.wrap("encoder.forward_batch", orig_forward)
        taped = self.wrap("encoder.forward_batch_taped", orig_forward)

        def forward_batch(encoder_, tape, idx, lengths):
            self.count("encoder.positions", int(idx.size))
            self.count("encoder.real_positions", int(np.sum(lengths)))
            if tape is None:
                return untaped(encoder_, tape, idx, lengths)
            self.count("encoder.taped_positions", int(idx.size))
            return taped(encoder_, tape, idx, lengths)

        enc.forward_batch = forward_batch
        self._patch(enc, "encode_batch", "encoder.encode_batch", self._count_encoded)

        self._patch(classifier, "train", "classifier.train")
        self._patch(classifier.DetectorModel, "predict_proba", "classifier.predict_proba")
        self._patch(checkpoint, "save_model", "checkpoint.save_model", self._count_saved)
        self._patch(checkpoint, "load_model", "checkpoint.load_model", self._count_loaded)
        for module in (corpus, cli):  # cli imported these two by name
            self._patch(module, "load_corpus", "corpus.load_corpus")
            self._patch(module, "build_vocab", "corpus.build_vocab")
        for fn in ("load_dataset", "build_dataset", "write_dataset"):
            self._patch(fakegen, fn, f"fakegen.{fn}")
        for fn in ("gen_sentlen", "gen_wc", "gen_bshift"):
            self._patch(probe, fn, "probe.gen")
        self._patch(probe, "fit_logistic", "probe.fit_logistic")
        self._patch(probe, "run_probes", "probe.run_probes", self._end_probes)

        orig_main = cli.main
        self._patched.append((cli, "main", orig_main))
        by_command = {}

        def main(argv=None):
            name = f"cli.{argv[0]}"
            if name not in by_command:
                by_command[name] = self.wrap(name, orig_main)
            return by_command[name](argv)

        cli.main = main

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- counters taken at the boundaries ---------------------------------------

    def _count_backward(self, result, tape, loss):
        self.count("numcore.backward_calls", 1)
        self.count("numcore.tape_records", len(tape))

    def _count_encoded(self, result, encoder_, sentences, batch_size=64):
        if self.current() == "probe.run_probes":
            distinct = {s.tokens for s in sentences}
            self.count("probe.encoded", len(sentences))
            self.count("probe.distinct_encoded", len(distinct - self._probe_seen))
            self._probe_seen |= distinct

    def _end_probes(self, result, *args, **kwargs):
        self._probe_seen = set()

    def _count_saved(self, result, path, model):
        self.count("checkpoint.bytes", os.path.getsize(path))

    def _count_loaded(self, result, path):
        self.count("checkpoint.bytes", os.path.getsize(path))

    # -- output --------------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "phase": np.frombuffer(self.phase, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Span arrays plus the name and phase tables, as one compressed .npz."""
        np.savez_compressed(
            path, names=np.array(self.names), phases=np.array(self.phases), **self.spans()
        )

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric, per pass (see the module docstring)."""
        s = self.spans()
        dur = s["end"] - s["start"]
        nested = s["parent"] >= 0
        covered = np.zeros_like(dur)
        np.add.at(covered, s["parent"][nested], dur[nested])
        self_time = dur - covered
        reps = np.array([self.phase_reps.get(p, 0) for p in self.phases], dtype=np.float64)
        phase_weight = np.divide(1.0, reps, out=np.zeros_like(reps), where=reps > 0)
        weight = phase_weight[s["phase"]]
        ids = {n: i for i, n in enumerate(self.names)}
        parent_name = np.where(nested, s["name"][np.maximum(s["parent"], 0)], -1)

        def spans_named(name, parent=None):
            mask = s["name"] == ids.get(name, -2)
            if parent is not None:
                mask &= parent_name == ids.get(parent, -2)
            return mask

        def self_s(name):
            return float((self_time * weight)[spans_named(name)].sum())

        def total_s(name, parent=None):
            return float((dur * weight)[spans_named(name, parent)].sum())

        def calls(name):
            return float(weight[spans_named(name)].sum())

        def counted(key):
            return float(sum(v * phase_weight[p] for (p, k), v in self.counts.items() if k == key))

        def ratio(num, den):
            return num / den if den else 0.0

        m: dict[str, float] = {
            "numcore.backward_s": self_s("numcore.backward"),
            "numcore.sgd_step_s": self_s("numcore.sgd_step"),
            "numcore.tape_records_per_step": ratio(
                counted("numcore.tape_records"), counted("numcore.backward_calls")
            ),
            "numcore.backward_us_per_position": 1e6 * ratio(
                total_s("numcore.backward"), counted("encoder.taped_positions")
            ),
        }
        for op in OPS:
            m[f"numcore.{op}.forward_s"] = self_s(f"numcore.{op}")
            m[f"numcore.{op}.backward_s"] = self_s(f"numcore.{op}.backward")
            m[f"numcore.{op}.calls"] = calls(f"numcore.{op}")
        m.update({
            "encoder.forward_s": self_s("encoder.forward_batch"),
            "encoder.forward_taped_s": self_s("encoder.forward_batch_taped"),
            "encoder.real_position_share": ratio(
                counted("encoder.real_positions"), counted("encoder.positions")
            ),
            "classifier.predict_s": self_s("classifier.predict_proba"),
            "classifier.train_self_s": self_s("classifier.train"),
            "checkpoint.save_s": self_s("checkpoint.save_model"),
            "checkpoint.load_s": self_s("checkpoint.load_model"),
            "checkpoint.bytes": counted("checkpoint.bytes"),
            "corpus.load_corpus_s": self_s("corpus.load_corpus"),
            "corpus.build_vocab_s": self_s("corpus.build_vocab"),
            "fakegen.load_dataset_s": self_s("fakegen.load_dataset"),
            "fakegen.build_dataset_s": self_s("fakegen.build_dataset"),
            "fakegen.write_dataset_s": self_s("fakegen.write_dataset"),
            "probe.fit_logistic_s": self_s("probe.fit_logistic"),
            "probe.fit_logistic_calls": calls("probe.fit_logistic"),
            "probe.encode_s": total_s("encoder.encode_batch", parent="probe.run_probes"),
            "probe.gen_s": self_s("probe.gen"),
            "probe.distinct_encode_share": ratio(
                counted("probe.distinct_encoded"), counted("probe.encoded")
            ),
            "cli.encode_output_s": self_s("cli.encode"),
        })
        return m


UNITS = {
    "numcore.tape_records_per_step": "count",
    "numcore.backward_us_per_position": "us",
    "encoder.real_position_share": "ratio",
    "checkpoint.bytes": "bytes",
    "probe.fit_logistic_calls": "count",
    "probe.distinct_encode_share": "ratio",
}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "count" if metric.endswith(".calls") else "s"
