"""Span tracer that wraps public zsgen functions from outside the package.

Several functions are imported by name into other modules (`generate` into
`selftrain`, `knn_scores` into `gan`, `selftrain` and `evaluate`,
`mlp_forward` into `gan`, `stem` into `text`, ...). Wrapping only the
defining module would let those call sites escape, so `Tracer.install`
replaces every binding of each target function in every loaded `zsgen`
module, and restores them on exit.

Spans are kept in memory as (name id, start, end, parent span) and written
out at the end; self time is derived from them, never sampled.
"""

import importlib
import json
import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# module.function -> whether per-call p50/p99 are reported (hot functions)
TARGETS = {
    "gan.train_gan": False,
    "gan._probe_gacc": False,
    "gan.discriminator_loss_grads": True,
    "gan.gradient_penalty_grads": True,
    "gan.generator_loss_grads": True,
    "gan.triplet_loss_grad": True,
    "gan.softmax_cross_entropy": True,
    "gan.generate": True,
    "nn.mlp_forward": True,
    "nn.mlp_backward": True,
    "nn.adam_step": True,
    "knn.knn_scores": False,
    "knn.knn_predict_proba": False,
    "metrics.generalized_accuracy": False,
    "metrics.suc_curve": False,
    "metrics.retrieval_precision": False,
    "metrics.gzsl_suh": False,
    "metrics.top1_per_class": False,
    "selftrain.run_ssl": False,
    "selftrain.synthesize_references": False,
    "selftrain.pseudo_label": False,
    "selftrain.scaled_copy": False,
    "evaluate.evaluate_model": False,
    "evaluate.score_matrix": False,
    "evaluate.retrieval_map": False,
    "evaluate.load_model": False,
    "data.assemble_dataset": False,
    "data.load_matrix": False,
    "data.load_checkpoint": False,
    "cko.similarity_matrix": False,
    "cko.overlay": False,
    "text.preprocess": False,
    "text.tfidf_fit": False,
    "text.encode_corpus": False,
    "porter.stem": True,
}

PHASE_PREFIX = "phase."


def _mlp_flop(mlp, rows, per_weight):
    return sum(per_weight * rows * l.weight.shape[0] * l.weight.shape[1] for l in mlp.layers)


def _count_forward(c, args, result):
    mlp, x = args[0], args[1]
    c["nn.flop"] += _mlp_flop(mlp, np.shape(x)[0], 2)


def _count_backward(c, args, result):
    mlp, cache = args[0], args[1]
    # weight gradient and input gradient: two matmuls per layer
    c["nn.flop"] += _mlp_flop(mlp, cache[-1][1].shape[0], 4)


def _count_generate(c, args, result):
    c["gan.generate.rows"] += np.shape(args[1])[0]


def _count_knn(c, args, result):
    clf, queries = args[0], args[1]
    c["knn.distance_pairs"] += np.shape(queries)[0] * clf.references.shape[0]


def _count_pseudo_label(c, args, result):
    c["selftrain.pseudo_label.offered"] += np.shape(args[3])[0]
    c["selftrain.pseudo_label.retained"] += len(result)


def _count_stem(c, args, result):
    c.setdefault("porter.stem.distinct", set()).add(args[0])


def _count_load_matrix(c, args, result):
    c["data.load_matrix.file_bytes"] += os.path.getsize(args[0])


COUNTERS = {
    "nn.mlp_forward": _count_forward,
    "nn.mlp_backward": _count_backward,
    "gan.generate": _count_generate,
    "knn.knn_scores": _count_knn,
    "knn.knn_predict_proba": _count_knn,
    "selftrain.pseudo_label": _count_pseudo_label,
    "porter.stem": _count_stem,
    "data.load_matrix": _count_load_matrix,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        # one entry per span, in start order; flat arrays hold no objects the
        # garbage collector would have to scan as the trace grows
        self.name_ids = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")  # index of the enclosing span, or -1
        self.stack = []
        self.counters = defaultdict(int)

    @property
    def spans(self):
        """(name id, start, end, parent) per span."""
        return list(zip(self.name_ids, self.starts, self.ends, self.parents))

    def _open(self, name_id):
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def _close(self, idx):
        self.ends[idx] = self.clock()
        self.stack.pop()

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name, fn):
        name_id = self._name_id(name)
        count = COUNTERS.get(name)
        counters, open_span, close_span = self.counters, self._open, self._close

        def traced(*args, **kwargs):
            idx = open_span(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if count is not None:
                count(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def install(self):
        """Replace every binding of each target in all loaded zsgen modules."""
        wrappers = {}
        for qual in TARGETS:
            mod_name, fn_name = qual.split(".")
            fn = getattr(importlib.import_module("zsgen." + mod_name), fn_name)
            wrappers[id(fn)] = (fn, self._wrap(qual, fn))
        replaced = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "zsgen" and not mod_name.startswith("zsgen."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    replaced.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in replaced:
                setattr(module, attr, value)

    @contextmanager
    def phase(self, name):
        """Top-level span around one timed phase; yields nothing."""
        idx = self._open(self._name_id(PHASE_PREFIX + name))
        try:
            yield
        finally:
            self._close(idx)

    def write(self, path):
        """One JSON object per span: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name_id, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "name": self.names[name_id], "start": start, "end": end,
                    "parent": parent,
                }) + "\n")

    def summary(self):
        """Per-name calls, self seconds, inclusive durations; phase gaps."""
        name_ids = np.frombuffer(self.name_ids, dtype=np.int64)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        parent = np.frombuffer(self.parents, dtype=np.int64)
        covered = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        out = {}
        for name_id, name in enumerate(self.names):
            mask = name_ids == name_id
            out[name] = {
                "calls": int(mask.sum()),
                "self_s": float(self_time[mask].sum()),
                "durations": dur[mask],
            }
        phases = np.array([n.startswith(PHASE_PREFIX) for n in self.names], dtype=bool)[name_ids]
        unattributed = float(self_time[phases].sum())
        return out, unattributed


def layer_metrics(tracer):
    """Per-layer metric dict (name -> (value, unit)) from a finished trace."""
    stats, unattributed = tracer.summary()
    c = tracer.counters
    empty = {"calls": 0, "self_s": 0.0, "durations": np.zeros(0)}
    out = {}
    for qual, hot in TARGETS.items():
        s = stats.get(qual, empty)
        out[f"{qual}.calls"] = (s["calls"], "count")
        out[f"{qual}.self_s"] = (s["self_s"], "s")
        if hot:
            durs = s["durations"]
            p50, p99 = (np.percentile(durs, [50, 99]) * 1e3) if durs.size else (0.0, 0.0)
            out[f"{qual}.p50_ms"] = (float(p50), "ms")
            out[f"{qual}.p99_ms"] = (float(p99), "ms")

    def ratio(num, den):
        return float(num / den) if den else 0.0

    flop = c.get("nn.flop", 0)
    nn_self = (stats.get("nn.mlp_forward", empty)["self_s"]
               + stats.get("nn.mlp_backward", empty)["self_s"])
    out["nn.gflop"] = (flop / 1e9, "GFLOP")
    out["nn.gflop_per_s"] = (ratio(flop / 1e9, nn_self), "GFLOP/s")
    out["gan.generate.rows_per_call"] = (
        ratio(c.get("gan.generate.rows", 0), stats.get("gan.generate", empty)["calls"]),
        "rows")
    out["knn.distance_pairs"] = (int(c.get("knn.distance_pairs", 0)), "count")
    out["selftrain.pseudo_label.retained_frac"] = (
        ratio(c.get("selftrain.pseudo_label.retained", 0),
              c.get("selftrain.pseudo_label.offered", 0)), "fraction")
    out["porter.stem.calls_per_distinct"] = (
        ratio(stats.get("porter.stem", empty)["calls"],
              len(c.get("porter.stem.distinct", ()))), "ratio")
    load = stats.get("data.load_matrix", empty)
    out["data.load_matrix.mb_per_s"] = (
        ratio(c.get("data.load_matrix.file_bytes", 0) / 1e6, float(load["durations"].sum())),
        "MB/s")
    out["trace.unattributed_s"] = (unattributed, "s")
    out["trace.spans"] = (len(tracer.starts), "count")
    return out
