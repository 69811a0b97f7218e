"""The benchmark workloads: set-up, timed phases and output checks.

Both workloads time a `train` and an `eval` phase, the end-to-end metrics;
their shapes decide which layers dominate.

- desk-ssl: the acceptance run, make_synthetic -> run_ssl -> evaluate_model.
  Training is bound by Python overhead.
- paper: the config.DEFAULTS widths. A BLAS-bound training step, and the
  semantic (`encode`), I/O (`load`), kNN, metrics and pseudo-label
  (`label`) layers at 200 classes.
"""

import hashlib
import time
from contextlib import contextmanager, nullcontext

import numpy as np

from zsgen import data, evaluate, gan, metrics, selftrain, text
from zsgen import cko as cko_mod

import inputs
from test_acceptance import end_to_end_configs   # the acceptance shapes, from tests/

RATIOS = [0.25, 0.5, 1.0]


class Operation:
    """One timed call into zsgen; failed if it raised or a check failed."""

    def __init__(self, name):
        self.name = name
        self.errors = []

    def check(self, ok, what):
        if not ok:
            self.errors.append(what)


class Run:
    """Phase intervals and operation outcomes of one workload process."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.intervals = {}   # phase name -> [(start, end)] of its completed calls
        self.ops = []
        self.raised = None   # the last exception a phase counted

    @contextmanager
    def phase(self, name):
        op = Operation(name)
        self.ops.append(op)
        with self.tracer.phase(name) if self.tracer else nullcontext():
            start = time.perf_counter()
            try:
                yield op
            except Exception as exc:
                op.errors.append(f"raised {type(exc).__name__}: {exc}")
                self.raised = exc
                raise
            self.intervals.setdefault(name, []).append((start, time.perf_counter()))

    def escaped(self, exc):
        """Count an exception that left a round outside any phase as one failed operation."""
        if exc is not self.raised:
            op = Operation("round")
            op.errors.append(f"raised {type(exc).__name__}: {exc}")
            self.ops.append(op)

    @property
    def failed(self):
        return sum(1 for op in self.ops if op.errors)


def digest(arrays):
    """Content digest of a parameter list: shapes, dtypes and raw bytes."""
    h = hashlib.blake2b()
    for a in arrays:
        h.update(repr((a.shape, a.dtype.str)).encode())
        h.update(np.ascontiguousarray(a).data)
    return h.hexdigest()


def encode(records, table, k):
    """What `zsgen cko` computes: similarity, overlay, tf-idf semantics."""
    sm = cko_mod.similarity_matrix(table, [r.name for r in records])
    overlaid = cko_mod.overlay(records, sm, k)
    stopwords = text.load_stopwords()
    docs = [text.preprocess(r.article_overlay, stopwords) for r in overlaid]
    return text.encode_corpus(text.tfidf_fit(docs), docs)


# ---------------------------------------------------------------- desk-ssl

# evaluate_model takes a fraction of a second at desk scale, so the trained
# generator is evaluated DESK_EVALS times and eval_s is their median.
DESK_EVALS = 20


def desk_setup(seed, workdir):
    return {"seed": seed, "dataset": data.make_synthetic(data.SyntheticSpec(seed=seed))}


def desk_round(inp, run):
    seed, ds = inp["seed"], inp["dataset"]
    gen_cfg, disc_cfg, train_cfg, ssl_cfg = end_to_end_configs()
    with run.phase("train") as op:
        result = selftrain.run_ssl(ds, gen_cfg, disc_cfg, train_cfg, ssl_cfg, seed)
    op.check(len(result.reports) == ssl_cfg.n_ssl, "missing SSL iterations")

    scaled = selftrain.scaled_copy(ds, result.scaler)
    reports = []
    for _ in range(DESK_EVALS):
        with run.phase("eval") as op:
            rep = evaluate.evaluate_model(result.generator, scaled, metrics.CalibrationSweep(),
                                          RATIOS, 30, 5, np.random.default_rng(seed))
        op.check(rep.top1_unseen >= 70.0, f"unseen top-1 {rep.top1_unseen:.2f}% < 70%")
        op.check(rep.ausuc >= 0.5, f"AUSUC {rep.ausuc:.4f} < 0.5")
        op.check(not reports or rep == reports[0], "evaluation is not deterministic")
        reports.append(rep)
    return reports[0]


# ------------------------------------------------------------------- paper

PAPER_STEPS = 1      # train_gan outer steps: n_d=5 critic steps + 1 generator step
# Half the config.DEFAULTS batch of 1000: the step stays bound by BLAS at the
# paper widths, and a run stays well inside the benchmark's time budget.
PAPER_BATCH = 500
PAPER_CORPUS = {"n_classes": 200, "words_per_article": 150, "vocab_size": 6000}


def paper_setup(seed, workdir):
    rng = np.random.default_rng([seed, 1])
    inp = inputs.paper_inputs(seed, workdir)
    # keep digests, not a second copy of the paper-width networks
    inp["gen_digest"] = digest(inp.pop("gen").params())
    inp["disc_digest"] = digest(inp.pop("disc").params())
    inp["records"], inp["table"] = inputs.make_corpus(
        rng, stopwords=text.load_stopwords(), **PAPER_CORPUS)
    inp["seed"] = seed
    return inp


def paper_round(inp, run):
    seed, paths, unseen = inp["seed"], inp["paths"], inp["unseen"]
    ssl_cfg = selftrain.SslConfig()   # config.DEFAULTS ssl section

    with run.phase("encode") as op:
        vectors = encode(inp["records"], inp["table"], k=4)
    op.check(vectors.shape[0] == len(inp["records"]) and vectors.shape[1] > 0,
             f"semantic matrix shape {vectors.shape}")
    op.check(np.allclose(np.linalg.norm(vectors, axis=1), 1.0, rtol=0, atol=1e-12),
             "semantic rows are not unit-norm")

    with run.phase("load") as op:
        gen, disc, scaler, class_cols, _ = evaluate.load_model(paths["checkpoint"])
        scaled = selftrain.scaled_copy(data.assemble_dataset(
            paths["train"], paths["test"], paths["semantics"], paths["split"]), scaler)
    op.check(digest(gen.params()) == inp["gen_digest"]
             and digest(disc.params()) == inp["disc_digest"],
             "checkpoint did not round-trip bit-exactly")
    test = scaled.test_indices()
    op.check(np.array_equal(scaled.labels[test], inp["test_y"]), "test labels changed")

    with run.phase("eval") as op:
        rep = evaluate.evaluate_model(gen, scaled, metrics.CalibrationSweep(), RATIOS,
                                      60, 20, np.random.default_rng(seed))
    chance = 100.0 / len(unseen)
    op.check(rep.top1_unseen >= 10 * chance,
             f"planted unseen top-1 {rep.top1_unseen:.2f}% < {10 * chance:.0f}%")
    op.check(rep.ausuc > 0.0, "AUSUC is 0")

    rows = test[np.isin(scaled.labels[test], unseen)]
    with run.phase("label") as op:
        pl = selftrain.pseudo_label(gen, unseen, scaled.semantics_for(unseen),
                                    scaled.features[rows], ssl_cfg,
                                    np.random.default_rng(seed))
    op.check(bool(np.all(pl.confidences >= ssl_cfg.psi)), "pseudo-label confidence below psi")
    op.check(set(pl.labels.tolist()) <= set(unseen), "pseudo-label outside unseen ids")
    op.check(len(pl) > 0, "no pseudo-labels retained")
    if len(pl):
        precision = float((pl.labels == scaled.labels[rows][pl.source_indices]).mean())
        op.check(precision >= 0.5, f"pseudo-label precision {precision:.3f} < 0.5")

    train = scaled.train_indices()
    cfg = gan.GanTrainConfig(n_step=PAPER_STEPS, batch_size=PAPER_BATCH, eval_every=0)
    with run.phase("train") as op:
        # train_gan raises on a non-finite critic or generator loss
        result = gan.train_gan(scaled, scaled.features[train], scaled.labels[train],
                               gen, disc, class_cols, cfg, np.random.default_rng(seed))
    after = result.generator.params()
    op.check(all(np.isfinite(p).all() for p in after), "non-finite generator parameters")
    op.check(digest(after) != inp["gen_digest"], "generator parameters did not change")
    return rep


# Phases timed against the host's matrix-product reference (hostspeed.py);
# the others, set-up included, against its Python loop.
BLAS_BOUND = {"paper": ("train",)}

WORKLOADS = {
    "desk-ssl": (desk_setup, desk_round),
    "paper": (paper_setup, paper_round),
}
