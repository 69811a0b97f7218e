"""Model persistence and the full evaluation protocol.

Each evaluation synthesizes one reference set over the seen+unseen classes.
All of it feeds the kNN probe over the combined space (calibrated/GZSL
metrics); its unseen rows feed the unseen-only probe (zero-shot top-1), and
their per-class centroids are the retrieval queries.
"""

from dataclasses import asdict

import numpy as np

from . import data, metrics
from .errors import ConfigError
from .gan import (
    Discriminator, DiscriminatorConfig, FeatureScaler, Generator, GeneratorConfig,
)
from .knn import KnnClassifier, knn_scores
from .nn import Layer, Mlp
from .selftrain import synthesize_references, unseen_test_rows, unseen_top1

CHECKPOINT_KIND = "zsgen-model"


def _mlp_arrays(prefix, mlp):
    out = {}
    for i, layer in enumerate(mlp.layers):
        out[f"{prefix}.{i}.weight"] = layer.weight
        out[f"{prefix}.{i}.bias"] = layer.bias
    return out


def _mlp_meta(mlp):
    return [{"activation": l.activation, "slope": l.slope} for l in mlp.layers]


def _mlp_from(prefix, arrays, meta):
    layers = []
    for i, spec in enumerate(meta):
        layers.append(Layer(
            arrays[f"{prefix}.{i}.weight"], arrays[f"{prefix}.{i}.bias"],
            spec["activation"], spec["slope"],
        ))
    return Mlp(layers)


def save_model(path, gen, disc, scaler, class_cols, config_hash=""):
    arrays = {}
    arrays.update(_mlp_arrays("gen.reduce", gen.reduce))
    arrays.update(_mlp_arrays("gen.decode", gen.decode))
    arrays.update(_mlp_arrays("disc.trunk", disc.trunk))
    arrays.update(_mlp_arrays("disc.critic", disc.critic))
    arrays.update(_mlp_arrays("disc.head", disc.head))
    arrays["scaler.lo"] = scaler.lo
    arrays["scaler.hi"] = scaler.hi
    meta = {
        "kind": CHECKPOINT_KIND,
        "config_hash": config_hash,
        "gen_cfg": asdict(gen.cfg),
        "disc_cfg": asdict(disc.cfg),
        "gen_layers": {
            "reduce": _mlp_meta(gen.reduce), "decode": _mlp_meta(gen.decode),
        },
        "disc_layers": {
            "trunk": _mlp_meta(disc.trunk), "critic": _mlp_meta(disc.critic),
            "head": _mlp_meta(disc.head),
        },
        "class_cols": {str(k): v for k, v in class_cols.items()},
    }
    data.save_checkpoint(path, arrays, meta)


def load_model(path):
    arrays, meta = data.load_checkpoint(path)
    if meta.get("kind") != CHECKPOINT_KIND:
        raise ConfigError(f"{path} is not a model checkpoint")
    gen = Generator.__new__(Generator)
    gen.cfg = GeneratorConfig(**meta["gen_cfg"])
    gen.reduce = _mlp_from("gen.reduce", arrays, meta["gen_layers"]["reduce"])
    gen.decode = _mlp_from("gen.decode", arrays, meta["gen_layers"]["decode"])
    disc = Discriminator.__new__(Discriminator)
    disc.cfg = DiscriminatorConfig(**meta["disc_cfg"])
    disc.trunk = _mlp_from("disc.trunk", arrays, meta["disc_layers"]["trunk"])
    disc.critic = _mlp_from("disc.critic", arrays, meta["disc_layers"]["critic"])
    disc.head = _mlp_from("disc.head", arrays, meta["disc_layers"]["head"])
    scaler = FeatureScaler(lo=arrays["scaler.lo"], hi=arrays["scaler.hi"])
    class_cols = {int(k): v for k, v in meta["class_cols"].items()}
    return gen, disc, scaler, class_cols, meta


def retrieval_map(refs, ref_labels, features, labels, ratios):
    """Zero-shot retrieval mAP (%) per ratio, keyed by percent, with the
    per-class centroids of the references as queries."""
    queries = {int(c): refs[ref_labels == c].mean(axis=0) for c in np.unique(ref_labels)}
    return {
        int(round(100 * ratio)): metrics.retrieval_precision(queries, features, labels, ratio)
        for ratio in ratios
    }


def score_matrix(refs, ref_labels, dataset, queries, knn_k):
    """kNN vote-fraction scores over the combined seen+unseen class space."""
    seen = sorted(dataset.split.seen)
    class_ids = np.array(seen + sorted(dataset.split.unseen), dtype=np.int64)
    clf = KnnClassifier(refs, ref_labels, k=knn_k)
    scores = knn_scores(clf, queries, class_ids)
    return metrics.ScoreMatrix(scores, class_ids, seen_count=len(seen))


def evaluate_model(gen, dataset_scaled, sweep, ratios, per_class_synthetic,
                   knn_k, rng):
    """Full report on the test partition of an already-scaled dataset."""
    test_idx = dataset_scaled.test_indices()
    x_test = dataset_scaled.features[test_idx]
    y_test = dataset_scaled.labels[test_idx]
    rows = unseen_test_rows(dataset_scaled)
    if rows.size == 0:
        raise ConfigError("test partition has no unseen-class samples")

    seen = sorted(dataset_scaled.split.seen)
    class_ids = seen + sorted(dataset_scaled.split.unseen)
    refs, ref_labels = synthesize_references(
        gen, class_ids, dataset_scaled.semantics_for(class_ids),
        per_class_synthetic, rng,
    )
    unseen_refs = slice(len(seen) * per_class_synthetic, None)
    top1_unseen = unseen_top1(
        refs[unseen_refs], ref_labels[unseen_refs], dataset_scaled, knn_k
    )

    sm = score_matrix(refs, ref_labels, dataset_scaled, x_test, knn_k)
    s, u, h = metrics.gzsl_suh(sm, y_test)
    g_acc = metrics.generalized_accuracy(sm, y_test, sweep)
    points = metrics.suc_curve(sm, y_test, sweep)
    area = metrics.ausuc(points)

    map_at = retrieval_map(
        refs[unseen_refs], ref_labels[unseen_refs],
        dataset_scaled.features[rows], dataset_scaled.labels[rows], ratios,
    )
    return metrics.EvalReport(
        top1_unseen=top1_unseen, s=s, u=u, h=h, g_acc=g_acc,
        ausuc=area, suc_points=points, map_at=map_at,
    )


def write_report(path, report):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"top1_unseen: {report.top1_unseen!r}\n")
        fh.write(f"S: {report.s!r}\n")
        fh.write(f"U: {report.u!r}\n")
        fh.write(f"H: {report.h!r}\n")
        fh.write(f"G_acc: {report.g_acc!r}\n")
        fh.write(f"AUSUC: {report.ausuc!r}\n")
        for pct in sorted(report.map_at):
            fh.write(f"mAP@{pct}: {report.map_at[pct]!r}\n")
        fh.write("suc_points:\n")
        for x, y in report.suc_points:
            fh.write(f"  {x!r} {y!r}\n")


def write_suc_points(path, points):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("acc_unseen\tacc_seen\n")
        for x, y in points:
            fh.write(f"{x!r}\t{y!r}\n")
