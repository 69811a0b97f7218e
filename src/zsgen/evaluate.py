"""Model persistence and the full evaluation protocol.

Each evaluation synthesizes one reference set over the seen+unseen classes.
All of it feeds the kNN probe over the combined space (calibrated/GZSL
metrics); its unseen rows feed the unseen-only probe (zero-shot top-1), and
their per-class centroids are the retrieval queries.
"""

from dataclasses import asdict

import numpy as np

from . import data, metrics
from .config import build_section
from .errors import ConfigError, ParseError
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


def _meta_entry(node, key, kind, path):
    """node[key], which must be of type kind; anything else is a corrupt checkpoint."""
    if not isinstance(node, dict) or not isinstance(node.get(key), kind):
        raise ParseError(f"model metadata entry {key!r} is missing or of the wrong type",
                         path=path)
    return node[key]


def _array(arrays, name, path):
    if name not in arrays:
        raise ParseError(f"model checkpoint has no array {name!r}", path=path)
    return arrays[name]


def _mlp_from(prefix, arrays, layer_meta, key, path):
    specs = _meta_entry(layer_meta, key, list, path)
    if not specs:
        raise ParseError(f"model metadata lists no {prefix} layers", path=path)
    layers = []
    for i, spec in enumerate(specs):
        layers.append(Layer(
            _array(arrays, f"{prefix}.{i}.weight", path),
            _array(arrays, f"{prefix}.{i}.bias", path),
            _meta_entry(spec, "activation", str, path),
            _meta_entry(spec, "slope", (int, float), path),
        ))
    return Mlp(layers)


def _check_shapes(gen, disc, scaler):
    """Raise ConfigError unless every network maps the widths its config names
    and the discriminator has the layers Discriminator builds."""
    g, d = gen.cfg, disc.cfg
    decode_in = g.reduce_dim + (g.noise_dim if g.noise_mode == "concat" else 0)
    for name, mlp, dims in [
        ("gen.reduce", gen.reduce, (g.semantic_dim, g.reduce_dim)),
        ("gen.decode", gen.decode, (decode_in, g.visual_dim)),
        ("disc.trunk", disc.trunk, (d.visual_dim, d.hidden_dim)),
        ("disc.critic", disc.critic, (d.hidden_dim, 1)),
        ("disc.head", disc.head, (d.hidden_dim, d.num_classes)),
    ]:
        if (mlp.in_dim, mlp.out_dim) != dims:
            raise ConfigError(f"{name} maps {mlp.in_dim} -> {mlp.out_dim}, "
                              f"its config {dims[0]} -> {dims[1]}")
    for part, activations in Discriminator.LAYERS.items():
        found = tuple(layer.activation for layer in getattr(disc, part).layers)
        if found != activations:
            raise ConfigError(f"disc.{part} has layers {list(found)}, "
                              f"a discriminator builds {list(activations)}")
    for bound in (scaler.lo, scaler.hi):
        if bound.shape != (g.visual_dim,) or not np.isfinite(bound).all():
            raise ConfigError(f"scaler bounds must be {g.visual_dim} finite values")


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
    gen_layers = _meta_entry(meta, "gen_layers", dict, path)
    disc_layers = _meta_entry(meta, "disc_layers", dict, path)
    try:
        gen = Generator.__new__(Generator)
        gen.cfg = build_section(GeneratorConfig, _meta_entry(meta, "gen_cfg", dict, path),
                                "gen_cfg")
        gen.reduce = _mlp_from("gen.reduce", arrays, gen_layers, "reduce", path)
        gen.decode = _mlp_from("gen.decode", arrays, gen_layers, "decode", path)
        disc = Discriminator.__new__(Discriminator)
        disc.cfg = build_section(DiscriminatorConfig, _meta_entry(meta, "disc_cfg", dict, path),
                                 "disc_cfg")
        disc.trunk = _mlp_from("disc.trunk", arrays, disc_layers, "trunk", path)
        disc.critic = _mlp_from("disc.critic", arrays, disc_layers, "critic", path)
        disc.head = _mlp_from("disc.head", arrays, disc_layers, "head", path)
        scaler = FeatureScaler(lo=_array(arrays, "scaler.lo", path),
                               hi=_array(arrays, "scaler.hi", path))
        _check_shapes(gen, disc, scaler)
    except ConfigError as exc:
        raise ParseError(f"corrupt model checkpoint: {exc}", path=path) from None
    class_cols = {}
    for key, col in _meta_entry(meta, "class_cols", dict, path).items():
        try:
            class_id = int(key)
        except ValueError:
            raise ParseError(f"class_cols key {key!r} is not a class id", path=path) from None
        if not isinstance(col, int) or not 0 <= col < disc.cfg.num_classes:
            raise ParseError(f"class_cols value {col!r} is not a logit column", path=path)
        class_cols[class_id] = col
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
    with data.atomic_write(path) as fh:
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
    with data.atomic_write(path) as fh:
        fh.write("acc_unseen\tacc_seen\n")
        for x, y in points:
            fh.write(f"{x!r}\t{y!r}\n")
