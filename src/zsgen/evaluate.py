"""Model persistence and the full evaluation protocol.

Each evaluation synthesizes one reference set over the seen+unseen classes
and forms the test rows' distances to it once. All of it feeds the kNN probe
over the combined space (calibrated/GZSL metrics); its unseen rows feed the
unseen-only probe (zero-shot top-1), which reads the unseen test rows' block
of those distances, and their per-class centroids are the retrieval queries.
"""

from dataclasses import asdict

import numpy as np

from . import data, metrics
from .config import build_section
from .errors import ConfigError, ParseError
from .gan import (
    Discriminator, DiscriminatorConfig, FeatureScaler, Generator, GeneratorConfig,
)
from .knn import KnnClassifier, knn_scores, score_matrix, squared_distances
from .nn import Layer, Mlp
from .selftrain import synthesize_references

CHECKPOINT_KIND = "zsgen-model"


# checkpoint prefix, network class, config class
_NETWORKS = (("gen", Generator, GeneratorConfig), ("disc", Discriminator, DiscriminatorConfig))


def _layer_meta(layout):
    return {part: list(activations) for part, (_, activations) in layout.items()}


def _meta_entry(node, key, kind, path):
    """node[key], which must be of type kind; anything else is a corrupt checkpoint."""
    if not isinstance(node, dict) or not isinstance(node.get(key), kind):
        raise ParseError(f"model metadata entry {key!r} is missing or of the wrong type",
                         path=path)
    return node[key]


def _take(arrays, name, shape, path):
    """arrays.pop(name), which must be there and have the given shape."""
    if name not in arrays:
        raise ParseError(f"model checkpoint has no array {name!r}", path=path)
    array = arrays.pop(name)
    if array.shape != shape:
        raise ParseError(f"array {name!r} has shape {array.shape}, its config makes {shape}",
                         path=path)
    return array


def save_model(path, gen, disc, scaler, class_cols, config_hash=""):
    arrays = {"scaler.lo": scaler.lo, "scaler.hi": scaler.hi}
    meta = {
        "kind": CHECKPOINT_KIND,
        "config_hash": config_hash,
        "class_cols": {str(k): v for k, v in class_cols.items()},
    }
    for (prefix, _, _), net in zip(_NETWORKS, (gen, disc)):
        layout = net.layout(net.cfg)
        meta[f"{prefix}_cfg"] = asdict(net.cfg)
        meta[f"{prefix}_layers"] = _layer_meta(layout)
        for part in layout:
            for i, layer in enumerate(getattr(net, part).layers):
                arrays[f"{prefix}.{part}.{i}.weight"] = layer.weight
                arrays[f"{prefix}.{part}.{i}.bias"] = layer.bias
    data.save_checkpoint(path, arrays, meta)


def _load_network(prefix, cls, cfg_cls, arrays, meta, path):
    """The network that the stored config builds, with its layers taken out of
    arrays; the stored layer list must be the one that config builds."""
    cfg = build_section(cfg_cls, _meta_entry(meta, f"{prefix}_cfg", dict, path),
                        f"{prefix}_cfg")
    layout = cls.layout(cfg)
    stored = _meta_entry(meta, f"{prefix}_layers", dict, path)
    built = _layer_meta(layout)
    for part in [*built, *sorted(set(stored) - set(built))]:
        if stored.get(part) != built.get(part):
            raise ConfigError(f"{prefix}.{part} has layers {stored.get(part)}, "
                              f"a {cls.__name__.lower()} builds {built.get(part)}")
    parts = {}
    for part, (widths, activations) in layout.items():
        parts[part] = Mlp([
            Layer(_take(arrays, f"{prefix}.{part}.{i}.weight", (widths[i], widths[i + 1]), path),
                  _take(arrays, f"{prefix}.{part}.{i}.bias", (widths[i + 1],), path),
                  act)
            for i, act in enumerate(activations)
        ])
    return cls.from_parts(cfg, parts)


def load_model(path):
    arrays, meta = data.load_checkpoint(path)
    if meta.get("kind") != CHECKPOINT_KIND:
        raise ConfigError(f"{path} is not a model checkpoint")
    try:
        gen, disc = (_load_network(*net, arrays, meta, path) for net in _NETWORKS)
        dim = gen.cfg.visual_dim
        if disc.cfg.visual_dim != dim:
            raise ConfigError(f"disc_cfg.visual_dim {disc.cfg.visual_dim} != gen_cfg's {dim}")
        scaler = FeatureScaler(lo=_take(arrays, "scaler.lo", (dim,), path),
                               hi=_take(arrays, "scaler.hi", (dim,), path))
        if not (np.isfinite(scaler.lo).all() and np.isfinite(scaler.hi).all()):
            raise ConfigError("scaler bounds must be finite")
    except ConfigError as exc:
        raise ParseError(f"corrupt model checkpoint: {exc}", path=path) from None
    if arrays:
        raise ParseError(f"model checkpoint holds arrays no network names: {sorted(arrays)}",
                         path=path)
    class_cols = {}
    for key, col in _meta_entry(meta, "class_cols", dict, path).items():
        try:
            class_id = int(key)
        except ValueError:
            raise ParseError(f"class_cols key {key!r} is not a class id", path=path) from None
        # a bool is an int, and True would pass as column 1
        if type(col) is not int or not 0 <= col < disc.cfg.num_classes:
            raise ParseError(f"class_cols value {col!r} is not a logit column", path=path)
        if class_id in class_cols:
            raise ParseError(f"class_cols names class {class_id} twice", path=path)
        class_cols[class_id] = col
    if len(set(class_cols.values())) < len(class_cols):
        raise ParseError("class_cols gives one logit column to two classes", path=path)
    return gen, disc, scaler, class_cols, meta


def retrieval_map(refs, ref_labels, features, labels, ratios):
    """Zero-shot retrieval mAP (%) per ratio, keyed by percent, with the
    per-class centroids of the references as queries."""
    queries = {int(c): refs[ref_labels == c].mean(axis=0) for c in np.unique(ref_labels)}
    maps = metrics.retrieval_precisions(queries, features, labels, ratios)
    return {int(round(100 * ratio)): m for ratio, m in zip(ratios, maps)}


def evaluate_model(gen, dataset_scaled, sweep, ratios, per_class_synthetic,
                   knn_k, rng):
    """Full report on the test partition of an already-scaled dataset."""
    test_idx = dataset_scaled.test_indices()
    x_test = dataset_scaled.features[test_idx]
    y_test = dataset_scaled.labels[test_idx]
    seen = sorted(dataset_scaled.split.seen)
    unseen = sorted(dataset_scaled.split.unseen)
    is_unseen = np.isin(y_test, unseen)
    if not is_unseen.any():
        raise ConfigError("test partition has no unseen-class samples")

    refs, ref_labels = synthesize_references(
        gen, seen + unseen, dataset_scaled.semantics_for(seen + unseen),
        per_class_synthetic, rng,
    )
    unseen_refs = slice(len(seen) * per_class_synthetic, None)
    clf = KnnClassifier(refs, ref_labels, k=knn_k)

    # one distance pass; the zero-shot probe searches its block of unseen
    # test rows by unseen references
    d2 = squared_distances(x_test, refs)
    unseen_clf = KnnClassifier(refs[unseen_refs], ref_labels[unseen_refs], k=knn_k)
    unseen_scores = knn_scores(unseen_clf, x_test[is_unseen], unseen, d2[is_unseen, unseen_refs])
    top1_unseen = metrics.top1_per_class(unseen_scores, unseen, y_test[is_unseen])

    sm = score_matrix(clf, dataset_scaled, x_test, d2)
    del d2  # not held through the metrics and retrieval
    # one pass of the sweep kernel: the sweep's points, then lambda = 0 for
    # S, U and H
    counts = metrics.calibrated_hits(sm, y_test, np.append(sweep.values(), 0.0))
    s, u, h = metrics.gzsl_suh(sm, y_test, counts=counts[-1:])
    g_acc = metrics.generalized_accuracy(sm, y_test, counts=counts[:-1])
    points = metrics.suc_curve(sm, y_test, counts=counts[:-1])
    area = metrics.ausuc(points)

    map_at = retrieval_map(
        refs[unseen_refs], ref_labels[unseen_refs], x_test[is_unseen], y_test[is_unseen], ratios,
    )
    return metrics.EvalReport(
        top1_unseen=top1_unseen, s=s, u=u, h=h, g_acc=g_acc,
        ausuc=area, suc_points=points, map_at=map_at,
    )


def map_lines(map_at):
    """The `mAP@<percent>: <value>` lines of a report, by ratio."""
    return [f"mAP@{pct}: {map_at[pct]!r}" for pct in sorted(map_at)]


def write_report(path, report):
    with data.atomic_write(path) as fh:
        fh.write(f"top1_unseen: {report.top1_unseen!r}\n")
        fh.write(f"S: {report.s!r}\n")
        fh.write(f"U: {report.u!r}\n")
        fh.write(f"H: {report.h!r}\n")
        fh.write(f"G_acc: {report.g_acc!r}\n")
        fh.write(f"AUSUC: {report.ausuc!r}\n")
        for line in map_lines(report.map_at):
            fh.write(line + "\n")
        fh.write("suc_points:\n")
        for x, y in report.suc_points:
            fh.write(f"  {x!r} {y!r}\n")


def write_suc_points(path, points):
    with data.atomic_write(path) as fh:
        fh.write("acc_unseen\tacc_seen\n")
        for x, y in points:
            fh.write(f"{x!r}\t{y!r}\n")
