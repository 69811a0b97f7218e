"""Command-line frontend: batch subcommands over a YAML run configuration.

Progress goes to stderr; artifacts go to the paths named in the config.
All randomness flows from the single config seed.
"""

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from . import cko as cko_mod
from . import data, evaluate, gan, metrics, selftrain, text
from .config import config_hash, load_config
from .errors import ConfigError, ZsgenError
from .knn import check_k


def _say(args, message):
    if not args.quiet:
        print(message, file=sys.stderr)


def _require(cfg, section, key):
    value = cfg[section].get(key)
    if not value:
        raise ConfigError(f"config needs {section}.{key}")
    return value


def _read_corpus(corpus_dir):
    names = sorted(f for f in os.listdir(corpus_dir) if f.endswith(".txt"))
    if not names:
        raise ConfigError(f"no .txt class articles in {corpus_dir}")
    records = []
    for i, fname in enumerate(names):
        path = os.path.join(corpus_dir, fname)
        article = "".join(line for _, line in data._text_lines(path))
        records.append(cko_mod.ClassRecord(i, fname[:-4], article))
    return records, names


def cmd_cko(args, cfg):
    corpus_dir = _require(cfg, "io", "corpus_dir")
    table = cko_mod.load_embeddings(_require(cfg, "cko", "embeddings"))
    records, filenames = _read_corpus(corpus_dir)
    sm = cko_mod.similarity_matrix(
        table, [r.name for r in records], cfg["cko"]["similarity"]
    )
    records = cko_mod.overlay(records, sm, cfg["cko"]["k"])

    overlay_dir = _require(cfg, "io", "overlay_dir")
    os.makedirs(overlay_dir, exist_ok=True)
    for rec, fname in zip(records, filenames):
        with data.atomic_write(os.path.join(overlay_dir, fname)) as fh:
            fh.write(rec.article_overlay)
    ids = np.array([r.class_id for r in records], dtype=np.int64)
    data.save_matrix(_require(cfg, "io", "similarity_matrix"), ids, sm)

    stopwords = text.load_stopwords(cfg["text"]["stopwords"])
    source = "article_overlay" if cfg["text"]["fit_on"] == "overlay" else "article"
    docs = [text.preprocess(getattr(r, source), stopwords) for r in records]
    model = text.tfidf_fit(docs)
    vectors = text.encode_corpus(model, docs)
    data.save_matrix(_require(cfg, "io", "semantic_vectors"), ids, vectors)

    classes_path = cfg["io"].get("classes")
    if classes_path:
        with data.atomic_write(classes_path) as fh:
            for rec in records:
                fh.write(f"{rec.class_id}\t{rec.name}\n")
    _say(args, f"cko: {len(records)} classes, vocab {len(model.vocabulary)}")
    return 0


def _load_dataset(cfg):
    return data.assemble_dataset(
        _require(cfg, "io", "features_train"),
        _require(cfg, "io", "features_test"),
        _require(cfg, "io", "semantics"),
        _require(cfg, "io", "split"),
    )


def _from_section(cls, section):
    return cls(**{f.name: section[f.name] for f in fields(cls)})


def _model_configs(cfg, dataset):
    g = cfg["gan"]
    gen_cfg = gan.GeneratorConfig(
        semantic_dim=dataset.semantic_dim, visual_dim=dataset.visual_dim,
        reduce_dim=g["reduce_dim"], hidden_dim=g["hidden_dim"],
        noise_sigma=g["noise_sigma"], noise_mode=g["noise_mode"],
    )
    disc_cfg = gan.DiscriminatorConfig(
        visual_dim=dataset.visual_dim, hidden_dim=g["disc_hidden_dim"],
        num_classes=len(dataset.split.seen),
    )
    train_cfg = _from_section(gan.GanTrainConfig, g)
    ssl_cfg = _from_section(selftrain.SslConfig, cfg["ssl"])
    return gen_cfg, disc_cfg, train_cfg, ssl_cfg


def cmd_train(args, cfg):
    dataset = _load_dataset(cfg)
    gen_cfg, disc_cfg, train_cfg, ssl_cfg = _model_configs(cfg, dataset)
    # the unseen-only top-1 of a later evaluate searches the fewest references
    e = cfg["eval"]
    check_k("eval.knn_k", e["knn_k"], e["per_class_synthetic"], len(dataset.split.unseen))
    result = selftrain.run_ssl(
        dataset, gen_cfg, disc_cfg, train_cfg, ssl_cfg, cfg["seed"]
    )
    evaluate.save_model(
        _require(cfg, "io", "checkpoint"),
        result.generator, result.discriminator, result.scaler,
        result.class_cols, config_hash(cfg),
    )
    log_path = cfg["io"].get("train_log")
    if log_path:
        with data.atomic_write(log_path) as fh:
            fh.write("# step\tloss_d\tloss_g\ttriplet\tval_gacc\n")
            for i, history in enumerate(result.train_logs, start=1):
                fh.write(f"# iteration {i}\n")
                for h in history:
                    fh.write(f"{h['step']}\t{h['loss_d']!r}\t{h['loss_g']!r}"
                             f"\t{h['triplet']!r}\t{h['val_gacc']!r}\n")
    report_path = cfg["io"].get("ssl_report")
    if report_path:
        with data.atomic_write(report_path) as fh:
            fh.write("# iteration\tretained\tnew_classes\tunseen_top1\tval_gacc\n")
            for rep in result.reports:
                fh.write(
                    f"{rep['iteration']}\t{rep['retained']}\t{rep['new_classes']}"
                    f"\t{rep['unseen_top1']!r}\t{rep['val_gacc']!r}\n"
                )
    for rep in result.reports:
        _say(args, f"iteration {rep['iteration']}: unseen top-1 "
                   f"{rep['unseen_top1']:.2f}%, retained {rep['retained']}")
    return 0


def _load_scaled(cfg, checkpoint_path):
    gen, disc, scaler, class_cols, meta = evaluate.load_model(checkpoint_path)
    dataset = _load_dataset(cfg)
    if dataset.visual_dim != gen.cfg.visual_dim:
        raise ConfigError(
            f"checkpoint visual dim {gen.cfg.visual_dim} != data {dataset.visual_dim}"
        )
    if dataset.semantic_dim != gen.cfg.semantic_dim:
        raise ConfigError(
            f"checkpoint semantic dim {gen.cfg.semantic_dim} != data {dataset.semantic_dim}"
        )
    return gen, selftrain.scaled_copy(dataset, scaler)


def cmd_evaluate(args, cfg):
    checkpoint = args.checkpoint or _require(cfg, "io", "checkpoint")
    gen, scaled = _load_scaled(cfg, checkpoint)
    e = cfg["eval"]
    sweep = _from_section(metrics.CalibrationSweep, e)
    rng = np.random.default_rng(cfg["seed"])
    report = evaluate.evaluate_model(
        gen, scaled, sweep, e["ratios"], e["per_class_synthetic"],
        e["knn_k"], rng,
    )
    evaluate.write_report(_require(cfg, "io", "report"), report)
    points_path = cfg["io"].get("suc_points")
    if points_path:
        evaluate.write_suc_points(points_path, report.suc_points)
    _say(args, f"unseen top-1 {report.top1_unseen:.2f}%  AUSUC {report.ausuc:.4f}  "
               f"H {report.h:.2f}%")
    return 0


def cmd_retrieve(args, cfg):
    checkpoint = args.checkpoint or _require(cfg, "io", "checkpoint")
    gen, scaled = _load_scaled(cfg, checkpoint)
    e = cfg["eval"]
    rng = np.random.default_rng(cfg["seed"])
    unseen = sorted(scaled.split.unseen)
    refs, ref_labels = selftrain.synthesize_references(
        gen, unseen, scaled.semantics_for(unseen), e["per_class_synthetic"], rng
    )
    rows = selftrain.unseen_test_rows(scaled)
    map_at = evaluate.retrieval_map(
        refs, ref_labels, scaled.features[rows], scaled.labels[rows], e["ratios"]
    )
    lines = [f"mAP@{pct}: {value!r}" for pct, value in map_at.items()]
    out_path = cfg["io"].get("retrieval")
    if out_path:
        with data.atomic_write(out_path) as fh:
            fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0


def cmd_synth(args, cfg):
    spec = data.SyntheticSpec(
        num_seen=args.num_seen, num_unseen=args.num_unseen,
        samples_per_class=args.samples_per_class,
        semantic_dim=args.semantic_dim, visual_dim=args.visual_dim,
        sigma=args.sigma, seed=args.seed if args.seed is not None else cfg["seed"],
    )
    dataset = data.make_synthetic(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    data.save_dataset(
        dataset,
        os.path.join(args.out_dir, "train_features.txt"),
        os.path.join(args.out_dir, "test_features.txt"),
        os.path.join(args.out_dir, "semantics.txt"),
        os.path.join(args.out_dir, "split.txt"),
    )
    _say(args, f"synthetic dataset in {args.out_dir}: "
               f"{spec.num_seen} seen + {spec.num_unseen} unseen classes")
    return 0


def cmd_grad_check(args, cfg):
    from .verify import run_gradient_checks
    results = run_gradient_checks(seed=cfg["seed"])
    failed = False
    for name, err in results:
        status = "ok" if err < 1e-4 else "FAIL"
        print(f"{name}: max relative error {err:.3e} [{status}]")
        failed = failed or err >= 1e-4
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zsgen",
        description="Zero-shot learning via generative knowledge-to-visual "
                    "feature synthesis",
    )
    parser.add_argument("--config", help="YAML run configuration")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override a config value")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("cko", help="similarity matrix, overlay corpus, semantic vectors")
    sub.add_parser("train", help="adversarial + self-training pipeline")
    p = sub.add_parser("evaluate", help="full evaluation report")
    p.add_argument("--checkpoint", help="model checkpoint (default from config)")
    p = sub.add_parser("retrieve", help="zero-shot retrieval mAP")
    p.add_argument("--checkpoint", help="model checkpoint (default from config)")
    p = sub.add_parser("synth", help="generate the synthetic dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--num-seen", type=int, default=10)
    p.add_argument("--num-unseen", type=int, default=5)
    p.add_argument("--samples-per-class", type=int, default=100)
    p.add_argument("--semantic-dim", type=int, default=50)
    p.add_argument("--visual-dim", type=int, default=64)
    p.add_argument("--sigma", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=None)
    sub.add_parser("grad-check", help="finite-difference gradient verification")
    return parser


_COMMANDS = {
    "cko": cmd_cko,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "retrieve": cmd_retrieve,
    "synth": cmd_synth,
    "grad-check": cmd_grad_check,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        return _COMMANDS[args.command](args, cfg)
    except ZsgenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
