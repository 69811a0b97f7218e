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
from . import data, evaluate, gan, selftrain, text
from .config import config_hash, load_config
from .errors import ConfigError, ZsgenError
from .knn import check_k


def _say(args, message):
    if not args.quiet:
        print(message, file=sys.stderr)


def _require(cfg, section, key):
    value = getattr(getattr(cfg, section), key)
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
        article = "".join(line for _, line in data.text_lines(path))
        records.append(cko_mod.ClassRecord(i, fname[:-4], article))
    return records, names


def cmd_cko(args, cfg):
    corpus_dir, overlay_dir, sm_path, vectors_path = (_require(cfg, "io", key) for key in (
        "corpus_dir", "overlay_dir", "similarity_matrix", "semantic_vectors"))
    _check_output_dirs(cfg, ("similarity_matrix", "semantic_vectors", "classes"),
                       made=overlay_dir)
    table = cko_mod.load_embeddings(_require(cfg, "cko", "embeddings"))
    records, filenames = _read_corpus(corpus_dir)
    sm = cko_mod.similarity_matrix(table, [r.name for r in records], cfg.cko.similarity)
    records = cko_mod.overlay(records, sm, cfg.cko.k)

    os.makedirs(overlay_dir, exist_ok=True)
    for rec, fname in zip(records, filenames):
        with data.atomic_write(os.path.join(overlay_dir, fname)) as fh:
            fh.write(rec.article_overlay)
    ids = np.array([r.class_id for r in records], dtype=np.int64)
    data.save_matrix(sm_path, ids, sm)

    stopwords = text.load_stopwords(cfg.text.stopwords)
    source = "article_overlay" if cfg.text.fit_on == "overlay" else "article"
    docs = [text.preprocess(getattr(r, source), stopwords) for r in records]
    model = text.tfidf_fit(docs)
    vectors = text.encode_corpus(model, docs)
    data.save_matrix(vectors_path, ids, vectors)

    if cfg.io.classes:
        with data.atomic_write(cfg.io.classes) as fh:
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


def _model_configs(cfg, dataset):
    g = cfg.gan
    gen_cfg = gan.GeneratorConfig(
        semantic_dim=dataset.semantic_dim, visual_dim=dataset.visual_dim,
        reduce_dim=g.reduce_dim, hidden_dim=g.hidden_dim,
        noise_sigma=g.noise_sigma, noise_mode=g.noise_mode,
    )
    disc_cfg = gan.DiscriminatorConfig(
        visual_dim=dataset.visual_dim, hidden_dim=g.disc_hidden_dim,
        num_classes=len(dataset.split.seen),
    )
    return gen_cfg, disc_cfg


def _check_output_dirs(cfg, keys, made=None):
    """A ConfigError naming the key and path of the first set io output whose
    directory does not exist, so a run is not lost when it is written. The
    directory made, which the command makes with its parents, counts as
    existing, and so do those parents."""
    for key in keys:
        path = getattr(cfg.io, key)
        if not path:
            continue
        where = os.path.abspath(os.path.dirname(path) or ".")
        if not os.path.isdir(where) and not (
                made and os.path.commonpath([where, os.path.abspath(made)]) == where):
            raise ConfigError(f"io.{key}: the directory of {path} does not exist")


def cmd_train(args, cfg):
    checkpoint = _require(cfg, "io", "checkpoint")
    _check_output_dirs(cfg, ("checkpoint", "train_log", "ssl_report"))
    dataset = _load_dataset(cfg)
    gen_cfg, disc_cfg = _model_configs(cfg, dataset)
    # the unseen-only top-1 of a later evaluate searches the fewest references
    check_k("eval.knn_k", cfg.eval.knn_k, cfg.eval.per_class_synthetic,
            len(dataset.split.unseen))
    # the gan section is a GanTrainConfig, with the network widths besides
    result = selftrain.run_ssl(dataset, gen_cfg, disc_cfg, cfg.gan, cfg.ssl, cfg.seed)
    evaluate.save_model(
        checkpoint, result.generator, result.discriminator, result.scaler,
        result.class_cols, config_hash(cfg),
    )
    if cfg.io.train_log:
        with data.atomic_write(cfg.io.train_log) as fh:
            fh.write("# step\tloss_d\tloss_g\ttriplet\tval_gacc\n")
            for i, history in enumerate(result.train_logs, start=1):
                fh.write(f"# iteration {i}\n")
                for h in history:
                    fh.write(f"{h['step']}\t{h['loss_d']!r}\t{h['loss_g']!r}"
                             f"\t{h['triplet']!r}\t{h['val_gacc']!r}\n")
    if cfg.io.ssl_report:
        with data.atomic_write(cfg.io.ssl_report) as fh:
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


def _evaluate(args, cfg):
    """The evaluation report of the checkpoint on the config's test partition."""
    checkpoint = args.checkpoint or _require(cfg, "io", "checkpoint")
    gen, _, scaler, _, _ = evaluate.load_model(checkpoint)
    dataset = _load_dataset(cfg)
    if dataset.visual_dim != gen.cfg.visual_dim:
        raise ConfigError(
            f"checkpoint visual dim {gen.cfg.visual_dim} != data {dataset.visual_dim}"
        )
    if dataset.semantic_dim != gen.cfg.semantic_dim:
        raise ConfigError(
            f"checkpoint semantic dim {gen.cfg.semantic_dim} != data {dataset.semantic_dim}"
        )
    # the eval section is the CalibrationSweep, with the reference and retrieval settings
    e = cfg.eval
    check_k("eval.knn_k", e.knn_k, e.per_class_synthetic, len(dataset.split.unseen))
    return evaluate.evaluate_model(
        gen, selftrain.scaled_copy(dataset, scaler), e, e.ratios,
        e.per_class_synthetic, e.knn_k, np.random.default_rng(cfg.seed),
    )


def cmd_evaluate(args, cfg):
    path = _require(cfg, "io", "report")
    _check_output_dirs(cfg, ("report", "suc_points"))
    report = _evaluate(args, cfg)
    evaluate.write_report(path, report)
    if cfg.io.suc_points:
        evaluate.write_suc_points(cfg.io.suc_points, report.suc_points)
    _say(args, f"unseen top-1 {report.top1_unseen:.2f}%  AUSUC {report.ausuc:.4f}  "
               f"H {report.h:.2f}%")
    return 0


def cmd_retrieve(args, cfg):
    _check_output_dirs(cfg, ("retrieval",))
    lines = evaluate.map_lines(_evaluate(args, cfg).map_at)
    if cfg.io.retrieval:
        with data.atomic_write(cfg.io.retrieval) as fh:
            fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0


def cmd_synth(args, cfg):
    # an unset flag takes SyntheticSpec's default, and an unset seed the config's
    given = {f.name: getattr(args, f.name) for f in fields(data.SyntheticSpec)
             if getattr(args, f.name, None) is not None}
    spec = data.SyntheticSpec(**{"seed": cfg.seed, **given})
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
    results = run_gradient_checks(seed=cfg.seed)
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
    for flag in ("num-seen", "num-unseen", "samples-per-class", "semantic-dim", "visual-dim"):
        p.add_argument(f"--{flag}", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--seed", type=int)
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
