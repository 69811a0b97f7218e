"""Acceptance gate: one test per primary criterion, at the stated tolerance.

Each test prints a single PASS/FAIL line (visible with `pytest -s`); the
pytest verdict per test mirrors that line.
"""

import math
import os
import time

import numpy as np
import yaml

from zsgen import data, evaluate, metrics, selftrain
from zsgen.cko import top_k_similar
from zsgen.cli import main
from zsgen.gan import (
    DiscriminatorConfig, GanTrainConfig, GeneratorConfig, train_gan,
    triplet_loss_grad,
)
from zsgen.metrics import CalibrationSweep, ScoreMatrix
from zsgen.porter import stem
from zsgen.text import tfidf_fit, tfidf_transform
from zsgen.verify import run_gradient_checks

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_primary_gradient_correctness():
    start = time.time()
    results = run_gradient_checks(seed=0, n_seeds=20)
    elapsed = time.time() - start
    worst = max(err for _, err in results)
    ok = worst < 1e-4 and elapsed < 30.0
    report("gradient correctness", ok,
           f"worst relative error {worst:.3e} over 20 seeds in {elapsed:.1f}s")


def test_primary_triplet_loss_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        c = int(rng.integers(1, 5))
        d = int(rng.integers(1, 9))
        x = rng.normal(size=(c, d))
        pos = rng.normal(size=(c, int(rng.integers(1, 4)), d))
        neg = rng.normal(size=(c, int(rng.integers(1, 4)), d))
        margin = float(rng.uniform(0.0, 2.0))
        # the sets as (c, n) tables of row indices into one feature table
        n_pos, n_neg = pos.shape[1], neg.shape[1]
        features = np.vstack([pos.reshape(-1, d), neg.reshape(-1, d)])
        pos_rows = np.arange(c * n_pos).reshape(c, n_pos)
        neg_rows = c * n_pos + np.arange(c * n_neg).reshape(c, n_neg)
        got, _ = triplet_loss_grad(x, features, pos_rows, neg_rows, margin)
        gap = 0.0
        for i in range(c):
            pd = np.mean([np.linalg.norm(x[i] - p) for p in pos[i]])
            nd = np.mean([np.linalg.norm(x[i] - q) for q in neg[i]])
            gap += pd - nd
        ref = max(gap / c + margin, 0.0)
        worst = max(worst, abs(got - ref))
    report("triplet-loss oracle", worst < 1e-12,
           f"200 instances, worst deviation {worst:.2e}")


def test_primary_tfidf_and_porter_oracle():
    rng = np.random.default_rng(7)
    terms = [f"t{i}" for i in range(10)]
    worst = 0.0
    for _ in range(50):
        n_docs = int(rng.integers(1, 6))
        corpus = [
            [terms[j] for j in rng.integers(0, 10, size=rng.integers(0, 12))]
            for _ in range(n_docs)
        ]
        model = tfidf_fit(corpus)
        vocab = sorted({t for doc in corpus for t in doc})
        df = {t: sum(t in set(doc) for doc in corpus) for t in vocab}
        for t in vocab:
            ref_idf = math.log((1 + n_docs) / (1 + df[t])) + 1.0
            worst = max(worst, abs(model.idf[model.vocabulary[t]] - ref_idf))
        for doc in corpus:
            ref = np.array([doc.count(t) * (math.log((1 + n_docs) / (1 + df[t])) + 1.0)
                            for t in vocab])
            norm = np.linalg.norm(ref)
            if norm > 0:
                ref /= norm
            got = tfidf_transform(model, doc)
            if vocab:
                worst = max(worst, float(np.abs(got - ref).max()))

    mismatches = []
    with open(os.path.join(FIXTURE_DIR, "porter_words.txt"), encoding="utf-8") as fh:
        for line in fh:
            word, expected = line.split()
            if stem(word) != expected:
                mismatches.append(word)
    ok = worst < 1e-12 and not mismatches
    report("TF-IDF + Porter oracle", ok,
           f"50 corpora worst deviation {worst:.2e}, "
           f"stemmer mismatches {mismatches}")


def test_primary_cko_correctness():
    rng = np.random.default_rng(3)
    failures = []
    for trial in range(30):
        n = int(rng.integers(2, 9))
        sm = rng.normal(size=(n, n))
        sm = (sm + sm.T) / 2.0
        ids = list(range(n))
        for i in range(n):
            for k in range(n):
                got = top_k_similar(sm, i, ids, k)
                brute = sorted((j for j in range(n) if j != i),
                               key=lambda j: (-sm[i, j], j))[:k]
                if got != brute or i in got or (k == 0 and got != []):
                    failures.append((trial, i, k))
                scaled = top_k_similar(sm * 1.0, i, ids, k)  # cosine sm is scale-built
                if scaled != got:
                    failures.append((trial, i, k, "scale"))
    # scale invariance at the embedding level: cosine of scaled vectors
    from zsgen.cko import EmbeddingTable, similarity_matrix
    vecs = {("w" + "abcdefgh"[i]): rng.normal(size=5) for i in range(6)}
    names = list(vecs)
    sm1 = similarity_matrix(EmbeddingTable(vecs, 5), names)
    sm2 = similarity_matrix(
        EmbeddingTable({w: 3.25 * v for w, v in vecs.items()}, 5), names
    )
    ids = list(range(6))
    for i in range(6):
        for k in range(6):
            if top_k_similar(sm1, i, ids, k) != top_k_similar(sm2, i, ids, k):
                failures.append(("scale", i, k))
    report("CKO correctness", not failures, f"failures {failures}")


def test_primary_metric_oracles():
    checks = {}

    sm = ScoreMatrix(np.array([[1.0, 1.0]]), np.array([1, 0]), seen_count=1)
    g = metrics.generalized_accuracy(sm, np.array([1]))
    checks["g_acc tie 50%"] = abs(g - 50.0) < 1e-9

    checks["ausuc triangle"] = metrics.ausuc([(0.0, 1.0), (1.0, 0.0)]) == 0.5

    checks["harmonic 60/30"] = abs(
        2.0 * 60.0 * 30.0 / 90.0 - 40.0
    ) == 0.0 and metrics.gzsl_suh(
        ScoreMatrix(
            np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 2
                     + [[0.0, 1.0]] * 3 + [[1.0, 0.0]] * 7),
            np.array([0, 1]), seen_count=1,
        ),
        np.array([0] * 5 + [1] * 10),
    )[2] == 40.0

    rng = np.random.default_rng(5)
    features = rng.normal(size=(12, 3))
    labels = rng.integers(0, 3, size=12)
    labels[:3] = [0, 1, 2]
    queries = {c: rng.normal(size=3) for c in range(3)}
    ok_ret = True
    for ratio in (0.25, 0.5, 1.0):
        got = metrics.retrieval_precision(queries, features, labels, ratio)
        precisions = []
        for c in range(3):
            n_c = int((labels == c).sum())
            order = sorted(range(12),
                           key=lambda i: (np.linalg.norm(features[i] - queries[c]), i))
            take = math.ceil(ratio * n_c)
            precisions.append(
                sum(labels[i] == c for i in order[:take]) / take
            )
        ok_ret &= abs(got - 100.0 * np.mean(precisions)) < 1e-9
    checks["retrieval brute force"] = ok_ret

    bad = [k for k, v in checks.items() if not v]
    report("metric oracles", not bad, f"failed {bad}" if bad else "all hand cases match")


END_TO_END_SEED = 1


def end_to_end_configs():
    gen_cfg = GeneratorConfig(semantic_dim=50, visual_dim=64, reduce_dim=32,
                              hidden_dim=64, noise_sigma=0.1)
    disc_cfg = DiscriminatorConfig(visual_dim=64, hidden_dim=64)
    train_cfg = GanTrainConfig(n_step=1000, batch_size=64, eval_every=100,
                               patience=50, knn_k=5, probe_per_class=20,
                               margin=0.5)
    ssl_cfg = selftrain.SslConfig(psi=0.6, n_ssl=2, per_class_synthetic=30,
                                  knn_k=5)
    return gen_cfg, disc_cfg, train_cfg, ssl_cfg


def test_primary_end_to_end_synthetic_zsl():
    start = time.time()
    ds = data.make_synthetic(data.SyntheticSpec())

    # pin the fixture property first: nearest-center top-1 is 100%
    centers = np.stack([ds.features[ds.labels == c].mean(axis=0)
                        for c in ds.class_ids])
    te = ds.test_indices()
    d = ((ds.features[te][:, None, :] - centers[None]) ** 2).sum(axis=2)
    oracle_ok = (d.argmin(axis=1) == ds.labels[te]).all()

    gen_cfg, disc_cfg, train_cfg, ssl_cfg = end_to_end_configs()
    result = selftrain.run_ssl(ds, gen_cfg, disc_cfg, train_cfg, ssl_cfg,
                               seed=END_TO_END_SEED)
    scaled = selftrain.scaled_copy(ds, result.scaler)
    rep = evaluate.evaluate_model(
        result.generator, scaled, CalibrationSweep(), [0.25, 0.5, 1.0],
        30, 5, np.random.default_rng(2),
    )
    elapsed = time.time() - start
    ok = (oracle_ok and rep.top1_unseen >= 70.0 and rep.ausuc >= 0.5
          and train_cfg.n_step <= 2000 and ssl_cfg.n_ssl == 2
          and elapsed < 300.0)
    report("end-to-end synthetic ZSL", ok,
           f"oracle 100%={bool(oracle_ok)}, unseen top-1 {rep.top1_unseen:.1f}%"
           f" (>=70), AUSUC {rep.ausuc:.3f} (>=0.5), {elapsed:.0f}s (<300)")


def test_primary_ssl_invariants():
    spec = data.SyntheticSpec(num_seen=4, num_unseen=2, samples_per_class=20,
                              semantic_dim=16, visual_dim=8, seed=0)
    ds = data.make_synthetic(spec)
    gen_cfg = GeneratorConfig(semantic_dim=16, visual_dim=8, reduce_dim=6,
                              hidden_dim=10, noise_sigma=0.1)
    disc_cfg = DiscriminatorConfig(visual_dim=8, hidden_dim=10)
    train_cfg = GanTrainConfig(n_step=20, batch_size=16, eval_every=10,
                               patience=100, knn_k=3, probe_per_class=5,
                               margin=0.5)
    checks = {}

    grow = selftrain.run_ssl(
        ds, gen_cfg, disc_cfg, train_cfg,
        selftrain.SslConfig(psi=0.0, n_ssl=2, per_class_synthetic=5, knn_k=3),
        seed=0,
    )
    added = sum(r["retained"] for r in grow.reports)
    checks["monotone training set"] = (
        grow.train_rows.size == ds.train_indices().size + added
    )

    single = selftrain.run_ssl(
        ds, gen_cfg, disc_cfg, train_cfg,
        selftrain.SslConfig(psi=0.0, n_ssl=1, per_class_synthetic=5, knn_k=3),
        seed=5,
    )
    init_rng, [(train_rng, _)] = selftrain.run_streams(5, 1)
    work, scaler, gen, disc, cols = selftrain.prepare_models(
        ds, gen_cfg, disc_cfg, init_rng
    )
    tr = work.train_indices()
    plain = train_gan(work, work.features[tr], work.labels[tr],
                      gen, disc, cols, train_cfg, train_rng)
    ours = single.generator.params() + single.discriminator.params()
    theirs = plain.generator.params() + plain.discriminator.params()
    checks["n_ssl=1 equals plain GAN"] = (
        [(a.shape, a.tobytes()) for a in ours] == [(b.shape, b.tobytes()) for b in theirs]
        and single.discriminator.cfg.num_classes == len(ds.split.seen)
    )

    rng = np.random.default_rng(9)
    work, scaler, gen, disc, cols = selftrain.prepare_models(
        ds, gen_cfg, disc_cfg, rng
    )
    x = rng.uniform(-1.0, 1.0, size=(5, 8))
    _, before, _ = disc.forward(x)
    selftrain.expand_classifier_head(disc, disc.cfg.num_classes + 2, rng)
    _, after, _ = disc.forward(x)
    checks["head expansion preserves logits"] = (
        after[:, : before.shape[1]] == before
    ).all()

    bad = [k for k, v in checks.items() if not v]
    report("SSL invariants", not bad, f"failed {bad}" if bad else "all hold")


def test_primary_determinism(tmp_path):
    out = tmp_path / "ds"
    args = ["--quiet", "synth", "--out-dir", str(out), "--num-seen", "3",
            "--num-unseen", "2", "--samples-per-class", "10",
            "--semantic-dim", "12", "--visual-dim", "8", "--seed", "0"]
    assert main(args) == 0
    cfg = {
        "seed": 3,
        "gan": {"n_step": 40, "batch_size": 16, "eval_every": 20,
                "patience": 100, "knn_k": 3, "probe_per_class": 5,
                "margin": 0.5, "reduce_dim": 6, "hidden_dim": 10,
                "disc_hidden_dim": 10, "noise_sigma": 0.1},
        "ssl": {"psi": 0.5, "n_ssl": 1, "per_class_synthetic": 5,
                "knn_k": 3},
        "eval": {"per_class_synthetic": 5, "knn_k": 3},
        "io": {
            "features_train": str(out / "train_features.txt"),
            "features_test": str(out / "test_features.txt"),
            "semantics": str(out / "semantics.txt"),
            "split": str(out / "split.txt"),
            "checkpoint": str(tmp_path / "model.ck"),
            "train_log": str(tmp_path / "train.log"),
            "ssl_report": str(tmp_path / "ssl.tsv"),
            "report": str(tmp_path / "report.txt"),
            "suc_points": str(tmp_path / "suc.tsv"),
        },
    }
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    blobs = {}
    for run in ("r1", "r2"):  # identical config + seed, artifacts overwritten
        assert main(["--quiet", "--config", str(cfg_path), "train"]) == 0
        assert main(["--quiet", "--config", str(cfg_path), "evaluate"]) == 0
        blobs[run] = {
            name: (tmp_path / name).read_bytes()
            for name in ("model.ck", "train.log", "ssl.tsv",
                         "report.txt", "suc.tsv")
        }
    differing = [
        n for n in blobs["r1"] if blobs["r1"][n] != blobs["r2"][n]
    ]
    report("determinism", not differing,
           f"byte-differing artifacts {differing}" if differing
           else "all artifacts byte-identical across runs")
