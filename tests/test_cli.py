import os

import numpy as np
import pytest
import yaml

from zsgen import data, evaluate, gan
from zsgen.cli import main
from zsgen.config import config_hash, load_config
from zsgen.errors import ConfigError
from zsgen.metrics import CalibrationSweep
from zsgen.selftrain import SslConfig


def write_config(path, cfg):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg, fh)
    return str(path)


def synth_args(out_dir, seed=0, sigma=0.05):
    return ["--quiet", "synth", "--out-dir", str(out_dir),
            "--num-seen", "3", "--num-unseen", "2",
            "--samples-per-class", "10", "--semantic-dim", "12",
            "--visual-dim", "8", "--sigma", str(sigma), "--seed", str(seed)]


def dataset_io(out_dir):
    return {
        "features_train": os.path.join(str(out_dir), "train_features.txt"),
        "features_test": os.path.join(str(out_dir), "test_features.txt"),
        "semantics": os.path.join(str(out_dir), "semantics.txt"),
        "split": os.path.join(str(out_dir), "split.txt"),
    }


def tiny_run_config(tmp_path, out_dir, seed=0):
    io = dataset_io(out_dir)
    io.update({
        "checkpoint": str(tmp_path / "model.ck"),
        "train_log": str(tmp_path / "train.log"),
        "ssl_report": str(tmp_path / "ssl.tsv"),
        "report": str(tmp_path / "report.txt"),
        "suc_points": str(tmp_path / "suc.tsv"),
        "retrieval": str(tmp_path / "retrieval.txt"),
    })
    return {
        "seed": seed,
        "gan": {
            "n_step": 40, "batch_size": 16, "eval_every": 20, "patience": 100,
            "knn_k": 3, "probe_per_class": 5, "margin": 0.5,
            "reduce_dim": 6, "hidden_dim": 10, "disc_hidden_dim": 10,
            "noise_sigma": 0.1,
        },
        "ssl": {"psi": 0.5, "n_ssl": 1, "per_class_synthetic": 5, "knn_k": 3},
        "eval": {"per_class_synthetic": 5, "knn_k": 3},
        "io": io,
    }


def test_synth_writes_loadable_dataset(tmp_path):
    out = tmp_path / "ds"
    assert main(synth_args(out)) == 0
    io = dataset_io(out)
    ds = data.assemble_dataset(io["features_train"], io["features_test"],
                               io["semantics"], io["split"])
    assert ds.visual_dim == 8 and ds.semantic_dim == 12


def test_synth_sigma_zero_duplicates_rows(tmp_path):
    out = tmp_path / "ds"
    assert main(synth_args(out, sigma=0.0)) == 0
    labels, values = data.load_matrix(dataset_io(out)["features_train"])
    for c in np.unique(labels):
        rows = values[labels == c]
        assert (rows == rows[0]).all()


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(synth_args(a, seed=7)) == 0
    assert main(synth_args(b, seed=7)) == 0
    for name in ("train_features.txt", "test_features.txt",
                 "semantics.txt", "split.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("flag, value, field", [
    ("--seed", "-1", "seed"), ("--sigma", "nan", "sigma"), ("--sigma", "inf", "sigma"),
    ("--num-seen", "0", "num_seen"),
])
def test_synth_rejects_bad_value_naming_the_field(tmp_path, capsys, flag, value, field):
    out = tmp_path / "ds"
    assert main(["--quiet", "synth", "--out-dir", str(out), flag, value]) == 1
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_synth_unset_flags_take_the_spec_defaults_and_config_seed(tmp_path):
    out = tmp_path / "ds"
    assert main(["--quiet", "--set", "seed=3", "synth", "--out-dir", str(out)]) == 0
    expected = data.make_synthetic(data.SyntheticSpec(seed=3))
    labels, values = data.load_matrix(str(out / "train_features.txt"))
    train = expected.train_indices()
    assert labels.tolist() == expected.labels[train].tolist()
    assert values.tobytes() == expected.features[train].tobytes()


def test_retrieve_prints_the_evaluation_map_lines(tmp_path, capsys):
    out = tmp_path / "ds"
    assert main(synth_args(out, sigma=0.6)) == 0
    cfg_path = write_config(tmp_path / "run.yaml", tiny_run_config(tmp_path, out))
    for command in ("train", "evaluate", "retrieve"):
        assert main(["--quiet", "--config", cfg_path, command]) == 0
    report = [line for line in (tmp_path / "report.txt").read_text().splitlines()
              if line.startswith("mAP@")]
    assert len(report) == 3
    assert (tmp_path / "retrieval.txt").read_text().splitlines() == report
    assert capsys.readouterr().out.splitlines() == report


def test_train_at_one_round_labels_nothing_and_keeps_the_seen_head(tmp_path):
    out = tmp_path / "ds"
    assert main(synth_args(out)) == 0
    cfg = tiny_run_config(tmp_path, out)
    assert cfg["ssl"]["n_ssl"] == 1
    assert main(["--quiet", "--config", write_config(tmp_path / "run.yaml", cfg),
                 "train"]) == 0
    seen = sorted(data.load_split(dataset_io(out)["split"]).seen)
    _, disc, _, class_cols, _ = evaluate.load_model(str(tmp_path / "model.ck"))
    assert sorted(class_cols) == seen
    assert disc.cfg.num_classes == len(seen)
    assert disc.head.layers[0].weight.shape[1] == len(seen)
    rows = (tmp_path / "ssl.tsv").read_text().splitlines()[1:]
    assert len(rows) == 1 and rows[0].startswith("1\t0\t0\t")


def test_train_evaluate_retrieve_round_trip(tmp_path):
    out = tmp_path / "ds"
    assert main(synth_args(out)) == 0
    cfg_path = write_config(tmp_path / "run.yaml", tiny_run_config(tmp_path, out))

    assert main(["--quiet", "--config", cfg_path, "train"]) == 0
    assert os.path.exists(tmp_path / "model.ck")
    assert open(tmp_path / "ssl.tsv").read().count("\n") >= 2

    assert main(["--quiet", "--config", cfg_path, "evaluate"]) == 0
    report = dict(
        line.split(": ", 1) for line in
        open(tmp_path / "report.txt").read().splitlines()
        if ": " in line
    )
    for key in ("top1_unseen", "S", "U", "H", "G_acc"):
        assert 0.0 <= float(report[key]) <= 100.0
    assert 0.0 <= float(report["AUSUC"]) <= 1.0
    assert "mAP@25" in report and "mAP@100" in report

    assert main(["--quiet", "--config", cfg_path, "retrieve"]) == 0
    assert "mAP@25:" in open(tmp_path / "retrieval.txt").read()


def test_command_artifacts_byte_identical_across_runs(tmp_path):
    out = tmp_path / "ds"
    assert main(synth_args(out)) == 0
    cfg_path = write_config(tmp_path / "run.yaml",
                            tiny_run_config(tmp_path, out))
    artifacts = {}
    for run in ("r1", "r2"):  # identical config, artifacts overwritten in place
        assert main(["--quiet", "--config", cfg_path, "train"]) == 0
        assert main(["--quiet", "--config", cfg_path, "evaluate"]) == 0
        assert main(["--quiet", "--config", cfg_path, "retrieve"]) == 0
        artifacts[run] = {
            name: (tmp_path / name).read_bytes()
            for name in ("model.ck", "train.log", "ssl.tsv",
                         "report.txt", "suc.tsv", "retrieval.txt")
        }
    assert artifacts["r1"] == artifacts["r2"]


def test_every_artifact_is_written_through_atomic_write(tmp_path, monkeypatch):
    written = []
    atomic_write = data.atomic_write

    def recording(path, *args, **kwargs):
        written.append(os.path.relpath(path, tmp_path))
        return atomic_write(path, *args, **kwargs)

    monkeypatch.setattr(data, "atomic_write", recording)
    out = tmp_path / "ds"
    assert main(synth_args(out)) == 0
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, article in [("crow", "black corvid bird"), ("finch", "small seed eater")]:
        (corpus / f"{name}.txt").write_text(article)
    (tmp_path / "emb.txt").write_text("crow 1.0 0.0\nfinch 0.0 1.0\n")
    cfg = tiny_run_config(tmp_path, out)
    cfg["cko"] = {"k": 1, "embeddings": str(tmp_path / "emb.txt")}
    cfg["io"].update({
        "corpus_dir": str(corpus), "overlay_dir": str(tmp_path / "overlay"),
        "similarity_matrix": str(tmp_path / "sm.txt"),
        "semantic_vectors": str(tmp_path / "sem.txt"),
        "classes": str(tmp_path / "classes.txt"),
    })
    cfg_path = write_config(tmp_path / "run.yaml", cfg)
    inputs = {"run.yaml", "emb.txt", "corpus/crow.txt", "corpus/finch.txt"}
    for command in ("cko", "train", "evaluate", "retrieve"):
        assert main(["--quiet", "--config", cfg_path, command]) == 0
    on_disk = {os.path.relpath(os.path.join(d, f), tmp_path)
               for d, _, files in os.walk(tmp_path) for f in files}
    assert on_disk - inputs == set(written)
    assert len(written) == len(set(written)) == 15


def trained(tmp_path, monkeypatch):
    """A tiny trained run: its config, with evaluate_model replaced by one
    that records its calls."""
    out = tmp_path / "ds"
    assert main(synth_args(out)) == 0
    cfg = tiny_run_config(tmp_path, out)
    assert main(["--quiet", "--config", write_config(tmp_path / "run.yaml", cfg),
                 "train"]) == 0
    calls = []
    monkeypatch.setattr(evaluate, "evaluate_model", lambda *a, **k: calls.append(1))
    return cfg, calls


@pytest.mark.parametrize("command, key", [
    ("evaluate", "report"), ("evaluate", "suc_points"), ("retrieve", "retrieval"),
])
def test_evaluation_with_a_missing_output_directory_fails_before_evaluating(
        tmp_path, capsys, monkeypatch, command, key):
    cfg, calls = trained(tmp_path, monkeypatch)
    missing = os.path.join("missing", os.path.basename(cfg["io"][key]))
    cfg["io"][key] = missing
    cfg_path = write_config(tmp_path / "bad.yaml", cfg)
    monkeypatch.chdir(tmp_path)
    before = tree_of(tmp_path)
    capsys.readouterr()
    assert main(["--quiet", "--config", cfg_path, command]) == 1
    err = capsys.readouterr().err
    assert f"io.{key}" in err and missing in err
    assert calls == [] and tree_of(tmp_path) == before


def test_evaluate_requires_its_report_before_evaluating(tmp_path, capsys, monkeypatch):
    cfg, calls = trained(tmp_path, monkeypatch)
    del cfg["io"]["report"]
    cfg_path = write_config(tmp_path / "bad.yaml", cfg)
    before = tree_of(tmp_path)
    assert main(["--quiet", "--config", cfg_path, "evaluate"]) == 1
    assert "io.report" in capsys.readouterr().err
    assert calls == [] and tree_of(tmp_path) == before


@pytest.mark.parametrize("command", ["evaluate", "retrieve"])
def test_evaluation_rejects_k_above_the_unseen_references_before_drawing_them(
        tmp_path, capsys, monkeypatch, command):
    # 5 refs x 2 unseen classes = 10 < 20
    cfg, calls = trained(tmp_path, monkeypatch)
    before = tree_of(tmp_path)
    capsys.readouterr()
    assert main(["--quiet", "--config", str(tmp_path / "run.yaml"),
                 "--set", "eval.knn_k=20", command]) == 1
    err = capsys.readouterr().err
    assert "eval.knn_k=20" in err and "10 reference points" in err
    assert calls == [] and tree_of(tmp_path) == before


def cko_config(tmp_path, names):
    """A corpus with one article per name, an embedding table and a cko
    config writing into tmp_path."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i, name in enumerate(names):
        (corpus / f"{name}.txt").write_text(f"{name} shares words with {names[i - 1]}\n")
    emb = tmp_path / "emb.txt"
    emb.write_text("".join(f"{name} {np.cos(i):.6f} {np.sin(i):.6f}\n"
                           for i, name in enumerate(names)))
    return {"seed": 0, "cko": {"k": 1, "embeddings": str(emb)}, "io": {
        "corpus_dir": str(corpus), "overlay_dir": str(tmp_path / "overlay"),
        "similarity_matrix": str(tmp_path / "sm.txt"),
        "semantic_vectors": str(tmp_path / "sem.txt"),
        "classes": str(tmp_path / "classes.txt"),
    }}


@pytest.mark.parametrize("key", ["similarity_matrix", "semantic_vectors", "classes"])
def test_cko_with_a_missing_output_directory_writes_nothing(tmp_path, capsys, monkeypatch,
                                                            key):
    cfg = cko_config(tmp_path, ["crow", "raven", "finch"])
    missing = os.path.join("missing", os.path.basename(cfg["io"][key]))
    cfg["io"][key] = missing
    cfg_path = write_config(tmp_path / "cko.yaml", cfg)
    monkeypatch.chdir(tmp_path)
    before = tree_of(tmp_path)
    assert main(["--quiet", "--config", cfg_path, "cko"]) == 1
    err = capsys.readouterr().err
    assert f"io.{key}" in err and missing in err
    assert tree_of(tmp_path) == before


def test_cko_train_evaluate_on_a_tiny_corpus(tmp_path):
    """The semantics that cko encodes train and evaluate a model, with the
    visual features labelled by the class ids cko assigns; the report is
    finite and byte-identical across two runs."""
    names = ["crow", "finch", "heron", "owl", "raven"]
    cfg = cko_config(tmp_path, names)
    ds = data.make_synthetic(data.SyntheticSpec(
        num_seen=3, num_unseen=2, samples_per_class=10, visual_dim=8, sigma=0.3))
    features = dataset_io(tmp_path / "ds")
    os.makedirs(tmp_path / "ds")
    data.save_dataset(ds, *features.values())
    run = tiny_run_config(tmp_path, tmp_path / "ds")
    run["io"].update(cfg["io"], semantics=cfg["io"]["semantic_vectors"])
    run["cko"] = cfg["cko"]
    cfg_path = write_config(tmp_path / "run.yaml", run)
    reports = []
    for _ in range(2):
        for command in ("cko", "train", "evaluate"):
            assert main(["--quiet", "--config", cfg_path, command]) == 0
        reports.append((tmp_path / "report.txt").read_bytes())
    # cko numbers the articles in file-name order, the ids the features carry
    assert (tmp_path / "classes.txt").read_text().splitlines() == [
        f"{i}\t{name}" for i, name in enumerate(sorted(names))]
    assert sorted(set(ds.labels.tolist())) == list(range(len(names)))
    values = [float(v) for line in reports[0].decode().splitlines()
              for v in line.split(":")[-1].split() if v]
    assert values and np.isfinite(values).all()
    assert reports[0] == reports[1]


def test_evaluate_rejects_dimension_mismatch(tmp_path):
    out = tmp_path / "ds"
    assert main(synth_args(out)) == 0
    cfg = tiny_run_config(tmp_path, out)
    cfg_path = write_config(tmp_path / "run.yaml", cfg)
    assert main(["--quiet", "--config", cfg_path, "train"]) == 0

    other = tmp_path / "wide"
    assert main(["--quiet", "synth", "--out-dir", str(other),
                 "--num-seen", "3", "--num-unseen", "2",
                 "--samples-per-class", "10", "--semantic-dim", "12",
                 "--visual-dim", "16", "--seed", "0"]) == 0
    cfg["io"].update(dataset_io(other))
    bad_path = write_config(tmp_path / "bad.yaml", cfg)
    assert main(["--quiet", "--config", bad_path, "evaluate"]) == 1


def test_cko_pipeline(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "crow.txt").write_text("black corvid bird")
    (corpus / "raven.txt").write_text("large corvid bird")
    (corpus / "finch.txt").write_text("small seed eater")
    emb = tmp_path / "emb.txt"
    emb.write_text("crow 1.0 0.0\nraven 1.0 0.2\nfinch 0.0 1.0\n")
    overlay_dir = tmp_path / "overlay"
    cfg = {
        "seed": 0,
        "cko": {"k": 1, "embeddings": str(emb)},
        "io": {
            "corpus_dir": str(corpus),
            "overlay_dir": str(overlay_dir),
            "similarity_matrix": str(tmp_path / "sm.txt"),
            "semantic_vectors": str(tmp_path / "sem.txt"),
            "classes": str(tmp_path / "classes.txt"),
        },
    }
    cfg_path = write_config(tmp_path / "cko.yaml", cfg)
    assert main(["--quiet", "--config", cfg_path, "cko"]) == 0

    _, sm = data.load_matrix(str(tmp_path / "sm.txt"))
    assert sm.shape == (3, 3)
    np.testing.assert_allclose(sm, sm.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(sm), 1.0, atol=1e-9)
    # crow's nearest neighbor is raven, so its overlay gains raven's text
    assert "large corvid" in (overlay_dir / "crow.txt").read_text()

    labels, vectors = data.load_matrix(str(tmp_path / "sem.txt"))
    assert labels.tolist() == [0, 1, 2]
    norms = np.linalg.norm(vectors, axis=1)
    np.testing.assert_allclose(norms, 1.0)


def test_cko_non_utf8_article_is_clean_error(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "crow.txt").write_text("black corvid bird")
    (corpus / "raven.txt").write_bytes(b"large\ncorvid \xff bird\n")
    emb = tmp_path / "emb.txt"
    emb.write_text("crow 1.0 0.0\nraven 1.0 0.2\n")
    cfg = {"cko": {"k": 1, "embeddings": str(emb)}, "io": {
        "corpus_dir": str(corpus), "overlay_dir": str(tmp_path / "overlay"),
        "similarity_matrix": str(tmp_path / "sm.txt"),
        "semantic_vectors": str(tmp_path / "sem.txt"),
    }}
    cfg_path = write_config(tmp_path / "cko.yaml", cfg)
    assert main(["--quiet", "--config", cfg_path, "cko"]) == 1
    assert f"{corpus / 'raven.txt'}:2: not UTF-8" in capsys.readouterr().err


def test_cko_k_zero_overlay_identical_to_input(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_text("alpha text")
    (corpus / "b.txt").write_text("beta text")
    emb = tmp_path / "emb.txt"
    emb.write_text("a 1.0 0.0\nb 0.0 1.0\n")
    overlay_dir = tmp_path / "overlay"
    cfg = {
        "seed": 0,
        "cko": {"k": 0, "embeddings": str(emb)},
        "io": {
            "corpus_dir": str(corpus),
            "overlay_dir": str(overlay_dir),
            "similarity_matrix": str(tmp_path / "sm.txt"),
            "semantic_vectors": str(tmp_path / "sem.txt"),
        },
    }
    cfg_path = write_config(tmp_path / "cko.yaml", cfg)
    assert main(["--quiet", "--config", cfg_path, "cko"]) == 0
    for name in ("a.txt", "b.txt"):
        assert (overlay_dir / name).read_text() == (corpus / name).read_text()


def test_grad_check_command_passes():
    assert main(["--quiet", "grad-check"]) == 0


def test_missing_required_path_is_clean_error(tmp_path):
    cfg_path = write_config(tmp_path / "run.yaml", {"seed": 0})
    assert main(["--quiet", "--config", cfg_path, "train"]) == 1


def test_config_schema_rejects_unknown_keys(tmp_path):
    cfg_path = write_config(tmp_path / "run.yaml", {"bogus": 1})
    assert main(["--quiet", "--config", cfg_path, "grad-check"]) == 1


def test_config_overrides_and_hash():
    base = load_config(None, [])
    tweaked = load_config(None, ["gan.n_step=123", "seed=9"])
    assert tweaked.gan.n_step == 123 and tweaked.seed == 9
    assert config_hash(base) != config_hash(tweaked)
    with pytest.raises(ConfigError):
        load_config(None, ["gan.nope=1"])


def test_loaded_config_sections_are_the_library_types():
    cfg = load_config(None, [])
    assert isinstance(cfg.gan, gan.GanTrainConfig)
    assert isinstance(cfg.ssl, SslConfig)
    assert isinstance(cfg.eval, CalibrationSweep)


def test_float_for_integer_key_is_clean_error(tmp_path, capsys):
    out = tmp_path / "ds"
    assert main(synth_args(out)) == 0
    cfg_path = write_config(tmp_path / "run.yaml", tiny_run_config(tmp_path, out))
    assert main(["--quiet", "--config", cfg_path,
                 "--set", "gan.n_step=4.0", "train"]) == 1
    assert "gan.n_step" in capsys.readouterr().err
    assert not (tmp_path / "model.ck").exists()


@pytest.mark.parametrize("setting", [
    "gan.batch_size=8.0", "seed=0.0", "ssl.knn_k=3.0", "eval.knn_k=3.0", "seed=-1",
    "eval.lambda_max=.inf", "eval.step=.nan", "gan.margin=.nan",
])
def test_value_that_fails_later_is_rejected_at_load(setting):
    with pytest.raises(ConfigError, match=setting.split("=")[0].replace(".", r"\.")):
        load_config(None, [setting])


@pytest.mark.parametrize("settings, key", [
    (["eval.step=1.0e-300"], "step"),
    (["eval.lambda_min=-1.0e+308", "eval.lambda_max=1.0e+308"], "lambda_max - lambda_min"),
])
def test_calibration_sweep_beyond_its_bounds_is_clean_error(capsys, settings, key):
    argv = ["--quiet"]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv + ["grad-check"]) == 1
    assert key in capsys.readouterr().err


def test_missing_config_file_is_clean_error(tmp_path, capsys):
    path = str(tmp_path / "absent.yaml")
    assert main(["--quiet", "--config", path, "grad-check"]) == 1
    assert path in capsys.readouterr().err


def test_malformed_config_file_names_path_and_line(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("seed: 0\ngan: {n_step: 1\nssl: {}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"run\.yaml, line 3: malformed YAML"):
        load_config(str(path), [])


def test_malformed_override_names_the_key():
    with pytest.raises(ConfigError, match=r"gan\.n_step=\[1.*malformed YAML"):
        load_config(None, ["gan.n_step=[1"])


@pytest.mark.parametrize("setting", ["eval.knn_k=11", "ssl.knn_k=11", "gan.knn_k=26"])
def test_train_rejects_k_above_reference_count_before_training(tmp_path, capsys,
                                                               monkeypatch, setting):
    # 5 refs x 2 unseen classes = 10 for ssl and eval; 5 x 5 classes = 25 for the probe
    calls = []
    monkeypatch.setattr(gan, "discriminator_loss_grads",
                        lambda *a, **k: calls.append(1))
    out = tmp_path / "ds"
    assert main(synth_args(out)) == 0
    cfg_path = write_config(tmp_path / "run.yaml", tiny_run_config(tmp_path, out))
    assert main(["--quiet", "--config", cfg_path, "--set", setting, "train"]) == 1
    assert setting.split("=")[0] in capsys.readouterr().err
    assert calls == [] and not (tmp_path / "model.ck").exists()


def tree_of(root):
    return sorted((d, sorted(f)) for d, _, f in os.walk(root))


@pytest.mark.parametrize("key", ["checkpoint", "train_log", "ssl_report"])
def test_train_with_a_missing_output_directory_fails_before_training(
        tmp_path, capsys, monkeypatch, key):
    calls = []
    monkeypatch.setattr(gan, "discriminator_loss_grads",
                        lambda *a, **k: calls.append(1))
    out = tmp_path / "ds"
    assert main(synth_args(out)) == 0
    cfg = tiny_run_config(tmp_path, out)
    missing = os.path.join("missing", os.path.basename(cfg["io"][key]))
    cfg["io"][key] = missing
    cfg_path = write_config(tmp_path / "run.yaml", cfg)
    monkeypatch.chdir(tmp_path)
    before = tree_of(tmp_path)
    assert main(["--quiet", "--config", cfg_path, "train"]) == 1
    err = capsys.readouterr().err
    assert f"io.{key}" in err and missing in err
    assert calls == [] and tree_of(tmp_path) == before
