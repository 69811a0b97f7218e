"""Every rule a run configuration must satisfy, one rejected case per rule.

Each case writes a YAML document and expects load_config to raise a
ConfigError whose message names the offending key.
"""

from dataclasses import fields
from pathlib import Path

import pytest
import yaml

from zsgen import cli, data
from zsgen.config import GanSection, RunConfig, load_config
from zsgen.errors import ConfigError
from zsgen.gan import DiscriminatorConfig, GeneratorConfig

INT, NUM, STR, STR_OR_NULL, ENUM, NUM_LIST = (
    "int", "num", "str", "str_or_null", "enum", "num_list")

SECTIONS = {
    "text": {"stopwords": STR_OR_NULL, "fit_on": ENUM},
    "cko": {"k": INT, "similarity": ENUM, "embeddings": STR_OR_NULL},
    "gan": {
        "margin": NUM, "lambda_t": NUM, "n_d": INT, "n_step": INT,
        "patience": INT, "batch_size": INT, "n_pos": INT, "n_neg": INT,
        "alpha": NUM, "beta1": NUM, "beta2": NUM, "gp_weight": NUM,
        "eval_every": INT, "knn_k": INT, "probe_per_class": INT,
        "val_fraction": NUM, "reduce_dim": INT, "hidden_dim": INT,
        "disc_hidden_dim": INT, "noise_sigma": NUM, "noise_mode": ENUM,
    },
    "ssl": {"psi": NUM, "n_ssl": INT, "per_class_synthetic": INT, "knn_k": INT},
    "eval": {
        "lambda_min": NUM, "lambda_max": NUM, "step": NUM, "ratios": NUM_LIST,
        "per_class_synthetic": INT, "knn_k": INT,
    },
    "io": {name: STR for name in (
        "corpus_dir", "overlay_dir", "similarity_matrix", "semantic_vectors",
        "classes", "features_train", "features_test", "semantics", "split",
        "checkpoint", "train_log", "ssl_report", "report", "suc_points",
        "retrieval",
    )},
}

WRONG_TYPE = {
    INT: [1.5, "3", True],
    NUM: ["x", True, None],
    STR: [3, True, None],
    STR_OR_NULL: [3, True],
    ENUM: [3, "bogus"],
    NUM_LIST: ["x", 0.5, ["x"], [True]],
}

# (key, value just past the bound): every minimum, exclusive minimum,
# maximum and exclusive maximum
OUT_OF_BOUNDS = [
    ("cko.k", -1),
    ("gan.margin", -0.1), ("gan.lambda_t", -1.0), ("gan.n_d", 0), ("gan.n_step", -1),
    ("gan.patience", 0), ("gan.batch_size", 0), ("gan.n_pos", 0),
    ("gan.n_neg", 0), ("gan.alpha", 0), ("gan.alpha", -1.0),
    ("gan.beta1", -0.1), ("gan.beta1", 1), ("gan.beta2", -0.1),
    ("gan.beta2", 1.0), ("gan.gp_weight", -1), ("gan.eval_every", -1),
    ("gan.knn_k", 0), ("gan.probe_per_class", 0), ("gan.val_fraction", -0.1),
    ("gan.val_fraction", 0.6), ("gan.reduce_dim", 0), ("gan.hidden_dim", 0),
    ("gan.disc_hidden_dim", 0), ("gan.noise_sigma", -0.5),
    ("ssl.psi", -0.1), ("ssl.psi", 1.01), ("ssl.n_ssl", 0),
    ("ssl.per_class_synthetic", 0), ("ssl.knn_k", 0),
    ("eval.step", 0), ("eval.step", -0.01), ("eval.ratios", [0.5, 0]),
    ("eval.ratios", [-0.25]), ("eval.ratios", [1.5]), ("eval.ratios", [0.5, 1.01]),
    ("eval.per_class_synthetic", 0), ("eval.knn_k", 0),
]

# entries that collide once rounded to the whole percent results are keyed by
RATIO_COLLISIONS = [[0.5, 0.5], [0.251, 0.249], [0.25, 1.0, 0.995]]


def _document(dotted, value):
    if "." not in dotted:
        return {dotted: value}
    section, key = dotted.split(".")
    return {section: {key: value}}


def _cases():
    yield from ((f"seed={v!r}", {"seed": v}, "seed") for v in WRONG_TYPE[INT])
    for section, keys in SECTIONS.items():
        for key, kind in keys.items():
            for value in WRONG_TYPE[kind]:
                dotted = f"{section}.{key}"
                yield f"{dotted}={value!r}", _document(dotted, value), dotted
        yield f"{section}.unknown", {section: {"bogus_key": 1}}, "bogus_key"
        yield f"{section}=3", {section: 3}, section
        yield f"{section}=list", {section: [1]}, section
    for dotted, value in OUT_OF_BOUNDS:
        yield f"{dotted}={value!r}", _document(dotted, value), dotted
    for value in RATIO_COLLISIONS:
        yield f"eval.ratios={value!r}", _document("eval.ratios", value), "eval.ratios"
    yield "top-level unknown", {"bogus_key": 1}, "bogus_key"


CASES = list(_cases())


@pytest.mark.parametrize("document,named", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_config_rule_violation_names_the_key(tmp_path, document, named):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(document), encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(str(path), [])
    assert named in str(info.value)


# the network config fields that cli._model_configs takes from the dataset;
# every other one is a gan section key, named here where the names differ
FROM_DATASET = {"semantic_dim", "visual_dim", "num_classes"}
SECTION_KEY = {GeneratorConfig: {}, DiscriminatorConfig: {"hidden_dim": "disc_hidden_dim"}}


def test_every_network_setting_comes_from_the_config_or_the_dataset():
    """No network setting can be set from Python alone: each field of the two
    network configs is a gan section key or a dataset width, and the CLI
    builds the networks with the config's value of each key."""
    values = {}
    for cls, renamed in SECTION_KEY.items():
        for f in fields(cls):
            if f.name not in FROM_DATASET:
                key = renamed.get(f.name, f.name)
                assert key in {g.name for g in fields(GanSection)}, f"{cls.__name__}.{f.name}"
                # a value other than the default, so a key left unread shows
                values[key] = ("concat" if key == "noise_mode" else f.default + 1)
    cfg = RunConfig(gan=GanSection(**values))
    ds = data.make_synthetic(data.SyntheticSpec(num_seen=3, num_unseen=2, samples_per_class=4,
                                                semantic_dim=5, visual_dim=7))
    for net_cfg in cli._model_configs(cfg, ds):
        renamed = SECTION_KEY[type(net_cfg)]
        for f in fields(net_cfg):
            got = getattr(net_cfg, f.name)
            if f.name in FROM_DATASET:
                assert got == {"semantic_dim": 5, "visual_dim": 7, "num_classes": 3}[f.name]
            else:
                assert got == values[renamed.get(f.name, f.name)], f.name


def test_readme_sample_configuration_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    sample = readme.split("### Sample configuration", 1)[1]
    text = sample.split("```yaml\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "run.yaml"
    path.write_text(text, encoding="utf-8")
    cfg = load_config(str(path))
    document = yaml.safe_load(text)
    assert cfg.seed == document.pop("seed")
    for section, settings in document.items():
        for key, value in settings.items():
            assert getattr(getattr(cfg, section), key) == value, f"{section}.{key}"
