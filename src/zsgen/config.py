"""Run configuration: a YAML document checked against the config dataclasses.

Each section is a dataclass whose fields own its defaults and bounds.
Unknown keys and wrongly typed values are rejected naming `section.key`.
`section.key=value` overrides are parsed with YAML scalar rules.
"""

import hashlib
import json
from dataclasses import (
    MISSING, asdict, dataclass, field, fields, is_dataclass, make_dataclass,
)
from typing import get_args, get_origin

import yaml

from .bounds import bounded, check_value
from .errors import ConfigError
from .gan import DiscriminatorConfig, GanTrainConfig, GeneratorConfig
from .metrics import CalibrationSweep
from .selftrain import SslConfig


@dataclass
class TextConfig:
    stopwords: str | None = None
    fit_on: str = bounded("overlay", choices=("overlay", "original"))


@dataclass
class CkoConfig:
    k: int = bounded(4, ge=0)
    similarity: str = bounded("cosine", choices=("cosine", "neg_euclidean"))
    embeddings: str | None = None


def _copied(cls, name):
    f = cls.__dataclass_fields__[name]
    return f.type, field(default=f.default, metadata=f.metadata)


# the gan section: the training settings plus the network widths
GanSection = make_dataclass("GanSection", [
    ("reduce_dim", *_copied(GeneratorConfig, "reduce_dim")),
    ("hidden_dim", *_copied(GeneratorConfig, "hidden_dim")),
    ("disc_hidden_dim", *_copied(DiscriminatorConfig, "hidden_dim")),
    ("noise_sigma", *_copied(GeneratorConfig, "noise_sigma")),
    ("noise_mode", *_copied(GeneratorConfig, "noise_mode")),
], bases=(GanTrainConfig,))


@dataclass
class EvalConfig(CalibrationSweep):
    ratios: list[float] = bounded([0.25, 0.5, 1.0], gt=0, le=1)
    per_class_synthetic: int = bounded(60, ge=1)
    knn_k: int = bounded(20, ge=1)

    def __post_init__(self):
        super().__post_init__()
        # retrieval results are keyed by whole percent
        percents = [int(round(100 * r)) for r in self.ratios]
        for i, p in enumerate(percents):
            if p in percents[:i]:
                raise ConfigError(f"eval.ratios entries {self.ratios[percents.index(p)]!r} "
                                  f"and {self.ratios[i]!r} both round to {p}%")


# file paths; an unset path is None, and stays out of the config hash
IoPaths = make_dataclass("IoPaths", [(name, str, None) for name in (
    "corpus_dir", "overlay_dir", "similarity_matrix", "semantic_vectors",
    "classes", "features_train", "features_test", "semantics", "split",
    "checkpoint", "train_log", "ssl_report", "report", "suc_points", "retrieval",
)])


@dataclass
class RunConfig:
    seed: int = bounded(0, ge=0)
    text: TextConfig = field(default_factory=TextConfig)
    cko: CkoConfig = field(default_factory=CkoConfig)
    gan: GanSection = field(default_factory=GanSection)
    ssl: SslConfig = field(default_factory=SslConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    io: IoPaths = field(default_factory=IoPaths)


def _is_a(value, tp):
    """YAML value against a field type; int excludes bool and float."""
    if get_origin(tp) is list:
        return isinstance(value, list) and all(_is_a(v, get_args(tp)[0]) for v in value)
    if get_args(tp):  # X | None
        return any(_is_a(value, t) for t in get_args(tp))
    return type(value) in ((int, float) if tp is float else (tp,))


def build_section(cls, document, where):
    """Construct dataclass cls from a YAML mapping, checking every key."""
    if not isinstance(document, dict):
        raise ConfigError(f"{where} must be a mapping, got {document!r}")
    known = {f.name: f for f in fields(cls)}
    values = {}
    for key, value in document.items():
        name = f"{where}.{key}" if where else str(key)
        f = known.get(key)
        if f is None:
            raise ConfigError(f"unknown config key {name}")
        if is_dataclass(f.type):
            value = build_section(f.type, value, name)
        elif not _is_a(value, f.type):
            kind = f.type.__name__ if isinstance(f.type, type) else f.type
            raise ConfigError(f"{name} must be of type {kind}, got {value!r}")
        else:
            check_value(name, value, f)
        values[key] = value
    missing = [f.name for f in fields(cls) if f.name not in values
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{where} lacks required keys {missing}")
    return cls(**values)


def _parse_yaml(text, where):
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = f", line {mark.line + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or exc
        raise ConfigError(f"{where}{line}: malformed YAML: {problem}") from None


def apply_override(cfg, setting):
    """Apply one `section.key=value` command-line override in place."""
    if "=" not in setting:
        raise ConfigError(f"override {setting!r} must look like section.key=value")
    dotted, raw = setting.split("=", 1)
    keys = dotted.split(".")
    value = _parse_yaml(raw, f"override {setting!r}")
    node = cfg
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override through non-section {key!r}")
    node[keys[-1]] = value


def load_config(path=None, overrides=()):
    """Load, override, check and default-fill a run configuration: the RunConfig."""
    document = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        document = _parse_yaml(text, path) or {}
        if not isinstance(document, dict):
            raise ConfigError(f"{path} must contain a mapping")
    for setting in overrides:
        apply_override(document, setting)
    return build_section(RunConfig, document, "")


def config_hash(cfg):
    """Stable content hash of a RunConfig, with its unset io paths left out."""
    document = asdict(cfg)
    document["io"] = {key: p for key, p in document["io"].items() if p is not None}
    canon = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
