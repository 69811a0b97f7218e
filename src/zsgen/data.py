"""File formats, dataset assembly, and the synthetic verification dataset.

Matrix files come in two bit-lossless flavors:
  * text:   `# dims: <n> <d>` header, then `label v1 ... vd` per line,
            floats printed with shortest round-trip repr;
  * binary: magic ZSMX, version, int64 labels, float64 row-major values.
Split files are two lines, `seen: ids...` and `unseen: ids...`.
Checkpoints (magic ZSCK) hold named arrays plus a JSON metadata blob.
Every `key v1 ... vd` text row, matrix or embedding table, parses in text_rows.
Text matrices are written one row at a time, and binary payloads straight
from the array's buffer and read straight into a new array, so no writer
or reader holds a second copy of the matrix; the bytes are those of the
plain per-value writer. Every file is written through atomic_write, so a
failed write leaves the previous file as it was, and a finished one is
fsync'd before it replaces the old file and keeps that file's mode.
"""

import json
import math
import os
import stat
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .bounds import bounded, check_bounds, check_distinct
from .errors import ConfigError, ParseError

_MATRIX_MAGIC = b"ZSMX"
_CHECKPOINT_MAGIC = b"ZSCK"
_FORMAT_VERSION = 1
# array dtypes a checkpoint may hold, as numpy dtype strings
_CHECKPOINT_DTYPES = ("<f8", "<i8")


@contextmanager
def atomic_write(path, binary=False):
    """A handle on a temporary file beside path (UTF-8 text, or bytes), moved
    onto path with os.replace once the block ends. The temporary file is
    flushed and fsync'd first, so a crash leaves the old file or the whole
    new one, never an empty one. A file that replaces another keeps its
    permission bits; a new file gets the umask default. If the block
    raises, the temporary file is removed and path is left as it was."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    fh = open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        try:
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        except FileNotFoundError:
            pass
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def save_matrix(path, labels, values):
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if values.ndim != 2 or labels.shape[0] != values.shape[0]:
        raise ConfigError("labels must align with matrix rows")
    with atomic_write(path) as fh:
        fh.write(f"# dims: {values.shape[0]} {values.shape[1]}\n")
        # one row's Python floats at a time: a whole-matrix tolist() would
        # hold about 32 bytes of objects per value
        for label, row in zip(labels.tolist(), values):
            fh.write(" ".join([str(label), *map(repr, row.tolist())]) + "\n")


def save_matrix_binary(path, labels, values):
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if values.ndim != 2 or labels.shape[0] != values.shape[0]:
        raise ConfigError("labels must align with matrix rows")
    with atomic_write(path, binary=True) as fh:
        fh.write(_MATRIX_MAGIC)
        fh.write(struct.pack("<III", _FORMAT_VERSION, values.shape[0], values.shape[1]))
        fh.write(np.ascontiguousarray(labels).data)
        fh.write(np.ascontiguousarray(values).data)


def load_matrix(path):
    """Load a matrix file of either flavor. Returns (labels, values)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == _MATRIX_MAGIC:
        return _load_matrix_binary(path)
    return _load_matrix_text(path)


def _check_left(fh, size, path):
    """A file with fewer than size bytes left after fh's position is truncated."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise ParseError(f"truncated: expected {size} more bytes, found {left}", path=path)


def _check_end(fh, path):
    """A file with bytes left after its declared payload is malformed."""
    extra = os.fstat(fh.fileno()).st_size - fh.tell()
    if extra:
        raise ParseError(f"{extra} bytes past the end of the declared data", path=path)


def _read_exact(fh, size, path):
    """Exactly size bytes from fh."""
    _check_left(fh, size, path)
    return fh.read(size)


def _read_array(fh, dtype, count, path):
    """A new flat array of count dtype items, read from fh into its buffer
    with no intermediate bytes object."""
    size = count * dtype.itemsize
    _check_left(fh, size, path)
    arr = np.empty(count, dtype=dtype)
    got = fh.readinto(arr.data)
    if got != size:
        raise ParseError(f"truncated: expected {size} more bytes, found {got}", path=path)
    return arr


def _unpack(fh, fmt, path):
    return struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt), path))


def _load_matrix_binary(path):
    with open(path, "rb") as fh:
        fh.read(4)
        version, n, d = _unpack(fh, "<III", path)
        if version != _FORMAT_VERSION:
            raise ParseError(f"unsupported matrix format version {version}", path=path)
        labels = _read_array(fh, np.dtype(np.int64), n, path)
        values = _read_array(fh, np.dtype(np.float64), n * d, path)
        _check_end(fh, path)
    values = values.reshape(n, d)
    if d:  # NaN propagates through min and max, which hold no n x d temporary
        bad = ~(np.isfinite(values.min(axis=1)) & np.isfinite(values.max(axis=1)))
        if bad.any():
            raise ParseError(f"non-finite value in data row {int(np.argmax(bad)) + 1}",
                             path=path)
    return labels, values


def text_lines(path):
    """(line number, line) pairs of a UTF-8 text file. A line that is not
    UTF-8 is a ParseError naming it, not a UnicodeDecodeError."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError("not UTF-8 text", path=path, line=lineno) from None
            yield lineno, line


def text_rows(path, lines, width=None):
    """(line number, key, float64 values) per non-blank `key v1 ... vd` line of
    path's (line number, line) pairs; every row has width values, or the first
    row's count when width is None. A wrong field count, a value that is not a
    float and a non-finite value are ParseErrors naming path and the line."""
    for lineno, line in lines:
        parts = line.split()
        if not parts:
            continue
        if width is None:
            width = len(parts) - 1
        if len(parts) != width + 1:
            raise ParseError(f"expected {width + 1} fields, got {len(parts)}",
                             path=path, line=lineno)
        try:
            values = np.array(parts[1:], dtype=np.float64)   # float()'s syntax
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line=lineno) from None
        if not np.isfinite(values).all():
            raise ParseError("non-finite value", path=path, line=lineno)
        yield lineno, parts[0], values


def _load_matrix_text(path):
    lines = text_lines(path)
    _, header = next(lines, (1, ""))
    if not header.startswith("# dims:"):
        raise ParseError("missing '# dims:' header", path=path, line=1)
    try:
        n, d = (int(x) for x in header[len("# dims:"):].split())
    except ValueError:
        raise ParseError("malformed '# dims:' header", path=path, line=1) from None
    if min(n, d) < 0:
        raise ParseError("negative size in '# dims:' header", path=path, line=1)
    # a row is d + 1 fields of at least one byte, with a separator between each
    if n * (2 * d + 1) > os.path.getsize(path):
        raise ParseError(f"{n} rows of {d} values cannot fit in the file", path=path, line=1)
    labels = np.empty(n, dtype=np.int64)
    values = np.empty((n, d))
    row = 0
    for lineno, label, row_values in text_rows(path, lines, d):
        if row >= n:
            raise ParseError(f"more than {n} data rows", path=path, line=lineno)
        try:
            labels[row] = int(label)
        except (ValueError, OverflowError) as exc:   # not an integer, or not an int64
            raise ParseError(str(exc), path=path, line=lineno) from None
        values[row] = row_values
        row += 1
    if row != n:
        raise ParseError(f"expected {n} data rows, found {row}", path=path)
    return labels, values


@dataclass(frozen=True)
class SplitSpec:
    seen: tuple
    unseen: tuple
    scheme: str = ""  # SCS | SCE, metadata only

    def __post_init__(self):
        overlap = set(self.seen) & set(self.unseen)
        if overlap:
            raise ConfigError(f"seen/unseen classes overlap: {sorted(overlap)}")
        check_distinct([*self.seen, *self.unseen], "is listed twice in the split")


def save_split(path, split):
    with atomic_write(path) as fh:
        if split.scheme:
            fh.write(f"# scheme: {split.scheme}\n")
        fh.write("seen: " + " ".join(str(c) for c in split.seen) + "\n")
        fh.write("unseen: " + " ".join(str(c) for c in split.unseen) + "\n")


def _class_ids(text, path, lineno, earlier):
    try:
        ids = tuple(int(c) for c in text.split())
    except ValueError as exc:
        raise ParseError(f"class id is not an integer: {exc}", path=path, line=lineno) from None
    if not ids:
        raise ParseError("a split line with no class ids", path=path, line=lineno)
    check_distinct(earlier + ids, "is listed twice", ParseError, path=path, line=lineno)
    return ids


def load_split(path):
    ids, scheme = {}, ""
    for lineno, line in text_lines(path):
        line = line.strip()
        if not line:
            continue
        if line.startswith("# scheme:"):
            scheme = line[len("# scheme:"):].strip()
            continue
        key, colon, rest = line.partition(":")
        if not colon or key not in ("seen", "unseen"):
            raise ParseError(f"unrecognized line {line!r}", path=path, line=lineno)
        if key in ids:
            raise ParseError(f"a second '{key}:' line", path=path, line=lineno)
        ids[key] = _class_ids(rest, path, lineno, sum(ids.values(), ()))
    if len(ids) < 2:
        raise ParseError("split file needs both 'seen:' and 'unseen:' lines", path=path)
    return SplitSpec(seen=ids["seen"], unseen=ids["unseen"], scheme=scheme)


def validate_split(split, class_ids):
    """Check the split is a partition of the given class universe."""
    universe = set(class_ids)
    assigned = set(split.seen) | set(split.unseen)
    missing = universe - assigned
    if missing:
        raise ConfigError(f"classes not assigned to seen or unseen: {sorted(missing)}")
    extra = assigned - universe
    if extra:
        raise ConfigError(f"split names unknown classes: {sorted(extra)}")


TRAIN, TEST = 0, 1


@dataclass
class ZslDataset:
    """Visual features with labels, per-class semantics, and a seen/unseen split.

    partition marks each sample TRAIN or TEST.
    """

    features: np.ndarray      # (N, visual_dim)
    labels: np.ndarray        # (N,) int64 class ids
    class_ids: np.ndarray     # (n_cls,) int64, sorted ascending
    semantics: np.ndarray     # (n_cls, semantic_dim), aligned with class_ids
    split: SplitSpec
    partition: np.ndarray     # (N,) TRAIN or TEST

    def __post_init__(self):
        check_distinct(self.class_ids.tolist(), "has more than one semantic row")
        validate_split(self.split, self.class_ids.tolist())
        known = set(self.class_ids.tolist())
        unknown = set(self.labels.tolist()) - known
        if unknown:
            raise ConfigError(f"samples with labels lacking semantics: {sorted(unknown)}")
        bad = set(self.split.unseen) & set(self.labels[self.partition == TRAIN].tolist())
        if bad:
            raise ConfigError(
                f"unseen classes appear in the training partition: {sorted(bad)}"
            )

    @property
    def visual_dim(self):
        return self.features.shape[1]

    @property
    def semantic_dim(self):
        return self.semantics.shape[1]

    def semantics_for(self, class_ids):
        """Semantic vectors for the given class ids, as a matrix."""
        index = {int(c): i for i, c in enumerate(self.class_ids)}
        return self.semantics[[index[int(c)] for c in class_ids]]

    def train_indices(self):
        return np.flatnonzero(self.partition == TRAIN)

    def test_indices(self):
        return np.flatnonzero(self.partition == TEST)


def assemble_dataset(train_features_path, test_features_path, semantics_path, split_path):
    """Build a ZslDataset from the four on-disk pieces."""
    tr_labels, tr_feats = load_matrix(train_features_path)
    te_labels, te_feats = load_matrix(test_features_path)
    if tr_feats.shape[1] != te_feats.shape[1]:
        raise ConfigError(
            f"train/test feature dims differ: {tr_feats.shape[1]} vs {te_feats.shape[1]}"
        )
    sem_labels, sem = load_matrix(semantics_path)
    check_distinct(sem_labels.tolist(), "has more than one semantic row", ParseError,
                   path=semantics_path)
    order = np.argsort(sem_labels, kind="stable")
    split = load_split(split_path)
    features = np.vstack([tr_feats, te_feats])
    labels = np.concatenate([tr_labels, te_labels])
    partition = np.concatenate([
        np.full(tr_labels.shape[0], TRAIN), np.full(te_labels.shape[0], TEST)
    ])
    return ZslDataset(
        features=features,
        labels=labels,
        class_ids=sem_labels[order],
        semantics=sem[order],
        split=split,
        partition=partition,
    )


SYNTHETIC_TEST_FRACTION = 0.25  # held-out fraction of each seen class


@dataclass
class SyntheticSpec:
    num_seen: int = bounded(10, ge=1)
    num_unseen: int = bounded(5, ge=1)
    samples_per_class: int = bounded(100, ge=1)
    semantic_dim: int = bounded(50, ge=1)
    visual_dim: int = bounded(64, ge=1)
    sigma: float = bounded(0.05, ge=0)
    seed: int = bounded(0, ge=0)

    __post_init__ = check_bounds


def make_synthetic(spec):
    """Generate a desk-scale dataset with a known semantics -> visual map.

    A hidden linear map followed by tanh places one cluster center per
    class; samples are Gaussian around their center. Semantic vectors are
    sparse, non-negative and L2-normalized, mimicking tf-idf output, and
    share a low-rank latent basis so the semantics of held-out classes
    stay inside the span of the seen ones (otherwise zero-shot transfer
    from a handful of classes would be ill-posed). Unseen classes appear
    only in the test partition.
    """
    rng = np.random.default_rng(spec.seed)
    n_cls = spec.num_seen + spec.num_unseen
    class_ids = np.arange(n_cls, dtype=np.int64)

    latent_dim = max(1, min(spec.num_seen - 1, spec.semantic_dim // 8))
    nnz = max(1, int(round(0.2 * spec.semantic_dim)))
    basis = np.zeros((latent_dim, spec.semantic_dim))
    for r in range(latent_dim):
        support = rng.choice(spec.semantic_dim, size=nnz, replace=False)
        basis[r, support] = rng.uniform(0.2, 1.0, size=nnz)
    w_star = rng.normal(0.0, 1.0, size=(spec.semantic_dim, spec.visual_dim))

    # normalized semantics give unit-variance pre-activations, so tanh
    # centers spread over most of (-1, 1); keep the best-separated draw
    # so no two class centers collapse onto each other
    best = None
    best_sep = -1.0
    for _ in range(100):
        codes = rng.uniform(0.0, 1.0, size=(n_cls, latent_dim))
        sem = codes @ basis
        sem = sem / np.linalg.norm(sem, axis=1, keepdims=True)
        ctr = np.tanh(sem @ (w_star * 2.0))
        gaps = np.linalg.norm(ctr[:, None, :] - ctr[None, :, :], axis=2)
        sep = gaps[np.triu_indices(n_cls, k=1)].min()
        if sep > best_sep:
            best, best_sep = (sem, ctr), sep
        if sep >= 0.5:
            break
    semantics, centers = best

    feats, labels, partition = [], [], []
    seen = class_ids[: spec.num_seen]
    n_test = max(1, int(round(SYNTHETIC_TEST_FRACTION * spec.samples_per_class)))
    for c in range(n_cls):
        samples = centers[c] + rng.normal(0.0, spec.sigma,
                                          size=(spec.samples_per_class, spec.visual_dim))
        feats.append(samples)
        labels.append(np.full(spec.samples_per_class, c, dtype=np.int64))
        if c in seen:
            part = np.full(spec.samples_per_class, TRAIN)
            part[spec.samples_per_class - n_test:] = TEST
        else:
            part = np.full(spec.samples_per_class, TEST)
        partition.append(part)

    split = SplitSpec(
        seen=tuple(int(c) for c in seen),
        unseen=tuple(int(c) for c in class_ids[spec.num_seen:]),
        scheme="synthetic",
    )
    return ZslDataset(
        features=np.vstack(feats),
        labels=np.concatenate(labels),
        class_ids=class_ids,
        semantics=semantics,
        split=split,
        partition=np.concatenate(partition),
    )


def save_dataset(dataset, train_path, test_path, semantics_path, split_path):
    tr = dataset.train_indices()
    te = dataset.test_indices()
    save_matrix(train_path, dataset.labels[tr], dataset.features[tr])
    save_matrix(test_path, dataset.labels[te], dataset.features[te])
    save_matrix(semantics_path, dataset.class_ids, dataset.semantics)
    save_split(split_path, dataset.split)


def save_checkpoint(path, arrays, meta):
    """Write named float64/int64 arrays plus JSON metadata, deterministically."""
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    with atomic_write(path, binary=True) as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", _FORMAT_VERSION, len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name])
            if arr.dtype.str not in _CHECKPOINT_DTYPES:
                raise ConfigError(f"checkpoint array {name!r} has dtype {arr.dtype}, "
                                  f"not float64 or int64")
            name_b = name.encode("utf-8")
            dtype_b = arr.dtype.str.encode("ascii")
            fh.write(struct.pack("<H", len(name_b)) + name_b)
            fh.write(struct.pack("<H", len(dtype_b)) + dtype_b)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.data)


def _utf8(raw, what, path):
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError(f"{what} is not UTF-8", path=path) from None


def load_checkpoint(path):
    """Read back (arrays, meta) written by save_checkpoint."""
    with open(path, "rb") as fh:
        if fh.read(4) != _CHECKPOINT_MAGIC:
            raise ParseError("not a checkpoint file", path=path)
        version, meta_len = _unpack(fh, "<II", path)
        if version != _FORMAT_VERSION:
            raise ParseError(f"unsupported checkpoint version {version}", path=path)
        try:
            meta = json.loads(_utf8(_read_exact(fh, meta_len, path), "metadata", path))
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed metadata: {exc}", path=path) from None
        if not isinstance(meta, dict):
            raise ParseError("metadata is not a JSON object", path=path)
        (count,) = _unpack(fh, "<I", path)
        arrays = {}
        for _ in range(count):
            (nlen,) = _unpack(fh, "<H", path)
            name = _utf8(_read_exact(fh, nlen, path), "array name", path)
            if name in arrays:
                raise ParseError(f"array {name!r} appears twice", path=path)
            (dlen,) = _unpack(fh, "<H", path)
            dtype_str = _utf8(_read_exact(fh, dlen, path), "array dtype", path)
            if dtype_str not in _CHECKPOINT_DTYPES:
                raise ParseError(f"array {name!r} has unsupported dtype {dtype_str!r}",
                                 path=path)
            dtype = np.dtype(dtype_str)
            (ndim,) = _unpack(fh, "<I", path)
            shape = _unpack(fh, f"<{ndim}Q", path)
            flat = _read_array(fh, dtype, math.prod(shape), path)
            try:
                arrays[name] = flat.reshape(shape)
            except ValueError:  # too many dimensions, or an index-overflowing empty shape
                raise ParseError(f"array {name!r} has shape {shape}", path=path) from None
        _check_end(fh, path)
    return arrays, meta
