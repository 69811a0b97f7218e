"""k-nearest-neighbor classifier with vote-fraction class probabilities."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UsageError
from .metrics import ScoreMatrix, predict_labels


@dataclass
class KnnClassifier:
    references: np.ndarray  # (n_refs, d)
    labels: np.ndarray      # (n_refs,) int64
    k: int

    def __post_init__(self):
        self.references = np.asarray(self.references, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.labels.size and self.labels.dtype.kind not in "iu":
            raise UsageError(f"labels must be integer class ids, got {self.labels.dtype}")
        if self.labels.shape != self.references.shape[:1]:
            raise UsageError(f"labels must be one class id per reference row: "
                             f"{self.references.shape[0]} rows, labels {self.labels.shape}")
        self.labels = self.labels.astype(np.int64, copy=False)
        if self.references.shape[0] < self.k:
            raise UsageError(
                f"need at least k={self.k} reference points, got {self.references.shape[0]}"
            )


def check_k(key, k, per_class, n_classes):
    """ConfigError naming config key `key` unless k fits the per_class x
    n_classes synthetic references it will search."""
    if k > per_class * n_classes:
        raise ConfigError(
            f"{key}={k} exceeds the {per_class * n_classes} reference points it "
            f"searches ({per_class} per class x {n_classes} classes)"
        )


# values per block of rows whose squared norms are summed at once
NORM_BLOCK_VALUES = 1 << 16


def _squared_norms(x):
    """Per row of x, the sum of its squared entries, a block of rows at a
    time: no temporary the size of x is formed."""
    out = np.empty(x.shape[0])
    step = max(1, NORM_BLOCK_VALUES // max(1, x.shape[1]))
    for lo in range(0, x.shape[0], step):
        block = x[lo:lo + step]
        np.sum(block * block, axis=1, out=out[lo:lo + step])
    return out


def squared_distances(queries, references):
    """(n_queries, n_refs) squared Euclidean distances, from one matrix product.

    The norms are combined in place into the product's output, so the
    result is the only (n_queries, n_refs) array formed. A block of the
    result is what those queries and references alone give, up to the last
    bits where the BLAS forms the smaller product with another kernel
    (OpenBLAS does for one row, and for products under about a million
    multiply-adds when the whole one is not).
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.shape[1] != references.shape[1]:
        raise UsageError(
            f"query dim {queries.shape[1]} != reference dim {references.shape[1]}"
        )
    d2 = (2.0 * queries) @ references.T
    np.subtract(_squared_norms(queries)[:, None], d2, out=d2)
    d2 += _squared_norms(references)
    return d2


def _neighbors(d2, k):
    """Column indices of the k nearest references of each row of d2, (n, k).

    Distance ties are broken by reference index: the set is that of a
    stable sort of the distances, in no particular order. Rows are selected
    a block of at most NORM_BLOCK_VALUES distances at a time (at least one
    row), so no index array the size of d2 is formed.
    """
    near = np.empty((d2.shape[0], k), dtype=np.intp)
    step = max(1, NORM_BLOCK_VALUES // max(1, d2.shape[1]))
    for lo in range(0, d2.shape[0], step):
        block = d2[lo:lo + step]
        out = near[lo:lo + step]
        out[...] = np.argpartition(block, k - 1, axis=1)[:, :k]
        near_d = np.take_along_axis(block, out, axis=1)
        kth = near_d.max(axis=1, keepdims=True)
        # every reference closer than the k-th distance is in out; where more
        # references sit at exactly that distance than out holds, keep the
        # lowest-index ones
        slots = (near_d == kth).sum(axis=1)
        tied = np.flatnonzero((block == kth).sum(axis=1) > slots)
        if tied.size:
            at = block[tied] == kth[tied]
            keep = (block[tied] < kth[tied]) | (at & (np.cumsum(at, axis=1) <= slots[tied, None]))
            out[tied] = np.nonzero(keep)[1].reshape(tied.size, k)
    return near


def _votes(clf, d2, class_ids):
    """Neighbor votes per query for every class in class_ids, shape (n, n_cls),
    from the queries' squared distances d2 to clf's references."""
    class_ids = np.asarray(class_ids, dtype=np.int64)
    n_cls = class_ids.size
    # column of each reference's class in class_ids; n_cls for a class not listed
    sorter = np.argsort(class_ids, kind="stable")
    pos = np.minimum(np.searchsorted(class_ids, clf.labels, sorter=sorter), n_cls - 1)
    ref_col = np.where(class_ids[sorter[pos]] == clf.labels, sorter[pos], n_cls)
    cols = ref_col[_neighbors(d2, clf.k)]
    n = cols.shape[0]
    flat = (np.arange(n)[:, None] * (n_cls + 1) + cols).ravel()
    votes = np.bincount(flat, minlength=n * (n_cls + 1)).reshape(n, n_cls + 1)
    return votes[:, :n_cls]


def knn_scores(clf, queries, class_ids, distances=None):
    """Per-query vote fraction for every class in class_ids, shape (n, n_cls).

    distances, when given, are the queries' squared_distances to clf's
    references, and are not formed again.
    """
    if distances is None:
        distances = squared_distances(queries, clf.references)
    elif distances.shape != (len(queries), clf.references.shape[0]):
        raise UsageError(f"distances of shape {distances.shape} for {len(queries)} "
                         f"queries and {clf.references.shape[0]} references")
    return _votes(clf, distances, class_ids) / clf.k


def score_matrix(clf, dataset, queries, distances=None):
    """kNN vote-fraction scores over the combined seen+unseen class space,
    seen classes first, from the queries' squared distances to clf's
    references (formed here when not given)."""
    seen = sorted(dataset.split.seen)
    class_ids = np.array(seen + sorted(dataset.split.unseen), dtype=np.int64)
    scores = knn_scores(clf, queries, class_ids, distances)
    return ScoreMatrix(scores, class_ids, seen_count=len(seen))


def knn_predict_proba(clf, queries):
    """Most-voted label and its vote fraction per query.

    Vote ties go to the smallest class id.
    """
    classes = np.unique(clf.labels)
    votes = _votes(clf, squared_distances(queries, clf.references), classes)
    return predict_labels(votes, classes), votes.max(axis=1) / clf.k
