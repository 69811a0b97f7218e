"""k-nearest-neighbor classifier with vote-fraction class probabilities."""

from dataclasses import dataclass

import numpy as np

from .errors import UsageError


@dataclass
class KnnClassifier:
    references: np.ndarray  # (n_refs, d)
    labels: np.ndarray      # (n_refs,) int64
    k: int = 20

    def __post_init__(self):
        self.references = np.asarray(self.references, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.references.shape[0] < self.k:
            raise UsageError(
                f"need at least k={self.k} reference points, got {self.references.shape[0]}"
            )


def _neighbor_labels(clf, queries):
    queries = np.asarray(queries, dtype=np.float64)
    if queries.shape[1] != clf.references.shape[1]:
        raise UsageError(
            f"query dim {queries.shape[1]} != reference dim {clf.references.shape[1]}"
        )
    d2 = (
        (queries * queries).sum(axis=1)[:, None]
        - 2.0 * queries @ clf.references.T
        + (clf.references * clf.references).sum(axis=1)[None, :]
    )
    # stable sort: distance ties broken by reference index
    order = np.argsort(d2, axis=1, kind="stable")[:, : clf.k]
    return clf.labels[order]


def _votes(clf, queries, class_ids):
    """Neighbor votes per query for every class in class_ids, shape (n, n_cls)."""
    neigh = _neighbor_labels(clf, queries)
    votes = np.zeros((neigh.shape[0], len(class_ids)), dtype=np.int64)
    for j, c in enumerate(class_ids):
        votes[:, j] = (neigh == c).sum(axis=1)
    return votes


def knn_scores(clf, queries, class_ids):
    """Per-query vote fraction for every class in class_ids, shape (n, n_cls)."""
    return _votes(clf, queries, class_ids) / clf.k


def knn_predict_proba(clf, queries):
    """Most-voted label and its vote fraction per query.

    Vote ties go to the smallest class id.
    """
    classes = np.unique(clf.labels)  # sorted, so argmax tie -> smallest id
    votes = _votes(clf, queries, classes)
    best = votes.argmax(axis=1)
    return classes[best], votes[np.arange(len(best)), best] / clf.k
