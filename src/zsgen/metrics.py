"""Evaluation mathematics: per-class top-1, calibrated generalized accuracy,
seen-unseen curves with their area, GZSL harmonic mean, retrieval precision.

Score matrices have one column per class, seen classes first then the
unseen block, each block in ascending class-id order. Argmax ties always
go to the smallest class id.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import bounded, check_bounds
from .errors import ConfigError, UsageError


@dataclass
class ScoreMatrix:
    scores: np.ndarray     # (N, n_cls)
    class_ids: np.ndarray  # (n_cls,) seen block then unseen block
    seen_count: int

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.class_ids = np.asarray(self.class_ids, dtype=np.int64)
        if not 0 < self.seen_count < self.class_ids.shape[0]:
            raise ConfigError("need at least one seen and one unseen class column")
        if self.scores.shape[1] != self.class_ids.shape[0]:
            raise ConfigError("score columns do not match class ids")
        if not np.isfinite(self.scores).all():
            raise ConfigError("scores must be finite")

    @property
    def seen_ids(self):
        return self.class_ids[: self.seen_count]

    @property
    def unseen_ids(self):
        return self.class_ids[self.seen_count:]


# most steps a calibration sweep may take; the default sweep takes 400, and
# the evaluation holds a (points x queries) array of predictions
MAX_SWEEP_POINTS = 10_000


@dataclass
class CalibrationSweep:
    lambda_min: float = -2.0
    lambda_max: float = 2.0
    step: float = bounded(0.01, gt=0)

    def __post_init__(self):
        check_bounds(self)
        try:
            span = float(self.lambda_max) - float(self.lambda_min)
            steps = span / float(self.step)
        except OverflowError:  # an integer beyond the float range
            raise ConfigError("lambda_min, lambda_max and step must be within the "
                              "float range") from None
        if not math.isfinite(span):
            raise ConfigError(f"lambda_max - lambda_min must be finite, got "
                              f"{self.lambda_max!r} - {self.lambda_min!r}")
        if steps > MAX_SWEEP_POINTS:
            raise ConfigError(f"step {self.step!r} takes {steps:.3g} sweep steps from "
                              f"lambda_min {self.lambda_min!r} to lambda_max "
                              f"{self.lambda_max!r}, more than {MAX_SWEEP_POINTS}")
        if len(self.values()) == 0:
            raise ConfigError(f"sweep from {self.lambda_min} to {self.lambda_max} "
                              f"by {self.step} has no points")

    def values(self):
        """Half-open grid lambda_min + j*step for j = 0..m-1."""
        m = int(round((self.lambda_max - self.lambda_min) / self.step))
        return self.lambda_min + self.step * np.arange(m)


def predict_labels(scores, class_ids):
    """Row argmax as class ids, ties resolved to the smallest id."""
    scores = np.asarray(scores, dtype=np.float64)
    class_ids = np.asarray(class_ids, dtype=np.int64)
    row_max = scores.max(axis=1, keepdims=True)
    tie = scores == row_max
    big = np.iinfo(np.int64).max
    return np.where(tie, class_ids[None, :], big).min(axis=1)


def _per_class_accuracy(correct, labels):
    """Mean over the classes in labels of per-class top-1 (%), for every row
    of correct, an (L, n) hit mask over n samples with these labels; (L,)."""
    order = np.argsort(labels, kind="stable")
    _, starts, sizes = np.unique(labels[order], return_index=True, return_counts=True)
    hits = np.add.reduceat(correct[:, order], starts, axis=1, dtype=np.int64)
    return 100.0 * (hits / sizes).mean(axis=1)


def top1_per_class(scores, class_ids, labels):
    """Average per-class top-1 accuracy (%), argmax over the given columns."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ConfigError("no samples to evaluate")
    missing = set(labels.tolist()) - set(np.asarray(class_ids).tolist())
    if missing:
        raise ConfigError(f"labels outside the class set: {sorted(missing)}")
    correct = predict_labels(scores, class_ids) == labels
    return float(_per_class_accuracy(correct[None, :], labels)[0])


# cap on the temporaries of one chunk of sweep points; a whole evaluation at
# the acceptance shapes holds about 7 MB of arrays at its peak (the kNN), and
# the sweep stays under that so it does not raise the peak
_SWEEP_CHUNK_BYTES = 1 << 20


def _by_id(scores, ids):
    """A column block and its class ids, columns in ascending id order."""
    order = np.argsort(ids, kind="stable")
    return scores[:, order], ids[order]


def calibrated_predictions(sm, lams):
    """Calibrated argmax of every row at every sweep point, shape (L, N).

    Row i at point l is predict_labels of the scores with lams[l] added to
    every unseen column. The seen block does not move, so its maximum and
    smallest tied id are taken once; only the unseen sums are formed, as
    adding lambda can round distinct unseen scores to one value and so
    make ties the plain scores do not have. With columns in id order, the
    first maximum is the smallest tied id.
    """
    lams = np.asarray(lams, dtype=np.float64)
    s = sm.seen_count
    seen, seen_ids = _by_id(sm.scores[:, :s], sm.seen_ids)
    j = seen.argmax(axis=1)
    seen_max, seen_pred = seen[np.arange(seen.shape[0]), j], seen_ids[j]
    unseen, unseen_ids = _by_id(sm.scores[:, s:], sm.unseen_ids)
    n, u = unseen.shape
    pred = np.empty((lams.size, n), dtype=np.int64)
    # per sweep point: the n * u sums and four length-n arrays
    step = max(1, _SWEEP_CHUNK_BYTES // (8 * max(1, n * (u + 4))))
    for a in range(0, lams.size, step):
        shifted = unseen[None, :, :] + lams[a:a + step, None, None]
        j = shifted.argmax(axis=2)
        best = np.take_along_axis(shifted, j[:, :, None], axis=2)[:, :, 0]
        ids = unseen_ids[j]
        pred[a:a + step] = np.where(
            best > seen_max, ids,
            np.where(best < seen_max, seen_pred, np.minimum(ids, seen_pred)),
        )
    return pred


def generalized_accuracy(sm, labels, sweep=None):
    """Mean over the calibration sweep of plain sample accuracy (%).

    Each sweep point adds lambda to every unseen-class column before the
    argmax over all classes.
    """
    sweep = sweep or CalibrationSweep()
    labels = np.asarray(labels, dtype=np.int64)
    lams = sweep.values()
    hits = (calibrated_predictions(sm, lams) == labels).sum(axis=1)
    # running sum in sweep order: the same float total as adding point by point
    total = float(np.add.accumulate(hits / labels.size)[-1])
    return 100.0 * total / len(lams)


def suc_curve(sm, labels, sweep=None):
    """Seen-unseen accuracy curve over the calibration sweep.

    Returns deduplicated (acc_unseen, acc_seen) fraction pairs sorted by
    acc_unseen ascending.
    """
    sweep = sweep or CalibrationSweep()
    labels = np.asarray(labels, dtype=np.int64)
    is_seen = np.isin(labels, sm.seen_ids)
    is_unseen = np.isin(labels, sm.unseen_ids)
    if not is_seen.any() or not is_unseen.any():
        raise ConfigError("SUC curve needs both seen and unseen test samples")
    correct = calibrated_predictions(sm, sweep.values()) == labels
    acc_u = _per_class_accuracy(correct[:, is_unseen], labels[is_unseen]) / 100.0
    acc_s = _per_class_accuracy(correct[:, is_seen], labels[is_seen]) / 100.0
    return sorted(set(zip(acc_u.tolist(), acc_s.tolist())))


def ausuc(points):
    """Trapezoidal area under an SUC point list (fractions on both axes)."""
    if len(points) < 2:
        raise UsageError("AUSUC needs at least two curve points")
    # integrate the upper envelope: several sweep settings can share one
    # unseen accuracy, and only the best seen accuracy there is on the curve
    best = {}
    for x, y in points:
        if x not in best or y > best[x]:
            best[x] = y
    pts = sorted(best.items())
    if len(pts) < 2:
        raise UsageError("AUSUC needs at least two distinct unseen accuracies")
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def gzsl_suh(sm, labels):
    """Uncalibrated GZSL seen/unseen per-class top-1 and their harmonic mean."""
    labels = np.asarray(labels, dtype=np.int64)
    pred = predict_labels(sm.scores, sm.class_ids)
    is_seen = np.isin(labels, sm.seen_ids)
    is_unseen = np.isin(labels, sm.unseen_ids)
    if not is_seen.any() or not is_unseen.any():
        raise ConfigError("GZSL evaluation needs both seen and unseen test samples")
    correct = (pred == labels)[None, :]
    s = float(_per_class_accuracy(correct[:, is_seen], labels[is_seen])[0])
    u = float(_per_class_accuracy(correct[:, is_unseen], labels[is_unseen])[0])
    h = 0.0 if s + u == 0.0 else 2.0 * s * u / (s + u)
    return s, u, h


def retrieval_precisions(queries, features, labels, ratios):
    """Mean per-class retrieval precision (%) for each retrieval ratio.

    queries maps class id -> query vector. All features are ranked once per
    class by ascending Euclidean distance to the query (ties by sample
    index), and the top ceil(ratio * n_c) are retrieved for class c.
    """
    labels = np.asarray(labels, dtype=np.int64)
    ratios = list(ratios)
    if any(not ratio > 0 for ratio in ratios):
        raise UsageError(f"retrieval ratios must be positive, got {ratios}")
    precisions = np.empty((len(ratios), len(queries)))  # ratio x class
    for j, (c, query) in enumerate(sorted(queries.items())):
        n_c = int((labels == c).sum())
        if n_c == 0:
            raise ConfigError(f"retrieval class {c} has no images")
        d = np.linalg.norm(features - query[None, :], axis=1)
        hits = np.cumsum(labels[np.argsort(d, kind="stable")] == c)
        for i, ratio in enumerate(ratios):
            take = min(math.ceil(ratio * n_c), hits.size)
            precisions[i, j] = hits[take - 1] / take
    return [100.0 * float(np.mean(row)) for row in precisions]


def retrieval_precision(queries, features, labels, ratio):
    """Mean per-class retrieval precision (%) for one retrieval ratio; see
    retrieval_precisions."""
    return retrieval_precisions(queries, features, labels, [ratio])[0]


@dataclass
class EvalReport:
    top1_unseen: float
    s: float
    u: float
    h: float
    g_acc: float
    ausuc: float
    suc_points: list = field(default_factory=list)
    map_at: dict = field(default_factory=dict)  # ratio percent (25/50/100) -> mAP
