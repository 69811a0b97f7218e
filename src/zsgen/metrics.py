"""Evaluation mathematics: per-class top-1, calibrated generalized accuracy,
seen-unseen curves with their area, GZSL harmonic mean, retrieval precision.

Score matrices have one column per class, seen classes first then the
unseen block, each block in ascending class-id order. Argmax ties always
go to the smallest class id.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import bounded, check_bounds, check_distinct
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
        check_distinct(self.class_ids.tolist(), "has more than one score column")
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


def _labels(labels, rows):
    """labels as int64, which must hold one label per score row."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ConfigError("no samples to evaluate")
    if labels.shape != (rows,):
        raise UsageError(f"{labels.size} labels for {rows} score rows")
    return labels


def top1_per_class(scores, class_ids, labels):
    """Average per-class top-1 accuracy (%), argmax over the given columns."""
    labels = _labels(labels, len(scores))
    missing = set(labels.tolist()) - set(np.asarray(class_ids).tolist())
    if missing:
        raise ConfigError(f"labels outside the class set: {sorted(missing)}")
    correct = predict_labels(scores, class_ids) == labels
    return float(_per_class_accuracy(correct[None, :], labels)[0])


# cap on the temporaries of one chunk of sweep points, which share it with
# the vectors of one value per row that the sweep holds through its chunks;
# the set-up before the chunks (the block maxima, the near-tie test and the
# fallback rows' copy) is not capped and scales with N*(s + u). A whole
# evaluation at the acceptance shapes holds about 7 MB of arrays at its peak
# (the kNN), and the sweep stays under that so it does not raise the peak
_SWEEP_CHUNK_BYTES = 1 << 20


def calibrated_predictions(sm, lams):
    """Calibrated argmax of every row at every sweep point, shape (L, N).

    Row i at point l is predict_labels of the scores with lams[l] added to
    every unseen column. The seen block does not move, so its maximum and
    smallest tied id are taken once. Rounding is monotone, so fl(x + lam)
    is monotone in x, and the largest shifted unseen score is fl(m + lam)
    for the row's unseen maximum m: one add per row and point, O(L*N) in
    all, and the winner there is the smallest id tied at m. Adding lam can
    still round a smaller score onto that sum, a tie the plain scores do
    not have, and a column with a smaller id would then win it. Two sums
    of magnitude at most B = |m| + max|lam| round to one value only if the
    scores lie within spacing(B) of each other, so a row with such a
    column that close to m, or whose B is not finite, takes the argmax of
    its shifted unseen scores at every point instead.
    """
    lams = np.asarray(lams, dtype=np.float64)
    s = sm.seen_count
    seen, unseen = sm.scores[:, :s], sm.scores[:, s:]
    n, u = unseen.shape
    seen_max, seen_pred = seen.max(axis=1), predict_labels(seen, sm.seen_ids)
    top, top_ids = unseen.max(axis=1), predict_labels(unseen, sm.unseen_ids)
    with np.errstate(over="ignore"):  # a bound or gap past the float range
        bound = np.spacing(np.abs(top) + np.abs(lams).max(initial=0.0))
        near = (top[:, None] - unseen <= bound[:, None]) & (sm.unseen_ids < top_ids[:, None])
    slow = np.flatnonzero(near.any(axis=1) | ~np.isfinite(bound))
    del near  # not held through the chunks
    # the unseen maximum wins past the seen one, and at a tie when its id
    # is the smaller: where fl(top + lam) >= thresh
    thresh = np.where(top_ids < seen_pred, seen_max, np.nextafter(seen_max, np.inf))
    pred = np.empty((lams.size, n), dtype=np.int64)
    # held until the end: seven vectors of one value per row, and numpy's
    # buffers for a broadcast operation (under 128 KB)
    spare = _SWEEP_CHUNK_BYTES - 8 * 7 * n - (1 << 17)
    # per sweep point: n sums and n flags
    step = max(1, spare // (9 * max(1, n)))
    for a in range(0, lams.size, step):
        out = pred[a:a + step]
        np.copyto(out, seen_pred)
        np.copyto(out, top_ids, where=top + lams[a:a + step, None] >= thresh)
    if slow.size == 0:
        return pred
    order = np.argsort(sm.unseen_ids, kind="stable")
    unseen = unseen[np.ix_(slow, order)]  # the slow rows, columns in id order
    seen_max, seen_pred = seen_max[slow], seen_pred[slow]
    spare -= unseen.nbytes + seen_max.nbytes + seen_pred.nbytes
    # per sweep point: the slow rows' u sums and at most seven arrays of
    # one value per slow row
    step = max(1, spare // (8 * slow.size * (u + 7)))
    for a in range(0, lams.size, step):
        pred[a:a + step, slow] = _argmax_calibrated(
            unseen, sm.unseen_ids[order], seen_max, seen_pred, lams[a:a + step])
    return pred


def _argmax_calibrated(unseen, unseen_ids, seen_max, seen_pred, lams):
    """calibrated_predictions at the points lams from the first argmax of
    every row's shifted unseen scores, columns in id order; the arrays go
    when it returns, before the next chunk's are made."""
    shifted = unseen[None, :, :] + lams[:, None, None]
    j = shifted.argmax(axis=2)
    best = np.take_along_axis(shifted, j[:, :, None], axis=2)[:, :, 0]
    ids = unseen_ids[j]
    return np.where(
        best > seen_max, ids,
        np.where(best < seen_max, seen_pred, np.minimum(ids, seen_pred)),
    )


def generalized_accuracy(sm, labels, *, predictions=None):
    """Mean over the calibration sweep of plain sample accuracy (%).

    Each sweep point adds lambda to every unseen-class column before the
    argmax over all classes. predictions is calibrated_predictions(sm,
    sweep.values()) for the sweep to average over, which evaluate_model
    forms once for both this and suc_curve; without it, the default
    CalibrationSweep's are formed here.
    """
    labels = _labels(labels, sm.scores.shape[0])
    if predictions is None:
        predictions = calibrated_predictions(sm, CalibrationSweep().values())
    hits = (predictions == labels).sum(axis=1)
    # running sum in sweep order: the same float total as adding point by point
    total = float(np.add.accumulate(hits / labels.size)[-1])
    return 100.0 * total / hits.size


def suc_curve(sm, labels, *, predictions=None):
    """Seen-unseen accuracy curve over the calibration sweep.

    Returns deduplicated (acc_unseen, acc_seen) fraction pairs sorted by
    acc_unseen ascending. predictions is as in generalized_accuracy.
    """
    labels = _labels(labels, sm.scores.shape[0])
    is_seen = np.isin(labels, sm.seen_ids)
    is_unseen = np.isin(labels, sm.unseen_ids)
    if not is_seen.any() or not is_unseen.any():
        raise ConfigError("SUC curve needs both seen and unseen test samples")
    if predictions is None:
        predictions = calibrated_predictions(sm, CalibrationSweep().values())
    correct = predictions == labels
    del predictions  # when formed here, not held through the per-class means
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
    labels = _labels(labels, sm.scores.shape[0])
    pred = predict_labels(sm.scores, sm.class_ids)
    is_seen = np.isin(labels, sm.seen_ids)
    is_unseen = np.isin(labels, sm.unseen_ids)
    if not is_seen.any() or not is_unseen.any():
        raise ConfigError("GZSL evaluation needs both seen and unseen test samples")
    correct = (pred == labels)[None, :]
    s = float(_per_class_accuracy(correct[:, is_seen], labels[is_seen])[0])
    u = float(_per_class_accuracy(correct[:, is_unseen], labels[is_unseen])[0])
    h = 0.0 if s + u == 0.0 else 2.0 * s * u / (s + u)
    # rounding can put 2su / (s + u) an ulp outside [min, max], as at s = u = 700/12
    return s, u, min(max(h, min(s, u)), max(s, u))


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
