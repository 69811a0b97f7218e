"""Evaluation mathematics: per-class top-1, calibrated generalized accuracy,
seen-unseen curves with their area, GZSL harmonic mean, retrieval precision.

Score matrices have one column per class, seen classes first then the
unseen block, each block in ascending class-id order. Argmax ties always
go to the smallest class id.

The calibration sweep adds lambda to every unseen column, so at each point
a row predicts its unseen argmax, shifted by lambda, or its seen argmax,
whichever is larger (a tie to the smaller id). The sweep is counted, not
formed: calibrated_hits finds each row's flip point, the first sweep point
at which its unseen argmax wins, and from the flip points counts the right
predictions per point and class in O(N log L + L*C) for N rows, L points
and C classes. G_acc, the SUC curve and (at lambda = 0) S, U and H read
those counts.
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
# the evaluation holds a (points x classes) array of hit counts
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


def _class_accuracy(hits, sizes):
    """Mean over the classes of per-class top-1 (%) for every row of hits, an
    (L, C) count of the right predictions among each class's sizes[c] rows;
    (L,). The mean runs down C-contiguous rows: a gather of columns is
    F-ordered, and numpy would sum its rows in another order."""
    return 100.0 * (np.ascontiguousarray(hits) / sizes).mean(axis=1)


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
    classes, cls, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    hits = np.bincount(cls[correct], minlength=classes.size)
    return float(_class_accuracy(hits[None, :], sizes)[0])


def calibrated_hits(sm, labels, lams):
    """Right calibrated predictions per sweep point and class, shape (L, C).

    hits[l, c] counts the rows labelled classes[c], for classes =
    np.unique(labels), whose calibrated prediction at lams[l] is their
    label. Calibrated stacking (Chao et al., 2016) adds lambda to every
    unseen column, which cannot reorder the unseen block, so a row
    predicts its unseen argmax where fl(m + lambda), for its unseen maximum
    m, beats its seen maximum, or ties it and the unseen argmax has the
    smaller id; elsewhere its seen argmax.

    fl(m + lambda) is monotone in lambda, so a row predicts its seen argmax
    up to one point, its flip point, and its unseen argmax from there.
    flip[i] is that point's place among the points in ascending order (L
    when there is none), found by a binary search of log2 L passes over the
    rows; rank[l] is lams[l]'s place in that order. A row is right before
    its flip point (its seen argmax is its label), from it (its unseen
    argmax is), or never, so one bincount over (flip point, class) and a
    running sum down the points in ascending order count every row in
    O(N log L + L*C), with no (L, N) array.
    """
    labels = _labels(labels, sm.scores.shape[0])
    lams = np.asarray(lams, dtype=np.float64)
    if np.isnan(lams).any():
        raise UsageError("calibration sweep points must not be NaN")
    s = sm.seen_count
    seen, unseen = sm.scores[:, :s], sm.scores[:, s:]
    seen_max, seen_pred = seen.max(axis=1), predict_labels(seen, sm.seen_ids)
    top, top_ids = unseen.max(axis=1), predict_labels(unseen, sm.unseen_ids)
    # the unseen maximum wins past the seen one, and at a tie when its id
    # is the smaller: where fl(top + lam) >= thresh
    thresh = np.where(top_ids < seen_pred, seen_max, np.nextafter(seen_max, np.inf))
    order = np.argsort(lams, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(lams.size)
    # the points in ascending order, padded with +inf to a power of two: the
    # predicate holds at every pad, so no probe needs a bounds check
    depth = lams.size.bit_length()
    ascending = np.full(1 << depth, np.inf)
    ascending[:lams.size] = lams[order]
    flip = np.zeros(top.size, dtype=np.int64)
    # a pass moves a row's flip point on by half where the predicate fails
    # at the last point passed; no sum is NaN, so < is its negation
    for half in (1 << k for k in reversed(range(depth))):
        flip += half * (top + ascending[flip + (half - 1)] < thresh)
    classes, cls = np.unique(labels, return_inverse=True)
    c, size = classes.size, (lams.size + 1) * classes.size
    # down the points in ascending order, a row whose unseen argmax is its
    # label turns right at its flip point, one whose seen argmax is turns
    # wrong there
    late, early = top_ids == labels, seen_pred == labels
    at = flip * c + cls
    steps = np.bincount(at[late], minlength=size) - np.bincount(at[early], minlength=size)
    hits = np.cumsum(steps.reshape(-1, c)[:-1], axis=0)
    hits += np.bincount(cls[early], minlength=c)
    return hits[rank]  # in sweep order


def generalized_accuracy(sm, labels, *, counts=None):
    """Mean over the calibration sweep of plain sample accuracy (%).

    Each sweep point adds lambda to every unseen-class column before the
    argmax over all classes. counts is calibrated_hits(sm, labels,
    sweep.values()) for the sweep to average over, which evaluate_model
    forms once for both this and suc_curve; without it, the default
    CalibrationSweep's are formed here.
    """
    labels = _labels(labels, sm.scores.shape[0])
    if counts is None:
        counts = calibrated_hits(sm, labels, CalibrationSweep().values())
    hits = counts.sum(axis=1)
    # running sum in sweep order: the same float total as adding point by point
    total = float(np.add.accumulate(hits / labels.size)[-1])
    return 100.0 * total / hits.size


def _class_groups(sm, labels, metric):
    """The sizes of the classes in labels, in ascending id order (the columns
    of calibrated_hits), and masks over them of the seen and the unseen
    classes, of which metric needs at least one each."""
    classes, sizes = np.unique(labels, return_counts=True)
    seen, unseen = np.isin(classes, sm.seen_ids), np.isin(classes, sm.unseen_ids)
    if not seen.any() or not unseen.any():
        raise ConfigError(f"{metric} needs both seen and unseen test samples")
    return sizes, seen, unseen


def suc_curve(sm, labels, *, counts=None):
    """Seen-unseen accuracy curve over the calibration sweep.

    Returns deduplicated (acc_unseen, acc_seen) fraction pairs sorted by
    acc_unseen ascending. counts is as in generalized_accuracy.
    """
    labels = _labels(labels, sm.scores.shape[0])
    sizes, seen, unseen = _class_groups(sm, labels, "SUC curve")
    if counts is None:
        counts = calibrated_hits(sm, labels, CalibrationSweep().values())
    acc_u = _class_accuracy(counts[:, unseen], sizes[unseen]) / 100.0
    acc_s = _class_accuracy(counts[:, seen], sizes[seen]) / 100.0
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


def gzsl_suh(sm, labels, *, counts=None):
    """Uncalibrated GZSL seen/unseen per-class top-1 and their harmonic mean.

    The calibrated rule at lambda = 0 is the argmax over all columns, ties
    to the smallest id, so S and U are read from counts, calibrated_hits(sm,
    labels, [0.0]); evaluate_model forms that row with the sweep's, and
    without it, it is formed here.
    """
    labels = _labels(labels, sm.scores.shape[0])
    sizes, seen, unseen = _class_groups(sm, labels, "GZSL evaluation")
    hits = calibrated_hits(sm, labels, [0.0]) if counts is None else counts
    s = float(_class_accuracy(hits[:, seen], sizes[seen])[0])
    u = float(_class_accuracy(hits[:, unseen], sizes[unseen])[0])
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
