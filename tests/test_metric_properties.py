"""Invariants of the GZSL metrics over kNN vote-fraction score matrices
(each row holds k votes spread over the classes, as knn_scores gives
them), small integer and Gaussian ones, and the calibration sweep's counts
against its definition."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zsgen.metrics import (
    ScoreMatrix, ausuc, calibrated_hits, CalibrationSweep,
    generalized_accuracy, gzsl_suh, predict_labels, suc_curve, top1_per_class,
)


@st.composite
def vote_matrices(draw):
    """(ScoreMatrix of vote fractions, labels) with seen and unseen rows."""
    n_seen, n_unseen = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    ids = draw(st.permutations(range(12)))[:n_seen + n_unseen]
    class_ids = sorted(ids[:n_seen]) + sorted(ids[n_seen:])
    k, n_rows = draw(st.integers(1, 7)), draw(st.integers(2, 24))
    votes = draw(st.lists(st.lists(st.integers(0, len(class_ids) - 1), min_size=k,
                                   max_size=k), min_size=n_rows, max_size=n_rows))
    scores = np.zeros((n_rows, len(class_ids)))
    for row, picks in zip(scores, votes):
        np.add.at(row, picks, 1.0)
    scores /= k
    labels = [draw(st.sampled_from(class_ids)) for _ in range(n_rows)]
    # at least one seen and one unseen query
    labels[0], labels[1] = draw(st.sampled_from(class_ids[:n_seen])), \
        draw(st.sampled_from(class_ids[n_seen:]))
    return ScoreMatrix(scores, class_ids, n_seen), np.array(labels)


def metric_bytes(sm, labels):
    """G_acc, the SUC points, AUSUC (or None with too few points), S, U, H."""
    points = suc_curve(sm, labels)
    area = ausuc(points) if len({x for x, _ in points}) >= 2 else None
    return (generalized_accuracy(sm, labels), np.array(points).tobytes(), area,
            gzsl_suh(sm, labels))


def rows(sm, labels, index):
    return ScoreMatrix(sm.scores[index], sm.class_ids, sm.seen_count), labels[index]


@given(vote_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_permuting_the_query_rows_leaves_every_metric_bitwise(case, random):
    sm, labels = case
    order = list(range(labels.size))
    random.shuffle(order)
    assert metric_bytes(*rows(sm, labels, np.array(order))) == metric_bytes(sm, labels)


@given(vote_matrices(), st.integers(2, 3))
@settings(max_examples=60, deadline=None)
def test_repeating_every_query_row_leaves_every_metric_bitwise(case, times):
    sm, labels = case
    repeated = np.repeat(np.arange(labels.size), times)
    assert metric_bytes(*rows(sm, labels, repeated)) == metric_bytes(sm, labels)


@given(vote_matrices())
@settings(max_examples=60, deadline=None)
def test_ausuc_lies_in_the_unit_interval(case):
    points = suc_curve(*case)
    assume(len({x for x, _ in points}) >= 2)
    assert 0.0 <= ausuc(points) <= 1.0


@given(vote_matrices())
@settings(max_examples=60, deadline=None)
def test_harmonic_mean_lies_between_seen_and_unseen_accuracy(case):
    s, u, h = gzsl_suh(*case)
    assert min(s, u) <= h <= max(s, u)


def test_harmonic_mean_of_equal_accuracies_is_that_accuracy():
    # 7 of 12 queries right in one seen and one unseen class: S = U = 700/12,
    # where 2SU / (S + U) rounds one ulp below both
    scores = np.array([[1.0, 0.0]] * 7 + [[0.0, 1.0]] * 5 + [[0.0, 1.0]] * 7
                      + [[1.0, 0.0]] * 5)
    labels = np.array([0] * 12 + [1] * 12)
    s, u, h = gzsl_suh(ScoreMatrix(scores, [0, 1], 1), labels)
    assert s == u == 700.0 / 12.0 and h == s


@st.composite
def integer_matrices(draw):
    """(ScoreMatrix of small integer scores, labels) with seen and unseen
    rows: ties within a row, and with the seen maximum after a sweep shift,
    are common."""
    n_seen, n_unseen = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    ids = draw(st.permutations(range(12)))[:n_seen + n_unseen]
    class_ids = sorted(ids[:n_seen]) + sorted(ids[n_seen:])
    n_rows = draw(st.integers(2, 24))
    scores = draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(class_ids),
                                    max_size=len(class_ids)),
                           min_size=n_rows, max_size=n_rows))
    labels = [draw(st.sampled_from(class_ids)) for _ in range(n_rows)]
    labels[0], labels[1] = draw(st.sampled_from(class_ids[:n_seen])), \
        draw(st.sampled_from(class_ids[n_seen:]))
    return ScoreMatrix(np.array(scores, dtype=np.float64), class_ids, n_seen), np.array(labels)


@given(integer_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_permuting_the_rows_of_an_integer_matrix_leaves_every_metric_bitwise(case, random):
    sm, labels = case
    order = list(range(labels.size))
    random.shuffle(order)
    assert metric_bytes(*rows(sm, labels, np.array(order))) == metric_bytes(sm, labels)


@given(integer_matrices(), st.integers(2, 3))
@settings(max_examples=40, deadline=None)
def test_repeating_every_row_of_an_integer_matrix_leaves_every_metric_bitwise(case, times):
    sm, labels = case
    repeated = np.repeat(np.arange(labels.size), times)
    assert metric_bytes(*rows(sm, labels, repeated)) == metric_bytes(sm, labels)


@given(integer_matrices())
@settings(max_examples=40, deadline=None)
def test_ausuc_of_an_integer_matrix_lies_in_the_unit_interval(case):
    points = suc_curve(*case)
    assume(len({x for x, _ in points}) >= 2)
    assert 0.0 <= ausuc(points) <= 1.0


@given(integer_matrices())
@settings(max_examples=40, deadline=None)
def test_harmonic_mean_of_an_integer_matrix_lies_between_seen_and_unseen(case):
    s, u, h = gzsl_suh(*case)
    assert min(s, u) <= h <= max(s, u)


def all_metric_bytes(sm, labels):
    """metric_bytes, with the per-class top-1 over all the columns and over
    the unseen block for the unseen-class rows."""
    unseen = np.isin(labels, sm.unseen_ids)
    return metric_bytes(sm, labels) + (
        top1_per_class(sm.scores, sm.class_ids, labels),
        top1_per_class(sm.scores[unseen][:, sm.seen_count:], sm.unseen_ids, labels[unseen]))


@given(st.one_of(vote_matrices(), integer_matrices()),
       st.lists(st.integers(0, 10 ** 6), min_size=12, max_size=12, unique=True))
@settings(max_examples=60, deadline=None)
def test_an_order_preserving_relabelling_of_class_ids_leaves_every_metric_bitwise(case,
                                                                                  targets):
    # ties go to the smallest id, so only a map that keeps the ids' order
    # may leave the predictions, and with them every metric, as they were
    sm, labels = case
    new_id = dict(zip(range(12), sorted(targets)))   # ids are drawn from 0..11
    relabelled = ScoreMatrix(sm.scores, [new_id[c] for c in sm.class_ids.tolist()],
                             sm.seen_count)
    new_labels = np.array([new_id[c] for c in labels.tolist()])
    assert all_metric_bytes(relabelled, new_labels) == all_metric_bytes(sm, labels)


# The calibration sweep's counts against the definition, calibrated
# stacking (Chao et al., 2016): lambda added to the unseen block cannot
# reorder it, so at each point the row's unseen maximum plus lambda, under
# its unseen argmax's id, meets the seen block in one argmax, ties to the
# smallest id, one sweep point at a time.

def defined_predictions(sm, lams):
    """(L, N) predict_labels, point by point, of the seen block beside one
    unseen column: each row's unseen maximum plus lambda in its unseen
    argmax's column, and -inf, which loses to every finite seen score, in
    the others."""
    s = sm.seen_count
    unseen = sm.scores[:, s:]
    top = unseen.max(axis=1)
    top_col = np.argmax(sm.unseen_ids == predict_labels(unseen, sm.unseen_ids)[:, None],
                        axis=1)
    stacked = np.full_like(sm.scores, -np.inf)
    stacked[:, :s] = sm.scores[:, :s]
    pred = np.empty((len(lams), sm.scores.shape[0]), dtype=np.int64)
    with np.errstate(over="ignore"):
        for i, lam in enumerate(lams):
            stacked[np.arange(top.size), s + top_col] = top + lam
            pred[i] = predict_labels(stacked, sm.class_ids)
    return pred


def shifted_predictions(sm, lams):
    """(L, N) predict_labels of all the scores with lambda added to the
    unseen block, point by point."""
    pred = np.empty((len(lams), sm.scores.shape[0]), dtype=np.int64)
    for i, lam in enumerate(lams):
        shifted = sm.scores.copy()
        shifted[:, sm.seen_count:] += lam
        pred[i] = predict_labels(shifted, sm.class_ids)
    return pred


def per_class_hits(pred, labels):
    """(L, C) right predictions per point and class, classes in id order."""
    return np.stack([(pred[:, labels == c] == c).sum(axis=1) for c in np.unique(labels)],
                    axis=1)


@st.composite
def gaussian_matrices(draw, min_classes=1):
    """(ScoreMatrix of Gaussian scores, labels) with up to 12 classes a
    block, ids unsorted within the blocks, and 1 to 10 rows of every class:
    a mean over more than 8 classes of such fractions sums pairwise, in
    another order than one class after another. Some rows hold unseen
    scores a few ulps apart, which adding lambda can round onto one value,
    and some rows one unseen score in every column."""
    n_seen, n_unseen = (draw(st.integers(min_classes, 12)) for _ in range(2))
    class_ids = draw(st.permutations(range(30)))[:n_seen + n_unseen]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    labels = rng.permutation(np.repeat(class_ids, rng.integers(1, 11, size=len(class_ids))))
    scale = draw(st.sampled_from([0.01, 0.7, 3.0]))
    scores = rng.normal(0.0, scale, size=(labels.size, len(class_ids)))
    unseen = scores[:, n_seen:]
    ties = rng.random(labels.size) < 0.3
    unseen[ties] = unseen[ties, :1]
    steps = rng.integers(-2, 3, size=unseen.shape) * (rng.random(labels.size) < 0.5)[:, None]
    for direction in (np.inf, -np.inf):
        for _ in range(2):
            move = steps > 0 if direction > 0 else steps < 0
            unseen[move] = np.nextafter(unseen[move], direction)
            steps = np.where(move, steps - np.sign(steps), steps)
    return ScoreMatrix(scores, class_ids, n_seen), labels


BIG = np.finfo(np.float64).max

sweep_points = st.one_of(
    st.just(CalibrationSweep().values()),
    st.permutations(CalibrationSweep(-1.0, 1.0, 0.05).values().tolist()),
    st.lists(st.sampled_from([-0.5, 0.0, -0.0, 0.25, 0.5]), min_size=2, max_size=12),
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=1),
    # sums that overflow to +-inf, where columns merge
    st.lists(st.sampled_from([-BIG, -1.5e308, -1.0, 0.0, 1e-300, 1e308, BIG]),
             min_size=1, max_size=8),
    st.lists(st.floats(allow_nan=False), min_size=1, max_size=8),
).map(lambda lams: np.array(lams, dtype=np.float64))

any_matrix = st.one_of(vote_matrices(), integer_matrices(), gaussian_matrices())


@given(any_matrix, sweep_points)
@settings(max_examples=150, deadline=None)
def test_the_sweep_counts_are_the_per_class_hits_of_the_defined_predictions(case, lams):
    sm, labels = case
    want = defined_predictions(sm, lams)
    hits = calibrated_hits(sm, labels, lams)
    assert hits.dtype == np.int64 and hits.flags.c_contiguous
    assert np.array_equal(hits, per_class_hits(want, labels))


@given(st.one_of(vote_matrices(), integer_matrices()))
@settings(max_examples=60, deadline=None)
def test_on_votes_and_integers_the_sweep_counts_are_those_of_the_shifted_argmax(case):
    # the program's scores are vote fractions v/k, at least 1/k apart: at
    # the default sweep no sum rounds two unseen scores onto one, and the
    # argmax of every shifted score is the stacking rule's prediction
    sm, labels = case
    lams = CalibrationSweep().values()
    assert np.array_equal(calibrated_hits(sm, labels, lams),
                          per_class_hits(shifted_predictions(sm, lams), labels))


def assert_sweep_metrics_are_the_defined_ones(sm, labels, lams):
    classes, sizes = np.unique(labels, return_counts=True)
    seen, unseen = np.isin(classes, sm.seen_ids), np.isin(classes, sm.unseen_ids)

    def class_mean(hits, group):
        """Per-class top-1 (%) over the group's classes, as one 1-d mean."""
        return 100.0 * np.mean(hits[group] / sizes[group])

    want = per_class_hits(defined_predictions(sm, lams), labels)
    total = 0.0
    for hits in want:
        total += hits.sum() / labels.size
    counts = calibrated_hits(sm, labels, lams)
    assert generalized_accuracy(sm, labels, counts=counts) == 100.0 * total / len(lams)
    assert suc_curve(sm, labels, counts=counts) == sorted(
        {(class_mean(hits, unseen) / 100.0, class_mean(hits, seen) / 100.0) for hits in want})
    at_zero = per_class_hits(defined_predictions(sm, [0.0]), labels)[0]
    assert gzsl_suh(sm, labels)[:2] == (class_mean(at_zero, seen), class_mean(at_zero, unseen))
    # evaluate_model forms lambda = 0 after the sweep's points in one call
    with_zero = calibrated_hits(sm, labels, np.append(lams, 0.0))
    assert np.array_equal(with_zero[:-1], counts)
    assert gzsl_suh(sm, labels, counts=with_zero[-1:]) == gzsl_suh(sm, labels)


@given(any_matrix, sweep_points.filter(lambda lams: np.isfinite(lams).all()))
@settings(max_examples=100, deadline=None)
def test_the_sweep_metrics_from_counts_are_the_defined_ones_bitwise(case, lams):
    assert_sweep_metrics_are_the_defined_ones(*case, lams)


@given(gaussian_matrices(min_classes=9))
@settings(max_examples=20, deadline=None)
def test_the_sweep_metrics_over_many_classes_are_the_defined_ones_bitwise(case):
    # more than 8 classes a block: the per-class means sum pairwise
    assert_sweep_metrics_are_the_defined_ones(*case, CalibrationSweep().values())


@given(st.one_of(vote_matrices(), integer_matrices()))
@settings(max_examples=60, deadline=None)
def test_a_sweep_that_flips_every_row_ends_at_the_seen_only_and_unseen_only_top1(case):
    # scores lie in [-3, 3], so lambda = -8 puts every row on its seen
    # argmax and lambda = 7.5 on its unseen one (Chao et al., 2016)
    sm, labels = case
    points = suc_curve(sm, labels, counts=calibrated_hits(
        sm, labels, CalibrationSweep(-8.0, 8.0, 0.5).values()))
    seen, unseen = np.isin(labels, sm.seen_ids), np.isin(labels, sm.unseen_ids)
    seen_only = top1_per_class(sm.scores[seen][:, :sm.seen_count], sm.seen_ids,
                               labels[seen]) / 100.0
    unseen_only = top1_per_class(sm.scores[unseen][:, sm.seen_count:], sm.unseen_ids,
                                 labels[unseen]) / 100.0
    assert (0.0, seen_only) in points and (unseen_only, 0.0) in points
    assert all(0.0 <= x <= unseen_only and 0.0 <= y <= seen_only for x, y in points)
