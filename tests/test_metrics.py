import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsgen.errors import ConfigError, UsageError
from zsgen.metrics import (
    MAX_SWEEP_POINTS, CalibrationSweep, ScoreMatrix, ausuc, calibrated_hits,
    generalized_accuracy, gzsl_suh, predict_labels,
    retrieval_precision, retrieval_precisions, suc_curve, top1_per_class,
)
from test_metric_properties import defined_predictions, shifted_predictions


def test_sweep_grid_is_half_open_400_points():
    values = CalibrationSweep().values()
    assert len(values) == 400
    assert values[0] == -2.0
    assert values[-1] < 2.0
    np.testing.assert_allclose(np.diff(values), 0.01)


@pytest.mark.parametrize("sweep", [(-2.0, 2.0, 10.0), (-2.0, 2.0, 0.0),
                                   (1.0, 1.0, 0.01), (2.0, -2.0, 0.01)])
def test_sweep_without_points_is_rejected(sweep):
    with pytest.raises(ConfigError):
        CalibrationSweep(*sweep)


@pytest.mark.parametrize("sweep, words", [
    ((-2.0, 2.0, 1.0e-300), "step"),                # 4e300 steps
    ((-2.0, 2.0, 1.0e-320), "step"),                # a subnormal step: inf steps
    ((-2.0, 2.0, 4.0 / 10_001), "more than 10000"),
    ((-1.0e308, 1.0e308, 0.01), "lambda_max - lambda_min"),
    ((0, 10 ** 400, 1.0), "float range"),           # integers beyond a float
    ((-2.0, 2.0, 10 ** 400), "float range"),
])
def test_sweep_beyond_its_bounds_is_rejected(sweep, words):
    with pytest.raises(ConfigError, match=words):
        CalibrationSweep(*sweep)


def test_sweep_at_the_point_cap_is_accepted():
    assert len(CalibrationSweep(-2.0, 2.0, 4.0 / MAX_SWEEP_POINTS).values()) == MAX_SWEEP_POINTS


def test_predict_labels_tie_to_smallest_id():
    scores = np.array([[0.5, 0.5, 0.1]])
    assert predict_labels(scores, [7, 3, 9])[0] == 3


def test_top1_all_correct():
    scores = np.eye(3)
    assert top1_per_class(scores, [0, 1, 2], [0, 1, 2]) == 100.0


def test_top1_per_class_mean():
    # class 0: 2/2 correct; class 1: 0/2 -> mean 50
    scores = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    labels = np.array([0, 0, 1, 1])
    assert top1_per_class(scores, [0, 1], labels) == 50.0


def test_top1_uniform_scores_favor_smallest_class():
    scores = np.zeros((6, 3))
    labels = np.array([0, 0, 1, 1, 2, 2])
    np.testing.assert_allclose(
        top1_per_class(scores, [0, 1, 2], labels), 100.0 / 3.0
    )


def test_top1_rejects_foreign_labels():
    with pytest.raises(ConfigError):
        top1_per_class(np.zeros((1, 2)), [0, 1], [5])


def test_score_matrix_repeated_class_id_rejected():
    with pytest.raises(ConfigError, match="class 0 "):
        ScoreMatrix([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0]], [0, 1, 0], seen_count=2)


def test_top1_argmax_shift_invariance():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=(20, 4))
    labels = rng.integers(0, 4, size=20)
    a = top1_per_class(scores, [0, 1, 2, 3], labels)
    b = top1_per_class(scores + 3.7, [0, 1, 2, 3], labels)
    assert a == b


def test_generalized_accuracy_margin_dominates_sweep():
    # true class beats the rest by more than the sweep width everywhere
    scores = np.array([[10.0, 0.0], [0.0, 10.0]])
    sm = ScoreMatrix(scores, np.array([0, 1]), seen_count=1)
    assert generalized_accuracy(sm, np.array([0, 1])) == 100.0


def test_generalized_accuracy_tie_case_is_half():
    # one seen-class sample scoring 1.0 vs 1.0; seen id larger than the
    # unseen id, so the lambda = 0 tie resolves against it: correct
    # exactly when lambda < 0, i.e. 200 of the 400 sweep points
    sm = ScoreMatrix(np.array([[1.0, 1.0]]), np.array([1, 0]), seen_count=1)
    g = generalized_accuracy(sm, np.array([1]))
    assert abs(g - 50.0) < 1e-9


def test_generalized_accuracy_counts_match_brute_force():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=(10, 4))
    class_ids = np.array([2, 5, 1, 7])
    labels = class_ids[rng.integers(0, 4, size=10)]
    sm = ScoreMatrix(scores, class_ids, seen_count=2)
    sweep = CalibrationSweep(-1.0, 1.0, 0.5)
    total = 0.0
    for lam in (-1.0, -0.5, 0.0, 0.5):
        adj = scores.copy()
        adj[:, 2:] += lam
        pred = predict_labels(adj, class_ids)
        total += (pred == labels).mean()
    np.testing.assert_allclose(
        generalized_accuracy(sm, labels, counts=calibrated_hits(sm, labels, sweep.values())),
        100.0 * total / 4.0,
    )


def test_suc_curve_hits_both_extremes_on_separable_scores():
    scores = np.array([[5.0, 0.0], [0.0, 5.0]])
    sm = ScoreMatrix(scores, np.array([0, 1]), seen_count=1)
    counts = calibrated_hits(sm, np.array([0, 1]), CalibrationSweep(-10.0, 10.0, 0.5).values())
    points = suc_curve(sm, np.array([0, 1]), counts=counts)
    assert (0.0, 1.0) in points  # huge negative lambda: everything seen
    assert (1.0, 0.0) in points  # huge positive lambda: everything unseen
    assert (1.0, 1.0) in points  # balanced region classifies both


def test_suc_curve_needs_both_groups():
    sm = ScoreMatrix(np.zeros((2, 2)), np.array([0, 1]), seen_count=1)
    with pytest.raises(ConfigError):
        suc_curve(sm, np.array([0, 0]))


def test_ausuc_triangle():
    assert ausuc([(0.0, 1.0), (1.0, 0.0)]) == 0.5


def test_ausuc_square():
    assert ausuc([(0.0, 1.0), (1.0, 1.0)]) == 1.0


def test_ausuc_hand_trapezoids():
    pts = [(0.0, 0.8), (0.5, 0.6), (1.0, 0.2)]
    np.testing.assert_allclose(ausuc(pts), 0.55)


def test_ausuc_order_invariant():
    pts = [(0.3, 0.5), (0.0, 1.0), (1.0, 0.1), (0.7, 0.2)]
    assert ausuc(pts) == ausuc(list(reversed(pts)))


@pytest.mark.parametrize("shared", [[(0.5, 0.25), (0.5, 0.75)], [(0.5, 0.75), (0.5, 0.25)]],
                         ids=["lower-first", "upper-first"])
def test_ausuc_integrates_the_upper_envelope_where_points_share_an_unseen_accuracy(shared):
    # at unseen accuracy 0.5 only seen accuracy 0.75 is on the curve:
    # 0.5 * (1 + 0.75) / 2 + 0.5 * (0.75 + 0) / 2, where the lower point gives 0.375
    assert ausuc([(0.0, 1.0), *shared, (1.0, 0.0)]) == 0.625


def test_ausuc_needs_two_points():
    with pytest.raises(UsageError):
        ausuc([(0.0, 1.0)])


def test_gzsl_perfect():
    scores = np.eye(4)
    sm = ScoreMatrix(scores, np.array([0, 1, 2, 3]), seen_count=2)
    s, u, h = gzsl_suh(sm, np.array([0, 1, 2, 3]))
    assert (s, u, h) == (100.0, 100.0, 100.0)


def test_gzsl_zero_unseen_zeroes_harmonic_mean():
    scores = np.array([[1.0, 0.0], [1.0, 0.0]])
    sm = ScoreMatrix(scores, np.array([0, 1]), seen_count=1)
    s, u, h = gzsl_suh(sm, np.array([0, 1]))
    assert s == 100.0 and u == 0.0 and h == 0.0


def test_harmonic_mean_60_30_is_40():
    # 5 seen samples with 3 correct (S=60), 10 unseen with 3 correct (U=30)
    rows = []
    labels = []
    for i in range(5):
        rows.append([1.0, 0.0] if i < 3 else [0.0, 1.0])
        labels.append(0)
    for i in range(10):
        rows.append([0.0, 1.0] if i < 3 else [1.0, 0.0])
        labels.append(1)
    sm = ScoreMatrix(np.array(rows), np.array([0, 1]), seen_count=1)
    s, u, h = gzsl_suh(sm, np.array(labels))
    assert (s, u) == (60.0, 30.0)
    np.testing.assert_allclose(h, 40.0)


@given(st.floats(0.01, 100.0), st.floats(0.01, 100.0))
@settings(max_examples=50, deadline=None)
def test_harmonic_mean_bounds(s, u):
    h = 2.0 * s * u / (s + u)
    assert h <= (s + u) / 2.0 + 1e-9
    assert h <= 2.0 * min(s, u) + 1e-9


def test_retrieval_perfect_separation():
    features = np.vstack([np.zeros((4, 2)), np.full((4, 2), 10.0)])
    labels = np.array([0] * 4 + [1] * 4)
    queries = {0: np.zeros(2), 1: np.full(2, 10.0)}
    assert retrieval_precision(queries, features, labels, 1.0) == 100.0


def test_retrieval_ceiling_arithmetic():
    # 4 images per class, ratio 0.25 -> exactly 1 retrieved
    features = np.array([[0.0], [1.0], [2.0], [3.0], [10.0]])
    labels = np.array([0, 0, 0, 0, 1])
    queries = {0: np.array([0.0])}
    assert retrieval_precision(queries, features, labels, 0.25) == 100.0


def test_retrieval_matches_brute_force():
    rng = np.random.default_rng(2)
    features = rng.normal(size=(15, 3))
    labels = rng.integers(0, 3, size=15)
    labels[:3] = [0, 1, 2]  # every class present
    queries = {c: rng.normal(size=3) for c in range(3)}
    for ratio in (0.25, 0.5, 1.0):
        got = retrieval_precision(queries, features, labels, ratio)
        precisions = []
        for c in range(3):
            n_c = int((labels == c).sum())
            d = [(np.linalg.norm(features[i] - queries[c]), i) for i in range(15)]
            d.sort()
            take = math.ceil(ratio * n_c)
            hits = sum(labels[i] == c for _, i in d[:take])
            precisions.append(hits / take)
        np.testing.assert_allclose(got, 100.0 * np.mean(precisions))


def _sorted_per_ratio_retrieval(queries, features, labels, ratio):
    """Oracle: one stable sort per class and ratio, precision as a mean."""
    precisions = []
    for c, query in sorted(queries.items()):
        d = np.linalg.norm(features - query[None, :], axis=1)
        take = math.ceil(ratio * int((labels == c).sum()))
        precisions.append(float((labels[np.argsort(d, kind="stable")[:take]] == c).mean()))
    return 100.0 * float(np.mean(precisions))


def test_retrieval_precisions_rank_once_and_match_the_per_ratio_oracle():
    rng = np.random.default_rng(6)
    for grid in (False, True):
        if grid:  # a 3x3 grid: many features at one distance from a query
            features = rng.integers(0, 3, size=(60, 2)).astype(np.float64)
        else:
            features = rng.normal(size=(60, 4))
        labels = rng.choice([4, 0, 7, 2, 9], size=60)
        labels[:5] = [4, 0, 7, 2, 9]
        queries = {c: features[rng.integers(60)] + (0 if grid else 0.1)
                   for c in (9, 0, 4, 7, 2)}
        ratios = [0.25, 0.5, 1.0, 0.3, 0.01, 10.0]  # 10.0 retrieves every feature
        got = retrieval_precisions(queries, features, labels, ratios)
        want = [_sorted_per_ratio_retrieval(queries, features, labels, r) for r in ratios]
        assert got == want
        assert [retrieval_precision(queries, features, labels, r) for r in ratios] == want


@pytest.mark.parametrize("ratio", [0.0, -0.5, float("nan")])
def test_retrieval_rejects_non_positive_ratio(ratio):
    with pytest.raises(UsageError):
        retrieval_precision({0: np.zeros(2)}, np.ones((3, 2)), np.array([0, 0, 1]), ratio)


def test_retrieval_rejects_empty_class():
    with pytest.raises(ConfigError):
        retrieval_precision({0: np.zeros(2)}, np.ones((3, 2)),
                            np.array([1, 1, 1]), 1.0)


def test_score_matrix_validation():
    with pytest.raises(ConfigError):
        ScoreMatrix(np.zeros((1, 2)), np.array([0, 1]), seen_count=2)
    with pytest.raises(ConfigError):
        ScoreMatrix(np.zeros((1, 3)), np.array([0, 1]), seen_count=1)
    with pytest.raises(ConfigError):
        ScoreMatrix(np.full((1, 2), np.inf), np.array([0, 1]), seen_count=1)


# Oracles: the calibration sweep as one argmax per sweep point of the seen
# block beside the row's shifted unseen maximum (defined_predictions), and
# per-class accuracy as one mean per class.

def _oracle_hits(sm, labels, lams):
    """calibrated_hits as one count per class of the oracle's right predictions."""
    right = defined_predictions(sm, lams) == labels
    return np.stack([right[:, labels == c].sum(axis=1) for c in np.unique(labels)], axis=1)


def _assert_hits_match_oracle(sm, labels, lams):
    """calibrated_hits against the oracle for labels, and for every row
    labelled its unseen argmax, which counts the rows that predict it."""
    for want in (predict_labels(sm.scores[:, sm.seen_count:], sm.unseen_ids), labels):
        got = calibrated_hits(sm, want, lams)
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert np.array_equal(got, _oracle_hits(sm, want, lams))
    return got


def _loop_per_class_accuracy(predicted, labels):
    accs = [float((predicted[labels == c] == c).mean()) for c in np.unique(labels)]
    return 100.0 * float(np.mean(accs))


def _loop_generalized_accuracy(pred, labels):
    total = 0.0
    for at_point in pred:
        total += float((at_point == labels).mean())
    return 100.0 * total / len(pred)


def _loop_suc_curve(sm, pred, labels):
    is_seen = np.isin(labels, sm.seen_ids)
    is_unseen = np.isin(labels, sm.unseen_ids)
    points = set()
    for at_point in pred:
        acc_u = _loop_per_class_accuracy(at_point[is_unseen], labels[is_unseen]) / 100.0
        acc_s = _loop_per_class_accuracy(at_point[is_seen], labels[is_seen]) / 100.0
        points.add((acc_u, acc_s))
    return sorted(points)


def _assert_sweep_matches_oracle(sm, labels):
    lams = CalibrationSweep().values()
    pred = defined_predictions(sm, lams)
    g_acc = _loop_generalized_accuracy(pred, labels)
    points = _loop_suc_curve(sm, pred, labels)
    assert generalized_accuracy(sm, labels) == g_acc
    assert suc_curve(sm, labels) == points
    # the counts formed once serve both, as evaluate_model passes them
    counts = _assert_hits_match_oracle(sm, labels, lams)
    assert generalized_accuracy(sm, labels, counts=counts) == g_acc
    assert suc_curve(sm, labels, counts=counts) == points
    pred = predict_labels(sm.scores, sm.class_ids)
    is_seen = np.isin(labels, sm.seen_ids)
    is_unseen = np.isin(labels, sm.unseen_ids)
    assert gzsl_suh(sm, labels)[:2] == (
        _loop_per_class_accuracy(pred[is_seen], labels[is_seen]),
        _loop_per_class_accuracy(pred[is_unseen], labels[is_unseen]),
    )
    assert top1_per_class(sm.scores, sm.class_ids, labels) == (
        _loop_per_class_accuracy(pred, labels))


def test_sweep_matches_oracle_on_random_scores():
    rng = np.random.default_rng(3)
    # over 128 classes in the seen group: the per-class mean sums pairwise
    class_ids = rng.permutation(300)  # unsorted within both blocks
    scores = rng.normal(0.0, 0.7, size=(700, 300))
    labels = class_ids[rng.integers(0, 300, size=700)]
    _assert_sweep_matches_oracle(ScoreMatrix(scores, class_ids, seen_count=160), labels)


@pytest.mark.parametrize("k", [1, 3, 20])
def test_sweep_matches_oracle_on_vote_fractions(k):
    # vote fractions on the 0.01 sweep grid: exact ties at many points
    rng = np.random.default_rng(k)
    class_ids = np.array([0, 2, 4, 6, 8, 1, 3, 5, 7])  # seen and unseen ids interleave
    votes = rng.multinomial(k, np.full(9, 1.0 / 9), size=200)
    labels = class_ids[rng.integers(0, 9, size=200)]
    _assert_sweep_matches_oracle(ScoreMatrix(votes / k, class_ids, seen_count=5), labels)


def test_sweep_matches_oracle_on_integer_scores():
    rng = np.random.default_rng(4)
    class_ids = np.array([9, 4, 7, 1, 8, 2])
    scores = rng.integers(-2, 3, size=(150, 6)).astype(np.float64)
    labels = class_ids[rng.integers(0, 6, size=150)]
    _assert_sweep_matches_oracle(ScoreMatrix(scores, class_ids, seen_count=3), labels)


def test_sweep_matches_oracle_when_adding_lambda_makes_unseen_ties():
    lams = CalibrationSweep().values()
    a = 0.1
    b = np.nextafter(a, 1.0)
    # a and b one ulp apart, rounded to one value for part of the sweep only
    merged = (a + lams) == (b + lams)
    assert merged.any() and not merged.all()
    # unseen ids 1 (score a) and 3 (score b): the shift does not reorder the
    # unseen block, so b's id 3 wins row 0 at every point, where the argmax
    # of the rounded sums would give the merged points to the smaller id
    rows = [[-10.0, a, b], [-10.0, b, a], [a, a, b], [b, b, a]]
    sm = ScoreMatrix(np.array(rows), np.array([2, 1, 3]), seen_count=1)
    labels = np.array([3, 1, 2, 3])
    _assert_sweep_matches_oracle(sm, labels)
    assert np.array_equal(defined_predictions(sm, lams)[:, 0], np.full(lams.size, 3))
    assert np.array_equal(shifted_predictions(sm, lams)[:, 0], np.where(merged, 1, 3))
    assert np.array_equal(calibrated_hits(sm, labels, lams)[:, 2], np.full(lams.size, 1))


def _near_tie_scores(rng, n, u, spread):
    """n rows of u unseen scores within a few ulps of one base value each,
    a base drawn from several binades, a quarter of the rows all equal."""
    base = rng.choice([0.1, 0.3, 1.0, 1.5, 2.0, 3.7, -0.7, 1e-3, 100.0, 0.0], size=(n, 1))
    steps = rng.integers(-spread, spread + 1, size=(n, u))
    steps[: n // 4] = 0
    scores = np.repeat(base, u, axis=1)
    for _ in range(spread):
        up, down = steps > 0, steps < 0
        scores[up] = np.nextafter(scores[up], np.inf)
        scores[down] = np.nextafter(scores[down], -np.inf)
        steps = steps - np.sign(steps)
    return scores


@pytest.mark.parametrize("seed", range(4))
def test_predictions_match_oracle_on_near_ties(seed):
    # unseen scores a few ulps apart, before and after each row's first
    # maximum in id order, that adding lambda rounds together at some points
    rng = np.random.default_rng(seed)
    unseen = _near_tie_scores(rng, 400, 6, 2)
    seen = rng.choice([-5.0, 0.0, 0.1, 1.0, 1.5, 2.0], size=(400, 3))
    class_ids = rng.permutation(9)  # unsorted within both blocks
    sm = ScoreMatrix(np.hstack([seen, unseen]), class_ids, seen_count=3)
    labels = class_ids[rng.integers(0, 9, size=400)]
    _assert_sweep_matches_oracle(sm, labels)


def test_predictions_match_oracle_on_rows_of_equal_unseen_scores():
    # every unseen score of a row equal: the smallest unseen id, at any point
    scores = np.array([[0.5, 0.1, 0.1, 0.1], [0.0, 0.3, 0.3, 0.3], [0.2, 0.2, 0.2, 0.2]])
    sm = ScoreMatrix(scores, np.array([3, 7, 1, 5]), seen_count=1)
    lams = CalibrationSweep().values()
    _assert_hits_match_oracle(sm, np.array([3, 1, 3]), lams)
    assert set(defined_predictions(sm, lams)[:, 1].tolist()) == {3, 1}


def test_predictions_match_oracle_near_the_float_range():
    # sums that overflow to +-inf, where the unseen maximum meets a seen
    # score of the float range
    big = np.finfo(np.float64).max
    rng = np.random.default_rng(8)
    values = np.array([-big, -1e308, -1.0, 0.0, 1e-300, 1.0, 1e308, np.nextafter(1e308, 0.0), big])
    scores = rng.choice(values, size=(300, 7))
    class_ids = np.array([4, 0, 6, 2, 5, 1, 3])
    sm = ScoreMatrix(scores, class_ids, seen_count=3)
    labels = class_ids[rng.integers(0, 7, size=300)]
    wide = np.concatenate([1.5e308 * np.linspace(-1.0, 1.0, 31), [-big, big, 0.0]])
    with np.errstate(over="ignore"):
        _assert_hits_match_oracle(sm, labels, wide)
        _assert_hits_match_oracle(sm, labels, rng.permutation(wide))


@pytest.mark.parametrize("lams", [
    "unsorted", "repeated", "one", "none",
])
def test_predictions_match_oracle_for_any_sweep_order(lams):
    rng = np.random.default_rng(10)
    grid = CalibrationSweep(-1.0, 1.0, 0.05).values()
    lams = {
        "unsorted": rng.permutation(grid),
        "repeated": np.repeat(grid, 3)[rng.permutation(3 * grid.size)],
        "one": np.array([0.3]),
        "none": np.array([]),
    }[lams]
    votes = rng.multinomial(4, np.full(7, 1.0 / 7), size=120) / 4
    unseen = _near_tie_scores(rng, 120, 3, 1)
    class_ids = rng.permutation(10)
    sm = ScoreMatrix(np.hstack([votes, unseen]), class_ids, seen_count=7)
    _assert_hits_match_oracle(sm, class_ids[rng.integers(0, 10, size=120)], lams)


def test_a_sweep_point_that_is_nan_is_a_usage_error():
    sm = ScoreMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]), seen_count=1)
    with pytest.raises(UsageError, match="NaN"):
        calibrated_hits(sm, np.array([0, 1]), np.array([0.0, np.nan, 1.0]))


def test_predictions_of_no_rows():
    # the oracle predicts nothing at every point, and there is nothing to count
    sm = ScoreMatrix(np.zeros((0, 5)), np.arange(5), seen_count=2)
    lams = CalibrationSweep().values()
    assert defined_predictions(sm, lams).shape == (400, 0)
    with pytest.raises(ConfigError, match="no samples to evaluate"):
        calibrated_hits(sm, np.array([], dtype=np.int64), lams)


@pytest.mark.parametrize("metric", [
    lambda sm, labels: generalized_accuracy(sm, labels),
    lambda sm, labels: suc_curve(sm, labels),
    lambda sm, labels: gzsl_suh(sm, labels),
    lambda sm, labels: top1_per_class(sm.scores, sm.class_ids, labels),
])
def test_metrics_need_one_label_per_score_row(metric):
    sm = ScoreMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]), seen_count=1)
    # one label is not spread over every row
    for labels in ([0], [0, 1, 1]):
        with pytest.raises(UsageError, match=f"{len(labels)} labels for 2 score rows"):
            metric(sm, np.array(labels))
    with pytest.raises(ConfigError, match="no samples to evaluate"):
        metric(sm, np.array([], dtype=np.int64))


def _vote_shape(n, seen, unseen, k):
    rng = np.random.default_rng(0)
    c = seen + unseen
    votes = rng.multinomial(k, np.full(c, 1.0 / c), size=n) / k
    return ScoreMatrix(votes, np.arange(c), seen_count=seen), rng.integers(0, c, size=n)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


# tracemalloc peaks (bytes) of generalized_accuracy and suc_curve when the
# sweep took the argmax of every shifted unseen score in chunks of 1 MB, at
# the desk shape (750 queries, 10 seen + 5 unseen classes, k 5) and the
# paper shape (600 queries, 150 + 50 classes, k 20)
ARGMAX_SWEEP_PEAKS = {(750, 10, 5, 5): (4_107_240, 4_105_969),
                      (600, 150, 50, 20): (4_893_832, 4_895_472)}


@pytest.mark.parametrize("shape", sorted(ARGMAX_SWEEP_PEAKS))
def test_sweep_peak_memory_is_no_more_than_the_argmax_sweep(shape):
    sm, labels = _vote_shape(*shape)
    g_acc_peak, suc_peak = ARGMAX_SWEEP_PEAKS[shape]
    assert _traced_peak(generalized_accuracy, sm, labels)[0] <= g_acc_peak
    assert _traced_peak(suc_curve, sm, labels)[0] <= suc_peak
