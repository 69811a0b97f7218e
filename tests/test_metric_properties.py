"""Invariants of the GZSL metrics over kNN vote-fraction score matrices:
each row holds k votes spread over the classes, as knn_scores gives them."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zsgen.metrics import (
    ScoreMatrix, ausuc, calibrated_predictions, CalibrationSweep, generalized_accuracy,
    gzsl_suh, suc_curve, top1_per_class,
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
