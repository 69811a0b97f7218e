import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from zsgen import data, evaluate, gan, knn, metrics, selftrain
from zsgen.errors import ConfigError, UsageError
from zsgen.gan import DiscriminatorConfig, GanTrainConfig, GeneratorConfig, generate
from zsgen.knn import KnnClassifier, knn_predict_proba, knn_scores, squared_distances
from zsgen.metrics import CalibrationSweep, calibrated_hits
from zsgen.selftrain import (
    SslConfig, confident, expand_classifier_head, pseudo_label, run_ssl,
    synthesize_references, unseen_test_rows,
)

SPEC = data.SyntheticSpec(num_seen=4, num_unseen=2, samples_per_class=20,
                          semantic_dim=16, visual_dim=8, seed=0)

GEN_CFG = GeneratorConfig(semantic_dim=16, visual_dim=8, reduce_dim=6,
                          hidden_dim=10, noise_sigma=0.1)
DISC_CFG = DiscriminatorConfig(visual_dim=8, hidden_dim=10)
TRAIN_CFG = GanTrainConfig(n_step=20, batch_size=16, eval_every=10, patience=100,
                           knn_k=3, probe_per_class=5, margin=0.5)


def test_knn_exact_match_single_neighbor():
    refs = np.array([[0.0, 0.0], [5.0, 5.0]])
    clf = KnnClassifier(refs, np.array([3, 8]), k=1)
    labels, conf = knn_predict_proba(clf, refs[:1])
    assert labels[0] == 3 and conf[0] == 1.0


def test_knn_vote_fraction():
    refs = np.array([[0.0], [0.1], [0.2], [0.9]])
    clf = KnnClassifier(refs, np.array([1, 1, 1, 2]), k=4)
    labels, conf = knn_predict_proba(clf, np.array([[0.0]]))
    assert labels[0] == 1
    np.testing.assert_allclose(conf[0], 0.75)


def test_knn_tie_goes_to_smallest_class_id():
    refs = np.array([[0.0], [1.0]])
    clf = KnnClassifier(refs, np.array([9, 4]), k=2)
    labels, conf = knn_predict_proba(clf, np.array([[0.5]]))
    assert labels[0] == 4
    np.testing.assert_allclose(conf[0], 0.5)


def test_knn_too_few_references():
    with pytest.raises(UsageError):
        KnnClassifier(np.zeros((2, 3)), np.zeros(2, dtype=np.int64), k=5)


@pytest.mark.parametrize("labels", [[5, 6, 7, 8, 9], [5, 6], [[5], [6], [7]]])
def test_knn_label_count_not_one_per_reference_is_a_usage_error(labels):
    with pytest.raises(UsageError, match="labels"):
        KnnClassifier(np.zeros((3, 2)), np.array(labels), k=1)


def test_knn_query_dim_mismatch():
    clf = KnnClassifier(np.zeros((3, 2)), np.zeros(3, dtype=np.int64), k=1)
    with pytest.raises(UsageError):
        knn_predict_proba(clf, np.zeros((1, 5)))


def test_knn_scores_rows_sum_to_one_over_full_class_set():
    rng = np.random.default_rng(0)
    refs = rng.normal(size=(12, 3))
    labels = rng.integers(0, 3, size=12)
    clf = KnnClassifier(refs, labels, k=5)
    scores = knn_scores(clf, rng.normal(size=(7, 3)), [0, 1, 2])
    np.testing.assert_allclose(scores.sum(axis=1), 1.0)


def _neighbor_labels(clf, queries):
    """Oracle: labels of the k nearest references by a full stable sort."""
    d2 = (
        (queries * queries).sum(axis=1)[:, None]
        - 2.0 * queries @ clf.references.T
        + (clf.references * clf.references).sum(axis=1)[None, :]
    )
    order = np.argsort(d2, axis=1, kind="stable")[:, : clf.k]
    return clf.labels[order]


def _reference_knn_scores(clf, queries, class_ids):
    neigh = _neighbor_labels(clf, queries)
    scores = np.zeros((neigh.shape[0], len(class_ids)))
    for j, c in enumerate(class_ids):
        scores[:, j] = (neigh == c).sum(axis=1) / clf.k
    return scores


def _reference_knn_predict_proba(clf, queries):
    neigh = _neighbor_labels(clf, queries)
    classes = np.unique(clf.labels)
    counts = np.stack([(neigh == c).sum(axis=1) for c in classes], axis=1)
    best = counts.argmax(axis=1)
    return classes[best], counts[np.arange(len(best)), best] / clf.k


def _assert_knn_matches_oracle(clf, queries, class_ids):
    assert np.array_equal(knn_scores(clf, queries, class_ids),
                          _reference_knn_scores(clf, queries, class_ids))
    got_labels, got_conf = knn_predict_proba(clf, queries)
    want_labels, want_conf = _reference_knn_predict_proba(clf, queries)
    assert np.array_equal(got_labels, want_labels)
    assert np.array_equal(got_conf, want_conf)


def test_knn_shared_vote_counter_matches_per_function_formulas():
    rng = np.random.default_rng(7)
    for _ in range(500):
        n_refs = int(rng.integers(2, 12))
        # points on a 3x3 grid and few labels: distance ties and vote ties
        refs = rng.integers(0, 3, size=(n_refs, 2)).astype(np.float64)
        labels = rng.choice([2, 5, 7, 11], size=n_refs)
        queries = rng.integers(0, 3, size=(6, 2)).astype(np.float64)
        clf = KnnClassifier(refs, labels, k=int(rng.integers(1, n_refs + 1)))
        class_ids = rng.permutation([2, 5, 7, 11, 13])  # unsorted, 13 never voted
        _assert_knn_matches_oracle(clf, queries, class_ids)


def test_knn_partial_selection_matches_full_sort_on_random_points():
    rng = np.random.default_rng(8)
    for k in (1, 5, 40):
        refs = rng.normal(size=(40, 6))
        labels = rng.choice([3, 1, 9, 4], size=40)
        clf = KnnClassifier(refs, labels, k=k)  # k == 40 takes every reference
        _assert_knn_matches_oracle(clf, rng.normal(size=(25, 6)), [9, 1, 4, 3, 6])


def test_knn_tie_at_kth_distance_keeps_lowest_reference_indices():
    # six references at distance 1 from the query, three slots left after
    # the one closer reference: indices 1, 2 and 3 win over 4, 5 and 6
    refs = np.array([[0.0], [1.0], [-1.0], [1.0], [-1.0], [1.0], [-1.0], [3.0]])
    labels = np.array([0, 1, 2, 3, 4, 5, 6, 7])
    clf = KnnClassifier(refs, labels, k=4)
    scores = knn_scores(clf, np.array([[0.0]]), labels)
    assert scores[0].tolist() == [0.25, 0.25, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0]
    _assert_knn_matches_oracle(clf, np.array([[0.0], [0.5], [2.0]]), [7, 6, 5, 4, 3, 2, 1, 0])


def whole_array_neighbors(d2, k):
    """The neighbour selection as one argpartition over every row at once,
    kept as the oracle of the selection by blocks of rows."""
    near = np.argpartition(d2, k - 1, axis=1)[:, :k]
    near_d = np.take_along_axis(d2, near, axis=1)
    kth = near_d.max(axis=1, keepdims=True)
    slots = (near_d == kth).sum(axis=1)
    tied = np.flatnonzero((d2 == kth).sum(axis=1) > slots)
    if tied.size:
        at = d2[tied] == kth[tied]
        keep = (d2[tied] < kth[tied]) | (at & (np.cumsum(at, axis=1) <= slots[tied, None]))
        near[tied] = np.nonzero(keep)[1].reshape(tied.size, k)
    return near


@pytest.mark.parametrize("block_values", [1, 10, 35, knn.NORM_BLOCK_VALUES])
def test_knn_neighbors_by_blocks_of_rows_equal_the_whole_array_selection(
        monkeypatch, block_values):
    # 10 distances a row on a grid of 4 values: most rows tie at their k-th
    # distance, on both sides of every block boundary (blocks of 1 row, of
    # 3 rows and the last of 2, or all 23 rows)
    monkeypatch.setattr(knn, "NORM_BLOCK_VALUES", block_values)
    d2 = np.random.default_rng(25).integers(0, 4, size=(23, 10)).astype(np.float64)
    for k in (1, 3, 9, 10):
        ordered = np.sort(d2, axis=1)
        if k < 10:
            tied = ordered[:, k - 1] == ordered[:, k]
            assert (tied[:-1] & tied[1:]).sum() > 5
        got = knn._neighbors(d2, k)
        assert got.tobytes() == whole_array_neighbors(d2, k).tobytes()
        stable = np.argsort(d2, axis=1, kind="stable")[:, :k]
        assert (np.sort(got, axis=1) == np.sort(stable, axis=1)).all()


def test_knn_neighbor_selection_forms_no_index_array_of_the_distances():
    d2 = np.random.default_rng(26).random((200, 5000))
    tracemalloc.start()
    try:
        near = knn._neighbors(d2, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block's indices and compares, about 0.6 MB; whole, the indices
    # alone are as large as the distances (8 MB)
    assert peak < d2.nbytes // 4, peak
    assert near.tobytes() == whole_array_neighbors(d2, 5).tobytes()


def three_term_squared_distances(queries, references):
    """The formula that the blocked, in-place squared_distances replaced,
    kept as its bit-for-bit oracle."""
    return ((queries * queries).sum(axis=1)[:, None] - 2.0 * queries @ references.T
            + (references * references).sum(axis=1)[None, :])


@pytest.mark.parametrize("block_values", [1, 100, knn.NORM_BLOCK_VALUES])
def test_squared_distances_equal_the_three_term_formula(monkeypatch, block_values):
    # 1: a row per norm block; 100: blocks of a few rows, one ending mid-matrix
    monkeypatch.setattr(knn, "NORM_BLOCK_VALUES", block_values)
    rng = np.random.default_rng(21)
    for nq, nr, d in [(1, 1, 1), (7, 13, 9), (40, 301, 33), (3, 50, 2048)]:
        queries, refs = rng.normal(size=(nq, d)), rng.uniform(-1.0, 1.0, size=(nr, d))
        got = squared_distances(queries, refs)
        assert got.tobytes() == three_term_squared_distances(queries, refs).tobytes()


def test_squared_distances_form_no_reference_sized_temporary():
    rng = np.random.default_rng(22)
    queries, refs = rng.normal(size=(10, 64)), rng.normal(size=(40000, 64))
    tracemalloc.start()
    try:
        d2 = squared_distances(queries, refs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result, the norms and one block of squares: far below a copy of refs
    assert peak < d2.nbytes + refs.nbytes // 4, peak


def test_knn_scores_from_a_block_of_shared_distances_match_their_own_pass():
    rng = np.random.default_rng(9)
    for grid in (False, True):
        if grid:  # a 3x3x3 grid: distance ties and vote ties
            refs = rng.integers(0, 3, size=(40, 3)).astype(np.float64)
            queries = rng.integers(0, 3, size=(30, 3)).astype(np.float64)
        else:
            refs, queries = rng.normal(size=(40, 6)), rng.normal(size=(30, 6))
            refs[1::4] = refs[::4]  # duplicated references tie at every distance
        labels = rng.choice([3, 1, 9, 4], size=40)
        d2 = squared_distances(queries, refs)
        rows = rng.random(30) < 0.5  # scattered rows
        for cols in (slice(0, 17), slice(17, None), slice(None)):
            clf = KnnClassifier(refs[cols], labels[cols], k=4)
            class_ids = np.unique(labels[cols])
            for r in (rows, slice(3, 20)):
                shared = knn_scores(clf, queries[r], class_ids, d2[r, cols])
                assert np.array_equal(shared, knn_scores(clf, queries[r], class_ids))
                assert np.array_equal(shared, _reference_knn_scores(clf, queries[r], class_ids))
    with pytest.raises(UsageError):
        knn_scores(clf, queries[:2], class_ids, d2[:3])


def trained_setup(seed=0):
    ds = data.make_synthetic(SPEC)
    rng = np.random.default_rng(seed)
    work, scaler, gen, disc, cols = selftrain.prepare_models(
        ds, GEN_CFG, DISC_CFG, rng
    )
    return ds, work, gen, disc, cols, rng


def test_psi_above_one_is_rejected_and_one_keeps_only_unanimous_votes():
    with pytest.raises(ConfigError, match="psi"):
        SslConfig(psi=1.01)
    kept = {}
    for psi in (0.0, 1.0):   # the same draws at both thresholds
        ds, work, gen, disc, cols, rng = trained_setup()
        unseen = sorted(work.split.unseen)
        x_u = work.features[work.test_indices()][:20]
        cfg = SslConfig(psi=psi, per_class_synthetic=5, knn_k=3)
        kept[psi] = pseudo_label(gen, unseen, work.semantics_for(unseen), x_u, cfg, rng)
    unanimous = np.flatnonzero(kept[0.0].confidences == 1.0)
    assert 0 < unanimous.size < 20
    assert kept[1.0].source_indices.tolist() == unanimous.tolist()
    assert kept[1.0].labels.tolist() == kept[0.0].labels[unanimous].tolist()


def test_pseudo_label_vacuous_threshold_keeps_everything():
    ds, work, gen, disc, cols, rng = trained_setup()
    unseen = sorted(work.split.unseen)
    x_u = work.features[work.test_indices()][:10]
    cfg = SslConfig(psi=0.0, per_class_synthetic=5, knn_k=3)
    pl = pseudo_label(gen, unseen, work.semantics_for(unseen), x_u, cfg, rng)
    assert len(pl) == 10
    assert set(pl.labels.tolist()) <= set(unseen)


def test_pseudo_label_confidences_on_vote_grid():
    ds, work, gen, disc, cols, rng = trained_setup()
    unseen = sorted(work.split.unseen)
    x_u = work.features[work.test_indices()][:20]
    cfg = SslConfig(psi=0.0, per_class_synthetic=5, knn_k=4)
    pl = pseudo_label(gen, unseen, work.semantics_for(unseen), x_u, cfg, rng)
    grid = {i / 4.0 for i in range(5)}
    assert set(pl.confidences.tolist()) <= grid
    assert (pl.confidences >= 0.0).all()


def test_confident_over_knn_scores_is_knn_predict_proba_bit_for_bit():
    # the one selection rule of pseudo_label and run_ssl, on a 3x3 grid of
    # points with few labels: vote ties and ties at the k-th distance
    rng = np.random.default_rng(27)
    vote_ties = kth_ties = 0
    for _ in range(300):
        n_refs = int(rng.integers(2, 12))
        refs = rng.integers(0, 3, size=(n_refs, 2)).astype(np.float64)
        labels = rng.choice([2, 5, 7, 11], size=n_refs)
        queries = rng.integers(0, 3, size=(6, 2)).astype(np.float64)
        k = int(rng.integers(1, n_refs + 1))
        clf = KnnClassifier(refs, labels, k=k)
        classes = np.unique(labels)
        scores = knn_scores(clf, queries, classes)
        vote_ties += ((scores == scores.max(axis=1, keepdims=True)).sum(axis=1) > 1).sum()
        d2 = np.sort(squared_distances(queries, refs), axis=1)
        if k < n_refs:
            kth_ties += (d2[:, k - 1] == d2[:, k]).sum()
        want_labels, want_conf = knn_predict_proba(clf, queries)
        for psi in (0.0, 0.5, 0.6, 1.0):
            got = confident(scores, classes, psi)
            keep = np.flatnonzero(want_conf >= psi)
            assert got.source_indices.tobytes() == keep.tobytes()
            assert got.labels.tobytes() == want_labels[keep].tobytes()
            assert got.confidences.tobytes() == want_conf[keep].tobytes()
    assert vote_ties > 100 and kth_ties > 100


def knn_predict_proba_pseudo_label(gen, class_ids, semantics, x_u, cfg, rng):
    """Oracle: pseudo_label as knn_predict_proba's labels and vote fractions
    over one draw of references, kept where the fraction reaches psi."""
    refs, ref_labels = synthesize_references(gen, class_ids, semantics,
                                             cfg.per_class_synthetic, rng)
    labels, conf = knn_predict_proba(KnnClassifier(refs, ref_labels, k=cfg.knn_k), x_u)
    keep = np.flatnonzero(conf >= cfg.psi)
    return labels[keep], conf[keep], keep


@pytest.mark.parametrize("k, psi", [(20, 0.5), (5, 0.6), (4, 0.0)])
def test_pseudo_label_outputs_are_the_knn_predict_proba_selection(k, psi):
    ds, work, gen, disc, cols, rng = trained_setup()
    unseen = sorted(work.split.unseen)
    rows = unseen_test_rows(work)
    cfg = SslConfig(psi=psi, per_class_synthetic=10, knn_k=k)
    for x_u in (work.features[rows], np.round(2.0 * work.features[rows])):
        args = gen, unseen, work.semantics_for(unseen), x_u, cfg
        pl = pseudo_label(*args, np.random.default_rng(k))
        got = pl.labels, pl.confidences, pl.source_indices
        want = knn_predict_proba_pseudo_label(*args, np.random.default_rng(k))
        assert [(a.dtype, a.shape, a.tobytes()) for a in got] == \
            [(a.dtype, a.shape, a.tobytes()) for a in want]


def test_expand_head_same_count_is_identity():
    ds, work, gen, disc, cols, rng = trained_setup()
    before = [p.copy() for p in disc.params()]
    out = expand_classifier_head(disc, disc.cfg.num_classes, rng)
    for a, b in zip(out.params(), before):
        assert (a == b).all()


def test_expand_head_preserves_old_logits_bit_exactly():
    ds, work, gen, disc, cols, rng = trained_setup()
    x = rng.uniform(-1.0, 1.0, size=(6, 8))
    _, logits_before, _ = disc.forward(x)
    old = disc.cfg.num_classes
    expand_classifier_head(disc, old + 1, rng)
    _, logits_after, _ = disc.forward(x)
    assert logits_after.shape[1] == old + 1
    assert (logits_after[:, :old] == logits_before).all()


def test_expand_head_softmax_normalizes():
    ds, work, gen, disc, cols, rng = trained_setup()
    expand_classifier_head(disc, disc.cfg.num_classes + 2, rng)
    x = rng.uniform(-1.0, 1.0, size=(4, 8))
    _, logits, _ = disc.forward(x)
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0)


def test_expand_head_rejects_shrinking():
    ds, work, gen, disc, cols, rng = trained_setup()
    with pytest.raises(UsageError):
        expand_classifier_head(disc, disc.cfg.num_classes - 1, rng)


def test_synthesize_references_shapes_and_labels():
    ds, work, gen, disc, cols, rng = trained_setup()
    unseen = sorted(work.split.unseen)
    refs, labels = synthesize_references(
        gen, unseen, work.semantics_for(unseen), 7, rng
    )
    assert refs.shape == (7 * len(unseen), 8)
    for c in unseen:
        assert (labels == c).sum() == 7


def unblocked_references(gen, sem, per_class, seed):
    """Every class's references from one generate call, on the noise stream
    of per-class draws."""
    noise = gen.sample_noise(np.random.default_rng(seed), len(sem) * per_class)
    return generate(gen, sem, noise, np.repeat(np.arange(len(sem)), per_class))


def per_class_stack(gen, sem, per_class, seed):
    """The references as one generate call per class would synthesize them."""
    rng = np.random.default_rng(seed)
    return np.vstack([generate(gen, row[None, :], gen.sample_noise(rng, per_class))
                      for row in sem])


def test_synthesize_references_matches_per_class_stack():
    ds, work, gen, disc, cols, rng = trained_setup()
    classes = sorted(work.split.seen) + sorted(work.split.unseen)
    sem = work.semantics_for(classes)
    refs, labels = synthesize_references(gen, classes, sem, 7,
                                         np.random.default_rng(5))
    assert refs.tobytes() == unblocked_references(gen, sem, 7, 5).tobytes()
    # the reduce layer runs over a block of classes, not one class at a time
    np.testing.assert_allclose(refs, per_class_stack(gen, sem, 7, 5), rtol=0, atol=1e-14)
    assert labels.dtype == np.int64 and labels.tolist() == np.repeat(classes, 7).tolist()
    with pytest.raises(UsageError):
        synthesize_references(gen, classes, sem[1:], 7, rng)


@pytest.mark.parametrize("noise_mode", ["add", "concat"])
def test_synthesize_references_partial_last_block(monkeypatch, noise_mode):
    cfg = replace(GEN_CFG, noise_mode=noise_mode)
    gen = gan.Generator(cfg, np.random.default_rng(1))
    sem = np.random.default_rng(2).normal(size=(6, 16))
    # blocks of 4 classes and then 2
    monkeypatch.setattr(selftrain, "SYNTH_BLOCK_ROWS", 4 * 7 + 3)
    refs, labels = synthesize_references(gen, list(range(10, 16)), sem, 7,
                                         np.random.default_rng(5))
    assert refs.tobytes() == unblocked_references(gen, sem, 7, 5).tobytes()
    np.testing.assert_allclose(refs, per_class_stack(gen, sem, 7, 5), rtol=0, atol=1e-14)
    assert labels.tolist() == np.repeat(np.arange(10, 16), 7).tolist()


def test_synthesize_references_per_class_above_block_is_one_class_per_call(monkeypatch):
    ds, work, gen, disc, cols, rng = trained_setup()
    classes = sorted(work.split.unseen)
    sem = work.semantics_for(classes)
    monkeypatch.setattr(selftrain, "SYNTH_BLOCK_ROWS", 4)
    refs, _ = synthesize_references(gen, classes, sem, 7, np.random.default_rng(5))
    assert refs.tobytes() == per_class_stack(gen, sem, 7, 5).tobytes()
    np.testing.assert_allclose(refs, unblocked_references(gen, sem, 7, 5), rtol=0, atol=1e-14)


def vstacked_blocks(gen, sem, per_class, seed, classes_per_block):
    """The references as new arrays of per-block generate calls, stacked."""
    rng = np.random.default_rng(seed)
    blocks = []
    for c0 in range(0, len(sem), classes_per_block):
        block = sem[c0:c0 + classes_per_block]
        blocks.append(generate(gen, block, gen.sample_noise(rng, len(block) * per_class),
                               np.repeat(np.arange(len(block)), per_class)))
    return np.vstack(blocks)


@pytest.mark.parametrize("noise_mode", ["add", "concat"])
@pytest.mark.parametrize("classes_per_block", [1, 2, 7])
def test_synthesize_references_in_place_equal_the_stacked_blocks(
        monkeypatch, noise_mode, classes_per_block):
    cfg = replace(GEN_CFG, noise_mode=noise_mode)
    gen = gan.Generator(cfg, np.random.default_rng(3))
    sem = np.random.default_rng(4).normal(size=(7, 16))
    monkeypatch.setattr(selftrain, "SYNTH_BLOCK_ROWS", classes_per_block * 5)
    refs, _ = synthesize_references(gen, list(range(7)), sem, 5, np.random.default_rng(6))
    assert refs.tobytes() == vstacked_blocks(gen, sem, 5, 6, classes_per_block).tobytes()


def test_generate_into_out_holds_only_the_decoder_input_and_two_hidden_arrays():
    # paper-like proportions: a wide hidden layer, a narrower decoder input
    cfg = GeneratorConfig(semantic_dim=16, visual_dim=512, reduce_dim=64, hidden_dim=512)
    gen = gan.Generator(cfg, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    n = 256
    sem, noise = rng.normal(size=(4, 16)), gen.sample_noise(rng, n)
    classes = np.repeat(np.arange(4), n // 4)
    out = np.empty((n, cfg.visual_dim))
    expected = generate(gen, sem, noise, classes)
    tracemalloc.start()
    try:
        generate(gen, sem, noise, classes, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    hidden = n * cfg.hidden_dim * 8
    decoder_input = n * cfg.reduce_dim * 8
    # the cached forward also holds the activation beside its pre-activation,
    # and the output: two more hidden-sized arrays
    assert peak < decoder_input + 2 * hidden + (64 << 10), (peak, hidden)
    assert out.tobytes() == expected.tobytes()


def test_ssl_training_set_monotone():
    ds = data.make_synthetic(SPEC)
    cfg = SslConfig(psi=0.0, n_ssl=2, per_class_synthetic=5, knn_k=3)
    result = run_ssl(ds, GEN_CFG, DISC_CFG, TRAIN_CFG, cfg, seed=0)
    sizes = [r["retained"] for r in result.reports]
    assert len(result.reports) == 2
    assert result.train_rows.size == ds.train_indices().size + sum(sizes)
    assert result.train_labels.size == result.train_rows.size


def test_ssl_training_set_is_train_rows_then_unseen_test_rows():
    ds = data.make_synthetic(SPEC)
    cfg = SslConfig(psi=0.5, n_ssl=2, per_class_synthetic=5, knn_k=4)
    result = run_ssl(ds, GEN_CFG, DISC_CFG, TRAIN_CFG, cfg, seed=1)
    train = ds.train_indices()
    n0 = train.size
    added = result.train_rows[n0:]
    assert added.size == sum(r["retained"] for r in result.reports) > 0
    assert (result.train_rows[:n0] == train).all()
    assert (result.train_labels[:n0] == ds.labels[train]).all()
    assert np.isin(added, unseen_test_rows(ds)).all()
    assert np.unique(added).size == added.size
    assert not np.isin(added, train).any()
    assert set(result.train_labels[n0:].tolist()) <= set(ds.split.unseen)
    assert result.dataset.features.shape == ds.features.shape


def test_ssl_training_set_is_what_the_last_training_received(monkeypatch):
    # every round draws its references after it trains, every round after
    # the first labels before it trains, and none labels after the last
    received, events = [], []

    def training(dataset, train_x, train_labels, *args):
        events.append("train")
        received.append((train_x.copy(), train_labels.copy()))
        return gan.train_gan(dataset, train_x, train_labels, *args)

    def drawing(*args):
        events.append("refs")
        return synthesize_references(*args)

    def labeling(*args):
        events.append("label")
        return confident(*args)

    monkeypatch.setattr(selftrain, "train_gan", training)
    monkeypatch.setattr(selftrain, "synthesize_references", drawing)
    monkeypatch.setattr(selftrain, "confident", labeling)
    ds = data.make_synthetic(SPEC)
    for n_ssl in (1, 2):
        received.clear()
        events.clear()
        cfg = SslConfig(psi=0.0, n_ssl=n_ssl, per_class_synthetic=5, knn_k=3)
        result = run_ssl(ds, GEN_CFG, DISC_CFG, TRAIN_CFG, cfg, seed=0)
        assert events == ["train", "refs"] + ["label", "train", "refs"] * (n_ssl - 1)
        train_x, train_labels = received[-1]
        assert result.dataset.features[result.train_rows].tobytes() == train_x.tobytes()
        assert result.train_labels.tolist() == train_labels.tolist()
    assert result.train_rows.size > ds.train_indices().size


@pytest.mark.parametrize("psi", [0.0, 0.7])
def test_ssl_labels_the_votes_behind_the_previous_rounds_unseen_top1(monkeypatch, psi):
    # three rounds; a round's one vote matrix over the unseen test rows gives
    # its unseen top-1, and the next round labels that matrix's confident
    # open rows. At psi=0 the second round freezes every candidate, so the
    # third has no open row and retains none
    votes, received = [], []

    def scoring(clf, queries, class_ids, distances=None):
        assert distances is None   # each matrix forms its own distances, once
        votes.append(knn_scores(clf, queries, class_ids))
        return votes[-1]

    def training(dataset, train_x, train_labels, *args):
        received.append(train_labels.copy())
        return gan.train_gan(dataset, train_x, train_labels, *args)

    monkeypatch.setattr(selftrain, "knn_scores", scoring)
    monkeypatch.setattr(selftrain, "train_gan", training)
    ds = data.make_synthetic(SPEC)
    cfg = SslConfig(psi=psi, n_ssl=3, per_class_synthetic=5, knn_k=4)
    result = run_ssl(ds, GEN_CFG, DISC_CFG, TRAIN_CFG, cfg, seed=2)

    unseen, candidates = sorted(ds.split.unseen), unseen_test_rows(ds)
    assert len(votes) == len(received) == 3
    rows, labels = list(ds.train_indices()), list(ds.labels[ds.train_indices()])
    frozen = np.zeros(candidates.size, dtype=bool)
    for iteration, report in enumerate(result.reports, 1):
        assert report["iteration"] == iteration
        if iteration > 1:
            scores = votes[iteration - 2]
            open_idx = np.flatnonzero(~frozen)
            picked = open_idx[scores[open_idx].max(axis=1) >= psi]
            frozen[picked] = True
            rows += candidates[picked].tolist()
            labels += metrics.predict_labels(scores[picked], unseen).tolist()
            assert report["retained"] == picked.size
        assert received[iteration - 1].tolist() == labels
        assert report["unseen_top1"] == metrics.top1_per_class(
            votes[iteration - 1], unseen, ds.labels[candidates])
    assert result.train_rows.tolist() == rows
    retained = [r["retained"] for r in result.reports]
    if psi == 0.0:
        assert retained == [0, candidates.size, 0]
    else:
        assert 0 < retained[1] < candidates.size and retained[2] > 0


def test_ssl_row_equal_to_a_train_row_is_retained_but_not_added():
    ds = data.make_synthetic(SPEC)
    candidates = unseen_test_rows(ds)
    copied = candidates[3]
    ds.features[copied] = ds.features[ds.train_indices()[0]]
    cfg = SslConfig(psi=0.0, n_ssl=2, per_class_synthetic=5, knn_k=3)
    result = run_ssl(ds, GEN_CFG, DISC_CFG, TRAIN_CFG, cfg, seed=0)
    # psi=0 retains, and so freezes, every candidate before the second round
    assert [r["retained"] for r in result.reports] == [0, candidates.size]
    assert copied not in result.train_rows
    assert result.train_rows.size == ds.train_indices().size + candidates.size - 1


def test_ssl_rows_trained_on_are_kept_in_memory_that_does_not_grow_with_the_width(
        monkeypatch):
    # at each train_gan call, the bytes held by the sets among run_ssl's locals:
    # the set of rows trained on, before and after a round adds every candidate
    train, held = selftrain.train_gan, {}

    def spy(*args):
        sets = [v for v in sys._getframe(1).f_locals.values() if isinstance(v, set)]
        held[width].append(sum(sys.getsizeof(s) + sum(map(sys.getsizeof, s))
                               for s in sets))
        return train(*args)

    monkeypatch.setattr(selftrain, "train_gan", spy)
    cfg = SslConfig(psi=0.0, n_ssl=2, per_class_synthetic=5, knn_k=3)
    for width in (8, 512):
        held[width] = []
        run_ssl(data.make_synthetic(replace(SPEC, visual_dim=width)),
                replace(GEN_CFG, visual_dim=width), replace(DISC_CFG, visual_dim=width),
                replace(TRAIN_CFG, n_step=2, eval_every=0), cfg, seed=0)
    assert len(held[8]) == 2 and 0 < held[8][0] < held[8][1]
    assert held[512] == held[8], held


def test_ssl_single_round_matches_plain_training():
    ds = data.make_synthetic(SPEC)
    cfg = SslConfig(psi=0.0, n_ssl=1, per_class_synthetic=5, knn_k=3)
    result = run_ssl(ds, GEN_CFG, DISC_CFG, TRAIN_CFG, cfg, seed=5)

    init_rng, [(train_rng, _)] = selftrain.run_streams(5, 1)
    work, scaler, gen, disc, cols = selftrain.prepare_models(
        ds, GEN_CFG, DISC_CFG, init_rng
    )
    tr = work.train_indices()
    plain = gan.train_gan(work, work.features[tr], work.labels[tr],
                          gen, disc, cols, TRAIN_CFG, train_rng)
    ours = result.generator.params() + result.discriminator.params()
    theirs = plain.generator.params() + plain.discriminator.params()
    assert [(a.shape, a.tobytes()) for a in ours] == [(b.shape, b.tobytes()) for b in theirs]
    assert result.discriminator.cfg.num_classes == len(ds.split.seen)
    assert result.class_cols == cols
    assert result.reports[0]["retained"] == result.reports[0]["new_classes"] == 0


def test_probe_cadence_and_size_move_no_training_draw(monkeypatch):
    # each probe draws from its own stream, keyed by its step: runs that probe
    # at other steps, or with more references, train the same networks, and
    # probe them alike at the steps where both probe
    train, probe = selftrain.train_gan, gan._probe_gacc
    nets, probes = [], []

    def training(dataset, x, y, gen, disc, *args):
        nets[:] = gen, disc
        return train(dataset, x, y, gen, disc, *args)

    def probing(*args):
        draws = args[-1].bit_generator.state
        gacc = probe(*args)
        probes.append(([p.tobytes() for net in nets for p in net.params()], draws, gacc))
        return gacc

    monkeypatch.setattr(selftrain, "train_gan", training)
    monkeypatch.setattr(gan, "_probe_gacc", probing)
    ds = data.make_synthetic(SPEC)
    ssl_cfg = SslConfig(psi=0.0, n_ssl=1, per_class_synthetic=5, knn_k=3)

    def by_step(eval_every, probe_per_class=5):
        probes.clear()
        cfg = replace(TRAIN_CFG, n_step=12, eval_every=eval_every,
                      probe_per_class=probe_per_class, patience=100)
        run_ssl(ds, GEN_CFG, DISC_CFG, cfg, ssl_cfg, seed=0)
        steps = range(eval_every, cfg.n_step + 1, eval_every)
        assert len(probes) == len(steps)   # no early stop
        return dict(zip(steps, probes))

    every2, every3 = by_step(2), by_step(3)
    for step in (6, 12):
        assert every2[step] == every3[step]
    assert every2[2] != every2[4]   # the networks train between probes
    wider = by_step(3, probe_per_class=8)
    assert [p[0] for p in wider.values()] == [p[0] for p in every3.values()]


def test_a_keyed_stream_is_the_child_of_that_number_that_spawning_gives():
    for key in (0, 1, 7):
        spawned = np.random.default_rng(3).spawn(key + 1)[key]
        assert (gan._keyed_stream(np.random.default_rng(3), key).random(4).tolist()
                == spawned.random(4).tolist())


def test_unseen_test_rows_are_the_unseen_test_partition():
    ds, work, gen, disc, cols, rng = trained_setup()
    rows = unseen_test_rows(work)
    assert (work.partition[rows] == data.TEST).all()
    assert set(work.labels[rows].tolist()) == set(work.split.unseen)
    others = np.setdiff1d(work.test_indices(), rows)
    assert not np.isin(work.labels[others], list(work.split.unseen)).any()


def test_evaluate_model_synthesizes_one_reference_set(monkeypatch):
    ds, work, gen, disc, cols, rng = trained_setup()
    class_ids = sorted(work.split.seen) + sorted(work.split.unseen)
    calls, synthesized = [], []

    def counting_generate(*args, **kwargs):
        calls.append((args, kwargs))
        return generate(*args, **kwargs)

    def recording_synthesize(*args):
        synthesized.append(synthesize_references(*args))
        return synthesized[-1]

    monkeypatch.setattr(selftrain, "generate", counting_generate)
    monkeypatch.setattr(evaluate, "synthesize_references", recording_synthesize)
    # 6 classes of 5 rows: one block, blocks of 2 classes, blocks of 4 and
    # then 2 classes, and one class per block when a class outgrows the block
    for block_rows, blocks in [(selftrain.SYNTH_BLOCK_ROWS, 1), (12, 3), (20, 2), (4, 6)]:
        calls.clear()
        synthesized.clear()
        monkeypatch.setattr(selftrain, "SYNTH_BLOCK_ROWS", block_rows)
        evaluate.evaluate_model(gen, work, CalibrationSweep(), [0.25, 0.5, 1.0],
                                5, 3, rng)
        # one call per block of whole classes, one semantic row per class
        # shared by its 5 noise rows; together the blocks cover every class
        # once, seen then unseen, in order
        assert len(calls) == blocks and len(synthesized) == 1
        refs = synthesized[0][0]
        for (_, sem, noise, classes), kwargs in calls:
            assert noise.shape[0] == 5 * sem.shape[0] <= max(block_rows, 5)
            assert classes.tolist() == np.repeat(np.arange(sem.shape[0]), 5).tolist()
            # each block is generated straight into its rows of the references
            assert np.shares_memory(kwargs["out"], refs)
        assert np.vstack([args[1] for args, _ in calls]).tobytes() == \
            work.semantics_for(class_ids).tobytes()
        assert np.vstack([kwargs["out"] for _, kwargs in calls]).tobytes() == \
            refs.tobytes()


def test_evaluate_model_forms_the_calibration_sweep_once(monkeypatch):
    ds, work, gen, disc, cols, rng = trained_setup()
    formed = []

    def recording(sm, labels, lams):
        formed.append((sm, labels, np.asarray(lams)))
        return calibrated_hits(sm, labels, lams)

    monkeypatch.setattr(metrics, "calibrated_hits", recording)
    sweep = CalibrationSweep(-1.0, 1.0, 0.05)
    rep = evaluate.evaluate_model(gen, work, sweep, [0.5, 1.0], 5, 3, rng)
    monkeypatch.undo()
    # G_acc and the SUC curve read the one (L, C) array of hit counts, and
    # S, U and H its row at lambda = 0 after them
    assert len(formed) == 1
    sm, labels, lams = formed[0]
    assert labels.tolist() == work.labels[work.test_indices()].tolist()
    assert lams.tolist() == sweep.values().tolist() + [0.0]
    counts = calibrated_hits(sm, labels, sweep.values())
    assert rep.g_acc == metrics.generalized_accuracy(sm, labels, counts=counts)
    assert rep.suc_points == metrics.suc_curve(sm, labels, counts=counts)
    assert (rep.s, rep.u, rep.h) == metrics.gzsl_suh(sm, labels)


@pytest.mark.parametrize("seed", [0, 1])
def test_evaluate_model_on_permuted_test_rows_gives_an_equal_report(seed):
    # every metric is a mean over rows or classes, and a query row's
    # distances, votes and ranks do not depend on its place in the block
    ds = data.make_synthetic(data.SyntheticSpec(seed=seed))
    rng = np.random.default_rng(seed)
    work, scaler, gen, disc, cols = selftrain.prepare_models(
        ds, replace(GEN_CFG, semantic_dim=50, visual_dim=64), replace(DISC_CFG, visual_dim=64),
        rng)
    train = work.train_indices()
    gen = gan.train_gan(work, work.features[train], work.labels[train], gen, disc, cols,
                        replace(TRAIN_CFG, eval_every=0), rng).generator
    order = rng.permutation(work.labels.size)
    permuted = data.ZslDataset(work.features[order], work.labels[order], work.class_ids,
                               work.semantics, work.split, work.partition[order])
    test = [d.labels[d.test_indices()] for d in (work, permuted)]
    assert sorted(test[0].tolist()) == sorted(test[1].tolist())
    assert test[0].tolist() != test[1].tolist()
    reports = [evaluate.evaluate_model(gen, d, CalibrationSweep(), [0.25, 0.5, 1.0], 5, 3,
                                       np.random.default_rng(9)) for d in (work, permuted)]
    assert reports[0] == reports[1]


def unseen_top1(refs, ref_labels, dataset, k):
    """Oracle: zero-shot top-1 (%) of dataset's unseen test rows, searched
    over refs alone by a kNN of their own distances."""
    unseen = sorted(dataset.split.unseen)
    rows = unseen_test_rows(dataset)
    scores = knn_scores(KnnClassifier(refs, ref_labels, k=k), dataset.features[rows], unseen)
    return metrics.top1_per_class(scores, unseen, dataset.labels[rows])


def test_evaluate_model_scores_unseen_rows_of_one_reference_draw():
    ds, work, gen, disc, cols, rng = trained_setup()
    ratios = [0.5, 1.0]
    rep = evaluate.evaluate_model(gen, work, CalibrationSweep(), ratios, 5, 3,
                                  np.random.default_rng(9))
    class_ids = sorted(work.split.seen) + sorted(work.split.unseen)
    refs, labels = synthesize_references(
        gen, class_ids, work.semantics_for(class_ids), 5, np.random.default_rng(9)
    )
    u = np.isin(labels, list(work.split.unseen))
    assert rep.top1_unseen == unseen_top1(refs[u], labels[u], work, 3)
    rows = unseen_test_rows(work)
    assert rep.map_at == evaluate.retrieval_map(
        refs[u], labels[u], work.features[rows], work.labels[rows], ratios
    )


def test_evaluate_model_unseen_top1_matches_two_classifier_oracle(monkeypatch):
    ds, work, gen, disc, cols, rng = trained_setup()
    # features and references on an integer grid, a reference of each class
    # repeated and a seen reference equal to an unseen one: distance ties at
    # the k-th neighbor and vote ties, which the oracle must break the same way
    work = replace(work, features=np.round(2.0 * work.features))
    class_ids = sorted(work.split.seen) + sorted(work.split.unseen)
    grid = np.random.default_rng(4)
    refs = grid.integers(-2, 3, size=(5 * len(class_ids), 8)).astype(np.float64)
    refs[1::5] = refs[::5]
    refs[10] = refs[25]
    # five unseen references on the first unseen test row, two of one class
    # and three of the other: five tie for its four neighbor slots
    rows = unseen_test_rows(work)
    first, second = 5 * (len(class_ids) - 2), 5 * (len(class_ids) - 1)
    refs[[first, first + 1, second, second + 1, second + 2]] = work.features[rows[0]]
    labels = np.repeat(np.array(class_ids, dtype=np.int64), 5)
    monkeypatch.setattr(evaluate, "synthesize_references", lambda *a: (refs, labels))

    rep = evaluate.evaluate_model(gen, work, CalibrationSweep(), [0.5, 1.0], 5, 4, rng)

    u = np.isin(labels, list(work.split.unseen))
    assert rep.top1_unseen == unseen_top1(refs[u], labels[u], work, 4)
    unseen = sorted(work.split.unseen)
    scores = knn_scores(KnnClassifier(refs[u], labels[u], k=4), work.features[rows], unseen)
    assert ((scores == scores.max(axis=1, keepdims=True)).sum(axis=1) > 1).any()
    d2 = np.sort(squared_distances(work.features[rows], refs[u]), axis=1)
    assert (d2[:, 3] == d2[:, 4]).any()


def counted_critic_steps(monkeypatch):
    """A list that gains one entry per discriminator_loss_grads call."""
    calls = []
    original = gan.discriminator_loss_grads

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(gan, "discriminator_loss_grads", counting)
    return calls


@pytest.mark.parametrize("train_cfg, ssl_cfg, key", [
    # 5 refs x 2 unseen classes = 10 < 11
    (TRAIN_CFG, SslConfig(knn_k=11, per_class_synthetic=5), "ssl.knn_k"),
    # the probe searches 5 refs x 6 classes = 30 < 31
    (replace(TRAIN_CFG, knn_k=31), SslConfig(knn_k=3, per_class_synthetic=5), "gan.knn_k"),
])
def test_k_above_reference_count_rejected_before_training(monkeypatch, train_cfg,
                                                          ssl_cfg, key):
    calls = counted_critic_steps(monkeypatch)
    with pytest.raises(ConfigError, match=key):
        run_ssl(data.make_synthetic(SPEC), GEN_CFG, DISC_CFG, train_cfg, ssl_cfg, seed=0)
    assert calls == []
    # at the limit both train
    run_ssl(data.make_synthetic(SPEC), GEN_CFG, DISC_CFG,
            replace(TRAIN_CFG, knn_k=30, n_step=10),
            SslConfig(knn_k=10, per_class_synthetic=5), seed=0)
    assert calls


def test_probe_k_unchecked_when_the_probe_never_runs(monkeypatch):
    # eval_every above n_step: no probe, so no k limit
    cfg = replace(TRAIN_CFG, knn_k=31, n_step=5, eval_every=10)
    run_ssl(data.make_synthetic(SPEC), GEN_CFG, DISC_CFG, cfg,
            SslConfig(knn_k=3, per_class_synthetic=5), seed=0)


def three_array_transform(scaler, x):
    """The expression FeatureScaler.transform replaced, kept as its oracle."""
    span = scaler.hi - scaler.lo
    safe = np.where(span > 0.0, span, 1.0)
    out = 2.0 * (np.asarray(x, dtype=np.float64) - scaler.lo) / safe - 1.0
    return np.where(span > 0.0, out, 0.0)


def test_scaler_transform_is_bitwise_the_three_array_form():
    rng = np.random.default_rng(23)
    fit = rng.normal(size=(50, 9)) * rng.uniform(0.1, 50.0, size=9)
    fit[:, [2, 7]] = 4.25   # constant columns map to 0
    scaler = gan.FeatureScaler.fit(fit)
    for x in (fit, rng.normal(size=(40, 9)) * 30.0, fit[3]):
        assert scaler.transform(x).tobytes() == three_array_transform(scaler, x).tobytes()
    assert not scaler.transform(rng.normal(size=(5, 9)))[:, [2, 7]].any()
    varying = gan.FeatureScaler(lo=-np.ones(3), hi=np.ones(3))
    x = rng.normal(size=(6, 3))
    assert varying.transform(x).tobytes() == three_array_transform(varying, x).tobytes()


def test_scaler_transform_holds_one_array_of_the_features_size():
    x = np.random.default_rng(24).normal(size=(4000, 512))
    scaler = gan.FeatureScaler.fit(x)
    tracemalloc.start()
    try:
        out = scaler.transform(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == x.shape and peak < 1.5 * x.nbytes, (peak, x.nbytes)
