import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from zsgen import data, gan, selftrain
from zsgen.errors import ConfigError, UsageError
from zsgen.gan import (
    Discriminator, DiscriminatorConfig, GanTrainConfig, Generator,
    GeneratorConfig, TripletSampler, discriminator_loss_grads,
    generate, generator_loss_grads, gradient_penalty_grads, softmax_cross_entropy,
    triplet_loss_grad,
)
from zsgen.knn import KnnClassifier
from zsgen import nn
from zsgen.nn import (
    AdamState, Layer, Mlp, activate_grad, adam_step, mlp_backward, mlp_backward_forms,
    mlp_forward, stream_grads, unflatten, write_grads,
)


def reference_triplet(synthetic, positives, negatives, margin):
    """Straight-line evaluation of the class-averaged hinged distance gap."""
    c = len(synthetic)
    gap = 0.0
    for i in range(c):
        pd = np.mean([np.linalg.norm(synthetic[i] - p) for p in positives[i]])
        nd = np.mean([np.linalg.norm(synthetic[i] - q) for q in negatives[i]])
        gap += pd - nd
    return max(gap / c + margin, 0.0)


def as_rows(*sample_stacks):
    """One feature table holding every sample of the given (m, n, d) sample
    stacks, each sample in its own row, then each stack as an (m, n) table
    of row indices into it."""
    tables, out, at = [], [], 0
    for sets in sample_stacks:
        m, n, d = sets.shape
        tables.append(sets.reshape(m * n, d))
        out.append(at + np.arange(m * n).reshape(m, n))
        at += m * n
    return (np.vstack(tables), *out)


def stacked_triplet_loss_grad(synthetic, positives, negatives, margin):
    """The whole-batch form that the blocked, row-indexed triplet_loss_grad
    replaced, kept as its bit-for-bit oracle: each (m, n, d) sample stack is
    flattened to one row per sample, with per-row counts."""
    synthetic = np.asarray(synthetic, dtype=np.float64)
    n_classes, dim = synthetic.shape

    def passes(sets):
        flat, counts = sets.reshape(-1, dim), np.full(n_classes, sets.shape[1])
        diff = np.repeat(synthetic, counts, axis=0)
        diff -= flat
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        starts = np.cumsum(counts) - counts
        nz = dist > 0.0
        np.divide(diff, np.where(nz, dist, 1.0)[:, None], out=diff)
        diff[~nz] = 0.0
        return (np.add.reduceat(dist, starts) / counts,
                np.add.reduceat(diff, starts, axis=0) / counts[:, None])

    (pos_dist, pos_dir), (neg_dist, neg_dir) = passes(positives), passes(negatives)
    loss = float(np.sum(pos_dist - neg_dist)) / n_classes + margin
    if loss <= 0.0:
        return 0.0, np.zeros_like(synthetic)
    return loss, (pos_dir - neg_dir) / n_classes


def loop_triplet_loss_grad(synthetic, positives, negatives, margin):
    """The per-class loop that triplet_loss_grad replaced, kept as its oracle."""
    def safe_unit(diff, dist):
        out = np.zeros_like(diff)
        nz = dist > 0.0
        out[nz] = diff[nz] / dist[nz][..., None]
        return out

    synthetic = np.asarray(synthetic, dtype=np.float64)
    n_classes = synthetic.shape[0]
    gap = 0.0
    grads = np.zeros_like(synthetic)
    for c in range(n_classes):
        pos = np.asarray(positives[c], dtype=np.float64)
        neg = np.asarray(negatives[c], dtype=np.float64)
        pd = synthetic[c][None, :] - pos
        nd = synthetic[c][None, :] - neg
        pdist = np.linalg.norm(pd, axis=1)
        ndist = np.linalg.norm(nd, axis=1)
        gap += pdist.mean() - ndist.mean()
        grads[c] = (
            safe_unit(pd, pdist).mean(axis=0) - safe_unit(nd, ndist).mean(axis=0)
        ) / n_classes
    loss = gap / n_classes + margin
    if loss <= 0.0:
        return 0.0, np.zeros_like(synthetic)
    return loss, grads


def _triplet_cases(rng):
    """(synthetic, features, positives, negatives, margin): index tables of
    one width per case, 1 to 10 each, into a pool small enough that rows
    share samples; rows at zero distance from a sample; hinges on both sides."""
    for _ in range(300):
        c, d = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        n_pos, n_neg = (int(w) for w in rng.integers(1, 11, size=2))
        x = rng.normal(size=(c, d))
        # the pool, then a copy of every synthetic row
        pool = int(rng.integers(1, 3 * c + 1))
        features = np.vstack([rng.normal(size=(pool, d)), x])
        pos = rng.integers(0, pool, size=(c, n_pos))
        neg = rng.integers(0, pool, size=(c, n_neg))
        for i in range(c):
            # a sample equal to its synthetic row has distance 0
            if rng.random() < 0.3:
                pos[i, 0] = pool + i
            if rng.random() < 0.3:
                neg[i, -1] = pool + i
        yield x, features, pos, neg, float(rng.uniform(0.0, 2.0))
        # equal sets at margin 0: the gap is exactly 0 and the hinge inactive
        yield x, features, pos, pos, 0.0


def test_triplet_matches_loop_oracle_on_shared_and_own_rows():
    rng = np.random.default_rng(11)
    worst, active, inactive, zero_rows = 0.0, 0, 0, 0
    for x, features, pos, neg, margin in _triplet_cases(rng):
        ref_loss, ref_grad = loop_triplet_loss_grad(x, features[pos], features[neg], margin)
        loss, grad = triplet_loss_grad(x, features, pos, neg, margin)
        worst = max(worst, abs(loss - ref_loss), float(np.abs(grad - ref_grad).max()))
        active += ref_loss > 0.0
        inactive += ref_loss == 0.0
        zero_rows += any((features[p] == x[i]).all(axis=1).any() for i, p in enumerate(pos))
        if ref_loss == 0.0:
            assert loss == 0.0 and not grad.any()
        # the same samples, each in its own feature row, take the same path
        loss, grad = triplet_loss_grad(x, *as_rows(features[pos], features[neg]), margin)
        worst = max(worst, abs(loss - ref_loss), float(np.abs(grad - ref_grad).max()))
    assert active > 100 and inactive > 300 and zero_rows > 50
    assert worst < 1e-12, worst


@pytest.mark.parametrize("block_values", [1, 40, gan.TRIPLET_BLOCK_VALUES])
def test_triplet_blocks_equal_the_stacked_form_bit_for_bit(monkeypatch, block_values):
    # 1: one batch row per block; 40: a few rows of the 2-20 samples per row
    # in a block, or one row where its samples alone pass 40 values
    monkeypatch.setattr(gan, "TRIPLET_BLOCK_VALUES", block_values)
    rng = np.random.default_rng(12)
    active = inactive = narrow = wide = 0
    for x, features, pos, neg, margin in _triplet_cases(rng):
        ref_loss, ref_grad = stacked_triplet_loss_grad(x, features[pos], features[neg],
                                                       margin)
        narrow += min(pos.shape[1], neg.shape[1]) == 1
        wide += max(pos.shape[1], neg.shape[1]) >= 8
        for args in [(features, pos, neg), as_rows(features[pos], features[neg])]:
            loss, grad = triplet_loss_grad(x, *args, margin)
            assert loss == ref_loss and grad.tobytes() == ref_grad.tobytes()
            active += loss > 0.0
            inactive += loss == 0.0
    assert active > 200 and inactive > 600 and narrow > 50 and wide > 100


@pytest.mark.parametrize("block_values", [3, gan.TRIPLET_BLOCK_VALUES])
def test_triplet_samples_shared_between_classes(monkeypatch, block_values):
    # table row 0 is a positive of row 0 and a negative of row 1, table row 4
    # a negative of row 0 and a positive of row 1; at 3 values per block each
    # block holds one row, so a block boundary falls between the two rows
    monkeypatch.setattr(gan, "TRIPLET_BLOCK_VALUES", block_values)
    rng = np.random.default_rng(13)
    features, x = rng.normal(size=(6, 3)), rng.normal(size=(2, 3))
    pos, neg = np.array([[0, 1], [2, 4]]), np.array([[3, 4, 5], [0, 5, 1]])
    ref_loss, ref_grad = stacked_triplet_loss_grad(x, features[pos], features[neg], 4.0)
    loss, grad = triplet_loss_grad(x, features, pos, neg, 4.0)
    assert loss == ref_loss > 0.0 and grad.tobytes() == ref_grad.tobytes()


@pytest.mark.parametrize("pos", [np.array([[0.0], [1.0]]), np.array([[0], [6]]),
                                 np.array([[0], [-1]]), [[0], [1.5]]])
def test_triplet_rejects_sets_that_are_not_row_indices(pos):
    features = np.zeros((6, 3))
    with pytest.raises(UsageError):
        triplet_loss_grad(np.zeros((2, 3)), features, pos, np.array([[1], [2]]), 0.0)


@pytest.mark.parametrize("name", ["positives", "negatives"])
@pytest.mark.parametrize("table", [
    [np.array([0, 1]), np.array([2])],        # ragged list
    np.array([0, 1]),                         # 1-d
    np.zeros((2, 1, 1), dtype=np.int64),      # 3-d
    np.zeros((2, 0), dtype=np.int64),         # zero width
    np.array([[0.0, 1.0], [2.0, 3.0]]),       # float
], ids=["ragged", "1d", "3d", "zero-width", "float"])
def test_triplet_table_that_is_not_one_integer_table_names_it(name, table):
    tables = {"positives": np.array([[1, 2], [3, 4]]), "negatives": np.array([[5], [0]])}
    tables[name] = table
    with pytest.raises(UsageError, match=name):
        triplet_loss_grad(np.zeros((2, 3)), np.zeros((6, 3)), tables["positives"],
                          tables["negatives"], 0.1)


def test_triplet_empty_array_set_rejected():
    with pytest.raises(UsageError):
        triplet_loss_grad(np.zeros((2, 3)),
                          *as_rows(np.ones((2, 0, 3)), np.ones((2, 1, 3))), 0.0)
    with pytest.raises(UsageError):
        triplet_loss_grad(np.zeros((2, 3)),
                          *as_rows(np.ones((3, 1, 3)), np.ones((2, 1, 3))), 0.0)


def row_loop_subset_offsets(rng, pool, n):
    """The Floyd steps as _subset_offsets took them on the (rows, n) picks,
    one short reduction per row, kept as its oracle."""
    short = (pool < n)[:, None]
    top = np.where(short, pool[:, None] - 1, (pool - n)[:, None] + np.arange(n))
    picks = (rng.random(top.shape) * (top + 1)).astype(np.int64)
    for k in range(1, n):
        t = picks[:, k:k + 1]
        repeat = (picks[:, :k] == t).any(axis=1, keepdims=True) & ~short
        picks[:, k:k + 1] = np.where(repeat, top[:, k:k + 1], t)
    return picks


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 9), min_size=2, max_size=5),
       n_pos=st.integers(1, 6), n_neg=st.integers(1, 12), seed=st.integers(0, 2**16))
def test_triplet_sampler_properties(sizes, n_pos, n_neg, seed):
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(10 * np.arange(len(sizes)), sizes))
    sampler = TripletSampler(labels)
    rows = rng.integers(0, labels.size, size=40)
    pos, neg = sampler.draw(np.random.default_rng(seed), rows, n_pos, n_neg)
    assert pos.shape == (40, n_pos) and neg.shape == (40, n_neg)
    own = labels[rows][:, None]
    assert (labels[pos] == own).all()
    assert (labels[neg] != own).all()
    for i, row in enumerate(rows):
        same = int((labels == labels[row]).sum())
        if same >= n_pos:
            assert len(set(pos[i].tolist())) == n_pos
        if labels.size - same >= n_neg:
            assert len(set(neg[i].tolist())) == n_neg
    again = sampler.draw(np.random.default_rng(seed), rows, n_pos, n_neg)
    assert (again[0] == pos).all() and (again[1] == neg).all()
    # pools above, at and below the subset size
    pool = rng.integers(1, 2 * max(n_pos, n_neg) + 2, size=40)
    for n in (n_pos, n_neg):
        got, want = (f(np.random.default_rng(seed), pool, n)
                     for f in (gan._subset_offsets, row_loop_subset_offsets))
        assert got.tolist() == want.tolist()


def test_triplet_sampler_uniform_and_replacement_for_small_classes():
    labels = np.array([0] * 7 + [1] * 2 + [2] * 1 + [3] * 5)
    sampler = TripletSampler(labels)
    rows = np.repeat([0, 7, 9], 4000)   # a class of 7, of 2 and of 1
    pos, neg = sampler.draw(np.random.default_rng(0), rows, 4, 6)
    # classes with fewer than n_pos rows fall back to replacement
    assert (pos[4000:8000] < 9).all() and (pos[4000:8000] >= 7).all()
    assert (pos[8000:] == 9).all()
    assert any(len(set(r)) < 4 for r in pos[4000:8000].tolist())
    # each class-0 row is one of 4 distinct picks from 7: probability 4/7
    counts = np.bincount(pos[:4000].ravel(), minlength=7)[:7]
    np.testing.assert_allclose(counts / 4000, 4 / 7, rtol=0.05)
    # each of the 8 other-class rows is one of 6 distinct picks: 6/8
    counts = np.bincount(neg[:4000].ravel(), minlength=15)[7:]
    np.testing.assert_allclose(counts / 4000, 6 / 8, rtol=0.05)


def test_triplet_sampler_needs_two_classes():
    sampler = TripletSampler(np.zeros(5, dtype=np.int64))
    with pytest.raises(ConfigError):
        sampler.draw(np.random.default_rng(0), np.arange(5), 2, 2)


def one_sample(*point):
    """A one-row batch's single sample, as a (1, 1, d) stack."""
    return np.array([[point]], dtype=np.float64)


def test_triplet_equal_distances_zero_margin():
    x = np.array([[0.0, 0.0]])
    loss, _ = triplet_loss_grad(x, *as_rows(one_sample(1.0, 0.0), one_sample(0.0, 1.0)),
                                0.0)
    assert loss == 0.0


def test_triplet_inactive_hinge():
    x = np.array([[0.0, 0.0]])
    loss, _ = triplet_loss_grad(x, *as_rows(one_sample(1.0, 0.0), one_sample(3.0, 0.0)),
                                0.5)
    assert loss == 0.0


def test_triplet_active_hinge_hand_value():
    x = np.array([[0.0, 0.0]])
    loss, _ = triplet_loss_grad(x, *as_rows(one_sample(2.0, 0.0), one_sample(1.0, 0.0)),
                                0.5)
    np.testing.assert_allclose(loss, 1.5)


def test_triplet_nonnegative_and_matches_reference():
    rng = np.random.default_rng(0)
    for _ in range(50):
        c = rng.integers(1, 5)
        d = rng.integers(1, 9)
        x = rng.normal(size=(c, d))
        pos = rng.normal(size=(c, rng.integers(1, 4), d))
        neg = rng.normal(size=(c, rng.integers(1, 4), d))
        margin = float(rng.uniform(0.0, 2.0))
        loss, _ = triplet_loss_grad(x, *as_rows(pos, neg), margin)
        assert loss >= 0.0
        np.testing.assert_allclose(loss, reference_triplet(x, pos, neg, margin),
                                   rtol=0, atol=1e-12)


def test_triplet_empty_class_rejected():
    with pytest.raises(UsageError):
        triplet_loss_grad(np.zeros((1, 2)),
                          *as_rows(np.zeros((1, 0, 2)), np.ones((1, 1, 2))), 0.0)


def test_triplet_zero_grad_when_hinge_inactive():
    x = np.array([[0.0, 0.0]])
    loss, grad = triplet_loss_grad(
        x, *as_rows(one_sample(1.0, 0.0), one_sample(5.0, 0.0)), 0.1
    )
    assert loss == 0.0 and not grad.any()


def flat_disc(num_classes, critic_bias=0.0, head_bias=0.0):
    """A critic whose score is critic_bias and whose logits are head_bias for
    every input: zero weights, so the fake batch reaches neither."""
    disc = make_disc(np.random.default_rng(0), visual_dim=4, hidden=5,
                     num_classes=num_classes)
    disc.critic.layers[0].weight[:] = 0.0
    disc.critic.layers[0].bias[:] = critic_bias
    disc.head.layers[0].weight[:] = 0.0
    disc.head.layers[0].bias[:] = head_bias
    return disc


def generator_step(disc, labels, pos, neg, margin=0.0, lambda_t=1.0, seed=0):
    rng = np.random.default_rng(seed)
    gen = make_gen(rng)
    n = len(labels)
    cfg = GanTrainConfig(margin=margin, lambda_t=lambda_t)
    return generator_loss_grads(gen, disc, rng.normal(size=(n, 6)),
                                gen.sample_noise(rng, n), np.asarray(labels),
                                *as_rows(pos, neg), cfg)


def sets(rng, n, k=2, shift=0.0):
    return rng.normal(size=(n, k, 4)) + shift


def test_generator_loss_uniform_logits_is_log_c():
    n, c = 4, 3
    same = sets(np.random.default_rng(1), n)
    loss, trip, _ = generator_step(flat_disc(c), np.zeros(n, dtype=np.int64), same, same)
    # critic 0, triplet 0 (equal sets, margin 0): half the cross-entropy,
    # which is log c on uniform logits
    assert trip == 0.0
    np.testing.assert_allclose(loss, 0.5 * np.log(c), rtol=0, atol=1e-12)


def test_generator_loss_lambda_zero_ignores_triplet():
    n, c = 2, 2
    rng = np.random.default_rng(2)
    same, far = sets(rng, n), sets(rng, n, shift=5.0)
    disc = flat_disc(c, critic_bias=0.4, head_bias=[0.3, -0.2])
    labels = np.zeros(n, dtype=np.int64)
    a_loss, a_trip, a_grads = generator_step(disc, labels, far, same, lambda_t=0.0)
    b_loss, b_trip, b_grads = generator_step(disc, labels, same, same, lambda_t=0.0)
    assert a_trip > 0.0 and b_trip == 0.0
    assert a_loss == b_loss
    assert all((a == b).all() for a, b in zip(a_grads, b_grads))


def test_generator_loss_vanishes_on_matched_critics_and_perfect_logits():
    n = 3
    same = sets(np.random.default_rng(3), n)
    # critic score 0 everywhere; the head puts all mass on class 1, the label
    disc = flat_disc(2, head_bias=[-1000.0, 1000.0])
    loss, trip, grads = generator_step(disc, np.ones(n, dtype=np.int64), same, same)
    assert loss == 0.0 and trip == 0.0
    assert not any(g.any() for g in grads)


def test_generator_loss_invariant_to_critic_constant_shift():
    rng = np.random.default_rng(3)
    n, c = 5, 4
    labels = rng.integers(0, c, size=n)
    pos, neg = sets(rng, n, shift=3.0), sets(rng, n)
    head = rng.normal(size=c)
    base, trip, base_grads = generator_step(
        flat_disc(c, critic_bias=0.2, head_bias=head), labels, pos, neg, 0.3, 0.7)
    shifted, _, shifted_grads = generator_step(
        flat_disc(c, critic_bias=11.7, head_bias=head), labels, pos, neg, 0.3, 0.7)
    # the loss holds -mean critic(fake): a constant shift moves it by exactly
    # that constant and leaves every gradient unchanged
    assert trip > 0.0
    np.testing.assert_allclose(shifted, base - 11.5, rtol=0, atol=1e-9)
    assert all((a == b).all() for a, b in zip(base_grads, shifted_grads))


def test_generator_loss_label_out_of_range():
    same = sets(np.random.default_rng(4), 1)
    with pytest.raises(UsageError):
        generator_step(flat_disc(2), np.array([5]), same, same)


def make_disc(rng, visual_dim=3, hidden=4, num_classes=2):
    return Discriminator(
        DiscriminatorConfig(visual_dim=visual_dim, hidden_dim=hidden,
                            num_classes=num_classes), rng
    )


def test_discriminator_constant_critic_pays_full_penalty():
    rng = np.random.default_rng(0)
    disc = make_disc(rng)
    disc.critic.layers[0].weight[:] = 0.0
    real = rng.uniform(-0.9, 0.9, size=(4, 3))
    fake = rng.uniform(-0.9, 0.9, size=(4, 3))
    labels = rng.integers(0, 2, size=4)
    eps = rng.uniform(0.0, 1.0, size=(4, 1))
    base = discriminator_loss_grads(disc, real, fake, labels, 0.0, eps=eps)[0]
    with_gp = discriminator_loss_grads(disc, real, fake, labels, 5.0, eps=eps)[0]
    # zero critic gradient everywhere: penalty (0 - 1)^2 = 1 per interpolate
    np.testing.assert_allclose(with_gp - base, 5.0, atol=1e-12)


def reference_softmax_cross_entropy(logits, labels):
    """Softmax cross-entropy with its shifted logits, exponentials and
    probabilities in three arrays."""
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    loss = float(-np.log(probs[np.arange(n), labels] + 1e-300).mean())
    probs[np.arange(n), labels] -= 1.0
    return loss, probs / n


def test_softmax_cross_entropy_is_bitwise_the_three_array_form():
    rng = np.random.default_rng(14)
    for n, n_cls, scale in [(1, 1, 1.0), (5, 3, 1.0), (64, 7, 10.0), (300, 40, 1e3)]:
        logits = rng.normal(scale=scale, size=(n, n_cls))
        labels = rng.integers(0, n_cls, size=n)
        before = logits.copy()
        loss, d_logits = softmax_cross_entropy(logits, labels)
        ref_loss, ref_d = reference_softmax_cross_entropy(logits, labels)
        assert loss == ref_loss and d_logits.tobytes() == ref_d.tobytes()
        assert logits.tobytes() == before.tobytes()
    for bad in (n_cls, -1):
        labels[0] = bad
        with pytest.raises(UsageError, match="label"):
            softmax_cross_entropy(logits, labels)


def test_discriminator_identical_batches_reduce_to_classification():
    rng = np.random.default_rng(1)
    disc = make_disc(rng)
    x = rng.uniform(-0.9, 0.9, size=(5, 3))
    labels = rng.integers(0, 2, size=5)
    loss = discriminator_loss_grads(disc, x, x, labels, 0.0)[0]
    _, logits, _ = disc.forward(x)
    ce, _ = softmax_cross_entropy(logits, labels)
    np.testing.assert_allclose(loss, ce, atol=1e-12)


def test_discriminator_hand_built_critic_value():
    # trunk h = [relu(x), relu(-x)], critic = relu(x) - relu(-x) = x,
    # head gives the true class an overwhelming logit -> CE ~ 0
    trunk = Mlp([Layer(np.array([[1.0, -1.0]]), np.zeros(2), "relu")])
    critic = Mlp([Layer(np.array([[1.0], [-1.0]]), np.zeros(1), "identity")])
    head = Mlp([Layer(np.array([[1000.0, 0.0], [1000.0, 0.0]]), np.zeros(2), "identity")])
    disc = Discriminator.from_parts(
        DiscriminatorConfig(visual_dim=1, hidden_dim=2, num_classes=2),
        {"trunk": trunk, "critic": critic, "head": head})
    real = np.full((3, 1), 1.0)
    fake = np.full((3, 1), -1.0)
    labels = np.zeros(3, dtype=np.int64)
    loss = discriminator_loss_grads(disc, real, fake, labels, 0.0)[0]
    # mean critic(fake) - mean critic(real) = -1 - 1 = -2, CE terms ~ 0
    np.testing.assert_allclose(loss, -2.0, atol=1e-9)


def test_discriminator_needs_rng_or_eps_for_penalty():
    rng = np.random.default_rng(2)
    disc = make_disc(rng)
    x = rng.normal(size=(2, 3))
    with pytest.raises(UsageError):
        discriminator_loss_grads(disc, x, x, np.zeros(2, dtype=np.int64), 10.0)


def make_gen(rng, **kw):
    cfg = GeneratorConfig(semantic_dim=6, visual_dim=4, reduce_dim=5,
                          hidden_dim=7, **kw)
    return Generator(cfg, rng)


def test_generate_output_strictly_inside_unit_interval():
    rng = np.random.default_rng(0)
    gen = make_gen(rng)
    sem = rng.normal(size=(10, 6))
    out = generate(gen, sem, gen.sample_noise(rng, 10))
    assert ((out > -1.0) & (out < 1.0)).all()
    assert out.shape == (10, 4)


def test_generate_deterministic_given_noise():
    rng = np.random.default_rng(1)
    gen = make_gen(rng)
    sem = rng.normal(size=(3, 6))
    noise = gen.sample_noise(rng, 3)
    np.testing.assert_array_equal(generate(gen, sem, noise), generate(gen, sem, noise))


def test_generate_sensitive_to_noise():
    rng = np.random.default_rng(2)
    gen = make_gen(rng)
    sem = rng.normal(size=(3, 6))
    a = generate(gen, sem, gen.sample_noise(rng, 3))
    b = generate(gen, sem, gen.sample_noise(rng, 3))
    assert not np.array_equal(a, b)


def test_generate_identical_rows_give_identical_outputs():
    rng = np.random.default_rng(3)
    gen = make_gen(rng)
    sem = np.repeat(rng.normal(size=(1, 6)), 2, axis=0)
    noise = np.repeat(gen.sample_noise(rng, 1), 2, axis=0)
    out = generate(gen, sem, noise)
    np.testing.assert_array_equal(out[0], out[1])


def test_generate_rejects_mismatched_noise():
    rng = np.random.default_rng(4)
    gen = make_gen(rng)
    with pytest.raises(UsageError):
        generate(gen, rng.normal(size=(2, 6)), rng.normal(size=(2, 3)))
    with pytest.raises(UsageError):
        generate(gen, rng.normal(size=(2, 6)), gen.sample_noise(rng, 3))
    with pytest.raises(UsageError):
        generate(gen, rng.normal(size=(3, 6)), gen.sample_noise(rng, 2))


@pytest.mark.parametrize("kw", [{}, {"noise_dim": 3, "noise_mode": "concat"}])
def test_generate_broadcasts_one_semantic_row(kw):
    rng = np.random.default_rng(7)
    gen = make_gen(rng, **kw)
    sem = rng.normal(size=(1, 6))
    noise = gen.sample_noise(rng, 9)
    # the reduce layer runs on one row instead of nine: equal up to rounding
    np.testing.assert_allclose(generate(gen, sem, noise),
                               generate(gen, np.repeat(sem, 9, axis=0), noise),
                               rtol=0, atol=1e-12)


def test_generate_rejects_non_finite_output():
    rng = np.random.default_rng(6)
    gen = make_gen(rng)
    sem = rng.normal(size=(3, 6))
    sem[1, 2] = np.nan
    with pytest.raises(UsageError):
        generate(gen, sem, gen.sample_noise(rng, 3))
    gen.decode.layers[-1].bias[0] = np.nan
    with pytest.raises(UsageError):
        generate(gen, rng.normal(size=(3, 6)), gen.sample_noise(rng, 3))


@pytest.mark.parametrize("kw", [{}, {"noise_dim": 3, "noise_mode": "concat"}])
def test_generate_into_out_is_bitwise_the_new_array(kw):
    rng = np.random.default_rng(8)
    gen = make_gen(rng, **kw)
    sem = rng.normal(size=(3, 6))
    noise = gen.sample_noise(rng, 7)
    classes = np.array([2, 0, 1, 1, 2, 0, 2])
    fresh = generate(gen, sem, noise, classes)
    block = np.full((9, 4), np.nan)
    got = generate(gen, sem, noise, classes, out=block[1:8])
    assert np.shares_memory(got, block) and got.base is block
    assert block[1:8].tobytes() == fresh.tobytes()
    assert np.isnan(block[[0, 8]]).all()
    # the cached training forward gives the same rows
    cached, _ = gen.forward(sem, noise, classes)
    assert cached.tobytes() == fresh.tobytes()


def test_generate_rejects_an_out_it_cannot_write_in_place():
    rng = np.random.default_rng(9)
    gen = make_gen(rng)
    sem, noise = rng.normal(size=(1, 6)), gen.sample_noise(rng, 5)
    for out in (np.empty((5, 3)), np.empty((4, 4)), np.empty((5, 4), dtype=np.float32),
                np.empty((4, 5)).T[:, :4][:5], np.empty((5, 8))[:, ::2],
                np.empty((5, 4)).tolist()):
        with pytest.raises(UsageError, match="out"):
            generate(gen, sem, noise, out=out)


@pytest.mark.parametrize("slope", [0.0, -0.1, 1.5])
def test_generator_slope_outside_unit_interval_rejected(slope):
    with pytest.raises(ConfigError, match="slope"):
        GeneratorConfig(semantic_dim=6, visual_dim=4, slope=slope)
    assert GeneratorConfig(semantic_dim=6, visual_dim=4, slope=1.0).slope == 1.0


def test_concat_noise_mode():
    rng = np.random.default_rng(5)
    cfg = GeneratorConfig(semantic_dim=6, visual_dim=4, reduce_dim=5,
                          hidden_dim=7, noise_dim=3, noise_mode="concat")
    gen = Generator(cfg, rng)
    out = generate(gen, rng.normal(size=(2, 6)), gen.sample_noise(rng, 2))
    assert out.shape == (2, 4)


def critic_input_gradient(disc, x):
    """Gradient of the scalar critic in its input, plus the chain internals
    needed to differentiate the gradient norm in the parameters."""
    h, trunk_cache = mlp_forward(disc.trunk, x)
    masks = [
        activate_grad(layer.activation, z, layer.slope)
        for layer, (_, z) in zip(disc.trunk.layers, trunk_cache)
    ]
    n = x.shape[0]
    # backward chain, critic head first, recording stage inputs
    t = np.broadcast_to(disc.critic.layers[0].weight[:, 0][None, :], (n, disc.trunk.out_dim)).copy()
    stages = []  # per trunk layer, top-down: (t_before_mask, masked)
    for layer, mask in zip(reversed(disc.trunk.layers), reversed(masks)):
        masked = t * mask
        stages.append((t, masked, mask, layer))
        t = masked @ layer.weight.T
    return t, stages  # t == d critic / d x, per row


def chain_gradient_penalty_grads(disc, x_hat, grads, scale=1.0):
    """The penalty that reran the trunk on the interpolates x_hat and walked
    the chain back up, kept as the oracle of gradient_penalty_grads."""
    g, stages = critic_input_gradient(disc, x_hat)
    n = x_hat.shape[0]
    norms = np.linalg.norm(g, axis=1)
    penalty = float(((norms - 1.0) ** 2).mean())
    unit = np.zeros_like(g)
    nz = norms > 0.0
    unit[nz] = g[nz] / norms[nz][:, None]
    d_t = (2.0 * scale / n) * unit * (norms - 1.0)[:, None]

    # walk the chain back up: trunk layer 1 was applied last
    for i, (t_before, masked, mask, layer) in enumerate(reversed(stages)):
        grads[2 * i] += d_t.T @ masked  # (in, out) weight gradient, bottom-up
        d_masked = d_t @ layer.weight
        d_t = d_masked * mask
    # critic head weight: chain input was its weight column broadcast per row
    grads[2 * len(disc.trunk.layers)] += d_t.sum(axis=0)[:, None]
    return penalty


def penalty_into(disc, z_hat, grads, scale=1.0):
    """gradient_penalty_grads with its gradients added to grads, a list
    aligned with disc.params(): each array's form gives what grads held."""
    held = [g.copy() if g.ndim == 2 else g.copy()[None] for g in grads]
    forms = [lambda lo, hi, dest, h=h: np.copyto(dest, h[lo:hi]) for h in held]
    penalty = gradient_penalty_grads(disc, z_hat, forms, scale)
    write_grads(forms, grads, grads)
    return penalty


def mixed_preactivation(disc, real_x, fake_x, eps):
    """eps * z_real + (1 - eps) * z_fake: the interpolates' trunk pre-activation."""
    (_, z_real), = mlp_forward(disc.trunk, real_x)[1]
    (_, z_fake), = mlp_forward(disc.trunk, fake_x)[1]
    return eps * z_real + (1.0 - eps) * z_fake


def two_pass_discriminator_loss_grads(disc, real_x, fake_x, labels, gp_weight, eps):
    """The separate real and fake passes that the stacked critic pass replaced,
    kept as its oracle: loss and gradients as a list aligned with disc.params()."""
    n = real_x.shape[0]
    critic_r, logits_r, cache_r = disc.forward(real_x)
    critic_f, logits_f, cache_f = disc.forward(fake_x)
    ce_real, d_logits_r = softmax_cross_entropy(logits_r, labels)
    ce_fake, d_logits_f = softmax_cross_entropy(logits_f, labels)
    loss = float(np.mean(critic_f)) - float(np.mean(critic_r)) + 0.5 * (ce_fake + ce_real)
    grads_f, _ = disc.backward(cache_f, np.full(n, 1.0 / n), 0.5 * d_logits_f)
    grads_r, _ = disc.backward(cache_r, np.full(n, -1.0 / n), 0.5 * d_logits_r)
    grads = [a + b for a, b in zip(grads_f, grads_r)]
    if gp_weight != 0.0:
        gp_grads = [np.zeros_like(p) for p in disc.params()]
        penalty = chain_gradient_penalty_grads(disc, eps * real_x + (1.0 - eps) * fake_x,
                                               gp_grads)
        loss += gp_weight * penalty
        grads = [a + gp_weight * b for a, b in zip(grads, gp_grads)]
    return loss, grads


def assert_rel_close(got, ref, rel=1e-12):
    """max |got - ref| within rel of max |ref|, over a flat vector or a list."""
    got = np.concatenate([np.ravel(g) for g in got]) if isinstance(got, list) else got
    ref = np.concatenate([np.ravel(r) for r in ref]) if isinstance(ref, list) else ref
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= rel * np.abs(ref).max(), np.abs(got - ref).max()


@pytest.mark.parametrize("m", [1, 7])
@pytest.mark.parametrize("gp_weight", [0.0, 10.0])
def test_stacked_critic_pass_matches_two_pass_oracle(m, gp_weight):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        disc = make_disc(rng, visual_dim=6, hidden=9, num_classes=4)
        real = rng.uniform(-0.9, 0.9, size=(m, 6))
        fake = rng.uniform(-0.9, 0.9, size=(m, 6))
        labels = rng.integers(0, 4, size=m)
        eps = rng.uniform(0.0, 1.0, size=(m, 1))
        ref_loss, ref_grads = two_pass_discriminator_loss_grads(
            disc, real, fake, labels, gp_weight, eps)
        loss, grads = discriminator_loss_grads(disc, real, fake, labels, gp_weight, eps=eps)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert_rel_close(grads, ref_grads)


@pytest.mark.parametrize("scale", [1.0, 10.0])
def test_penalty_from_mixed_preactivation_matches_chain_oracle(scale):
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        m = int(rng.integers(1, 9))
        disc = make_disc(rng, visual_dim=6, hidden=9, num_classes=3)
        disc.trunk.layers[0].bias[:] = rng.normal(size=9)
        disc.critic.layers[0].bias[:] = rng.normal()
        real = rng.uniform(-0.9, 0.9, size=(m, 6))
        fake = rng.uniform(-0.9, 0.9, size=(m, 6))
        eps = rng.uniform(0.0, 1.0, size=(m, 1))
        ref_grads = [np.zeros_like(p) for p in disc.params()]
        ref = chain_gradient_penalty_grads(disc, eps * real + (1.0 - eps) * fake,
                                           ref_grads, scale)
        grads = [np.zeros_like(p) for p in disc.params()]
        penalty = penalty_into(disc, mixed_preactivation(disc, real, fake, eps), grads,
                               scale)
        assert abs(penalty - ref) <= 1e-12 * abs(ref)
        assert_rel_close(grads, ref_grads)
        # only the trunk and critic weights receive penalty gradients
        assert not any(g.any() for i, g in enumerate(grads) if i not in (0, 2))


def tie_disc():
    """Integer critic whose trunk pre-activation has an exact 0 in row 0."""
    disc = make_disc(np.random.default_rng(0), visual_dim=2, hidden=3, num_classes=2)
    disc.trunk.layers[0].weight[:] = [[0.0, 5.0, 0.0], [1.0, 6.0, 1.0]]
    disc.trunk.layers[0].bias[:] = [0.0, -1.0, 2.0]
    disc.critic.layers[0].weight[:] = 1.0
    return disc


def test_penalty_counts_a_relu_tie_as_active_in_both_forms():
    disc = tie_disc()
    # row 0 interpolates to x = 0, so z_hat = bias = [0, -1, 2]: with the tie
    # active the critic gradient is [0, 2] (norm 2), without it [0, 1] (norm 1);
    # row 1 has z_hat = [-3, -19, -1], a zero gradient
    real = np.array([[1.0, 0.0], [0.0, -3.0]])
    fake = np.array([[-1.0, 0.0], [2.0, 9.0]])
    eps = np.array([[0.5], [1.0]])
    z_hat = mixed_preactivation(disc, real, fake, eps)
    assert z_hat.tolist() == [[0.0, -1.0, 2.0], [-3.0, -19.0, -1.0]]
    # penalty ((2 - 1)^2 + (0 - 1)^2) / 2; d_g = [[0, 1], [0, 0]]
    want = [np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 1.0]]), np.zeros(3),
            np.array([[1.0], [0.0], [1.0]]), np.zeros(1), np.zeros((3, 2)), np.zeros(2)]
    for form, arg in [(penalty_into, z_hat),
                      (chain_gradient_penalty_grads, eps * real + (1.0 - eps) * fake)]:
        grads = [np.zeros_like(p) for p in disc.params()]
        assert form(disc, arg, grads) == 1.0
        for got, ref in zip(grads, want):
            assert got.tolist() == ref.tolist()


def test_critic_backward_without_parameter_gradients_gives_same_input_gradient():
    rng = np.random.default_rng(12)
    disc = make_disc(rng, visual_dim=5, hidden=8, num_classes=3)
    x = rng.normal(size=(6, 5))
    _, logits, cache = disc.forward(x)
    d_critic, d_logits = rng.normal(size=6), rng.normal(size=logits.shape)
    grads, d_x = disc.backward(cache, d_critic, d_logits)
    assert len(grads) == len(disc.params())
    skipped, d_x_only = disc.backward(cache, d_critic, d_logits, param_grads=False)
    assert skipped is None and d_x_only.tobytes() == d_x.tobytes()
    _, no_input = disc.backward(cache, d_critic, d_logits, input_grad=False)
    assert no_input is None


def mlp_discriminator_forward(disc, x):
    """The three mlp_forward calls that Discriminator.forward replaced, kept
    as its oracle. The cache holds (x, z, h, critic, logits): the same
    arrays as the three layer caches, with z second as the penalty reads it."""
    h, ((x, z),) = mlp_forward(disc.trunk, x)
    critic, _ = mlp_forward(disc.critic, h)
    logits, _ = mlp_forward(disc.head, h)
    return critic[:, 0], logits, (x, z, h, critic, logits)


def mlp_discriminator_backward(disc, cache, d_critic, d_logits, grads=None,
                               param_grads=True, input_grad=True):
    """The three mlp_backward calls that Discriminator.backward replaced."""
    x, z, h, critic, logits = cache
    parts = (None,) * 3 if grads is None else (grads[:2], grads[2:4], grads[4:])
    critic_grads, d_h = mlp_backward(disc.critic, [(h, critic)], d_critic[:, None],
                                     parts[1], param_grads)
    head_grads, d_head = mlp_backward(disc.head, [(h, logits)], d_logits, parts[2],
                                      param_grads)
    d_h += d_head
    trunk_grads, d_x = mlp_backward(disc.trunk, [(x, z)], d_h, parts[0], param_grads,
                                    input_grad)
    return (trunk_grads + critic_grads + head_grads if param_grads else None), d_x


def mlp_discriminator_backward_forms(disc, cache, d_critic, d_logits, input_grad=True):
    """The three mlp_backward_forms calls that Discriminator.backward_forms
    replaced."""
    x, z, h, critic, logits = cache
    critic_forms, d_h = mlp_backward_forms(disc.critic, [(h, critic)], d_critic[:, None])
    head_forms, d_head = mlp_backward_forms(disc.head, [(h, logits)], d_logits)
    d_h += d_head
    trunk_forms, d_x = mlp_backward_forms(disc.trunk, [(x, z)], d_h, input_grad)
    return trunk_forms + critic_forms + head_forms, d_x


def tied_rows(rng, disc, n):
    """n rows whose trunk pre-activations hold exact zeros: the even rows are
    0 and half the trunk biases are 0, so those units sit on the relu tie."""
    disc.trunk.layers[0].bias[:] = rng.normal(size=disc.cfg.hidden_dim)
    disc.trunk.layers[0].bias[::2] = 0.0
    x = rng.uniform(-0.9, 0.9, size=(n, disc.cfg.visual_dim))
    x[::2] = 0.0
    return x


def assert_same_bytes(got, ref):
    assert (got is None) == (ref is None)
    if ref is not None:
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert g.shape == r.shape and g.tobytes() == r.tobytes()


@pytest.mark.parametrize("param_grads", [True, False])
@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("into_views", [False, True])
def test_direct_discriminator_is_bitwise_the_mlp_passes(param_grads, input_grad, into_views):
    for seed in range(4):
        rng = np.random.default_rng(40 + seed)
        disc = make_disc(rng, visual_dim=7, hidden=12, num_classes=5)
        disc.critic.layers[0].bias[:] = rng.normal()
        disc.head.layers[0].bias[:] = rng.normal(size=5)
        x = tied_rows(rng, disc, 9)
        critic, logits, cache = disc.forward(x)
        ref_critic, ref_logits, ref_cache = mlp_discriminator_forward(disc, x)
        assert (cache[1] == 0.0).any() and cache[1].tobytes() == ref_cache[1].tobytes()
        assert critic.tobytes() == ref_critic.tobytes()
        assert logits.tobytes() == ref_logits.tobytes()

        d_critic, d_logits = rng.normal(size=9), rng.normal(size=(9, 5))
        size = sum(p.size for p in disc.params())
        flat, ref_flat = np.full(size, np.nan), np.full(size, np.nan)
        shapes = [p.shape for p in disc.params()]
        views, ref_views = ((unflatten(f, shapes) if into_views else None)
                            for f in (flat, ref_flat))
        grads, d_x = disc.backward(cache, d_critic, d_logits, views, param_grads, input_grad)
        ref_grads, ref_d_x = mlp_discriminator_backward(
            disc, ref_cache, d_critic, d_logits, ref_views, param_grads, input_grad)
        assert_same_bytes(grads, ref_grads)
        assert_same_bytes(None if d_x is None else [d_x],
                          None if ref_d_x is None else [ref_d_x])
        if into_views and param_grads:
            assert all(g.base is flat for g in grads)
            assert flat.tobytes() == ref_flat.tobytes()


def test_direct_discriminator_rejects_what_the_mlp_passes_reject():
    rng = np.random.default_rng(48)
    disc = make_disc(rng, visual_dim=3, hidden=4, num_classes=2)
    for bad in (np.zeros(3), np.zeros((2, 4))):
        with pytest.raises(ConfigError, match="input"):
            disc.forward(bad)
    _, logits, cache = disc.forward(rng.normal(size=(5, 3)))
    for d_critic, d_logits in [(np.zeros(4), logits), (np.zeros((5, 1)), logits),
                               (np.zeros(5), logits[:, :1])]:
        with pytest.raises(UsageError, match="upstream gradient"):
            disc.backward(cache, d_critic, d_logits)
    wider = make_disc(rng, visual_dim=4, hidden=4, num_classes=2)
    with pytest.raises(UsageError, match="stale cache"):
        wider.backward(cache, np.zeros(5), logits)


def test_desk_width_training_is_bitwise_that_of_the_mlp_passes(monkeypatch):
    """30 outer steps at the acceptance widths, n_d 5 and gp_weight 10: the
    trained parameters are those of a Discriminator run by mlp_forward and
    mlp_backward, byte for byte."""
    ds = data.make_synthetic(data.SyntheticSpec(seed=3))
    gen_cfg = GeneratorConfig(semantic_dim=50, visual_dim=64, reduce_dim=32,
                              hidden_dim=64, noise_sigma=0.1)
    disc_cfg = DiscriminatorConfig(visual_dim=64, hidden_dim=64)
    cfg = GanTrainConfig(n_step=30, n_d=5, gp_weight=10.0, batch_size=64, eval_every=0,
                         margin=0.5)

    def trained():
        rng = np.random.default_rng(3)
        work, _, gen, disc, cols = selftrain.prepare_models(ds, gen_cfg, disc_cfg, rng)
        tr = work.train_indices()
        result = gan.train_gan(work, work.features[tr], work.labels[tr], gen, disc, cols,
                               cfg, rng)
        return [p.tobytes() for p in result.generator.params() + result.discriminator.params()]

    direct = trained()
    monkeypatch.setattr(Discriminator, "forward", mlp_discriminator_forward)
    monkeypatch.setattr(Discriminator, "backward", mlp_discriminator_backward)
    monkeypatch.setattr(Discriminator, "backward_forms", mlp_discriminator_backward_forms)
    assert trained() == direct


def per_row_generator_pass(gen, semantics, noise, d_out):
    """The per-row forward and backward that the per-class reduce replaced,
    kept as its oracle: output and gradients in gen.params() order."""
    reduced, reduce_cache = mlp_forward(gen.reduce, semantics)
    h = reduced + noise if gen.cfg.noise_mode == "add" else np.hstack([reduced, noise])
    out, decode_cache = mlp_forward(gen.decode, h)
    decode_grads, d_h = mlp_backward(gen.decode, decode_cache, d_out)
    reduce_grads, _ = mlp_backward(gen.reduce, reduce_cache, d_h[:, :gen.cfg.reduce_dim])
    return out, reduce_grads + decode_grads


@pytest.mark.parametrize("kw", [{}, {"noise_dim": 3, "noise_mode": "concat"}])
def test_per_class_reduce_matches_per_row_semantics(kw):
    rng = np.random.default_rng(13)
    gen = make_gen(rng, **kw)
    disc = make_disc(rng, visual_dim=4, hidden=5, num_classes=3)
    table = rng.normal(size=(5, 6))
    classes = rng.integers(0, 4, size=40)       # class 4 of the table is unused
    noise = gen.sample_noise(rng, 40)
    d_out = rng.normal(size=(40, 4))
    ref, ref_grads = per_row_generator_pass(gen, table[classes], noise, d_out)
    for sem, rows in [(table, classes), (table[classes], None)]:
        out, cache = gen.forward(sem, noise, rows)
        assert out.tobytes() == ref.tobytes()
        assert_rel_close(write_grads(gen.backward_forms(cache, d_out), gen.params()),
                         ref_grads)

    labels = rng.integers(0, 3, size=40)
    pos, neg = rng.normal(size=(40, 2, 4)), rng.normal(size=(40, 3, 4))
    cfg = GanTrainConfig(margin=5.0, lambda_t=0.7)
    loss, trip, grads = generator_loss_grads(gen, disc, table, noise, labels,
                                             *as_rows(pos, neg), cfg, classes=classes)
    ref_loss, ref_trip, ref_grads = generator_loss_grads(
        gen, disc, table[classes], noise, labels, *as_rows(pos, neg), cfg)
    assert (loss, trip) == (ref_loss, ref_trip)
    assert_rel_close(grads, ref_grads)


def test_generate_rejects_class_indices_outside_the_table():
    rng = np.random.default_rng(14)
    gen = make_gen(rng)
    table, noise = rng.normal(size=(3, 6)), gen.sample_noise(rng, 4)
    for bad in ([0, 1, 2, 3], [0, -1, 1, 2], [0, 1, 2]):
        with pytest.raises(UsageError):
            generate(gen, table, noise, np.array(bad))


@pytest.mark.parametrize("name", ["classes", "labels"])
def test_float_indices_are_a_usage_error_naming_the_argument(name):
    rng = np.random.default_rng(16)
    gen = make_gen(rng)
    call = {
        "classes": lambda: generate(gen, rng.normal(size=(2, 6)), gen.sample_noise(rng, 2),
                                    np.array([0.7, 1.9])),
        "labels": lambda: KnnClassifier(rng.normal(size=(3, 4)), np.array([0.5, 1.5, 2.5]),
                                        k=1),
    }[name]
    with pytest.raises(UsageError, match=name):
        call()


def _bad_loss_inputs():
    """name -> (pattern that names the bad argument, call that passes it)."""
    rng = np.random.default_rng(15)
    disc, gen = make_disc(rng, hidden=4), make_gen(rng)
    real, fake = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    labels = np.array([0, 1, 0, 1])
    return {
        # (n,) with n equal to the hidden width broadcasts across hidden units
        "eps-flat": ("eps", lambda: discriminator_loss_grads(
            disc, real, fake, labels, 10.0, eps=np.full(4, 0.5))),
        "eps-short": ("eps", lambda: discriminator_loss_grads(
            disc, real, fake, labels, 10.0, eps=np.full((3, 1), 0.5))),
        # the caller's rows and labels, not the stacked batch's
        "d-label-count": (r"labels must be 4 integers, got int64 \(5,\)",
                          lambda: discriminator_loss_grads(
                              disc, real, fake, np.array([0, 1, 0, 1, 0]), 10.0,
                              eps=np.full((4, 1), 0.5))),
        "ce-empty": ("logits", lambda: softmax_cross_entropy(
            np.zeros((0, 3)), np.zeros(0, dtype=np.int64))),
        "ce-float-labels": ("labels", lambda: softmax_cross_entropy(
            np.zeros((2, 3)), np.array([0.5, 1.7]))),
        "ce-label-count": ("labels", lambda: softmax_cross_entropy(
            np.zeros((2, 3)), np.array([0, 1, 2]))),
        "noise-1d": ("noise", lambda: generate(gen, rng.normal(size=(1, 6)), np.zeros(5))),
        "triplet-no-rows": ("synthetic", lambda: triplet_loss_grad(
            np.zeros((0, 3)), real, np.zeros((0, 2), dtype=np.int64),
            np.zeros((0, 2), dtype=np.int64), 0.1)),
    }


@pytest.mark.parametrize("case", list(_bad_loss_inputs()))
def test_bad_loss_input_is_a_usage_error_naming_the_argument(case):
    name, call = _bad_loss_inputs()[case]
    with pytest.raises(UsageError, match=name):
        call()


def generator_step_inputs(rng, gen, n=12, n_sem=5, n_features=30):
    """Arguments after (gen, disc) of one generator_loss_grads call whose
    triplet hinge is active, and its classes."""
    features = rng.normal(size=(n_features, 4))
    pos = rng.integers(0, n_features, size=(n, 2))
    neg = rng.integers(0, n_features, size=(n, 3))
    args = (rng.normal(size=(n_sem, 6)), gen.sample_noise(rng, n),
            rng.integers(0, 3, size=n), features, pos, neg,
            GanTrainConfig(margin=5.0, lambda_t=0.7))
    return args, rng.integers(0, n_sem, size=n)


def part_update(gen, **rates):
    """generator_loss_grads's update: the packed parameters with one Adam
    state for the whole generator."""
    params = gen.pack()
    return params, AdamState.for_params(params, **rates)


@pytest.mark.parametrize("kw", [{}, {"noise_dim": 5, "noise_mode": "concat"}])
def test_part_by_part_update_is_bitwise_the_whole_vector_adam_step(kw, monkeypatch):
    """Three steps: each block of the gradient applied as soon as it is
    formed, the reduce part one block and the decode part several, gives the
    bytes of the whole flat gradient and one whole-vector adam_step."""
    rng = np.random.default_rng(17)
    gen = make_gen(rng, **kw)
    ref, disc = gen.copy(), make_disc(rng, visual_dim=4, hidden=5, num_classes=3)
    monkeypatch.setattr(nn, "GRAD_BLOCK_VALUES",
                        sum(p.size for p in gen.reduce.param_arrays()))
    rates = dict(alpha=0.01, beta1=0.5, beta2=0.9)
    params, adam = update = part_update(gen, **rates)
    ref_params = ref.pack()
    ref_adam = AdamState.for_params(ref_params, **rates)
    for _ in range(3):
        args, classes = generator_step_inputs(rng, gen)
        loss, trip, spent = generator_loss_grads(gen, disc, *args, classes=classes,
                                                 update=update)
        ref_loss, ref_trip, grads = generator_loss_grads(ref, disc, *args, classes=classes)
        adam_step(ref_params, grads, ref_adam)
        assert spent is None and (loss, trip) == (ref_loss, ref_trip) and trip > 0.0
        assert [p.tobytes() for p in gen.params()] == [p.tobytes() for p in ref.params()]
    assert adam.t == 3
    for name in ("m", "v"):
        assert getattr(adam, name).tobytes() == getattr(ref_adam, name).tobytes()


def test_non_finite_generator_loss_changes_no_parameter_or_moment():
    rng = np.random.default_rng(18)
    gen, disc = make_gen(rng), make_disc(rng, visual_dim=4, hidden=5, num_classes=3)
    update = part_update(gen)
    before = [p.tobytes() for p in gen.params()]
    args, classes = generator_step_inputs(rng, gen)
    args[3][args[4][0, 0]] = 1e300   # a positive whose distance overflows
    with np.errstate(over="ignore", invalid="ignore"):
        loss, _, spent = generator_loss_grads(gen, disc, *args, classes=classes,
                                              update=update)
    assert not np.isfinite(loss) and spent is None
    assert [p.tobytes() for p in gen.params()] == before
    state = update[1]
    assert state.t == 0 and not state.m.any() and not state.v.any()


def test_non_finite_critic_loss_changes_no_parameter_or_moment():
    rng = np.random.default_rng(22)
    disc = make_disc(rng, visual_dim=6, hidden=9, num_classes=4)
    params = disc.pack()
    update = params, AdamState.for_params(params)
    before = params.tobytes()
    real, fake = rng.uniform(-0.9, 0.9, size=(2, 5, 6))
    real[0] = np.inf   # a real row whose critic score is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        loss, spent = discriminator_loss_grads(disc, real, fake, rng.integers(0, 4, size=5),
                                               10.0, rng=rng, update=update)
    assert not np.isfinite(loss) and spent is None
    assert params.tobytes() == before
    state = update[1]
    assert state.t == 0 and not state.m.any() and not state.v.any()


def block_values(net, kind):
    """A gradient block size for net: one that splits its first weight, one
    that ends where its first layer does, or one past the whole network."""
    sizes = [p.size for p in net.params()]
    return {"splits-a-layer": 2 * sizes[0] // 5, "ends-on-a-layer": sizes[0] + sizes[1],
            "past-the-network": sum(sizes) + 1}[kind]


BLOCK_KINDS = ["splits-a-layer", "ends-on-a-layer", "past-the-network"]


def counted_adam_steps(monkeypatch):
    """A list that gains one entry per adam_step call the streamed losses make."""
    calls = []
    original = nn.adam_step

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(nn, "adam_step", counting)
    return calls


def critic_step_inputs(rng, n=7):
    real, fake = rng.uniform(-0.9, 0.9, size=(2, n, 6))
    return real, fake, rng.integers(0, 4, size=n), rng.uniform(0.0, 1.0, size=(n, 1))


def hinge_step_inputs(rng, gen, hinge, n=12):
    """Arguments after (gen, disc) of one generator_loss_grads call, with its
    classes: positives among the first 15 feature rows and negatives among
    the last 15, which lie 100 away when the hinge is to be inactive."""
    features = rng.normal(size=(30, 4))
    if not hinge:
        features[15:] += 100.0
    args = (rng.normal(size=(5, 6)), gen.sample_noise(rng, n), rng.integers(0, 3, size=n),
            features, rng.integers(0, 15, size=(n, 2)), rng.integers(15, 30, size=(n, 3)),
            GanTrainConfig(margin=5.0, lambda_t=0.7))
    return args, rng.integers(0, 5, size=n)


def assert_streamed_is_whole(update, ref_params, ref_adam, steps):
    params, adam = update
    assert params.tobytes() == ref_params.tobytes()
    assert adam.t == ref_adam.t == steps
    for name in ("m", "v"):
        assert getattr(adam, name).tobytes() == getattr(ref_adam, name).tobytes()


@pytest.mark.parametrize("block", BLOCK_KINDS)
@pytest.mark.parametrize("gp_weight", [0.0, 10.0])
def test_streamed_critic_update_is_bitwise_the_whole_vector_adam_step(monkeypatch, block,
                                                                      gp_weight):
    rng = np.random.default_rng(23)
    disc = make_disc(rng, visual_dim=6, hidden=9, num_classes=4)
    ref = disc.copy()
    monkeypatch.setattr(nn, "GRAD_BLOCK_VALUES", block_values(disc, block))
    calls = counted_adam_steps(monkeypatch)
    rates = dict(alpha=0.01, beta1=0.5, beta2=0.9)
    params = disc.pack()
    update = params, AdamState.for_params(params, **rates)
    ref_params = ref.pack()
    ref_adam = AdamState.for_params(ref_params, **rates)
    for _ in range(3):
        real, fake, labels, eps = critic_step_inputs(rng)
        calls.clear()
        loss, spent = discriminator_loss_grads(disc, real, fake, labels, gp_weight, eps=eps,
                                               update=update)
        # one adam_step per block: one in all when the block is past the network
        assert (len(calls) == 1) == (block == "past-the-network")
        ref_loss, grads = discriminator_loss_grads(ref, real, fake, labels, gp_weight,
                                                   eps=eps)
        adam_step(ref_params, grads, ref_adam)
        assert spent is None and loss == ref_loss
    assert_streamed_is_whole(update, ref_params, ref_adam, 3)


@pytest.mark.parametrize("block", BLOCK_KINDS)
@pytest.mark.parametrize("hinge", [True, False])
def test_streamed_generator_step_is_bitwise_the_whole_vector_adam_step(monkeypatch, block,
                                                                       hinge):
    rng = np.random.default_rng(24)
    gen = make_gen(rng)
    ref, disc = gen.copy(), make_disc(rng, visual_dim=4, hidden=5, num_classes=3)
    monkeypatch.setattr(nn, "GRAD_BLOCK_VALUES", block_values(gen, block))
    calls = counted_adam_steps(monkeypatch)
    rates = dict(alpha=0.01, beta1=0.5, beta2=0.9)
    update = part_update(gen, **rates)
    ref_params = ref.pack()
    ref_adam = AdamState.for_params(ref_params, **rates)
    for _ in range(3):
        args, classes = hinge_step_inputs(rng, gen, hinge)
        calls.clear()
        loss, trip, spent = generator_loss_grads(gen, disc, *args, classes=classes,
                                                 update=update)
        assert (len(calls) == 1) == (block == "past-the-network")
        ref_loss, ref_trip, grads = generator_loss_grads(ref, disc, *args, classes=classes)
        adam_step(ref_params, grads, ref_adam)
        assert spent is None and (loss, trip) == (ref_loss, ref_trip)
        assert (trip > 0.0) == hinge
    assert_streamed_is_whole(update, ref_params, ref_adam, 3)


@pytest.mark.parametrize("block", BLOCK_KINDS[:2])
def test_gradient_blocks_only_regroup_the_products(monkeypatch, block):
    """The whole flat gradients formed in small blocks are those formed in
    one block, up to the rounding of a BLAS product over fewer rows."""
    rng = np.random.default_rng(25)
    gen = make_gen(rng)
    disc = make_disc(rng, visual_dim=6, hidden=9, num_classes=4)
    real, fake, labels, eps = critic_step_inputs(rng)
    args, classes = hinge_step_inputs(rng, gen, True)
    small = make_disc(rng, visual_dim=4, hidden=5, num_classes=3)

    def gradients():
        return (discriminator_loss_grads(disc, real, fake, labels, 10.0, eps=eps)[1],
                generator_loss_grads(gen, small, *args, classes=classes)[2])

    whole = gradients()
    monkeypatch.setattr(nn, "GRAD_BLOCK_VALUES", block_values(disc, block))
    got_disc, _ = gradients()
    monkeypatch.setattr(nn, "GRAD_BLOCK_VALUES", block_values(gen, block))
    _, got_gen = gradients()
    assert_rel_close(got_disc, whole[0])
    assert_rel_close(got_gen, whole[1])
