import tracemalloc
import weakref

import numpy as np
import pytest

from zsgen import data, gan, metrics, nn, selftrain
from zsgen.errors import UsageError
from zsgen.gan import GanTrainConfig, train_gan
from zsgen.knn import KnnClassifier, knn_scores, score_matrix, squared_distances
from zsgen.verify import run_gradient_checks

SPEC = data.SyntheticSpec(num_seen=4, num_unseen=2, samples_per_class=20,
                          semantic_dim=16, visual_dim=8, seed=0)

TINY = dict(n_step=30, batch_size=16, eval_every=10, patience=100,
            knn_k=3, probe_per_class=5, margin=0.5)


def setup(seed=0, noise_sigma=0.1):
    ds = data.make_synthetic(SPEC)
    from zsgen.gan import DiscriminatorConfig, GeneratorConfig
    gen_cfg = GeneratorConfig(semantic_dim=16, visual_dim=8, reduce_dim=6,
                              hidden_dim=10, noise_sigma=noise_sigma)
    disc_cfg = DiscriminatorConfig(visual_dim=8, hidden_dim=10)
    rng = np.random.default_rng(seed)
    return (ds,) + selftrain.prepare_models(ds, gen_cfg, disc_cfg, rng) + (rng,)


def params_of(gen, disc):
    return [p.copy() for p in gen.params() + disc.params()]


def test_zero_steps_returns_initial_params():
    ds, work, scaler, gen, disc, cols, rng = setup()
    before = params_of(gen, disc)
    tr = work.train_indices()
    cfg = GanTrainConfig(**{**TINY, "n_step": 0})
    result = train_gan(work, work.features[tr], work.labels[tr],
                       gen, disc, cols, cfg, rng)
    assert result.history == []
    for a, b in zip(params_of(result.generator, result.discriminator), before):
        assert (a == b).all()


def test_no_probe_returns_the_passed_in_networks_trained():
    ds, work, scaler, gen, disc, cols, rng = setup()
    before = params_of(gen, disc)
    tr = work.train_indices()
    cfg = GanTrainConfig(**{**TINY, "eval_every": 0})
    result = train_gan(work, work.features[tr], work.labels[tr],
                       gen, disc, cols, cfg, rng)
    assert result.generator is gen and result.discriminator is disc
    assert result.history == [] and np.isnan(result.best_gacc)
    after = params_of(gen, disc)
    assert all(np.isfinite(a).all() for a in after)
    assert any((a != b).any() for a, b in zip(after, before))


def test_the_reduce_layer_runs_once_per_outer_step(monkeypatch):
    # the n_d critic batches and the generator step share one reduce pass,
    # made before the generator's update changes its weights
    ds, work, scaler, gen, disc, cols, rng = setup()
    reduce_calls = []
    forward = gan.mlp_forward

    def recording(mlp, *args, **kwargs):
        if mlp is gen.reduce:
            reduce_calls.append(mlp.layers[0].weight.copy())
        return forward(mlp, *args, **kwargs)

    monkeypatch.setattr(gan, "mlp_forward", recording)
    tr = work.train_indices()
    cfg = GanTrainConfig(**{**TINY, "n_step": 4, "n_d": 3, "eval_every": 0})
    train_gan(work, work.features[tr], work.labels[tr], gen, disc, cols, cfg, rng)
    assert len(reduce_calls) == 4
    assert all((a != b).any() for a, b in zip(reduce_calls, reduce_calls[1:]))


def test_a_training_step_holds_no_whole_triplet_sample_stack():
    # 200 batch rows with 100 positives and 100 negatives of width 256: one
    # (m, n_pos, d) sample stack (41 MB) outweighs everything else a step holds
    from zsgen.gan import DiscriminatorConfig, GeneratorConfig
    spec = data.SyntheticSpec(num_seen=4, num_unseen=2, samples_per_class=100,
                              semantic_dim=16, visual_dim=256, seed=0)
    rng = np.random.default_rng(0)
    work, _, gen, disc, cols = selftrain.prepare_models(
        data.make_synthetic(spec),
        GeneratorConfig(semantic_dim=16, visual_dim=256, reduce_dim=6, hidden_dim=10),
        DiscriminatorConfig(visual_dim=256, hidden_dim=10), rng)
    tr = work.train_indices()
    cfg = GanTrainConfig(n_step=1, n_d=1, batch_size=200, n_pos=100, n_neg=100,
                         eval_every=0)
    assert tr.size >= cfg.batch_size
    stack = cfg.batch_size * cfg.n_pos * spec.visual_dim * 8
    x, y = work.features[tr], work.labels[tr]
    tracemalloc.start()
    try:
        train_gan(work, x, y, gen, disc, cols, cfg, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack, (peak, stack)


def test_a_generator_step_holds_no_gradient_vector_of_the_whole_generator():
    # reduce and decode parts of about 400k values each (3.2 MB) outweigh the step's
    # batch temporaries; train_gan holds the packed parameters and both
    # moments, and a gradient vector of the whole generator would add 6.4 MB
    from zsgen.gan import DiscriminatorConfig, GeneratorConfig
    spec = data.SyntheticSpec(num_seen=4, num_unseen=2, samples_per_class=10,
                              semantic_dim=3999, visual_dim=100, seed=0)
    rng = np.random.default_rng(0)
    work, _, gen, disc, cols = selftrain.prepare_models(
        data.make_synthetic(spec),
        GeneratorConfig(semantic_dim=3999, visual_dim=100, reduce_dim=100,
                        hidden_dim=1990),
        DiscriminatorConfig(visual_dim=100, hidden_dim=10), rng)
    sizes = [sum(p.size for p in part.param_arrays()) for part in (gen.reduce, gen.decode)]
    assert sizes == [400_000, 400_090]
    whole = 8 * sum(sizes)
    tr = work.train_indices()
    x, y = work.features[tr], work.labels[tr]
    cfg = GanTrainConfig(n_step=1, n_d=1, batch_size=16, eval_every=0)
    tracemalloc.start()
    try:
        train_gan(work, x, y, gen, disc, cols, cfg, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # parameters, two moments and one part's gradient, with a part to spare
    assert peak < 4 * whole, (peak, whole)


def test_a_generator_step_releases_the_reduce_rows_before_its_gradient_streams(
        monkeypatch):
    # the step's reduce rows serve the critic batches and the generator's
    # forward; its gradient blocks, the reduce part's last, find them released
    ds, work, scaler, gen, disc, cols, rng = setup()
    reduce_rows, adam_step = gan.Generator.reduce_rows, nn.adam_step
    rows, alive = [], {"critic": [], "generator": []}

    def recording_rows(self, semantics):
        out = reduce_rows(self, semantics)
        rows.append(weakref.ref(out[0]))
        return out

    def recording_step(params, grads, state, at=None):
        net = "generator" if np.shares_memory(params, gen.reduce.layers[0].weight) else "critic"
        alive[net].append(rows[-1]() is not None)
        return adam_step(params, grads, state, at)

    monkeypatch.setattr(gan.Generator, "reduce_rows", recording_rows)
    monkeypatch.setattr(nn, "adam_step", recording_step)
    tr = work.train_indices()
    cfg = GanTrainConfig(**{**TINY, "n_step": 3, "n_d": 2, "eval_every": 0})
    train_gan(work, work.features[tr], work.labels[tr], gen, disc, cols, cfg, rng)
    assert len(rows) == 3
    assert alive == {"critic": [True] * 6, "generator": [False] * 3}


def test_no_critic_batch_is_held_through_a_generator_update(monkeypatch):
    # each critic update's fake batch is read by its loss alone, whose forms
    # keep the stacked copy: every batch is released before the generator's
    # gradient streams
    ds, work, scaler, gen, disc, cols, rng = setup()
    generate, adam_step = gan.generate, nn.adam_step
    batches, alive = [], []

    def recording_generate(*args, **kwargs):
        out = generate(*args, **kwargs)
        batches.append(weakref.ref(out))
        return out

    def recording_step(params, grads, state, at=None):
        if np.shares_memory(params, gen.reduce.layers[0].weight):
            alive.append(sum(batch() is not None for batch in batches))
        return adam_step(params, grads, state, at)

    monkeypatch.setattr(gan, "generate", recording_generate)
    monkeypatch.setattr(nn, "adam_step", recording_step)
    tr = work.train_indices()
    cfg = GanTrainConfig(**{**TINY, "n_step": 3, "n_d": 2, "eval_every": 0})
    train_gan(work, work.features[tr], work.labels[tr], gen, disc, cols, cfg, rng)
    assert len(batches) == 6
    assert alive == [0, 0, 0]


def test_a_training_step_holds_at_most_one_gradient_block():
    # a reduce weight of 2.6 M values is two and a half gradient blocks; above
    # the packed parameters and their two moments a step holds one block, the
    # batch's activations and Adam's two work chunks (1 MB), under 2 MB together
    from zsgen.gan import DiscriminatorConfig, GeneratorConfig
    spec = data.SyntheticSpec(num_seen=4, num_unseen=2, samples_per_class=10,
                              semantic_dim=2600, visual_dim=8, seed=0)
    rng = np.random.default_rng(0)
    work, _, gen, disc, cols = selftrain.prepare_models(
        data.make_synthetic(spec),
        GeneratorConfig(semantic_dim=2600, visual_dim=8, reduce_dim=1000, hidden_dim=16),
        DiscriminatorConfig(visual_dim=8, hidden_dim=10), rng)
    assert gen.reduce.layers[0].weight.size > 2 * nn.GRAD_BLOCK_VALUES
    persistent = 3 * 8 * sum(p.size for p in gen.params() + disc.params())
    tr = work.train_indices()
    x, y = work.features[tr], work.labels[tr]
    cfg = GanTrainConfig(n_step=1, n_d=1, batch_size=16, eval_every=0)
    tracemalloc.start()
    try:
        train_gan(work, x, y, gen, disc, cols, cfg, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - persistent < 8 * nn.GRAD_BLOCK_VALUES + (2 << 20), (peak, persistent)


def test_a_widened_critic_head_gets_its_own_gradient_plan(monkeypatch):
    # blocks of at most 20 values: the critic's plan has many blocks, the
    # head's last, and a plan made for the seen-class head must not serve
    # the widened one
    ds, work, scaler, gen, disc, cols, rng = setup()
    monkeypatch.setattr(nn, "GRAD_BLOCK_VALUES", 20)
    tr = work.train_indices()[:6]
    x, labels = work.features[tr], np.arange(6) % len(cols)
    eps = np.linspace(0.0, 1.0, 6)[:, None]

    def grads():
        forms = gan.discriminator_loss_grads(disc, x, x[::-1], labels, 10.0, eps=eps)[1]
        return nn.stream_grads(forms, [p.shape for p in disc.params()])

    def plan():
        return nn._grad_blocks([p.shape for p in disc.params()], False)

    grads()
    seen = plan()
    selftrain.expand_classifier_head(disc, len(cols) + 2, rng)
    misses = nn._plan.cache_info().misses
    widened = grads()
    assert nn._plan.cache_info().misses == misses + 1
    assert plan() != seen and plan() is nn._grad_blocks(
        tuple(p.shape for p in disc.params()), False)
    assert widened.size == plan()[0] == sum(p.size for p in disc.params())
    nn._plan.cache_clear()
    assert grads().tobytes() == widened.tobytes()


def test_non_finite_generator_loss_names_the_step_and_leaves_the_generator(monkeypatch):
    ds, work, scaler, gen, disc, cols, rng = setup()
    before = [p.tobytes() for p in gen.params()]
    monkeypatch.setattr(gan, "triplet_loss_grad",
                        lambda synthetic, *a: (np.inf, np.zeros_like(synthetic)))
    tr = work.train_indices()
    cfg = GanTrainConfig(**{**TINY, "eval_every": 0})
    with pytest.raises(UsageError, match="non-finite generator loss at step 1"):
        train_gan(work, work.features[tr], work.labels[tr], gen, disc, cols, cfg, rng)
    assert [p.tobytes() for p in gen.params()] == before


def probe_returning(monkeypatch, scores, gen, disc):
    """Replace the kNN probe with one that returns scores in turn and records
    the networks' parameters at each call."""
    seen = []

    def probe(*args):
        seen.append(params_of(gen, disc))
        return scores[len(seen) - 1]

    monkeypatch.setattr(gan, "_probe_gacc", probe)
    return seen


def test_probe_snapshot_is_not_changed_by_later_steps(monkeypatch):
    ds, work, scaler, gen, disc, cols, rng = setup()
    seen = probe_returning(monkeypatch, [3.0, 2.0, 1.0], gen, disc)
    tr = work.train_indices()
    result = train_gan(work, work.features[tr], work.labels[tr],
                       gen, disc, cols, GanTrainConfig(**TINY), rng)
    assert len(seen) == 3 and result.best_gacc == 3.0
    assert result.generator is not gen and result.discriminator is not disc
    for a, b in zip(params_of(result.generator, result.discriminator), seen[0]):
        assert (a == b).all()
    # the passed-in networks trained on past the first probe
    assert any((a != b).any() for a, b in zip(params_of(gen, disc), seen[0]))


def test_of_two_equal_probes_the_first_snapshot_is_kept(monkeypatch):
    ds, work, scaler, gen, disc, cols, rng = setup()
    seen = probe_returning(monkeypatch, [2.0, 2.0, 1.0], gen, disc)
    tr = work.train_indices()
    result = train_gan(work, work.features[tr], work.labels[tr],
                       gen, disc, cols, GanTrainConfig(**TINY), rng)
    assert len(seen) == 3 and result.best_gacc == 2.0
    # a tie is no gain: the snapshot is the first probe's, not the second's
    assert any((a != b).any() for a, b in zip(seen[0], seen[1]))
    for a, b in zip(params_of(result.generator, result.discriminator), seen[0]):
        assert (a == b).all()


@pytest.mark.parametrize("scores", [[float("nan")] * 8, [1.0] + [0.5] * 7],
                         ids=["never-scores", "first-only"])
def test_a_probe_that_never_improves_stops_after_patience_probes(monkeypatch, scores):
    # every probe after the first gain, or every one when none scores, counts
    # toward patience; the run stops at the probe that reaches it
    ds, work, scaler, gen, disc, cols, rng = setup()
    seen = probe_returning(monkeypatch, scores, gen, disc)
    tr = work.train_indices()
    cfg = GanTrainConfig(**{**TINY, "n_step": 80, "patience": 3})
    result = train_gan(work, work.features[tr], work.labels[tr], gen, disc, cols, cfg, rng)
    probes = cfg.patience + (scores[0] == 1.0)
    assert len(seen) == probes
    assert [h["step"] for h in result.history] == [10 * (i + 1) for i in range(probes)]


def test_a_critic_update_draws_eps_after_its_batch_rows_and_noise(monkeypatch):
    """Each critic update's real rows, fake rows and penalty mix eps are a
    replay of the critic stream: batch rows, noise, then eps from U[0, 1)."""
    ds, work, scaler, gen, disc, cols, _ = setup()
    tr = work.train_indices()
    x, y = work.features[tr], work.labels[tr]
    loss_grads, calls = gan.discriminator_loss_grads, []

    def recording(disc, real_x, fake_x, labels, gp_weight, eps=None):
        calls.append((real_x.copy(), fake_x.copy(), eps.copy()))
        return loss_grads(disc, real_x, fake_x, labels, gp_weight, eps)

    monkeypatch.setattr(gan, "discriminator_loss_grads", recording)
    replay_gen = gen.copy()
    cfg = GanTrainConfig(**{**TINY, "n_step": 2, "n_d": 2, "eval_every": 0})
    train_gan(work, x, y, gen, disc, cols, cfg, np.random.default_rng(9))

    # no rows are held out without a probe, so the fit rows are x itself
    sampler = gan.TripletSampler(y)
    sem = work.semantics_for(sampler.classes)
    critic = np.random.default_rng(9).spawn(4)[1]
    m = cfg.batch_size
    assert len(calls) == cfg.n_step * cfg.n_d
    for i, (real_x, fake_x, eps) in enumerate(calls):
        idx = critic.integers(0, x.shape[0], size=m)
        noise = replay_gen.sample_noise(critic, m)
        want = critic.uniform(0.0, 1.0, size=(m, 1))
        assert real_x.tobytes() == x[idx].tobytes()
        if i < cfg.n_d:   # the generator is as the replay's until its first update
            fake = gan.generate(replay_gen, sem, noise, sampler.class_of_row[idx])
            assert fake_x.tobytes() == fake.tobytes()
        assert eps.tobytes() == want.tobytes()


def test_nan_probes_return_the_trained_networks(monkeypatch):
    ds, work, scaler, gen, disc, cols, rng = setup()
    probe_returning(monkeypatch, [float("nan")] * 3, gen, disc)
    tr = work.train_indices()
    result = train_gan(work, work.features[tr], work.labels[tr],
                       gen, disc, cols, GanTrainConfig(**TINY), rng)
    assert len(result.history) == 3 and np.isnan(result.best_gacc)
    assert result.generator is gen and result.discriminator is disc


def reference_probe_gacc(gen, dataset, val_x, val_y, cfg, rng):
    """The probe with its own class list, kNN scores and score matrix."""
    seen = sorted(dataset.split.seen)
    unseen = sorted(dataset.split.unseen)
    class_ids = np.array(seen + unseen, dtype=np.int64)
    refs, ref_labels = [], []
    for c in class_ids:
        sem = dataset.semantics_for([c])
        refs.append(gan.generate(gen, sem, gen.sample_noise(rng, cfg.probe_per_class)))
        ref_labels.append(np.full(cfg.probe_per_class, c, dtype=np.int64))
    clf = KnnClassifier(np.vstack(refs), np.concatenate(ref_labels), k=cfg.knn_k)
    scores = knn_scores(clf, val_x, class_ids)
    sm = metrics.ScoreMatrix(scores, class_ids, seen_count=len(seen))
    return metrics.generalized_accuracy(sm, val_y)


# at noise_sigma 0 a class's references coincide, so the k-th distance is tied
@pytest.mark.parametrize("noise_sigma", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("seed", range(4))
def test_probe_equals_its_own_scoring_oracle(seed, noise_sigma):
    ds, work, scaler, gen, disc, cols, rng = setup(seed, noise_sigma)
    tr = work.train_indices()
    cfg = GanTrainConfig(**TINY)
    probe_rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
    val_x, val_y = work.features[tr], work.labels[tr]
    assert (gan._probe_gacc(gen, work, val_x, val_y, cfg, probe_rng)
            == reference_probe_gacc(gen, work, val_x, val_y, cfg, oracle_rng))
    assert probe_rng.bit_generator.state == oracle_rng.bit_generator.state


def test_the_probe_holds_its_references_once():
    # 3000 references of 256 values against 4 queries: the references are
    # nearly all that the probe allocates, and it holds them once
    spec = data.SyntheticSpec(num_seen=4, num_unseen=2, samples_per_class=5,
                              semantic_dim=16, visual_dim=256, seed=0)
    from zsgen.gan import DiscriminatorConfig, GeneratorConfig
    work, _, gen, _, _ = selftrain.prepare_models(
        data.make_synthetic(spec),
        GeneratorConfig(semantic_dim=16, visual_dim=256, reduce_dim=6, hidden_dim=10),
        DiscriminatorConfig(visual_dim=256, hidden_dim=10), np.random.default_rng(0))
    tr = work.train_indices()[:4]
    val_x, val_y = work.features[tr], work.labels[tr]
    cfg = GanTrainConfig(knn_k=3, probe_per_class=500)
    ref_bytes = 6 * cfg.probe_per_class * 256 * 8
    probe_rng, oracle_rng = (np.random.default_rng(3) for _ in range(2))
    tracemalloc.start()
    try:
        gacc = gan._probe_gacc(gen, work, val_x, val_y, cfg, probe_rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * ref_bytes, (peak, ref_bytes)
    assert gacc == reference_probe_gacc(gen, work, val_x, val_y, cfg, oracle_rng)
    assert probe_rng.bit_generator.state == oracle_rng.bit_generator.state


def test_score_matrix_forms_the_distances_it_is_not_given():
    ds, work, scaler, gen, disc, cols, rng = setup()
    refs = rng.normal(size=(30, work.visual_dim))
    clf = KnnClassifier(refs, np.repeat(work.class_ids, 5), k=3)
    q = work.features[work.test_indices()]
    formed = score_matrix(clf, work, q)
    given = score_matrix(clf, work, q, squared_distances(q, refs))
    assert np.array_equal(formed.scores, given.scores)
    assert np.array_equal(formed.class_ids, given.class_ids)
    assert formed.seen_count == given.seen_count


def rows_fitted(monkeypatch):
    """A set that gains the bytes of every real row a critic update sees."""
    seen = set()
    original = gan.discriminator_loss_grads

    def recording(disc, real_x, *args, **kwargs):
        seen.update(row.tobytes() for row in real_x)
        return original(disc, real_x, *args, **kwargs)

    monkeypatch.setattr(gan, "discriminator_loss_grads", recording)
    return seen


@pytest.mark.parametrize("settings, held_out", [
    ({}, 8),                                  # 2 of each seen class's 15 rows
    ({"eval_every": 0}, 0),                   # no probe
    ({"n_step": 9}, 0),                       # no step reaches eval_every 10
    ({"val_fraction": 0.0}, 0),               # nothing to probe on
], ids=["probe", "eval-every-0", "no-step-reaches-probe", "val-fraction-0"])
def test_rows_are_held_out_only_for_a_probe_that_runs(monkeypatch, settings, held_out):
    ds, work, scaler, gen, disc, cols, rng = setup()
    seen = rows_fitted(monkeypatch)
    tr = work.train_indices()
    result = train_gan(work, work.features[tr], work.labels[tr],
                       gen, disc, cols, GanTrainConfig(**{**TINY, **settings}), rng)
    assert bool(result.history) == bool(held_out)
    assert seen <= {row.tobytes() for row in work.features[tr]}
    assert len(seen) == tr.size - held_out


def test_training_reproducible_for_fixed_seed():
    outputs = []
    for _ in range(2):
        ds, work, scaler, gen, disc, cols, rng = setup(seed=7)
        tr = work.train_indices()
        cfg = GanTrainConfig(**TINY)
        result = train_gan(work, work.features[tr], work.labels[tr],
                           gen, disc, cols, cfg, rng)
        outputs.append((result.history,
                        params_of(result.generator, result.discriminator)))
    assert outputs[0][0] == outputs[1][0]
    for a, b in zip(outputs[0][1], outputs[1][1]):
        assert (a == b).all()


def test_training_log_shape_and_finiteness():
    ds, work, scaler, gen, disc, cols, rng = setup()
    tr = work.train_indices()
    cfg = GanTrainConfig(**TINY)
    result = train_gan(work, work.features[tr], work.labels[tr],
                       gen, disc, cols, cfg, rng)
    assert [h["step"] for h in result.history] == [10, 20, 30]  # eval_every 10
    for h in result.history:
        assert np.isfinite([h["loss_d"], h["loss_g"], h["triplet"], h["val_gacc"]]).all()
    assert np.isfinite(result.best_gacc)


def test_best_checkpoint_tracks_highest_validation_gacc():
    ds, work, scaler, gen, disc, cols, rng = setup(seed=3)
    tr = work.train_indices()
    cfg = GanTrainConfig(**{**TINY, "n_step": 60})
    result = train_gan(work, work.features[tr], work.labels[tr],
                       gen, disc, cols, cfg, rng)
    assert result.best_gacc == max(h["val_gacc"] for h in result.history)


def test_gradient_verification_suite():
    for name, err in run_gradient_checks(seed=0, n_seeds=3):
        assert err < 1e-4, name
