"""Finite-difference verification harness for every differentiable piece,
and the check that the training step's streamed Adam updates are those of
the whole gradient."""

import numpy as np

from .gan import (
    Discriminator, DiscriminatorConfig, GanTrainConfig, Generator,
    GeneratorConfig, discriminator_loss_grads, generator_loss_grads,
    triplet_loss_grad,
)
from .nn import (
    AdamState, adam_step, gradient_check, init_mlp, mlp_backward, mlp_forward, pack,
    stream_grads,
)


def check_mlp_backward(rng):
    """Quadratic loss on a small MLP against central differences: mlp_backward's
    gradient forms, run into one flat gradient by stream_grads, in the packed
    parameters."""
    mlp = init_mlp([4, 5, 3], ["leaky_relu", "tanh"], rng)
    x = rng.normal(size=(3, mlp.in_dim))
    target = rng.normal(size=(3, mlp.out_dim))
    params = pack([mlp])
    shapes = [p.shape for p in mlp.param_arrays()]

    def f():
        out, cache = mlp_forward(mlp, x)
        diff = out - target
        loss = float((diff * diff).sum())
        forms, _ = mlp_backward(mlp, cache, 2.0 * diff)
        return loss, [stream_grads(forms, shapes)]

    return gradient_check(f, [params])


def check_triplet(rng, n_classes=3, dim=4):
    """Triplet loss gradients in the synthetic rows, at an active hinge, with
    (n_classes, 2) positive and (n_classes, 3) negative index tables into one
    feature table: row 0 is a positive of class 0 and a negative of every
    other class, and row 2 a positive of class 1 and a negative of class 0."""
    synth = rng.normal(size=(n_classes, dim))
    # negatives close to the synthetic rows keep the hinge active
    near = [synth[c] + 0.1 * rng.normal(size=(2, dim)) for c in range(n_classes)]
    features = np.vstack([rng.normal(size=(2 * n_classes, dim))] + near)
    pos = np.arange(2 * n_classes).reshape(n_classes, 2)
    neg = np.column_stack([pos + 2 * n_classes, np.where(np.arange(n_classes), 0, 2)])

    params = [synth]

    def f():
        loss, d_synth = triplet_loss_grad(synth, features, pos, neg, margin=5.0)
        return loss, [d_synth]

    return gradient_check(f, params)


def _toy_models(rng, n_classes=3, visual_dim=4):
    gen_cfg = GeneratorConfig(
        semantic_dim=5, visual_dim=visual_dim, reduce_dim=4, hidden_dim=6,
        noise_sigma=0.1,
    )
    disc_cfg = DiscriminatorConfig(
        visual_dim=visual_dim, hidden_dim=6, num_classes=n_classes
    )
    return Generator(gen_cfg, rng), Discriminator(disc_cfg, rng)


def _flat_grads(net, forms):
    """The flat gradient in the layout of net.params() from its forms."""
    return stream_grads(forms, [p.shape for p in net.params()])


def _generator_step(rng):
    """A toy generator and step(gen), generator_loss_grads at one fixed
    batch and critic; two batch rows share a semantic row, as a class does
    in training."""
    gen, disc = _toy_models(rng)
    m = 3
    sem = rng.normal(size=(m - 1, gen.cfg.semantic_dim))
    classes = np.minimum(np.arange(m), m - 2)
    noise = gen.sample_noise(rng, m)
    labels = rng.integers(0, disc.cfg.num_classes, size=m)
    features = rng.normal(size=(4 * m, gen.cfg.visual_dim))
    pos, neg = np.arange(2 * m).reshape(m, 2), np.arange(2 * m, 4 * m).reshape(m, 2)
    cfg = GanTrainConfig(margin=5.0, lambda_t=0.7, batch_size=m)
    return gen, lambda g: generator_loss_grads(
        g, disc, sem, noise, labels, features, pos, neg, cfg, classes=classes)


def _critic_step(rng, gp_weight):
    """A toy critic and step(disc), discriminator_loss_grads at one fixed
    batch and fixed interpolates."""
    _, disc = _toy_models(rng)
    m = 3
    real = rng.uniform(-0.9, 0.9, size=(m, disc.cfg.visual_dim))
    fake = rng.uniform(-0.9, 0.9, size=(m, disc.cfg.visual_dim))
    labels = rng.integers(0, disc.cfg.num_classes, size=m)
    eps = rng.uniform(0.0, 1.0, size=(m, 1))
    return disc, lambda d: discriminator_loss_grads(d, real, fake, labels, gp_weight, eps)


def check_loss(net, step):
    """A toy step's loss, the generator's or the critic's, and its flat
    gradient against central differences in net's packed parameters."""
    def f():
        out = step(net)
        return out[0], [_flat_grads(net, out[-1])]

    return gradient_check(f, [net.pack()])


def check_discriminator_input_grad(rng, n=3):
    """The critic's input gradient, as the generator step takes it from
    Discriminator.backward, under a quadratic loss on both heads, against
    central differences in the input."""
    _, disc = _toy_models(rng)
    x = rng.uniform(-0.9, 0.9, size=(n, disc.cfg.visual_dim))
    target_critic = rng.normal(size=n)
    target_logits = rng.normal(size=(n, disc.cfg.num_classes))

    def f():
        critic, logits, cache = disc.forward(x)
        d_critic, d_logits = critic - target_critic, logits - target_logits
        loss = float((d_critic * d_critic).sum() + (d_logits * d_logits).sum())
        _, d_x = disc.backward(cache, 2.0 * d_critic, 2.0 * d_logits)
        return loss, [d_x]

    return gradient_check(f, [x])


def check_streamed(net, step):
    """One streamed update against the whole gradient's adam_step: 0.0 when
    step(net)'s gradient forms, streamed into a fresh Adam state
    in net's training order, leave the parameter and moment bytes that its
    whole gradient and one whole-vector adam_step leave on a copy of net;
    inf otherwise."""
    ref = net.copy()
    params, ref_params = net.pack(), ref.pack()
    adam, ref_adam = AdamState.for_params(params), AdamState.for_params(ref_params)
    stream_grads(step(net)[-1], [p.shape for p in net.params()], (params, adam),
                 reverse=net.last_first)
    adam_step(ref_params, _flat_grads(ref, step(ref)[-1]), ref_adam)
    same = all(a.tobytes() == b.tobytes() for a, b in
               ((params, ref_params), (adam.m, ref_adam.m), (adam.v, ref_adam.v)))
    return 0.0 if same else float("inf")


def run_gradient_checks(seed=0, n_seeds=20):
    """(name, max relative error) for every check, worst case over seeds; a
    streamed-update check reads 0 when its bytes match and inf otherwise."""
    results = []
    for name, fn in [
        ("mlp_backward", check_mlp_backward),
        ("triplet_loss", check_triplet),
        ("generator_loss", lambda r: check_loss(*_generator_step(r))),
        ("discriminator_loss[gp=0]", lambda r: check_loss(*_critic_step(r, 0.0))),
        ("discriminator_loss[gp=10]", lambda r: check_loss(*_critic_step(r, 10.0))),
        ("discriminator_input_grad", check_discriminator_input_grad),
        ("streamed_critic_update", lambda r: check_streamed(*_critic_step(r, 10.0))),
        ("streamed_generator_step", lambda r: check_streamed(*_generator_step(r))),
    ]:
        worst = 0.0
        for s in range(n_seeds):
            rng = np.random.default_rng(seed + s)
            worst = max(worst, fn(rng))
        results.append((name, worst))
    return results
