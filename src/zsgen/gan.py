"""Knowledge-to-visual generative model: generator, dual-head critic,
triplet/adversarial losses, and the inner adversarial training loop.

The generator maps a semantic vector through a linear reduction layer,
adds Gaussian noise of the same width to it (or appends the noise), and
decodes through leaky-relu and tanh layers into the visual feature range
(-1, 1). The discriminator shares a relu trunk between a scalar Wasserstein
critic head and a class-logit head; its loss carries a gradient penalty
toward unit critic gradients. Both networks run every layer through nn's
one dense-layer pass pair; only the penalty, which differentiates the
critic's input gradient, forms its products here.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics
from .bounds import bounded, check_bounds
from .errors import ConfigError, UsageError
from .knn import KnnClassifier, check_k, score_matrix
from .nn import (
    AdamState, dense_backward, dense_forward, grad_plan, init_mlp, mlp_backward, mlp_forward,
    pack, stream_grads,
)


@dataclass
class GeneratorConfig:
    semantic_dim: int = bounded(ge=1)
    visual_dim: int = bounded(ge=1)
    reduce_dim: int = bounded(1000, ge=1)
    hidden_dim: int = bounded(2048, ge=1)
    noise_sigma: float = bounded(1.0, ge=0)
    # reduce_dim-wide noise is added to the reduced semantics, or appended
    noise_mode: str = bounded("add", choices=("add", "concat"))

    __post_init__ = check_bounds


@dataclass
class DiscriminatorConfig:
    visual_dim: int = bounded(ge=1)
    hidden_dim: int = bounded(2048, ge=1)
    num_classes: int = bounded(1, ge=1)

    __post_init__ = check_bounds


@dataclass
class GanTrainConfig:
    margin: float = bounded(0.1, ge=0)
    lambda_t: float = bounded(1.0, ge=0)
    n_d: int = bounded(5, ge=1)
    n_step: int = bounded(10000, ge=0)
    patience: int = bounded(100, ge=1)
    batch_size: int = bounded(1000, ge=1)
    n_pos: int = bounded(5, ge=1)
    n_neg: int = bounded(5, ge=1)
    alpha: float = bounded(0.001, gt=0)
    beta1: float = bounded(0.5, ge=0, lt=1)
    beta2: float = bounded(0.9, ge=0, lt=1)
    gp_weight: float = bounded(10.0, ge=0)
    eval_every: int = bounded(40, ge=0)
    knn_k: int = bounded(20, ge=1)
    probe_per_class: int = bounded(60, ge=1)
    val_fraction: float = bounded(0.1, ge=0, le=0.5)

    __post_init__ = check_bounds


@dataclass
class FeatureScaler:
    """Per-dimension min-max map onto [-1, 1], fitted on the training split.

    Constant dimensions map to 0. The fitted bounds are persisted in
    checkpoints and reused verbatim at test time.
    """

    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def fit(cls, x):
        x = np.asarray(x, dtype=np.float64)
        return cls(lo=x.min(axis=0), hi=x.max(axis=0))

    def transform(self, x):
        """2 (x - lo) / span - 1 per dimension, formed in place in one new array."""
        span = self.hi - self.lo
        varies = span > 0.0
        out = np.subtract(np.asarray(x, dtype=np.float64), self.lo)
        out *= 2.0
        out /= np.where(varies, span, 1.0)
        out -= 1.0
        if not varies.all():
            out[..., ~varies] = 0.0
        return out


class Network:
    """Named parts, each an Mlp, as the subclass's layout(cfg) declares them:
    part -> (widths, activations), layer i mapping widths[i] to widths[i + 1]
    and then applying activations[i]. Each part is an attribute of that name;
    parameters run in layout order, weight then bias per layer.
    """

    # the order in which training streams the gradient forms (see
    # grad_plan): layout order, or last layer first
    last_first = False

    def __init__(self, cfg, rng):
        self._assemble(cfg, {part: init_mlp(widths, activations, rng)
                             for part, (widths, activations) in self.layout(cfg).items()})

    @classmethod
    def from_parts(cls, cfg, parts):
        """The network with the given part -> Mlp mapping, in layout order."""
        net = cls.__new__(cls)
        net._assemble(cfg, parts)
        return net

    def _assemble(self, cfg, parts):
        self.cfg = cfg
        self.__dict__.update(parts)
        self._mlps = tuple(parts.values())

    def params(self):
        out = []
        for mlp in self._mlps:
            out += mlp.param_arrays()
        return out

    def pack(self):
        """Move the parameters into one flat vector (see nn.pack); returns it."""
        return pack(self._mlps)

    def grad_plan(self):
        """nn.grad_plan of params(), in the order training streams it."""
        return grad_plan([p.shape for p in self.params()], self.last_first)

    def copy(self):
        return self.from_parts(replace(self.cfg), {
            part: getattr(self, part).copy() for part in self.layout(self.cfg)})


class Generator(Network):
    # the decode part's forms, which hold its forward caches, run and are
    # released before the reduce part's
    last_first = True

    @staticmethod
    def layout(cfg):
        decode_in = cfg.reduce_dim * (2 if cfg.noise_mode == "concat" else 1)
        return {
            "reduce": ((cfg.semantic_dim, cfg.reduce_dim), ("identity",)),
            "decode": ((decode_in, cfg.hidden_dim, cfg.visual_dim), ("leaky_relu", "tanh")),
        }

    def sample_noise(self, rng, n):
        return rng.normal(0.0, self.cfg.noise_sigma, size=(n, self.cfg.reduce_dim))

    def reduce_rows(self, semantics):
        """The reduce layer's rows for the semantic rows, with their cache:
        the reduced= of forward and generate while the weights do not change."""
        return mlp_forward(self.reduce, np.asarray(semantics, dtype=np.float64))

    def forward(self, semantics, noise, classes=None, keep_cache=True, out=None,
                reduced=None):
        """Generated rows, one per noise row, and the cache for backward.

        Noise row i is generated from semantic row classes[i], so the reduce
        layer runs once per semantic row, however many noise rows share it,
        and not at all when reduced, reduce_rows(semantics) under the
        current weights, is given. By default noise row i uses semantic row
        i, or the only one. keep_cache and out are as in mlp_forward:
        without a cache (None is returned for it) the rows can be written
        into out.
        """
        semantics = np.asarray(semantics, dtype=np.float64)
        noise = np.asarray(noise, dtype=np.float64)
        if noise.ndim != 2 or noise.shape[1] != self.cfg.reduce_dim:
            raise UsageError(f"noise must be (rows, {self.cfg.reduce_dim}), got {noise.shape}")
        n_sem, n = semantics.shape[0], noise.shape[0]
        if classes is None:
            if n_sem not in (1, n):
                raise UsageError("semantics and noise batch sizes differ")
            classes = np.zeros(n, dtype=np.int64) if n_sem == 1 else np.arange(n)
        else:
            classes = np.asarray(classes)
            if classes.shape != (n,) or n and (
                    classes.dtype.kind not in "iu"
                    or not 0 <= np.minimum.reduce(classes) <= np.maximum.reduce(classes) < n_sem):
                raise UsageError("classes must be one integer semantic row index per noise row")
            classes = classes.astype(np.int64, copy=False)
        if reduced is None:
            reduced = mlp_forward(self.reduce, semantics, keep_cache)
        rows, reduce_cache = reduced
        if rows.shape != (n_sem, self.cfg.reduce_dim) or keep_cache and reduce_cache is None:
            raise UsageError("reduced must be reduce_rows of the semantics")
        if self.cfg.noise_mode == "add":
            h = rows[classes]
            h += noise
        else:
            h = np.concatenate([rows[classes], noise], axis=1)
        out, decode_cache = mlp_forward(self.decode, h, keep_cache, out)
        return out, (reduce_cache, decode_cache, classes) if keep_cache else None

    def backward(self, cache, d_out):
        """The gradient forms of params(), in that order (see nn.stream_grads).

        Every input gradient is formed here from the weights as they are:
        the decode layers', and d_rows, the gradient in the reduce output
        summed per semantic row (a one-hot product). The gradient in the
        semantics is not formed.
        """
        reduce_cache, decode_cache, classes = cache
        decode_forms, d_h = mlp_backward(self.decode, decode_cache, d_out)
        one_hot = np.zeros((reduce_cache[0][0].shape[0], classes.size))
        one_hot[classes, np.arange(classes.size)] = 1.0
        d_rows = one_hot @ d_h[:, :self.cfg.reduce_dim]
        reduce_forms, _ = mlp_backward(self.reduce, reduce_cache, d_rows, input_grad=False)
        return reduce_forms + decode_forms


def generate(gen, semantics, noise, classes=None, out=None, reduced=None):
    """Synthesize visual features with the forward that keeps no cache.

    The rows are written into out when it is given, a C-contiguous float64
    (noise rows, visual_dim) array, and out is returned. reduced is as in
    Generator.forward.
    """
    noise = np.asarray(noise, dtype=np.float64)
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == np.float64
                                and out.flags.c_contiguous
                                and out.shape == (noise.shape[0], gen.cfg.visual_dim)):
        raise UsageError(f"out must be a C-contiguous float64 ({noise.shape[0]}, "
                         f"{gen.cfg.visual_dim}) array")
    out, _ = gen.forward(semantics, noise, classes, keep_cache=False, out=out,
                         reduced=reduced)
    if not np.isfinite(out).all():
        raise UsageError("non-finite values in generated features")
    return out


class Discriminator(Network):
    """A relu trunk shared by a scalar critic and a class-logit head, each
    exactly one layer, run by nn.dense_forward and nn.dense_backward.

    The cache is the three layers' (input, pre-activation) pairs in layout
    order, the trunk's first: gradient_penalty_grads reads its pre-activation
    and relies on the same shape.
    """

    @staticmethod
    def layout(cfg):
        return {
            "trunk": ((cfg.visual_dim, cfg.hidden_dim), ("relu",)),
            "critic": ((cfg.hidden_dim, 1), ("identity",)),
            "head": ((cfg.hidden_dim, cfg.num_classes), ("identity",)),
        }

    def _layers(self):
        return self.trunk.layers[0], self.critic.layers[0], self.head.layers[0]

    def forward(self, x):
        """(critic scores (n,), logits (n, classes), cache)."""
        trunk, critic, head = self._layers()
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ConfigError("input must be a 2-d batch")
        if x.shape[1] != trunk.weight.shape[0]:
            raise ConfigError(f"input dim {x.shape[1]} does not match network input "
                              f"dim {trunk.weight.shape[0]}")
        h, z = dense_forward(trunk, x)
        scores, _ = dense_forward(critic, h)
        logits, _ = dense_forward(head, h)
        return scores[:, 0], logits, ((x, z), (h, scores), (h, logits))

    def backward(self, cache, d_critic, d_logits, input_grad=True):
        """(gradient forms of params() in that order, see nn.stream_grads;
        d_x, None without input_grad). The forms read no parameter."""
        trunk, critic, head = self._layers()
        trunk_cache, critic_cache, head_cache = cache
        n = trunk_cache[1].shape[0]
        d_critic = np.asarray(d_critic, dtype=np.float64)
        d_logits = np.asarray(d_logits, dtype=np.float64)
        if d_critic.shape != (n,) or d_logits.shape != (n, head.weight.shape[1]):
            raise UsageError(f"upstream gradient shapes {d_critic.shape} and "
                             f"{d_logits.shape} do not match output")
        critic_forms, d_h = dense_backward(critic, *critic_cache, d_critic[:, None])
        head_forms, d_head = dense_backward(head, *head_cache, d_logits)
        d_h += d_head
        del d_head   # not held through the trunk's pass
        trunk_forms, d_x = dense_backward(trunk, *trunk_cache, d_h, input_grad, in_place=True)
        return trunk_forms + critic_forms + head_forms, d_x


def _safe_unit(diff, dist):
    """diff / dist, in place on diff, with zero rows where dist == 0."""
    nz = dist > 0.0
    np.divide(diff, np.where(nz, dist, 1.0)[:, None], out=diff)
    if not nz.all():
        diff[~nz] = 0.0
    return diff


# gathered sample values per triplet block: a block takes as many batch rows
# as keep their samples within it (at least one row), whatever the batch size
TRIPLET_BLOCK_VALUES = 1 << 20


def _sample_table(table, name, n_rows, n_features):
    """table as an (n_rows, n) integer array of row indices into the
    n_features feature rows, n >= 1; a UsageError naming it otherwise."""
    try:
        table = np.asarray(table)
    except ValueError:   # NumPy's error for a ragged list
        raise UsageError(f"{name} must be one ({n_rows}, n) table, not a ragged list") from None
    if table.ndim != 2 or table.shape[0] != n_rows or not table.shape[1]:
        raise UsageError(f"{name} must be ({n_rows}, n >= 1), got {table.shape}")
    if table.dtype.kind not in "iu" or not 0 <= table.min() <= table.max() < n_features:
        raise UsageError(f"{name} must be row indices into the {n_features} feature rows")
    return table


def _positive_minus_negative(synthetic, features, table, n_pos, directions):
    """(rows, 1) or, with directions, (rows, d): per row r, the mean over its
    positives table[r, :n_pos] less the mean over its negatives
    table[r, n_pos:] of the distance from synthetic[r] to each sample or of
    the unit vector from each sample to synthetic[r]; a sample at distance 0
    adds a zero vector.

    Samples are gathered as one (rows, n, d) block at a time, so no more
    than TRIPLET_BLOCK_VALUES of them are alive at once (at least one row's).
    """
    (n_rows, n), dim = table.shape, synthetic.shape[1]
    counts = np.array([n_pos, n - n_pos])
    out = np.empty((n_rows, dim if directions else 1))
    step = max(1, TRIPLET_BLOCK_VALUES // (n * dim))
    for lo in range(0, n_rows, step):
        diff = features[table[lo:lo + step]]
        b = diff.shape[0]
        np.subtract(synthetic[lo:lo + b, None], diff, out=diff)
        diff = diff.reshape(b * n, dim)
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        # the positives' and the negatives' sums per row; reduceat keeps
        # each sum's order of additions whatever the block
        starts = (np.arange(b)[:, None] * n + (0, n_pos)).ravel()
        sums = (np.add.reduceat(_safe_unit(diff, dist), starts, axis=0) if directions
                else np.add.reduceat(dist, starts)[:, None])
        means = sums.reshape(b, 2, -1) / counts[:, None]
        np.subtract(means[:, 0], means[:, 1], out=out[lo:lo + b])
    return out


def triplet_loss_grad(synthetic, features, positives, negatives, margin):
    """Hinged inter/intra-class distance gap, plus its gradient in x-tilde.

    synthetic is one generated row per class; positives / negatives are
    (m, n_pos) / (m, n_neg) integer tables, row c holding the row indices
    into features of the real same-class / other-class samples for class c.
    Euclidean distances, class-averaged, margin added inside the outer
    hinge. The two tables are joined into one, whose samples are gathered
    in blocks of rows (see _positive_minus_negative); the gradient pass
    gathers them again, and an inactive hinge skips it.
    """
    synthetic = np.asarray(synthetic, dtype=np.float64)
    features = np.asarray(features, dtype=np.float64)
    n_classes = synthetic.shape[0]
    if not n_classes:
        raise UsageError("synthetic needs at least one row")
    pos, neg = (_sample_table(t, name, n_classes, features.shape[0])
                for t, name in ((positives, "positives"), (negatives, "negatives")))
    table, n_pos = np.hstack([pos, neg], dtype=np.intp), pos.shape[1]
    gap = _positive_minus_negative(synthetic, features, table, n_pos, directions=False)
    loss = float(np.sum(gap)) / n_classes + margin
    if loss <= 0.0:
        return 0.0, np.zeros_like(synthetic)
    grad = _positive_minus_negative(synthetic, features, table, n_pos, directions=True)
    grad /= n_classes
    return loss, grad


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy over softmax logits, with gradient in the logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    n, n_cls = logits.shape
    if not n:
        raise UsageError("logits: empty batch")
    if labels.dtype.kind not in "iu" or labels.shape != (n,):
        raise UsageError(f"labels must be {n} integers, got {labels.dtype} {labels.shape}")
    if np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= n_cls:
        raise UsageError("label out of class range")
    # one buffer: shifted logits, then their exponentials, then the softmax,
    # then its gradient. A maximum is exact in any order, so the row maxima
    # are reduced down a transposed copy, one vector operation per class
    # rather than one short reduction per row.
    probs = logits - np.maximum.reduce(logits.T.copy(), axis=0)[:, None]
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=1, keepdims=True)
    flat, at = probs.reshape(-1), np.arange(0, n * n_cls, n_cls) + labels
    loss = -float(np.add.reduce(np.log(flat[at] + 1e-300)) / n)
    flat[at] -= 1.0
    probs /= n
    return loss, probs


def gradient_penalty_grads(disc, z_hat, forms, scale=1.0):
    """Value of the unit-gradient penalty; adds scale times its gradients in
    the trunk and critic weights to their forms in forms, the gradient forms
    of disc.params() (see nn.stream_grads).

    Penalty = mean over interpolates of (||grad_x critic|| - 1)^2. z_hat is
    the interpolates' trunk pre-activation: the trunk is one affine layer and
    a relu, so it is the same mix of the real and fake pre-activations. With
    mask = (z_hat >= 0), W the trunk weight and c the critic weight, the
    critic gradient is g = (mask * c) @ W.T, and P = d_g.T @ mask gives both
    parameter gradients: P * c for W and the column sums of W * P for c.
    Each run of W's rows forms its own rows of P. The column sums run on
    from run to run, row after row as one einsum over W * P adds them, so
    every run of W must be formed, from W as it was, before c's form runs:
    layout order does both. The mask carries no derivative, so biases
    receive zero gradient.
    """
    weight = disc.trunk.layers[0].weight
    mask = (z_hat >= 0.0).astype(np.float64)
    c = disc.critic.layers[0].weight[:, 0]
    g = (mask * c) @ weight.T
    norms = np.sqrt(np.add.reduce(g * g, axis=1))
    excess = norms - 1.0
    penalty = float(np.add.reduce(excess ** 2) / z_hat.shape[0])
    d_g = _safe_unit(g, norms)
    d_g *= ((2.0 * scale / z_hat.shape[0]) * excess)[:, None]
    sums = np.zeros(c.size)   # the column sums of W * P over the runs formed so far
    trunk_form, critic_form = forms[0], forms[2]

    def trunk_rows(lo, hi, dest):
        p = d_g.T[lo:hi] @ mask
        # dest holds the rows of W * P while they are summed, the first row
        # carrying the sums so far, before the trunk's own form fills it
        np.multiply(weight[lo:hi], p, out=dest)
        dest[0] += sums
        np.add.reduce(dest, axis=0, out=sums)
        p *= c
        trunk_form(lo, hi, dest)
        dest += p

    def critic_rows(lo, hi, dest):
        critic_form(lo, hi, dest)
        dest += sums[lo:hi, None]

    forms[0], forms[2] = trunk_rows, critic_rows
    return penalty


def discriminator_loss_grads(disc, real_x, fake_x, labels, gp_weight, eps=None):
    """Critic gap + gradient penalty + averaged classification losses, and
    the gradient forms of disc.params() (see nn.stream_grads): (loss, forms).

    The real and fake batches run as one stacked pass: the cross-entropy
    over both is the mean of the two batch losses. eps, (rows, 1), is the
    penalty's mix of each real row with its fake one; it is read only when
    gp_weight is not 0.
    """
    real_x = np.asarray(real_x, dtype=np.float64)
    fake_x = np.asarray(fake_x, dtype=np.float64)
    if real_x.shape != fake_x.shape:
        raise UsageError("real and fake batches must have identical shapes")
    n = real_x.shape[0]
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu" or labels.shape != (n,):
        raise UsageError(f"labels must be {n} integers, got {labels.dtype} {labels.shape}")
    if gp_weight != 0.0 and np.shape(eps) != (n, 1):
        raise UsageError(f"eps must be ({n}, 1), got {np.shape(eps)}")

    critic, logits, cache = disc.forward(np.concatenate([real_x, fake_x]))
    ce, d_logits = softmax_cross_entropy(logits, np.concatenate([labels, labels]))
    loss = float(critic[n:].sum() / n) - float(critic[:n].sum() / n) + ce
    d_critic = np.full(2 * n, 1.0 / n)
    d_critic[:n] = -1.0 / n
    forms, _ = disc.backward(cache, d_critic, d_logits, input_grad=False)
    # the penalty reads only the trunk pre-activation of the stacked batch
    z = cache[0][1]
    del cache

    if gp_weight != 0.0:
        z_hat = eps * z[:n]
        z_hat += (1.0 - eps) * z[n:]
        del z
        loss += gp_weight * gradient_penalty_grads(disc, z_hat, forms, gp_weight)
    return loss, forms


def generator_loss_grads(gen, disc, semantics, noise, labels, features,
                         pos_rows, neg_rows, cfg, classes=None, reduced=None):
    """Generator loss, its triplet term and the gradient forms of
    gen.params() (see nn.stream_grads): (loss, triplet, forms).

    The loss is the part that depends on the generator: the negated mean
    critic score of the generated batch, half its classification loss, and
    the weighted triplet term. semantics, classes and reduced are as in
    Generator.forward; pos_rows / neg_rows are the row indices into
    features of the real samples matched to each batch row's class, as
    triplet_loss_grad takes them. The forms hold only the layer inputs and
    pre-activation gradients: the forward caches and the critic's pass are
    released here.
    """
    fake_x, gen_cache = gen.forward(semantics, noise, classes, reduced=reduced)
    critic_f, logits_f, disc_cache = disc.forward(fake_x)

    n = fake_x.shape[0]
    ce_fake, d_logits_f = softmax_cross_entropy(logits_f, labels)
    trip, d_trip = triplet_loss_grad(fake_x, features, pos_rows, neg_rows, cfg.margin)
    loss = -float(critic_f.sum() / n) + 0.5 * ce_fake + cfg.lambda_t * trip
    # the critic's forms are dropped at once: they hold its layers' inputs
    d_fake = disc.backward(disc_cache, np.full(n, -1.0 / n), 0.5 * d_logits_f)[1]
    del disc_cache, fake_x   # the generator's backward reads neither
    d_fake += cfg.lambda_t * d_trip
    del d_trip
    return loss, trip, gen.backward(gen_cache, d_fake)


@dataclass
class TrainResult:
    generator: Generator
    discriminator: Discriminator
    history: list = field(default_factory=list)   # one dict per probe
    best_gacc: float = float("nan")


def _subset_offsets(rng, pool, n):
    """n offsets into [0, pool[i]) for each row i: distinct where pool[i] >= n
    (Floyd's subset sampling, vectorized over rows), drawn with replacement
    where the pool is smaller."""
    short = pool < n
    # Floyd's step k draws t in [0, j] with j = pool - n + k; a repeat takes j
    top = np.where(short[:, None], pool[:, None] - 1, (pool - n)[:, None] + np.arange(n))
    picks = (rng.random(top.shape) * (top + 1)).astype(np.int64)
    # the steps run down the rows of a transposed copy: each is a few
    # operations on whole rows, not a short reduction per row
    picks, top, distinct = picks.T.copy(), top.T, ~short
    for k in range(1, n):
        repeat = (picks[:k] == picks[k]).any(axis=0)
        repeat &= distinct
        np.copyto(picks[k], top[k], where=repeat)
    return picks.T


class TripletSampler:
    """Same-class and other-class row tables over a labelled set, built once.

    Rows are sorted by class, so class k's rows are the block
    order[start[k]:start[k] + count[k]] and its other-class pool is `order`
    with that block left out. A draw's work and memory grow with the number
    of rows drawn for, not with the size of the labelled set.
    """

    def __init__(self, labels):
        self.classes, self.class_of_row, self.count = np.unique(
            labels, return_inverse=True, return_counts=True)
        self.order = np.argsort(self.class_of_row, kind="stable")
        self.start = np.cumsum(self.count) - self.count

    def draw(self, rng, rows, n_pos, n_neg):
        """(len(rows), n_pos) row indices of the same class as each of rows, and
        (len(rows), n_neg) of other classes; distinct where the pool allows."""
        if self.classes.size < 2:
            raise ConfigError("triplet negatives need at least two training classes")
        k = self.class_of_row[rows]
        start, count = self.start[k][:, None], self.count[k]
        pos = self.order[start + _subset_offsets(rng, count, n_pos)]
        off = _subset_offsets(rng, self.order.size - count, n_neg)
        neg = self.order[off + np.where(off >= start, count[:, None], 0)]
        return pos, neg


def _validation_split(train_y, seen_ids, frac, rng):
    """Per-class held-out validation indices over seen-class samples."""
    val = []
    for c in seen_ids:
        idx = np.flatnonzero(train_y == c)
        if idx.size < 2:
            continue
        n_val = max(1, int(round(frac * idx.size)))
        perm = rng.permutation(idx.size)
        val.extend(idx[perm[:n_val]].tolist())
    return np.array(sorted(val), dtype=np.int64)


def _probe_gacc(gen, dataset, val_x, val_y, cfg, rng):
    """kNN probe on synthetic features; generalized accuracy, over the default
    calibration sweep, of validation seen-class queries over the full
    seen+unseen class space, scored by knn.score_matrix. The references
    are generated one class at a time, seen classes first, each into its
    rows of one array."""
    class_ids = np.array(sorted(dataset.split.seen) + sorted(dataset.split.unseen),
                         dtype=np.int64)
    n = cfg.probe_per_class
    refs = np.empty((class_ids.size * n, gen.cfg.visual_dim))
    for i, c in enumerate(class_ids):
        generate(gen, dataset.semantics_for([c]), gen.sample_noise(rng, n),
                 out=refs[i * n:(i + 1) * n])
    clf = KnnClassifier(refs, np.repeat(class_ids, n), k=cfg.knn_k)
    return metrics.generalized_accuracy(score_matrix(clf, dataset, val_x), val_y)


def _keyed_stream(rng, key):
    """The stream of the child of rng's seed sequence whose last spawn key is
    `key`: the one that sequence spawns as its child number `key`, formed
    directly, without spawning any other."""
    seq = rng.bit_generator.seed_seq
    return np.random.default_rng(np.random.SeedSequence(
        seq.entropy, spawn_key=seq.spawn_key + (key,), pool_size=seq.pool_size))


def train_gan(dataset, train_x, train_y, gen, disc, class_cols, cfg, rng):
    """Adversarial training on the (scaled) training split.

    class_cols maps class id -> discriminator logit column. Every
    eval_every steps a kNN probe records the generalized accuracy of
    val_fraction of each seen class's rows, held out from fitting; no rows
    are held out when no step reaches eval_every or val_fraction is 0. A
    copy of the networks is kept at each new best probe, and the best one
    is returned. When no probe scores (none ran, or all were NaN), the
    passed-in networks themselves are returned, trained. Stops early after
    `patience` consecutive evaluations without improvement.

    rng only spawns the run's streams and is never drawn from: one each for
    the validation split, the critic updates (batch rows, noise and, when
    gp_weight is not 0, the penalty's mix eps), the generator steps (batch
    rows, noise and triplet samples) and the probe. The probe at step s
    draws from its own stream, keyed by s, so probing at another cadence or
    size moves no training draw.
    Spawning advances rng's count of children, so another call with the same
    rng trains on other streams.
    """
    if train_x.shape[0] == 0:
        raise ConfigError("empty training split")
    n_train = train_x.shape[0]
    m = min(cfg.batch_size, n_train)
    split_rng, critic_rng, gen_rng, probe_rng = rng.spawn(4)

    # rows are held out only for a probe that some step reaches
    val_idx = np.empty(0, dtype=np.int64)
    if cfg.eval_every and cfg.n_step >= cfg.eval_every and cfg.val_fraction > 0:
        val_idx = _validation_split(train_y, sorted(dataset.split.seen),
                                    cfg.val_fraction, split_rng)
    probe = val_idx.size > 0
    if probe:
        check_k("gan.knn_k", cfg.knn_k, cfg.probe_per_class,
                len(dataset.split.seen) + len(dataset.split.unseen))
    fit_idx = np.setdiff1d(np.arange(n_train), val_idx, assume_unique=True)
    fit_y = train_y[fit_idx]
    val_x, val_y = train_x[val_idx], train_y[val_idx]
    sampler = TripletSampler(fit_y)
    # per class of the fit rows: its semantic vector and its logit column
    sem_of_class = dataset.semantics_for(sampler.classes)
    col_of_class = np.array([class_cols[int(c)] for c in sampler.classes])

    rates = dict(alpha=cfg.alpha, beta1=cfg.beta1, beta2=cfg.beta2)
    # each network's packed parameters and its Adam state, into which its
    # gradient streams, block by block, so no gradient vector is held
    gen_update, disc_update = ((p, AdamState.for_params(p, **rates))
                               for p in (gen.pack(), disc.pack()))
    gen_plan, disc_plan = gen.grad_plan(), disc.grad_plan()

    best = None   # (gen, disc) snapshot of the best probe so far
    best_gacc = float("-inf")
    history = []
    p_count = 0
    last_ld = float("nan")

    for step in range(1, cfg.n_step + 1):
        # the generator's weights change only at its update, so the reduce
        # layer's rows for the fit classes serve the whole step
        reduced = gen.reduce_rows(sem_of_class)
        for _ in range(cfg.n_d):
            idx = critic_rng.integers(0, fit_idx.size, size=m)
            k = sampler.class_of_row[idx]
            fake = generate(gen, sem_of_class, gen.sample_noise(critic_rng, m), k,
                            reduced=reduced)
            eps = critic_rng.uniform(0.0, 1.0, size=(m, 1)) if cfg.gp_weight else None
            last_ld, forms = discriminator_loss_grads(
                disc, train_x[fit_idx[idx]], fake, col_of_class[k], cfg.gp_weight, eps)
            del fake   # the forms hold the stacked copy they read
            if not math.isfinite(last_ld):
                raise UsageError(f"non-finite discriminator loss at step {step}")
            stream_grads(forms, disc_plan, disc_update)

        idx = gen_rng.integers(0, fit_idx.size, size=m)
        k = sampler.class_of_row[idx]
        pos, neg = sampler.draw(gen_rng, idx, cfg.n_pos, cfg.n_neg)
        lg, trip, forms = generator_loss_grads(
            gen, disc, sem_of_class, gen.sample_noise(gen_rng, m), col_of_class[k],
            train_x, fit_idx[pos], fit_idx[neg], cfg, classes=k, reduced=reduced,
        )
        del reduced   # not held while the generator's gradient streams
        if not math.isfinite(lg):
            raise UsageError(f"non-finite generator loss at step {step}")
        stream_grads(forms, gen_plan, gen_update)

        if probe and step % cfg.eval_every == 0:
            gacc = _probe_gacc(gen, dataset, val_x, val_y, cfg,
                               _keyed_stream(probe_rng, step))
            history.append({
                "step": step, "loss_d": float(last_ld), "loss_g": float(lg),
                "triplet": float(trip), "val_gacc": float(gacc),
            })
            if gacc > best_gacc:
                best, best_gacc = (gen.copy(), disc.copy()), gacc
                p_count = 0
            else:
                p_count += 1
                if p_count >= cfg.patience:
                    break

    if best is None:
        # no probe ran, or none scored above -inf: the trained networks are the result
        return TrainResult(gen, disc, history, float("nan"))
    return TrainResult(*best, history, best_gacc)
