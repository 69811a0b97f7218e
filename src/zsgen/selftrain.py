"""Semi-supervised outer loop: retrain on unseen samples pseudo-labeled by a
kNN over synthetic features, widening the class head to their classes.

Each round after the first labels confident unseen samples from the kNN
votes that scored the previous round's generator, freezes those labels, and
then trains; nothing is labeled after the last training. The training set is
a list of row indices into the one scaled dataset, with a label per row: the
true labels of the TRAIN rows, then the pseudo-labels of the rows added.
"""

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics
from .bounds import bounded, check_bounds
from .data import ZslDataset
from .errors import UsageError
from .gan import Discriminator, FeatureScaler, Generator, generate, train_gan
from .knn import KnnClassifier, check_k, knn_scores
from .nn import glorot_init


@dataclass
class SslConfig:
    psi: float = bounded(0.5, ge=0, le=1)
    n_ssl: int = bounded(1, ge=1)
    per_class_synthetic: int = bounded(60, ge=1)
    knn_k: int = bounded(20, ge=1)

    __post_init__ = check_bounds


@dataclass
class PseudoLabelSet:
    labels: np.ndarray          # (n,) pseudo class ids, all unseen
    confidences: np.ndarray     # (n,) vote fractions, all >= the psi used
    source_indices: np.ndarray  # (n,) rows of the x_u passed to pseudo_label

    def __len__(self):
        return self.labels.shape[0]


# generated rows per generate call when synthesizing references: as many
# whole classes as fit, and at least one; at the paper widths (17 classes,
# 1020 rows) a block's temporaries peak near 50 MB: the noise, the decoder
# input and two hidden-width arrays
SYNTH_BLOCK_ROWS = 1 << 10


def synthesize_references(gen, class_ids, semantics, per_class, rng):
    """per_class generated feature rows for every class, with labels.

    One generate call per block of whole classes writes its rows straight
    into one preallocated array. The noise is drawn per block, in class
    order, so it is the stream that per-class draws would give.
    """
    if len(semantics) != len(class_ids):
        raise UsageError(f"{len(class_ids)} class ids but {len(semantics)} semantic rows")
    labels = np.repeat(np.asarray(class_ids, dtype=np.int64), per_class)
    refs = np.empty((labels.size, gen.cfg.visual_dim))
    step = max(1, SYNTH_BLOCK_ROWS // per_class)
    classes = np.repeat(np.arange(step), per_class)
    for c0 in range(0, len(class_ids), step):
        lo, n = c0 * per_class, (min(c0 + step, len(class_ids)) - c0) * per_class
        generate(gen, semantics[c0:c0 + step], gen.sample_noise(rng, n), classes[:n],
                 out=refs[lo:lo + n])
    return refs, labels


def unseen_test_rows(dataset):
    """Indices of the test-partition rows labeled with an unseen class."""
    test_idx = dataset.test_indices()
    return test_idx[np.isin(dataset.labels[test_idx], list(dataset.split.unseen))]


def confident(scores, class_ids, psi):
    """The rows of scores, vote fractions over class_ids, whose largest
    fraction reaches psi, with their argmax class (ties go to the smallest
    id) and that fraction; source_indices are rows of scores."""
    labels = metrics.predict_labels(scores, class_ids)
    conf = scores.max(axis=1)
    keep = np.flatnonzero(conf >= psi)
    return PseudoLabelSet(labels=labels[keep], confidences=conf[keep], source_indices=keep)


def pseudo_label(gen, unseen_class_ids, unseen_semantics, x_u, cfg, rng):
    """Label real unseen features with a kNN fitted on synthetic ones.

    Keeps only predictions whose vote fraction reaches cfg.psi. May
    return an empty set.
    """
    x_u = np.asarray(x_u, dtype=np.float64)
    if x_u.shape[0] == 0:
        empty = np.empty(0, dtype=np.int64)
        return PseudoLabelSet(empty, np.empty(0), empty)
    refs, ref_labels = synthesize_references(
        gen, unseen_class_ids, unseen_semantics, cfg.per_class_synthetic, rng
    )
    clf = KnnClassifier(refs, ref_labels, k=cfg.knn_k)
    return confident(knn_scores(clf, x_u, unseen_class_ids), unseen_class_ids, cfg.psi)


def expand_classifier_head(disc, new_class_count, rng):
    """Widen the class head to new_class_count logits.

    Existing class columns are preserved bit-exactly; new columns get
    Glorot weights and zero bias. Shrinking is rejected.
    """
    current = disc.cfg.num_classes
    if new_class_count < current:
        raise UsageError(
            f"cannot shrink class head from {current} to {new_class_count}"
        )
    if new_class_count == current:
        return disc
    head = disc.head.layers[0]
    hidden = head.weight.shape[0]
    fresh = glorot_init(rng, hidden, new_class_count)
    new_w = np.hstack([head.weight, fresh[:, current:]])
    new_b = np.concatenate([head.bias, np.zeros(new_class_count - current)])
    head.weight = new_w
    head.bias = new_b
    disc.cfg.num_classes = new_class_count
    return disc


@dataclass
class SslResult:
    generator: Generator
    discriminator: Discriminator
    scaler: FeatureScaler
    class_cols: dict          # class id -> discriminator logit column
    dataset: ZslDataset       # the scaled dataset trained on
    # dataset rows the last round trained on: the TRAIN rows, then the rows
    # each retraining round added
    train_rows: np.ndarray
    train_labels: np.ndarray  # their labels: true for TRAIN rows, then pseudo
    reports: list = field(default_factory=list)
    train_logs: list = field(default_factory=list)  # one probe history per iteration


def scaled_copy(dataset, scaler):
    return ZslDataset(
        features=scaler.transform(dataset.features),
        labels=dataset.labels.copy(),
        class_ids=dataset.class_ids,
        semantics=dataset.semantics,
        split=dataset.split,
        partition=dataset.partition.copy(),
    )


def prepare_models(dataset, gen_cfg, disc_cfg, rng):
    """Scale features and initialize generator/discriminator for training."""
    seen_train = dataset.train_indices()
    scaler = FeatureScaler.fit(dataset.features[seen_train])
    work = scaled_copy(dataset, scaler)
    gen = Generator(gen_cfg, rng)
    disc_cfg = replace(disc_cfg, num_classes=len(dataset.split.seen))
    disc = Discriminator(disc_cfg, rng)
    class_cols = {c: i for i, c in enumerate(sorted(dataset.split.seen))}
    return work, scaler, gen, disc, class_cols


def run_streams(seed, n_ssl):
    """The random streams of a run_ssl run, independent children of
    SeedSequence(seed): (init, rounds). init serves network init and every
    head widening; rounds holds, per training round, (train, refs): the
    stream handed to train_gan, and the one that the unseen references of
    the round's trained generator are drawn from."""
    init, *rounds = np.random.default_rng(seed).spawn(1 + n_ssl)
    return init, [tuple(r.spawn(2)) for r in rounds]


def run_ssl(dataset, gen_cfg, disc_cfg, train_cfg, ssl_cfg, seed):
    """Train, then (pseudo-label -> widen head -> add rows -> retrain) x
    (n_ssl - 1); n_ssl=1 trains the plain GAN.

    After each training, one draw of unseen references gives the unseen
    test rows' kNN vote fractions: the round reports their unseen top-1,
    with the labeling it trained on, and the next round labels their open
    rows. A pseudo-labeled row whose features equal a row already trained on
    is not added again, though it is frozen and counted as retained. Every
    consumer draws from its own stream (see run_streams), so no probe or
    reference draw moves a training draw.
    """
    check_k("ssl.knn_k", ssl_cfg.knn_k, ssl_cfg.per_class_synthetic,
            len(dataset.split.unseen))
    init_rng, round_rngs = run_streams(seed, ssl_cfg.n_ssl)
    work, scaler, gen, disc, class_cols = prepare_models(
        dataset, gen_cfg, disc_cfg, init_rng
    )
    unseen = sorted(work.split.unseen)
    candidates = unseen_test_rows(work)
    frozen = np.zeros(candidates.shape[0], dtype=bool)
    rows = work.train_indices()
    labels = work.labels[rows]

    def key(i):   # a digest of the row's bytes: 32 bytes whatever the width
        return hashlib.sha256(work.features[i].tobytes()).digest()
    trained = set(map(key, rows))

    def candidate_votes(rng):   # the references do not outlive the call
        refs, ref_labels = synthesize_references(
            gen, unseen, work.semantics_for(unseen), ssl_cfg.per_class_synthetic, rng)
        clf = KnnClassifier(refs, ref_labels, k=ssl_cfg.knn_k)
        return knn_scores(clf, work.features[candidates], unseen)

    reports, train_logs = [], []
    retained = new_classes = 0
    for iteration, (train_rng, refs_rng) in enumerate(round_rngs, 1):
        if iteration > 1:
            open_idx = np.flatnonzero(~frozen)
            pl = confident(votes[open_idx], unseen, ssl_cfg.psi)
            picked = open_idx[pl.source_indices]
            frozen[picked] = True

            fresh_classes = sorted(set(pl.labels.tolist()) - set(class_cols))
            for c in fresh_classes:
                class_cols[c] = len(class_cols)
            expand_classifier_head(disc, len(class_cols), init_rng)
            added = candidates[picked]
            fresh = np.array([key(i) not in trained for i in added], dtype=bool)
            trained.update(map(key, added[fresh]))
            rows = np.concatenate([rows, added[fresh]])
            labels = np.concatenate([labels, pl.labels[fresh]])
            retained, new_classes = len(pl), len(fresh_classes)

        result = train_gan(work, work.features[rows], labels,
                           gen, disc, class_cols, train_cfg, train_rng)
        gen, disc = result.generator, result.discriminator
        train_logs.append(result.history)
        votes = candidate_votes(refs_rng)
        reports.append({"iteration": iteration, "retained": retained,
                        "new_classes": new_classes, "val_gacc": result.best_gacc,
                        "unseen_top1": metrics.top1_per_class(
                            votes, unseen, work.labels[candidates])})
    return SslResult(gen, disc, scaler, class_cols, work, rows, labels, reports, train_logs)
