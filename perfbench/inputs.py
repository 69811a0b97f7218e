"""Seeded input generation for the benchmark workloads.

Everything here is set-up: it runs before the timed phases and only
produces the inputs that are then handed to zsgen.
"""

import numpy as np

from zsgen import cko, data, evaluate, gan

# Suffixes that fire Porter steps 1-5, so stemming does real work.
SUFFIXES = (
    "", "", "", "s", "es", "ies", "ed", "ing", "ly", "ness", "ment", "ation",
    "ational", "ization", "iveness", "fulness", "ousness", "aliti", "iviti",
    "biliti", "ism", "able", "ible", "ance", "ence", "er", "ic", "ous", "ive",
    "ize", "al", "ent", "ate", "iti", "ful", "eed", "at", "bl", "iz",
)
_ONSETS = ("b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s",
           "t", "v", "w", "z", "br", "cl", "dr", "gr", "pl", "st", "tr", "sh")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ou", "y")


def _words(rng, count, suffixed=True):
    """count distinct lowercase pseudo-words built from syllables."""
    out, seen = [], set()
    while len(out) < count:
        n_syl = int(rng.integers(1, 4))
        stem = "".join(_ONSETS[rng.integers(len(_ONSETS))] + _VOWELS[rng.integers(len(_VOWELS))]
                       for _ in range(n_syl))
        stem += _ONSETS[rng.integers(len(_ONSETS))]
        word = stem + (SUFFIXES[rng.integers(len(SUFFIXES))] if suffixed else "")
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def make_corpus(rng, n_classes, words_per_article, vocab_size, stopwords):
    """Class records and a name-embedding table for `cko` + `text`.

    Each article mixes stop words (about 40% of tokens), a global
    Zipfian vocabulary and a class-specific topic vocabulary, with
    occasional numbers and punctuation that the tokenizer must split.
    """
    vocab = np.asarray(_words(rng, vocab_size))
    zipf = 1.0 / np.arange(1, vocab_size + 1) ** 1.07
    zipf /= zipf.sum()
    stop = sorted(w for w in stopwords if w.isalpha())
    name_words = _words(rng, 3 * n_classes, suffixed=False)
    table = cko.EmbeddingTable(
        vectors={w: rng.normal(size=50) for w in name_words}, dim=50)
    records = []
    for c in range(n_classes):
        topic = rng.permutation(vocab_size)[:200]
        n_stop = int(0.4 * words_per_article)
        n_topic = (words_per_article - n_stop) // 3
        n_global = words_per_article - n_stop - n_topic
        tokens = np.concatenate([
            rng.choice(stop, size=n_stop),
            vocab[rng.choice(vocab_size, size=n_global, p=zipf)],
            vocab[topic[rng.choice(200, size=n_topic, p=zipf[:200] / zipf[:200].sum())]],
        ])
        tokens = tokens[rng.permutation(tokens.size)].tolist()
        for i in range(0, len(tokens), 17):
            tokens[i] = tokens[i].capitalize() + ("," if i % 2 else ".")
        for i in range(5, len(tokens), 53):
            tokens[i] = f"{tokens[i]} {1800 + int(rng.integers(220))}"
        name = " ".join(name_words[3 * c + j] for j in range(int(rng.integers(1, 4))))
        records.append(cko.ClassRecord(c, name, " ".join(tokens)))
    return records, table


# Paper-width planted data: the config.DEFAULTS widths, 150 seen and 50
# unseen classes. Test rows are drawn from a fixed-seed checkpoint plus
# noise, so kNN over generated references recovers their labels.
PAPER = {
    "seen": 150, "unseen": 50, "semantic_dim": 5000, "visual_dim": 2048,
    "reduce_dim": 1000, "hidden_dim": 2048, "train_per_class": 45,
    "test_seen_per_class": 2, "test_unseen_per_class": 6,
    "latent_dim": 40, "latent_per_class": 4, "nnz": 150,
}
CHECKPOINT_SEED = 20210226
SEMANTIC_GAIN = 22.0     # scales the checkpoint's reduce layer
FEATURE_NOISE = 0.05     # isotropic noise added to every planted row


def _paper_semantics(rng, n_cls, dim, latent_dim, latent_per_class, nnz):
    """Sparse non-negative unit rows built from a few shared topics, like tf-idf."""
    basis = np.zeros((latent_dim, dim))
    for r in range(latent_dim):
        basis[r, rng.choice(dim, size=nnz, replace=False)] = rng.uniform(0.2, 1.0, size=nnz)
    codes = np.zeros((n_cls, latent_dim))
    for c in range(n_cls):
        codes[c, rng.choice(latent_dim, size=latent_per_class, replace=False)] = (
            rng.uniform(0.2, 1.0, size=latent_per_class))
    sem = codes @ basis
    return np.round(sem / np.linalg.norm(sem, axis=1, keepdims=True), 6)


def planted_checkpoint(semantic_dim, visual_dim, num_seen):
    """The benchmark's own fixed-seed paper-width generator and critic."""
    p = PAPER
    rng = np.random.default_rng(CHECKPOINT_SEED)
    gen = gan.Generator(gan.GeneratorConfig(
        semantic_dim=semantic_dim, visual_dim=visual_dim,
        reduce_dim=p["reduce_dim"], hidden_dim=p["hidden_dim"]), rng)
    gen.reduce.layers[0].weight *= SEMANTIC_GAIN
    disc = gan.Discriminator(gan.DiscriminatorConfig(
        visual_dim=visual_dim, hidden_dim=p["hidden_dim"], num_classes=num_seen), rng)
    return gen, disc


def paper_inputs(seed, workdir):
    """Write the paper-width checkpoint and dataset files.

    Returns the file paths, the planted networks, the test labels and the
    unseen class ids.
    """
    p = PAPER
    rng = np.random.default_rng(seed)
    n_cls = p["seen"] + p["unseen"]
    class_ids = np.arange(n_cls, dtype=np.int64)
    seen, unseen = class_ids[: p["seen"]], class_ids[p["seen"]:]
    sem = _paper_semantics(rng, n_cls, p["semantic_dim"], p["latent_dim"],
                           p["latent_per_class"], p["nnz"])
    gen, disc = planted_checkpoint(p["semantic_dim"], p["visual_dim"], p["seen"])
    # identity scaler: planted rows already live in the generator's range
    scaler = gan.FeatureScaler(lo=-np.ones(p["visual_dim"]), hi=np.ones(p["visual_dim"]))
    class_cols = {int(c): i for i, c in enumerate(seen)}

    test_y = np.concatenate([np.repeat(seen, p["test_seen_per_class"]),
                             np.repeat(unseen, p["test_unseen_per_class"])])
    test_x = gan.generate(gen, sem[test_y], gen.sample_noise(rng, test_y.size))
    # four decimals, as feature files usually carry
    test_x = np.round(test_x + rng.normal(0.0, FEATURE_NOISE, size=test_x.shape), 4)
    # training rows: noisy class centers (noise-free generator output)
    centers = gan.generate(gen, sem[seen], np.zeros((seen.size, p["reduce_dim"])))
    train_y = np.repeat(seen, p["train_per_class"])
    train_x = centers[train_y] + rng.normal(0.0, 2 * FEATURE_NOISE,
                                            size=(train_y.size, p["visual_dim"]))

    paths = {k: str(workdir / name) for k, name in [
        ("checkpoint", "model.ck"), ("train", "train_features.bin"),
        ("test", "test_features.txt"), ("semantics", "semantics.txt"),
        ("split", "split.txt")]}
    evaluate.save_model(paths["checkpoint"], gen, disc, scaler, class_cols)
    data.save_matrix_binary(paths["train"], train_y, train_x)
    data.save_matrix(paths["test"], test_y, test_x)
    data.save_matrix(paths["semantics"], class_ids, sem)
    data.save_split(paths["split"], data.SplitSpec(
        seen=tuple(seen.tolist()), unseen=tuple(unseen.tolist()), scheme="planted"))
    return {"paths": paths, "gen": gen, "disc": disc, "test_y": test_y,
            "unseen": unseen.tolist()}
