"""Text preprocessing and TF-IDF semantic encoding of class articles.

Pipeline: lowercase -> alphabetic tokenization -> stop-word removal ->
Porter stemming. Fitted TF-IDF uses smoothed idf, ln((1+N)/(1+df)) + 1,
raw term counts, and L2 normalization. Vocabulary order is lexicographic
so vector layouts are stable across runs.
"""

import math
import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .data import text_lines
from .errors import ConfigError
from .porter import stem

_TOKEN_RE = re.compile(r"[a-z]+")


def load_stopwords(path=None):
    """Stop words from a one-per-line file, or the packaged default list."""
    if path is None:
        data = resources.files("zsgen").joinpath("stopwords.txt").read_text("utf-8")
    else:
        data = "".join(line for _, line in text_lines(path))
    return frozenset(w.strip().lower() for w in data.splitlines() if w.strip())


def preprocess(raw_text, stopwords):
    """Turn raw article text into a stemmed token sequence.

    Digits and punctuation split tokens and are dropped; stop words are
    filtered both before and after stemming.
    """
    tokens = _TOKEN_RE.findall(raw_text.lower())
    stems = [stem(t) for t in tokens if t not in stopwords]
    return [s for s in stems if s and s not in stopwords]


@dataclass(frozen=True)
class TfIdfModel:
    vocabulary: dict  # term -> column index, lexicographic
    idf: np.ndarray   # per-column idf weights


def tfidf_fit(corpus):
    """Fit vocabulary and idf table on a list of token sequences."""
    if not corpus:
        raise ConfigError("cannot fit TF-IDF on an empty corpus")
    df = {}
    for doc in corpus:
        for term in set(doc):
            df[term] = df.get(term, 0) + 1
    vocab = {term: i for i, term in enumerate(sorted(df))}
    n = len(corpus)
    idf = np.empty(len(vocab))
    for term, i in vocab.items():
        idf[i] = math.log((1.0 + n) / (1.0 + df[term])) + 1.0
    return TfIdfModel(vocabulary=vocab, idf=idf)


def tfidf_transform(model, doc):
    """Encode one token sequence as an L2-normalized tf-idf vector.

    Out-of-vocabulary terms are ignored; an empty or fully OOV document
    maps to the zero vector.
    """
    idx = np.array([model.vocabulary[t] for t in doc if t in model.vocabulary], dtype=np.intp)
    vec = np.bincount(idx, minlength=len(model.vocabulary)) * model.idf
    norm = np.linalg.norm(vec)
    if norm > 0.0:
        vec /= norm
    return vec


def encode_corpus(model, corpus):
    """Stack transformed documents into a (num_docs, vocab_size) matrix."""
    return np.stack([tfidf_transform(model, doc) for doc in corpus])
