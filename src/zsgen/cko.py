"""Class knowledge overlay: name embedding, class similarity, article overlay.

Each class name is embedded as the mean of its word vectors, classes are
ranked by pairwise similarity, and every class article is extended with
the articles of its top-k most similar classes.
"""

from dataclasses import dataclass

import numpy as np

from .data import text_lines, text_rows
from .errors import ConfigError, MissingEmbeddingError, ParseError


@dataclass
class EmbeddingTable:
    vectors: dict  # word -> np.ndarray
    dim: int


@dataclass
class ClassRecord:
    class_id: int
    name: str
    article: str
    article_overlay: str = ""


def load_embeddings(path):
    """Load a plain-text `word v1 v2 ... vd` embedding table. Rows follow the
    matrix row rule (data.text_rows): every row has the first row's width
    and only finite float values. Words are lowercased. A word listed twice
    is a ParseError; of words that differ only in case the first row is
    kept, as frequency-ordered tables list the common form first."""
    vectors, words = {}, set()
    for lineno, word, values in text_rows(path, text_lines(path)):
        if word in words:
            raise ParseError(f"word {word!r} is listed twice", path=path, line=lineno)
        words.add(word)
        vectors.setdefault(word.lower(), values)
    if not vectors:
        raise ConfigError(f"embedding table {path} is empty")
    return EmbeddingTable(vectors=vectors, dim=next(iter(vectors.values())).shape[0])


def name_tokens(name):
    """Split a class name on whitespace, hyphens, underscores and dots."""
    out = []
    for chunk in name.lower().replace("-", " ").replace("_", " ").replace(".", " ").split():
        token = "".join(ch for ch in chunk if ch.isalpha())
        if token:
            out.append(token)
    return out


def embed_class_name(table, name):
    """Mean of the embeddings of the name's tokens; unknown tokens skipped."""
    if not table.vectors:
        raise ConfigError("embedding table is empty")
    vecs = [table.vectors[t] for t in name_tokens(name) if t in table.vectors]
    if not vecs:
        raise MissingEmbeddingError(f"no embedding for any token of class name {name!r}")
    return np.mean(vecs, axis=0)


def _cosine(a, b):
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def similarity_matrix(table, names, measure="cosine"):
    """Pairwise class-name similarity, cosine by default.

    measure="neg_euclidean" ranks by negated Euclidean distance instead;
    cosine keeps the unit diagonal the overlay heat maps assume.
    """
    embedded = [embed_class_name(table, name) for name in names]
    n = len(embedded)
    sm = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            if measure == "cosine":
                s = _cosine(embedded[i], embedded[j])
            elif measure == "neg_euclidean":
                s = -float(np.linalg.norm(embedded[i] - embedded[j]))
            else:
                raise ConfigError(f"unknown similarity measure {measure!r}")
            sm[i, j] = s
            sm[j, i] = s
    return sm


def top_k_similar(sm, i, class_ids, k):
    """Indices of the k classes most similar to class i, self excluded.

    Descending similarity; ties broken by ascending class id.
    """
    order = sorted(
        (j for j in range(sm.shape[0]) if j != i),
        key=lambda j: (-sm[i, j], class_ids[j]),
    )
    return order[:k]


def overlay(records, sm, k):
    """Populate each record's overlay article with its top-k neighbors' articles.

    The class's own article comes first, then neighbor articles joined by
    single newlines in descending similarity order.
    """
    n = len(records)
    if sm.shape != (n, n):
        raise ConfigError(f"similarity matrix shape {sm.shape} does not match {n} records")
    if not 0 <= k < n:
        raise ConfigError(f"overlay k={k} must satisfy 0 <= k < {n}")
    class_ids = [r.class_id for r in records]
    out = []
    for i, rec in enumerate(records):
        parts = [rec.article]
        for j in top_k_similar(sm, i, class_ids, k):
            parts.append(records[j].article)
        out.append(ClassRecord(rec.class_id, rec.name, rec.article, "\n".join(parts)))
    return out
