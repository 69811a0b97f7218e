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
    and only finite float values, at least one. Words are lowercased. A word
    listed twice is a ParseError; of words that differ only in case the first
    row is kept, as frequency-ordered tables list the common form first."""
    vectors, words = {}, set()
    for lineno, word, values in text_rows(path, text_lines(path)):
        if not values.size:   # the first row: the others take its width
            raise ParseError(f"word {word!r} has no values", path=path, line=lineno)
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


def similarity_matrix(table, names, measure="cosine"):
    """Pairwise class-name similarity, cosine by default.

    measure="neg_euclidean" ranks by negated Euclidean distance instead;
    cosine keeps the unit diagonal the overlay heat maps assume. Both are
    formed over the distinct name embeddings, so alike embeddings tie
    exactly and the matrix is exactly symmetric. Cosine is read off their
    Gram matrix. The distance is the norm of their differences, a row at a
    time, so near embeddings do not cancel to 0, and the negated distance
    of an embedding to itself is exactly 0. A zero embedding has cosine 0
    to every class.
    """
    if measure not in ("cosine", "neg_euclidean"):
        raise ConfigError(f"unknown similarity measure {measure!r}")
    embedded = np.array([embed_class_name(table, name) for name in names])
    rows, inverse = np.unique(embedded.reshape(len(names), table.dim), axis=0,
                              return_inverse=True)
    if measure == "cosine":
        gram = rows @ rows.T  # numpy forms x @ x.T as one triangle, mirrored: exactly symmetric
        norms = np.sqrt(np.diag(gram))
        scale = norms[:, None] * norms
        sm = np.divide(gram, scale, out=np.zeros_like(gram), where=scale > 0.0)
    else:
        sm = np.empty((len(rows), len(rows)))
        for i, row in enumerate(rows):   # a - b and b - a square alike: exactly symmetric
            sm[i] = -np.linalg.norm(rows - row, axis=1)
    return sm[np.ix_(inverse, inverse)]


def top_k_similar(sm, i, class_ids, k):
    """Indices of the k classes most similar to class i, self excluded.

    Descending similarity; ties broken by ascending class id.
    """
    order = np.lexsort((class_ids, -sm[i]))
    return order[order != i][:k].tolist()


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
