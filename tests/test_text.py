import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsgen import porter, text
from zsgen.errors import ConfigError, ParseError
from zsgen.text import (
    encode_corpus, load_stopwords, preprocess, tfidf_fit, tfidf_transform,
)

TERMS = st.sampled_from(["bird", "wing", "nest", "song", "beak", "tail",
                         "egg", "sky", "tree", "feather"])
DOCS = st.lists(TERMS, min_size=0, max_size=12)


def reference_tfidf(corpus):
    """Straight-line evaluation of the documented formulas."""
    n = len(corpus)
    vocab = sorted({t for doc in corpus for t in doc})
    df = {t: sum(t in set(doc) for doc in corpus) for t in vocab}
    idf = {t: math.log((1 + n) / (1 + df[t])) + 1.0 for t in vocab}
    vectors = []
    for doc in corpus:
        vec = np.array([doc.count(t) * idf[t] for t in vocab])
        norm = np.linalg.norm(vec)
        vectors.append(vec / norm if norm > 0 else vec)
    return vocab, idf, vectors


def test_preprocess_empty():
    assert preprocess("", frozenset()) == []


def test_preprocess_stems_and_drops_stopwords():
    assert preprocess("The running birds", frozenset(["the"])) == ["run", "bird"]


def test_preprocess_strips_punctuation():
    assert preprocess("Shrike, shrike!", frozenset()) == ["shrike", "shrike"]


def test_preprocess_drops_digits():
    assert preprocess("42 wings2go", frozenset()) == ["wing", "go"]


def test_preprocess_filters_stopwords_after_stemming():
    # "doing" stems to "do"; with "do" stop-listed the stem must vanish too
    assert preprocess("doing", frozenset(["do"])) == []


def test_preprocess_with_the_stem_cache_equals_it_without(monkeypatch):
    fixture = os.path.join(os.path.dirname(__file__), "fixtures", "porter_words.txt")
    with open(fixture, encoding="utf-8") as fh:
        words = fh.read().split()
    rng = np.random.default_rng(0)
    # a corpus: the fixture words and their stems, repeated, capitalized and
    # punctuated, among stop words
    picks = rng.choice(words + ["the", "and", "of"], size=(20, 300))
    corpus = [" ".join(w.capitalize() + "," if i % 7 == 0 else w
                       for i, w in enumerate(doc)) for doc in picks]
    stopwords = load_stopwords()
    docs = [" ".join(words)] + corpus
    cached = [preprocess(doc, stopwords) for doc in docs]
    assert porter.stem.cache_info().hits > 0
    monkeypatch.setattr(text, "stem", porter.stem.__wrapped__)
    assert [preprocess(doc, stopwords) for doc in docs] == cached


def test_default_stopword_list_loads():
    words = load_stopwords()
    assert "the" in words and "and" in words


def test_stopword_file_non_utf8_byte_names_path_and_line(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_bytes(b"the\nan\xff\n")
    with pytest.raises(ParseError) as err:
        load_stopwords(str(path))
    assert err.value.line == 2 and err.value.path == str(path)


def test_idf_shared_term():
    model = tfidf_fit([["a"], ["a"]])
    np.testing.assert_allclose(model.idf[model.vocabulary["a"]], 1.0)


def test_idf_split_terms():
    model = tfidf_fit([["a"], ["b"]])
    expected = math.log(3.0 / 2.0) + 1.0
    np.testing.assert_allclose(model.idf[model.vocabulary["a"]], expected)
    np.testing.assert_allclose(model.idf[model.vocabulary["b"]], expected)


def test_idf_single_document_uniform():
    model = tfidf_fit([["x", "y", "z"]])
    np.testing.assert_allclose(model.idf, 1.0)


def test_fit_empty_corpus_rejected():
    with pytest.raises(ConfigError):
        tfidf_fit([])


def test_transform_empty_doc_zero_vector():
    model = tfidf_fit([["a"], ["b"]])
    assert not tfidf_transform(model, []).any()


def test_transform_single_term_is_unit_one_hot():
    model = tfidf_fit([["a"], ["b"]])
    vec = tfidf_transform(model, ["a"])
    np.testing.assert_allclose(vec[model.vocabulary["a"]], 1.0)
    assert np.count_nonzero(vec) == 1


def test_transform_hand_example():
    model = tfidf_fit([["a"], ["b"]])
    vec = tfidf_transform(model, ["a", "a", "b"])
    expected = np.array([2.0, 1.0])
    expected /= np.linalg.norm(expected)
    np.testing.assert_allclose(
        vec[[model.vocabulary["a"], model.vocabulary["b"]]], expected, atol=1e-12
    )


def test_transform_ignores_out_of_vocabulary():
    model = tfidf_fit([["a"]])
    vec = tfidf_transform(model, ["zzz"])
    assert not vec.any()


@given(st.lists(DOCS, min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_tfidf_matches_reference(corpus):
    model = tfidf_fit(corpus)
    vocab, idf, vectors = reference_tfidf(corpus)
    assert sorted(model.vocabulary, key=model.vocabulary.get) == vocab
    for t in vocab:
        assert abs(model.idf[model.vocabulary[t]] - idf[t]) < 1e-12
    for doc, ref in zip(corpus, vectors):
        got = tfidf_transform(model, doc)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


@given(st.lists(DOCS, min_size=1, max_size=5), DOCS)
@settings(max_examples=60, deadline=None)
def test_transform_bytes_equal_per_token_accumulation(corpus, extra):
    model = tfidf_fit(corpus)
    for doc in corpus + [extra]:
        want = np.zeros(len(model.vocabulary))
        for term in doc:
            if term in model.vocabulary:
                want[model.vocabulary[term]] += 1.0
        want *= model.idf
        norm = np.linalg.norm(want)
        if norm > 0.0:
            want /= norm
        assert tfidf_transform(model, doc).tobytes() == want.tobytes()


@given(DOCS.filter(lambda d: d))
@settings(max_examples=40, deadline=None)
def test_transform_norm_is_unit_for_in_vocab_docs(doc):
    model = tfidf_fit([doc])
    assert abs(np.linalg.norm(tfidf_transform(model, doc)) - 1.0) < 1e-12


@given(DOCS, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_transform_token_order_invariant(doc, rnd):
    model = tfidf_fit([doc or ["pad"]])
    shuffled = list(doc)
    rnd.shuffle(shuffled)
    np.testing.assert_array_equal(
        tfidf_transform(model, doc), tfidf_transform(model, shuffled)
    )


def test_support_equals_in_vocabulary_term_set():
    corpus = [["a", "b", "b"], ["b", "c"]]
    model = tfidf_fit(corpus)
    mat = encode_corpus(model, corpus)
    for doc, row in zip(corpus, mat):
        support = {t for t, i in model.vocabulary.items() if row[i] != 0.0}
        assert support == set(doc)
