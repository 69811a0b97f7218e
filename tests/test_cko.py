import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsgen.cko import (
    ClassRecord, EmbeddingTable, embed_class_name, load_embeddings, overlay,
    similarity_matrix, top_k_similar,
)
from zsgen.errors import ConfigError, MissingEmbeddingError, ParseError


def table(**vectors):
    vecs = {w: np.array(v, dtype=float) for w, v in vectors.items()}
    dim = len(next(iter(vecs.values())))
    return EmbeddingTable(vectors=vecs, dim=dim)


def test_embed_single_token():
    t = table(crow=[1.0, 2.0])
    np.testing.assert_array_equal(embed_class_name(t, "Crow"), [1.0, 2.0])


def test_embed_two_tokens_is_mean():
    t = table(house=[2.0, 0.0], wren=[0.0, 4.0])
    np.testing.assert_array_equal(embed_class_name(t, "House Wren"), [1.0, 2.0])


def test_embed_skips_unknown_tokens():
    t = table(shrike=[3.0, 1.0])
    np.testing.assert_array_equal(
        embed_class_name(t, "loggerhead-shrike"), [3.0, 1.0]
    )


def test_embed_all_unknown_raises():
    t = table(crow=[1.0, 0.0])
    with pytest.raises(MissingEmbeddingError):
        embed_class_name(t, "dodo")


def test_similarity_identical_names():
    t = table(crow=[1.0, 1.0])
    sm = similarity_matrix(t, ["crow", "crow"])
    np.testing.assert_allclose(sm, 1.0)


def test_similarity_orthogonal_vectors():
    t = table(a=[1.0, 0.0], b=[0.0, 1.0])
    sm = similarity_matrix(t, ["a", "b"])
    np.testing.assert_allclose(sm[0, 1], 0.0, atol=1e-15)


def test_similarity_hand_cosine():
    t = table(a=[1.0, 0.0], b=[1.0, 1.0])
    sm = similarity_matrix(t, ["a", "b"])
    np.testing.assert_allclose(sm[0, 1], 1.0 / np.sqrt(2.0))


def test_similarity_matrix_symmetric_unit_diagonal():
    rng = np.random.default_rng(0)
    t = EmbeddingTable(
        vectors={("w" + "abcdefgh"[i]): rng.normal(size=4) for i in range(6)}, dim=4
    )
    sm = similarity_matrix(t, [("w" + "abcdefgh"[i]) for i in range(6)])
    np.testing.assert_allclose(sm, sm.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(sm), 1.0, atol=1e-9)
    assert (sm >= -1.0 - 1e-12).all() and (sm <= 1.0 + 1e-12).all()


def test_neg_euclidean_measure():
    t = table(a=[0.0, 0.0], b=[3.0, 4.0])
    sm = similarity_matrix(t, ["a", "b"], measure="neg_euclidean")
    np.testing.assert_allclose(sm[0, 1], -5.0)


def test_neg_euclidean_of_near_embeddings_is_the_norm_of_their_differences():
    # a Gram matrix forms 1 + 1e-18 - 2 * 1 for crow and raven, which
    # cancels to 0: every pair would tie, and the tie would go to crow
    t = table(crow=[1.0, 0.0], raven=[1.0, 1e-9], rook=[1.0, 2e-9])
    names = ["crow", "raven", "rook"]
    sm = similarity_matrix(t, names, measure="neg_euclidean")
    a = np.array([t.vectors[n] for n in names])
    assert sm.tobytes() == (-np.linalg.norm(a[:, None] - a[None], axis=2)).tobytes()
    assert sm[0, 1] == -1e-9 and sm[0, 2] == -2e-9
    assert top_k_similar(sm, 2, [0, 1, 2], 1) == [1]
    rng = np.random.default_rng(3)
    for n, dim in [(1, 1), (5, 3), (12, 300)]:
        a = rng.normal(size=(n, dim))
        names = ["w" + "abcdefghijkl"[i] for i in range(n)]
        t = EmbeddingTable(vectors=dict(zip(names, a)), dim=dim)
        sm = similarity_matrix(t, names, measure="neg_euclidean")
        assert sm.tobytes() == (-np.linalg.norm(a[:, None] - a[None], axis=2)).tobytes()


def test_unknown_measure_raises_before_embedding():
    t = table(crow=[1.0, 0.0])
    for names in ([], ["crow"], ["dodo"], ["crow", "dodo"]):
        with pytest.raises(ConfigError, match="bogus"):
            similarity_matrix(t, names, "bogus")


def ref_similarity(a, b, measure):
    """The per-pair formulas, one pair at a time."""
    if measure == "neg_euclidean":
        return -float(np.linalg.norm(a - b))
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    return 0.0 if na == 0.0 or nb == 0.0 else float(np.dot(a, b) / (na * nb))


# Name tables: words with short decimal vectors, which are inexact in
# binary, plus one zero vector; names of one or two words, repeated.
@st.composite
def name_tables(draw):
    dim = draw(st.integers(1, 6))
    n_words = draw(st.integers(1, 5))
    entry = st.floats(-4.0, 4.0).map(lambda v: round(v, 3))
    vectors = {"w" + "abcde"[i]: np.array(draw(st.lists(entry, min_size=dim, max_size=dim)))
               for i in range(n_words)}
    vectors["zero"] = np.zeros(dim)
    words = sorted(vectors)
    name = st.lists(st.sampled_from(words), min_size=1, max_size=2).map(" ".join)
    names = draw(st.lists(name, min_size=1, max_size=9))
    return EmbeddingTable(vectors=vectors, dim=dim), names


@given(name_tables(), st.sampled_from(["cosine", "neg_euclidean"]))
@settings(max_examples=150, deadline=None)
def test_similarity_matches_per_pair_formulas(tn, measure):
    t, names = tn
    emb = [embed_class_name(t, name) for name in names]
    sm = similarity_matrix(t, names, measure)
    n = len(names)
    assert sm.shape == (n, n)
    assert np.array_equal(sm, sm.T)
    for i in range(n):
        for j in range(n):
            want = ref_similarity(emb[i], emb[j], measure)
            if measure == "cosine":
                # cosine lies in [-1, 1]: 1e-12 of that unit scale
                assert abs(sm[i, j] - want) <= 1e-12
            else:
                # the squared distance, to 1e-12 of the squared norms it is formed from
                scale = emb[i] @ emb[i] + emb[j] @ emb[j]
                assert abs(sm[i, j] ** 2 - want ** 2) <= 1e-12 * scale
            if emb[i].tobytes() == emb[j].tobytes():
                assert sm[i].tobytes() == sm[j].tobytes()
    if measure == "neg_euclidean":
        assert (np.diag(sm) == 0.0).all()


@given(name_tables(), st.sampled_from(["cosine", "neg_euclidean"]),
       st.integers(0, 8), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_overlay_order_matches_brute_force(tn, measure, k, rnd):
    t, names = tn
    k = min(k, len(names) - 1)
    ids = list(range(len(names)))
    rnd.shuffle(ids)
    recs = [ClassRecord(c, name, f"article-{c}") for c, name in zip(ids, names)]
    sm = similarity_matrix(t, names, measure)
    for i, rec in enumerate(overlay(recs, sm, k)):
        order = sorted((j for j in range(len(recs)) if j != i),
                       key=lambda j: (-sm[i, j], ids[j]))[:k]
        assert rec.article_overlay == "\n".join(
            [recs[i].article] + [recs[j].article for j in order])


def records(n):
    return [ClassRecord(i, f"c{i}", f"article-{i}") for i in range(n)]


def test_overlay_k0_identity():
    recs = records(3)
    out = overlay(recs, np.eye(3), 0)
    for before, after in zip(recs, out):
        assert after.article_overlay == before.article


def test_overlay_rank_row():
    sm = np.array([[1.0, 0.9, 0.2], [0.9, 1.0, 0.3], [0.2, 0.3, 1.0]])
    out = overlay(records(3), sm, 1)
    assert out[0].article_overlay == "article-0\narticle-1"


def test_overlay_full():
    out = overlay(records(3), np.eye(3), 2)
    for rec in out:
        for i in range(3):
            assert f"article-{i}" in rec.article_overlay
        assert rec.article_overlay.startswith(rec.article)


def test_overlay_k_too_large():
    with pytest.raises(ConfigError):
        overlay(records(3), np.eye(3), 3)


def test_overlay_tie_break_ascending_class_id():
    sm = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.0], [0.5, 0.0, 1.0]])
    out = overlay(records(3), sm, 1)
    assert out[0].article_overlay == "article-0\narticle-1"


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=7),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_top_k_matches_brute_force(n, k, seed):
    k = min(k, n - 1)
    rng = np.random.default_rng(seed)
    sm = rng.normal(size=(n, n))
    sm = (sm + sm.T) / 2.0
    ids = list(range(n))
    for i in range(n):
        got = top_k_similar(sm, i, ids, k)
        brute = sorted((j for j in range(n) if j != i),
                       key=lambda j: (-sm[i, j], j))[:k]
        assert got == brute
        assert i not in got


def test_top_k_scale_invariance():
    rng = np.random.default_rng(1)
    vecs = {("w" + "abcdefgh"[i]): rng.normal(size=5) for i in range(6)}
    names = list(vecs)
    t1 = EmbeddingTable(vectors=vecs, dim=5)
    t2 = EmbeddingTable(
        vectors={w: 7.5 * v for w, v in vecs.items()}, dim=5
    )
    sm1 = similarity_matrix(t1, names)
    sm2 = similarity_matrix(t2, names)
    ids = list(range(6))
    for i in range(6):
        for k in range(6):
            assert top_k_similar(sm1, i, ids, k) == top_k_similar(sm2, i, ids, k)


def test_load_embeddings_round_trip(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("crow 1.0 2.0\nwren -0.5 0.25\n")
    t = load_embeddings(str(path))
    assert t.dim == 2
    np.testing.assert_array_equal(t.vectors["wren"], [-0.5, 0.25])


def test_load_embeddings_repeated_word_names_path_and_line(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("crow 1.0 2.0\nwren 0.5 0.5\n\ncrow 3.0 4.0\n")
    with pytest.raises(ParseError) as err:
        load_embeddings(str(path))
    assert err.value.line == 4 and err.value.path == str(path)
    assert "'crow'" in str(err.value)


def test_load_embeddings_keeps_the_first_of_words_equal_after_lowercasing(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("Crow 1.0 2.0\ncrow 3.0 4.0\nwren 5.0 6.0\nWREN 7.0 8.0\n")
    t = load_embeddings(str(path))
    assert sorted(t.vectors) == ["crow", "wren"]
    assert t.vectors["crow"].tolist() == [1.0, 2.0]
    assert t.vectors["wren"].tolist() == [5.0, 6.0]


def test_load_embeddings_bad_float_names_line(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("crow 1.0 2.0\nwren x 0.25\n")
    with pytest.raises(ParseError) as err:
        load_embeddings(str(path))
    assert err.value.line == 2


def test_load_embeddings_non_utf8_byte_names_path_and_line(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_bytes(b"crow 1.0 2.0\nwren 0.\xff 0.25\n")
    with pytest.raises(ParseError) as err:
        load_embeddings(str(path))
    assert err.value.line == 2 and err.value.path == str(path)


def test_load_embeddings_inconsistent_width(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("crow 1.0 2.0\nwren 0.5\n")
    with pytest.raises(ParseError):
        load_embeddings(str(path))


def test_load_embeddings_empty(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("\n")
    with pytest.raises(ConfigError):
        load_embeddings(str(path))
