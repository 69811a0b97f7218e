"""Truncated and bit-flipped input files raise ZsgenError and nothing else.

Each format starts from one valid file; Hypothesis cuts it short or flips
one bit of one byte, and the file's reader must either accept the result or
raise a ZsgenError.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zsgen import cko, data, text
from zsgen.cli import main
from zsgen.config import load_config
from zsgen.errors import ZsgenError

CORPUS = {"cat": "The cat sat on the mat.\n", "dog": "Dogs run fast, and bark!\n",
          "owl": "Owls hunt at night\nin the woods.\n"}
EMBEDDINGS = "cat 0.1 0.2 0.3\ndog -0.5 0.25 1e-2\nowl 1.0 0.0 -2.0\n"

VALID = {
    "matrix": "# dims: 3 2\n0 0.5 -1.25\n1 1e-3 2.0\n2 -0.0 3.5\n",
    "split": "# scheme: SCS\nseen: 0 1 2\nunseen: 3 4\n",
    "embeddings": EMBEDDINGS,
    "stopwords": "the\nand\nof\n",
    "article": CORPUS["cat"],
    "config": (
        "seed: 3\n"
        "text: {fit_on: original}\n"
        "cko: {k: 1, similarity: cosine}\n"
        "gan: {n_step: 40, batch_size: 16, noise_mode: add, margin: 0.5}\n"
        "ssl: {psi: 0.5, n_ssl: 2}\n"
        "eval: {ratios: [0.25, 0.5, 1.0], knn_k: 3, step: 0.01}\n"
        "io: {checkpoint: model.ck, report: report.txt}\n"
    ),
}


def _run_cko(path):
    """The cko command over a corpus whose cat article is the file at path."""
    corpus = path.parent / "corpus"
    corpus.mkdir(exist_ok=True)
    for name, article in CORPUS.items():
        (corpus / f"{name}.txt").write_text(article)
    (corpus / "cat.txt").write_bytes(path.read_bytes())
    (path.parent / "emb.txt").write_text(EMBEDDINGS)
    out = path.parent / "out"
    sets = {"io.corpus_dir": corpus, "io.overlay_dir": out / "overlay",
            "io.similarity_matrix": out / "sim.txt",
            "io.semantic_vectors": out / "sem.txt", "cko.embeddings": path.parent / "emb.txt",
            "cko.k": 1}
    argv = ["--quiet"]
    for key, value in sets.items():
        argv += ["--set", f"{key}={value}"]
    return main(argv + ["cko"])


READERS = {
    "matrix": lambda p: data.load_matrix(str(p)),
    "split": lambda p: data.load_split(str(p)),
    "embeddings": lambda p: cko.load_embeddings(str(p)),
    "stopwords": lambda p: text.load_stopwords(str(p)),
    "article": _run_cko,
    "config": lambda p: load_config(str(p)),
}


def mutations(size):
    """('cut', n): keep the first n bytes; ('flip', offset, bit): flip one bit."""
    return st.one_of(
        st.tuples(st.just("cut"), st.integers(0, size - 1)),
        st.tuples(st.just("flip"), st.integers(0, size - 1), st.integers(0, 7)),
    )


def mutate(blob, mutation):
    if mutation[0] == "cut":
        return blob[:mutation[1]]
    _, offset, bit = mutation
    out = bytearray(blob)
    out[offset] ^= 1 << bit
    return bytes(out)


def test_valid_files_are_read(tmp_path):
    for fmt, body in VALID.items():
        path = tmp_path / f"{fmt}.txt"
        path.write_text(body)
        READERS[fmt](path)
    assert _run_cko(tmp_path / "article.txt") == 0
    labels, values = data.load_matrix(str(tmp_path / "matrix.txt"))
    assert labels.tolist() == [0, 1, 2] and np.isfinite(values).all()


@pytest.mark.parametrize("fmt", sorted(VALID))
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(draw=st.data())
def test_mutated_file_raises_only_zsgen_errors(tmp_path, fmt, draw):
    blob = VALID[fmt].encode("utf-8")
    path = tmp_path / f"{fmt}.txt"
    path.write_bytes(mutate(blob, draw.draw(mutations(len(blob)))))
    try:
        READERS[fmt](path)
    except ZsgenError:
        pass
