import json
import math
import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest

from zsgen import cko, data, evaluate, gan, metrics
from zsgen.errors import ConfigError, ParseError, ZsgenError


def test_matrix_text_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 9, size=6)
    values = rng.normal(size=(6, 4))
    path = str(tmp_path / "m.txt")
    data.save_matrix(path, labels, values)
    got_labels, got_values = data.load_matrix(path)
    assert (got_labels == labels).all()
    assert (got_values == values).all()  # bit-lossless via repr round trip


def test_matrix_binary_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 9, size=5)
    values = rng.normal(size=(5, 3))
    path = str(tmp_path / "m.bin")
    data.save_matrix_binary(path, labels, values)
    got_labels, got_values = data.load_matrix(path)
    assert (got_labels == labels).all()
    assert (got_values == values).all()


def test_two_row_fixture_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# dims: 2 3\n4 0.5 -1.5 2.0\n7 1.0 0.0 -3.25\n")
    labels, values = data.load_matrix(str(path))
    assert labels.tolist() == [4, 7]
    np.testing.assert_array_equal(values, [[0.5, -1.5, 2.0], [1.0, 0.0, -3.25]])


def test_wrong_width_row_names_line(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# dims: 2 2\n0 1.0 2.0\n1 3.0\n")
    with pytest.raises(ParseError) as err:
        data.load_matrix(str(path))
    assert err.value.line == 3


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("0 1.0\n")
    with pytest.raises(ParseError):
        data.load_matrix(str(path))


@pytest.mark.parametrize("body, line", [
    (b"# dims: 2 2\n0 1.0 2.0\n1 3.\xff 4.0\n", 3),       # not UTF-8
    (b"# dims: 2 2\n0 1.0 2.0\n1 \xe2\x82 4.0\n", 3),    # cut multi-byte sequence
    (b"# dims: 2 2\xff\n0 1.0 2.0\n1 3.0 4.0\n", 1),
    (b"# dims: 2 2\n0 nan 2.0\n1 3.0 4.0\n", 2),
    (b"# dims: 2 2\n0 1.0 2.0\n1 3.0 -inf\n", 3),
    (b"# dims: 2 2\n0 1.0 2.0\n\n1 1e999 4.0\n", 4),      # overflows to inf
], ids=["bad-byte", "cut-sequence", "bad-header-byte", "nan", "inf", "overflow"])
def test_text_matrix_bad_value_names_path_and_line(tmp_path, body, line):
    path = tmp_path / "m.txt"
    path.write_bytes(body)
    with pytest.raises(ParseError) as info:
        data.load_matrix(str(path))
    assert info.value.line == line
    assert str(path) in str(info.value)


@pytest.mark.parametrize("header", [
    "# dims: -1 3", "# dims: 2 -1", "# dims: 99999999999 99999", "# dims: 1 99999999999",
], ids=["negative-rows", "negative-width", "rows-beyond-file", "width-beyond-file"])
def test_text_matrix_header_beyond_the_file_names_path_and_line(tmp_path, header):
    path = tmp_path / "m.txt"
    path.write_text(header + "\n0 1.0 2.0 3.0\n")
    with pytest.raises(ParseError) as info:
        data.load_matrix(str(path))
    assert info.value.line == 1 and str(path) in str(info.value)


def test_text_matrix_header_may_fill_the_file_exactly(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# dims: 2 1\n0 1\n1 2")   # no final newline
    labels, values = data.load_matrix(str(path))
    assert labels.tolist() == [0, 1] and values.tolist() == [[1.0], [2.0]]


def test_binary_matrix_non_finite_value_names_path(tmp_path):
    path = str(tmp_path / "m.bin")
    data.save_matrix_binary(path, np.arange(3), [[0.0, 1.0], [2.0, np.nan], [4.0, 5.0]])
    with pytest.raises(ParseError, match="row 2") as info:
        data.load_matrix(path)
    assert path in str(info.value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("row, col", [(0, 0), (3, 2), (4, 1)])
def test_binary_matrix_first_non_finite_row_is_named(tmp_path, value, row, col):
    path = str(tmp_path / "m.bin")
    values = np.arange(15.0).reshape(5, 3)
    values[row, col] = value
    values[4, 0] = -value   # a later bad row is not the one named
    data.save_matrix_binary(path, np.arange(5), values)
    with pytest.raises(ParseError, match=f"data row {row + 1}$"):
        data.load_matrix(path)


ROW_RULE_CASES = {
    "wrong-width": b"3.0",
    "word": b"x 4.0",
    "nan": b"nan 4.0",
    "-inf": b"3.0 -inf",
    "overflow": b"1e999 4.0",
    "cut-sequence": b"\xe2\x82 4.0",
}


@pytest.mark.parametrize("reader", ["matrix", "embeddings"])
@pytest.mark.parametrize("bad", ROW_RULE_CASES.values(), ids=ROW_RULE_CASES.keys())
def test_both_text_readers_reject_a_malformed_row_naming_path_and_line(tmp_path, reader, bad):
    path = tmp_path / "rows.txt"
    if reader == "matrix":
        path.write_bytes(b"# dims: 2 2\n0 1.0 2.0\n1 " + bad + b"\n")
        load, line = data.load_matrix, 3
    else:
        path.write_bytes(b"crow 1.0 2.0\nwren " + bad + b"\n")
        load, line = cko.load_embeddings, 2
    with pytest.raises(ParseError) as info:
        load(str(path))
    assert info.value.line == line and info.value.path == str(path)


# values Python's float() reads, in the spellings a hand-made file may use
VALID_TOKENS = ["-0.0", "5e-324", "+1.5", "1E3", "1_000.5", ".5", "-7", "1.7976931348623157e308"]


def test_both_text_readers_read_valid_rows_as_float_does(tmp_path):
    expected = np.array([[float(v) for v in VALID_TOKENS]] * 2)
    row = " \t".join(VALID_TOKENS)
    path = tmp_path / "m.txt"
    path.write_text(f"# dims: 2 {len(VALID_TOKENS)}\n\n-3 {row}\n  \n+4\t{row}")
    labels, values = data.load_matrix(str(path))
    assert labels.tolist() == [-3, 4]
    assert values.tobytes() == expected.tobytes()
    path.write_text(f"\nCrow {row}\n \nwren\t{row}\n")
    table = cko.load_embeddings(str(path))
    assert sorted(table.vectors) == ["crow", "wren"] and table.dim == len(VALID_TOKENS)
    for vec, want in zip(table.vectors.values(), expected):
        assert vec.dtype == np.float64 and vec.tobytes() == want.tobytes()


# tokens at the edge of float()'s syntax: digit grouping, non-ASCII digits,
# spelled-out and overflowing non-finite values, and spellings it rejects
EDGE_TOKENS = ["1_000.5", "١٢", "１２", "1e999", "infinity", "-nan",
               "0x10", "nan(1)", "1.5j", "1__0", "_1", "1,5"]


@pytest.mark.parametrize("token", EDGE_TOKENS)
def test_text_row_parses_a_token_as_float_does(tmp_path, token):
    path = tmp_path / "m.txt"
    path.write_text(f"# dims: 2 2\n0 1.0 2.0\n1 -3.5 {token}\n", encoding="utf-8")
    try:
        want = float(token)
    except ValueError as exc:
        message = str(exc)
    else:
        message = None if math.isfinite(want) else "non-finite value"
    if message is None:
        _, values = data.load_matrix(str(path))
        assert values[1].tobytes() == np.array([-3.5, want]).tobytes()
    else:
        with pytest.raises(ParseError) as info:
            data.load_matrix(str(path))
        assert str(info.value) == f"{path}:3: {message}"
        assert (info.value.path, info.value.line) == (str(path), 3)


@pytest.mark.parametrize("label", ["99999999999999999999", "-9223372036854775809", "1.0"])
def test_text_matrix_label_that_is_no_int64_names_path_and_line(tmp_path, label):
    path = tmp_path / "m.txt"
    path.write_text(f"# dims: 2 1\n0 1.0\n{label} 2.0\n")
    with pytest.raises(ParseError) as info:
        data.load_matrix(str(path))
    assert info.value.line == 3 and info.value.path == str(path)


@pytest.mark.parametrize("body, line", [
    ("seen: 0 1\nunseen: 2 x\n", 2),
    ("# scheme: SCS\nseen: 0 1.5\nunseen: 2\n", 2),
    ("seen: 0 1\nunseen: 2\n\xff\n", 3),
], ids=["word", "float", "bad-byte"])
def test_split_bad_id_names_path_and_line(tmp_path, body, line):
    path = tmp_path / "split.txt"
    path.write_bytes(body.encode("latin-1"))
    with pytest.raises(ParseError) as info:
        data.load_split(str(path))
    assert info.value.line == line
    assert str(path) in str(info.value)


@pytest.mark.parametrize("body, line, repeat", [
    ("seen: 0 0 1 2\nunseen: 3 4\n", 1, 0),
    ("seen: 0 1 2\nunseen: 3 4 4\n", 2, 4),
])
def test_split_file_listing_a_class_twice_names_path_and_line(tmp_path, body, line, repeat):
    path = tmp_path / "split.txt"
    path.write_text(body)
    with pytest.raises(ParseError, match=f"class {repeat} ") as info:
        data.load_split(str(path))
    assert info.value.line == line
    assert str(path) in str(info.value)


@pytest.mark.parametrize("body, key", [
    ("seen: 1 2\nunseen: 3\nseen: 4 5\n", "seen"),
    ("unseen: 3\nseen: 1 2\nunseen: 4\n", "unseen"),
], ids=["seen", "unseen"])
def test_split_file_with_a_second_line_of_one_key_names_path_and_line(tmp_path, body, key):
    path = tmp_path / "split.txt"
    path.write_text(body)
    with pytest.raises(ParseError, match=f"second '{key}:' line") as info:
        data.load_split(str(path))
    assert info.value.line == 3
    assert str(path) in str(info.value)


def test_split_round_trip(tmp_path):
    path = str(tmp_path / "split.txt")
    split = data.SplitSpec(seen=(0, 1), unseen=(2,), scheme="SCS")
    data.save_split(path, split)
    got = data.load_split(path)
    assert got == split


def test_split_overlap_rejected():
    with pytest.raises(ConfigError):
        data.SplitSpec(seen=(0,), unseen=(0,))


def test_split_repeated_id_rejected():
    with pytest.raises(ConfigError, match="class 1 "):
        data.SplitSpec(seen=(0, 1, 1), unseen=(2,))


def test_split_coverage_validation():
    split = data.SplitSpec(seen=(0,), unseen=(2,))
    with pytest.raises(ConfigError):
        data.validate_split(split, [0, 1, 2])
    data.validate_split(data.SplitSpec(seen=(0, 1), unseen=(2,)), [0, 1, 2])


def test_split_unknown_class_rejected():
    split = data.SplitSpec(seen=(0, 5), unseen=(1,))
    with pytest.raises(ConfigError):
        data.validate_split(split, [0, 1])


def test_make_synthetic_sigma_zero_collapses_to_centers():
    spec = data.SyntheticSpec(num_seen=3, num_unseen=2, samples_per_class=4,
                              semantic_dim=10, visual_dim=6, sigma=0.0)
    ds = data.make_synthetic(spec)
    for c in range(5):
        rows = ds.features[ds.labels == c]
        assert (rows == rows[0]).all()
        assert rows.shape[0] == 4


@pytest.mark.parametrize("field, value", [
    ("test_fraction", 0.0), ("test_fraction", 1.0), ("sigma", -0.1), ("sigma", float("nan")),
    ("visual_dim", 0), ("seed", -1),
])
def test_synthetic_spec_rejects_out_of_bounds_field(field, value):
    with pytest.raises(ConfigError, match=field):
        data.SyntheticSpec(**{field: value})


def test_make_synthetic_deterministic():
    spec = data.SyntheticSpec(num_seen=3, num_unseen=2, samples_per_class=4,
                              semantic_dim=10, visual_dim=6, seed=11)
    a = data.make_synthetic(spec)
    b = data.make_synthetic(spec)
    assert (a.features == b.features).all()
    assert (a.semantics == b.semantics).all()


def test_make_synthetic_semantics_shape():
    ds = data.make_synthetic(data.SyntheticSpec())
    assert (ds.semantics >= 0.0).all()
    np.testing.assert_allclose(np.linalg.norm(ds.semantics, axis=1), 1.0)


def test_make_synthetic_unseen_only_in_test_partition():
    ds = data.make_synthetic(data.SyntheticSpec())
    train_labels = set(ds.labels[ds.train_indices()].tolist())
    assert train_labels.isdisjoint(ds.split.unseen)


def test_nearest_center_oracle_is_perfect():
    spec = data.SyntheticSpec(num_seen=3, num_unseen=2, samples_per_class=30,
                              semantic_dim=20, visual_dim=16, sigma=0.05, seed=0)
    ds = data.make_synthetic(spec)
    centers = np.stack([ds.features[ds.labels == c].mean(axis=0)
                        for c in range(5)])
    te = ds.test_indices()
    d = ((ds.features[te][:, None, :] - centers[None]) ** 2).sum(axis=2)
    assert (d.argmin(axis=1) == ds.labels[te]).all()


def test_dataset_round_trip_through_files(tmp_path):
    ds = data.make_synthetic(data.SyntheticSpec(
        num_seen=3, num_unseen=2, samples_per_class=5,
        semantic_dim=8, visual_dim=4,
    ))
    paths = [str(tmp_path / n) for n in
             ("train.txt", "test.txt", "sem.txt", "split.txt")]
    data.save_dataset(ds, *paths)
    back = data.assemble_dataset(*paths)
    assert (np.sort(back.labels) == np.sort(ds.labels)).all()
    assert back.split == ds.split
    assert (back.semantics == ds.semantics).all()


def test_semantics_file_listing_a_class_twice_names_file_and_id(tmp_path):
    ds = data.make_synthetic(data.SyntheticSpec(
        num_seen=3, num_unseen=2, samples_per_class=5,
        semantic_dim=8, visual_dim=4,
    ))
    paths = [str(tmp_path / n) for n in
             ("train.txt", "test.txt", "sem.txt", "split.txt")]
    data.save_dataset(ds, *paths)
    rows = [0, 1, 1, 2, 3, 4]
    data.save_matrix(paths[2], ds.class_ids[rows], ds.semantics[rows])
    with pytest.raises(ZsgenError, match="class 1 ") as info:
        data.assemble_dataset(*paths)
    assert paths[2] in str(info.value)


def test_dataset_rejects_repeated_class_ids():
    ds = data.make_synthetic(data.SyntheticSpec(
        num_seen=2, num_unseen=1, samples_per_class=4,
        semantic_dim=8, visual_dim=4,
    ))
    rows = [0, 1, 1, 2]
    with pytest.raises(ConfigError, match="class 1 "):
        data.ZslDataset(ds.features, ds.labels, ds.class_ids[rows], ds.semantics[rows],
                        ds.split, ds.partition)


def test_dataset_rejects_unseen_in_train():
    ds = data.make_synthetic(data.SyntheticSpec(
        num_seen=2, num_unseen=1, samples_per_class=4,
        semantic_dim=8, visual_dim=4,
    ))
    bad_partition = ds.partition.copy()
    bad_partition[ds.labels == 2] = data.TRAIN
    with pytest.raises(ConfigError):
        data.ZslDataset(ds.features, ds.labels, ds.class_ids, ds.semantics,
                        ds.split, bad_partition)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    arrays = {"w": rng.normal(size=(3, 2)), "ids": np.array([4, 5], dtype=np.int64)}
    meta = {"kind": "test", "nested": {"a": 1}}
    path = str(tmp_path / "ck.bin")
    data.save_checkpoint(path, arrays, meta)
    got_arrays, got_meta = data.load_checkpoint(path)
    assert got_meta == meta
    assert (got_arrays["w"] == arrays["w"]).all()
    assert got_arrays["ids"].dtype == np.int64


def test_checkpoint_bytes_deterministic(tmp_path):
    arrays = {"w": np.arange(6.0).reshape(2, 3)}
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    data.save_checkpoint(a, arrays, {"k": 1})
    data.save_checkpoint(b, arrays, {"k": 1})
    assert open(a, "rb").read() == open(b, "rb").read()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "ck.bin"
    path.write_bytes(b"NOPE" + b"\0" * 16)
    with pytest.raises(ParseError):
        data.load_checkpoint(str(path))


@pytest.mark.parametrize("save, load", [
    (lambda p: data.save_matrix_binary(p, np.arange(4), np.ones((4, 3))), data.load_matrix),
    (lambda p: data.save_checkpoint(p, {"w": np.ones((2, 3))}, {"k": 1}),
     data.load_checkpoint),
], ids=["matrix", "checkpoint"])
def test_bytes_past_the_declared_payload_are_a_parse_error_naming_path(tmp_path, save, load):
    path = tmp_path / "f.bin"
    save(str(path))
    load(str(path))
    path.write_bytes(path.read_bytes() + b"garbage!")
    with pytest.raises(ParseError, match="8 bytes past the end") as info:
        load(str(path))
    assert str(path) in str(info.value)


def test_checkpoint_naming_an_array_twice_is_a_parse_error_naming_path(tmp_path):
    path = tmp_path / "ck.bin"
    data.save_checkpoint(str(path), {"v": np.array([1.0]), "w": np.array([2.0])}, {})
    blob = path.read_bytes()
    assert blob.count(b"\x01\x00v") == 1   # the name "v", after its length
    path.write_bytes(blob.replace(b"\x01\x00v", b"\x01\x00w"))
    with pytest.raises(ParseError, match="'w' appears twice") as info:
        data.load_checkpoint(str(path))
    assert str(path) in str(info.value)


def _tiny_model_checkpoint(path):
    rng = np.random.default_rng(4)
    gen = gan.Generator(gan.GeneratorConfig(semantic_dim=3, visual_dim=2,
                                            reduce_dim=2, hidden_dim=2), rng)
    disc = gan.Discriminator(gan.DiscriminatorConfig(visual_dim=2, hidden_dim=2,
                                                     num_classes=2), rng)
    scaler = gan.FeatureScaler(lo=-np.ones(2), hi=np.ones(2))
    evaluate.save_model(path, gen, disc, scaler, {0: 0, 1: 1})


@pytest.mark.parametrize("save, load", [
    (lambda p: data.save_matrix_binary(p, np.arange(4), np.ones((4, 3))),
     data.load_matrix),
    (_tiny_model_checkpoint, evaluate.load_model),
], ids=["matrix", "checkpoint"])
def test_truncated_binary_file_raises_parse_error_naming_path(tmp_path, save, load):
    full = str(tmp_path / "full.bin")
    save(full)
    load(full)
    blob = open(full, "rb").read()
    cut = tmp_path / "cut.bin"
    for offset in range(len(blob)):
        cut.write_bytes(blob[:offset])
        with pytest.raises(ParseError) as info:
            load(str(cut))
        assert str(cut) in str(info.value), offset


@pytest.mark.parametrize("bit", range(8))
def test_checkpoint_bit_flips_raise_only_zsgen_errors(tmp_path, bit):
    full = str(tmp_path / "full.ck")
    _tiny_model_checkpoint(full)
    blob = open(full, "rb").read()
    flipped = tmp_path / "flipped.ck"
    for offset in range(len(blob)):
        corrupt = bytearray(blob)
        corrupt[offset] ^= 1 << bit
        flipped.write_bytes(bytes(corrupt))
        try:
            evaluate.load_model(str(flipped))
        except ZsgenError:
            pass


def _extra_layer(arrays, meta, part, width):
    """Append an identity layer of width outputs to disc.<part>."""
    specs = meta["disc_layers"][part]
    last = arrays[f"disc.{part}.{len(specs) - 1}.weight"].shape[1]
    arrays[f"disc.{part}.{len(specs)}.weight"] = np.ones((last, width))
    arrays[f"disc.{part}.{len(specs)}.bias"] = np.zeros(width)
    specs.append("identity")


def _relabel(meta, part, activation):
    meta["disc_layers"][part][0] = activation


@pytest.mark.parametrize("craft", [
    lambda a, m: _relabel(m, "trunk", "leaky_relu"),
    lambda a, m: _relabel(m, "critic", "relu"),
    lambda a, m: _relabel(m, "head", "tanh"),
    lambda a, m: _extra_layer(a, m, "trunk", 2),
    lambda a, m: _extra_layer(a, m, "critic", 1),
], ids=["trunk-activation", "critic-activation", "head-activation",
        "two-trunk-layers", "two-critic-layers"])
def test_discriminator_layers_other_than_built_ones_rejected(tmp_path, craft):
    path = str(tmp_path / "model.ck")
    _tiny_model_checkpoint(path)
    arrays, meta = data.load_checkpoint(path)
    craft(arrays, meta)
    data.save_checkpoint(path, arrays, meta)
    with pytest.raises(ParseError, match="a discriminator builds") as info:
        evaluate.load_model(path)
    assert path in str(info.value)


@pytest.mark.parametrize("class_cols, message", [
    ({"0": True, "1": 1}, "True is not a logit column"),
    ({"1": 0, "01": 1}, "names class 1 twice"),
    ({"0": 1, "1": 1}, "one logit column to two classes"),
], ids=["bool-column", "repeated-class", "shared-column"])
def test_checkpoint_class_cols_that_map_no_class_to_its_own_column_rejected(
        tmp_path, class_cols, message):
    path = str(tmp_path / "model.ck")
    _tiny_model_checkpoint(path)
    arrays, meta = data.load_checkpoint(path)
    meta["class_cols"] = class_cols
    data.save_checkpoint(path, arrays, meta)
    with pytest.raises(ParseError, match=message) as info:
        evaluate.load_model(path)
    assert path in str(info.value)


FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "tiny_model.ck")


def test_stored_checkpoint_loads_and_saves_back_byte_for_byte(tmp_path):
    # tiny_model.ck: a concat-noise generator and a three-class critic
    gen, disc, scaler, class_cols, meta = evaluate.load_model(FIXTURE)
    assert gen.cfg.noise_mode == "concat" and gen.decode.in_dim == 4
    assert disc.cfg.num_classes == 3 and class_cols == {0: 0, 1: 1, 4: 2}
    path = tmp_path / "again.ck"
    evaluate.save_model(str(path), gen, disc, scaler, class_cols, meta["config_hash"])
    assert path.read_bytes() == open(FIXTURE, "rb").read()


def _gen_decode(arrays, meta, activations):
    """Relist gen.decode with the given activations, adding square layers."""
    width = arrays["gen.decode.1.weight"].shape[1]
    for i in range(2, len(activations)):
        arrays[f"gen.decode.{i}.weight"] = np.eye(width)
        arrays[f"gen.decode.{i}.bias"] = np.zeros(width)
    meta["gen_layers"]["decode"] = list(activations)


@pytest.mark.parametrize("craft", [
    lambda a, m: _gen_decode(a, m, ["relu", "tanh", "tanh"]),
    lambda a, m: _gen_decode(a, m, ["relu", "tanh"]),
    # a layer as checkpoints listed it before the slope was a constant
    lambda a, m: m["gen_layers"].update(reduce=[{"activation": "identity", "slope": 0.2}]),
    lambda a, m: m["gen_layers"].update(extra=[]),
], ids=["three-decode-layers", "decode-activation", "reduce-slope", "extra-part"])
def test_generator_layers_other_than_built_ones_rejected(tmp_path, craft):
    path = str(tmp_path / "model.ck")
    _tiny_model_checkpoint(path)
    arrays, meta = data.load_checkpoint(path)
    craft(arrays, meta)
    data.save_checkpoint(path, arrays, meta)
    with pytest.raises(ParseError, match="a generator builds") as info:
        evaluate.load_model(path)
    assert path in str(info.value)


def test_checkpoint_of_the_older_format_rejected(tmp_path):
    # as checkpoints were written while the generator config held a noise
    # width and a leaky relu slope, and every stored layer its slope
    path = str(tmp_path / "model.ck")
    _tiny_model_checkpoint(path)
    arrays, meta = data.load_checkpoint(path)
    meta["gen_cfg"].update(noise_dim=meta["gen_cfg"]["reduce_dim"], slope=0.2)
    for prefix in ("gen", "disc"):
        layers = meta[f"{prefix}_layers"]
        for part, activations in layers.items():
            layers[part] = [{"activation": act, "slope": 0.2} for act in activations]
    data.save_checkpoint(path, arrays, meta)
    with pytest.raises(ParseError, match="gen_cfg.noise_dim") as info:
        evaluate.load_model(path)
    assert path in str(info.value)


@pytest.mark.parametrize("slope", [1.5, 0.0, -0.2])
def test_checkpoint_generator_slope_outside_unit_interval_rejected(tmp_path, slope):
    # the generator config holds no slope now, so any stored slope is refused
    path = str(tmp_path / "model.ck")
    _tiny_model_checkpoint(path)
    arrays, meta = data.load_checkpoint(path)
    meta["gen_cfg"]["slope"] = slope
    data.save_checkpoint(path, arrays, meta)
    with pytest.raises(ParseError, match="slope") as info:
        evaluate.load_model(path)
    assert path in str(info.value)


@pytest.mark.parametrize("name", ["gen.decode.2.weight", "notes"])
def test_checkpoint_array_no_network_names_rejected(tmp_path, name):
    path = str(tmp_path / "model.ck")
    _tiny_model_checkpoint(path)
    arrays, meta = data.load_checkpoint(path)
    arrays[name] = np.ones((2, 2))
    data.save_checkpoint(path, arrays, meta)
    with pytest.raises(ParseError, match=name) as info:
        evaluate.load_model(path)
    assert path in str(info.value)


@pytest.mark.parametrize("name, shape", [
    ("gen.reduce.0.weight", (2, 3)), ("disc.head.0.bias", (3,)), ("scaler.hi", (2, 1)),
])
def test_checkpoint_array_of_another_shape_rejected(tmp_path, name, shape):
    path = str(tmp_path / "model.ck")
    _tiny_model_checkpoint(path)
    arrays, meta = data.load_checkpoint(path)
    arrays[name] = np.zeros(shape)
    data.save_checkpoint(path, arrays, meta)
    with pytest.raises(ParseError, match=name) as info:
        evaluate.load_model(path)
    assert path in str(info.value)


def test_checkpoint_without_a_required_config_key_names_path(tmp_path):
    path = str(tmp_path / "model.ck")
    _tiny_model_checkpoint(path)
    arrays, meta = data.load_checkpoint(path)
    del meta["gen_cfg"]["semantic_dim"]
    data.save_checkpoint(path, arrays, meta)
    with pytest.raises(ParseError, match="semantic_dim") as info:
        evaluate.load_model(path)
    assert path in str(info.value)


class FailingFile:
    """A file that takes one write, then fails like a full disk."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, chunk):
        self.writes += 1
        if self.writes > 1:
            raise OSError("no space left on device")
        return self.fh.write(chunk)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _report(v):
    return metrics.EvalReport(top1_unseen=v, s=v, u=v, h=v, g_acc=v, ausuc=v / 100,
                              suc_points=[(v / 100, 0.5), (0.0, 1.0)], map_at={25: v})


WRITERS = {
    "matrix.txt": lambda p, v: data.save_matrix(p, [0, 1], np.full((2, 3), v)),
    "matrix.bin": lambda p, v: data.save_matrix_binary(p, [0, 1], np.full((2, 3), v)),
    "split.txt": lambda p, v: data.save_split(p, data.SplitSpec((v,), (v + 1,), "SCS")),
    "model.ck": lambda p, v: data.save_checkpoint(p, {"w": np.full(3, v)}, {"v": v}),
    "report.txt": lambda p, v: evaluate.write_report(p, _report(v)),
    "suc.tsv": lambda p, v: evaluate.write_suc_points(p, _report(v).suc_points),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_keeps_previous_file_and_leaves_no_temp_file(tmp_path, monkeypatch,
                                                                  name):
    path = str(tmp_path / name)
    WRITERS[name](path, 1)
    before = open(path, "rb").read()
    real_open = open
    monkeypatch.setattr(data, "open", lambda *a, **k: FailingFile(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="no space"):
        WRITERS[name](path, 2)
    monkeypatch.undo()
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == [name]
    WRITERS[name](path, 2)
    assert open(path, "rb").read() != before and os.listdir(tmp_path) == [name]


def test_checkpoint_rejected_mid_write_keeps_previous_file(tmp_path):
    path = str(tmp_path / "ck.bin")
    data.save_checkpoint(path, {"w": np.ones(2)}, {"k": 1})
    before = open(path, "rb").read()
    # "a" is written before "b" is found to have an unsupported dtype
    with pytest.raises(ConfigError, match="'b'"):
        data.save_checkpoint(path, {"a": np.zeros(4), "b": np.zeros(2, np.int32)}, {"k": 2})
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["ck.bin"]


def test_atomic_write_fsyncs_the_whole_file_before_replacing(tmp_path, monkeypatch):
    path = str(tmp_path / "m.txt")
    synced = []
    real_fsync = os.fsync

    def fsync(fd):
        synced.append((os.fstat(fd).st_size, os.path.exists(path)))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    data.save_matrix(path, [0, 1], np.ones((2, 3)))
    assert synced == [(os.path.getsize(path), False)]


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_rewritten_file_keeps_its_mode(tmp_path, name):
    path = str(tmp_path / name)
    WRITERS[name](path, 1)
    os.chmod(path, 0o600)
    WRITERS[name](path, 2)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o600


def test_new_file_takes_the_umask_default_mode(tmp_path):
    umask = os.umask(0o027)
    try:
        path = str(tmp_path / "m.txt")
        data.save_matrix(path, [0], [[1.0]])
    finally:
        os.umask(umask)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o640


def _save_matrix_per_value(path, labels, values):
    """The per-value text writer that save_matrix replaced: its byte oracle."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# dims: {values.shape[0]} {values.shape[1]}\n")
        for label, row in zip(labels, values):
            fh.write(str(int(label)))
            for v in row:
                fh.write(" " + repr(float(v)))
            fh.write("\n")


_I64 = np.iinfo(np.int64)
TEXT_MATRICES = {
    "awkward-floats": ([0, 1, 2], [[-0.0, 5e-324, 1e16], [1e22, 0.1, 1 / 3],
                                   [-1e-300, 1.7976931348623157e308, -2.5]]),
    "negative-labels": ([-1, -7, -123456789], np.arange(6.0).reshape(3, 2) - 2.5),
    "int64-extreme-labels": ([_I64.min, _I64.max, 0], np.ones((3, 2))),
    "no-rows": (np.empty(0, np.int64), np.empty((0, 4))),
    "no-columns": ([3, 1, 2], np.empty((3, 0))),
    "wide-row": ([5, 6], np.random.default_rng(7).normal(size=(2, 5000))),
}


@pytest.mark.parametrize("name", sorted(TEXT_MATRICES))
def test_save_matrix_bytes_equal_the_per_value_writer(tmp_path, name):
    labels, values = TEXT_MATRICES[name]
    data.save_matrix(str(tmp_path / "new.txt"), labels, values)
    _save_matrix_per_value(str(tmp_path / "old.txt"), labels, values)
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


@pytest.mark.parametrize("save", [data.save_matrix, data.save_matrix_binary],
                         ids=["text", "binary"])
@pytest.mark.parametrize("name", sorted(TEXT_MATRICES))
def test_matrix_of_any_shape_loads_back_bit_for_bit(tmp_path, name, save):
    labels, values = (np.asarray(a) for a in TEXT_MATRICES[name])
    save(str(tmp_path / "m"), labels, values)
    got_labels, got_values = data.load_matrix(str(tmp_path / "m"))
    assert got_labels.tolist() == labels.tolist()
    assert got_values.shape == values.shape and got_values.tobytes() == values.tobytes()


def _layouts():
    """One 4 x 6 matrix of values in four memory layouts."""
    c = np.random.default_rng(8).normal(size=(4, 6))
    strided = np.zeros((8, 18))
    strided[::2, ::3] = c
    return {"c-order": c, "fortran-order": np.asfortranarray(c),
            "strided": strided[::2, ::3], "big-endian": c.astype(">f8")}


@pytest.mark.parametrize("layout", sorted(_layouts()))
def test_save_matrix_binary_bytes_equal_the_tobytes_layout(tmp_path, layout):
    values = _layouts()[layout]
    labels = np.array([9, -1, _I64.max, _I64.min])
    path = tmp_path / "m.bin"
    data.save_matrix_binary(str(path), labels, values)
    expected = (b"ZSMX" + struct.pack("<III", 1, 4, 6) + labels.astype(np.int64).tobytes()
                + np.asarray(values, dtype=np.float64).tobytes())
    assert path.read_bytes() == expected


def _checkpoint_tobytes(arrays, meta):
    """save_checkpoint's layout, each array payload from tobytes()."""
    meta_b = json.dumps(meta, sort_keys=True).encode("utf-8")
    out = [b"ZSCK", struct.pack("<II", 1, len(meta_b)), meta_b, struct.pack("<I", len(arrays))]
    for name in sorted(arrays):
        arr = arrays[name]
        out += [struct.pack("<H", len(name)), name.encode("utf-8"),
                struct.pack("<H", 3), arr.dtype.str.encode("ascii"),
                struct.pack("<I", arr.ndim), struct.pack(f"<{arr.ndim}Q", *arr.shape),
                arr.tobytes()]
    return b"".join(out)


@pytest.mark.parametrize("layout", ["c-order", "fortran-order", "strided"])
def test_save_checkpoint_bytes_equal_the_tobytes_layout(tmp_path, layout):
    arrays = {"w": _layouts()[layout], "ids": np.arange(10, dtype=np.int64)[::3]}
    path = tmp_path / "ck.bin"
    data.save_checkpoint(str(path), arrays, {"k": layout})
    assert path.read_bytes() == _checkpoint_tobytes(arrays, {"k": layout})
    got, _ = data.load_checkpoint(str(path))
    assert all(np.array_equal(got[name], arrays[name]) for name in arrays)


def test_big_endian_checkpoint_array_rejected(tmp_path):
    with pytest.raises(ConfigError, match="'w'"):
        data.save_checkpoint(str(tmp_path / "ck.bin"), {"w": _layouts()["big-endian"]}, {})
    assert os.listdir(tmp_path) == []


def test_binary_read_that_comes_up_short_raises_parse_error(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(bytes(16))

    class ShortReads:   # a file that shrinks after its size was checked
        def __init__(self, fh):
            self.fh = fh

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def readinto(self, buf):
            return self.fh.readinto(memoryview(buf).cast("B")[:8])

    with open(path, "rb") as fh, pytest.raises(ParseError, match="truncated") as info:
        data._read_array(ShortReads(fh), np.dtype(np.float64), 2, str(path))
    assert str(path) in str(info.value)


def _peak_traced_bytes(fn):
    """Peak bytes that fn allocates, Python objects and numpy buffers both."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_matrix_holds_one_row_of_python_floats(tmp_path):
    values = np.random.default_rng(9).normal(size=(2000, 512))
    peak = _peak_traced_bytes(
        lambda: data.save_matrix(str(tmp_path / "m.txt"), np.arange(2000), values))
    assert peak < 1_000_000   # a whole-matrix tolist() would be about 32 MB


PAYLOAD = np.random.default_rng(10).normal(size=(1000, 1000))   # 8 MB


def test_binary_writers_copy_no_payload(tmp_path):
    for save in (lambda: data.save_matrix_binary(str(tmp_path / "m.bin"),
                                                 np.arange(1000), PAYLOAD),
                 lambda: data.save_checkpoint(str(tmp_path / "ck.bin"), {"w": PAYLOAD}, {})):
        assert _peak_traced_bytes(save) < PAYLOAD.nbytes / 4


def test_binary_matrix_finiteness_check_holds_no_payload_sized_temporary(tmp_path):
    data.save_matrix_binary(str(tmp_path / "m.bin"), np.arange(1000), PAYLOAD)
    assert _peak_traced_bytes(lambda: data.load_matrix(str(tmp_path / "m.bin"))) \
        < 1.05 * PAYLOAD.nbytes


def test_binary_readers_read_the_payload_in_place(tmp_path):
    data.save_matrix_binary(str(tmp_path / "m.bin"), np.arange(1000), PAYLOAD)
    data.save_checkpoint(str(tmp_path / "ck.bin"), {"w": PAYLOAD}, {})
    for load in (lambda: data.load_matrix(str(tmp_path / "m.bin")),
                 lambda: data.load_checkpoint(str(tmp_path / "ck.bin"))):
        assert _peak_traced_bytes(load) < 1.25 * PAYLOAD.nbytes
