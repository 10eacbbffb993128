"""Tests for CSV/ARFF loading and synthetic stream generation."""

import json
import tracemalloc

import numpy as np
import pytest

from driftbench.streams import (
    Stream,
    StreamFormatError,
    SyntheticSpec,
    default_concepts,
    load,
    load_arff,
    load_csv,
    read_ground_truth,
    synth_recurring,
    write_csv,
    write_ground_truth,
)


FORMATS = ("csv", "arff")


def stream_file(tmp_path, fmt, text):
    """Write ``text``, a CSV with a header line, in the format ``fmt``.

    The ARFF has one numeric attribute per CSV column, and blank lines
    pad the CSV to the length of the ARFF header, so each data row is on
    the same line of both files.
    """
    header, data = text.split("\n", 1)
    columns = header.split(",")
    if fmt == "csv":
        head = [header] + [""] * (len(columns) + 1)
    else:
        head = (["@relation t"] + [f"@attribute {c} numeric" for c in columns]
                + ["@data"])
    path = tmp_path / f"stream.{fmt}"
    path.write_text("\n".join(head) + "\n" + data)
    return path


# -- CSV ---------------------------------------------------------------------


def test_csv_basic(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("a,b,label\n1.0,2.0,0\n3.5,-1.0,1\n")
    instances, meta = load_csv(path)
    assert meta.n_features == 2
    assert meta.label_alphabet == [0, 1]
    assert meta.n_instances == 2
    assert np.allclose(instances[0].features, [1.0, 2.0])
    assert instances[1].label == 1
    # each instance is a (features, label) pair: a view of a row of the
    # stream's matrix and a Python-int label
    x, y = instances[1]
    assert np.shares_memory(x, instances.X)
    assert x.tolist() == [3.5, -1.0] and y == 1 and type(y) is int


def test_csv_integer_labels_densified_by_sorted_value(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("x,label\n1,7\n2,3\n3,7\n")
    instances, meta = load_csv(path)
    assert meta.label_alphabet == [3, 7]
    assert [i.label for i in instances] == [1, 0, 1]


def test_csv_nominal_labels_first_appearance(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("x,label\n1,spam\n2,ham\n3,spam\n")
    instances, meta = load_csv(path)
    assert meta.label_alphabet == ["spam", "ham"]
    assert [i.label for i in instances] == [0, 1, 0]


def test_csv_nominal_features_encoded(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("color,x,label\nred,1.0,0\nblue,2.0,1\nred,3.0,0\n")
    instances, _ = load_csv(path)
    assert instances[0].features[0] == instances[2].features[0]
    assert instances[0].features[0] != instances[1].features[0]


MISSING = {  # test id suffix -> (data row, error message)
    "": ("1.0,?,0", "missing value"),
    "-label-qmark": ("1.0,2.0,?", "missing label"),
    "-label-empty": ("1.0,2.0,", "missing label"),
    "-nan": ("1.0,nan,0", "non-finite value in column 1"),
    "-inf": ("inf,2.0,0", "non-finite value in column 0"),
    "-neg-inf": ("1.0,-inf,0", "non-finite value in column 1"),
    "-overflow": ("1e999,2.0,0", "non-finite value in column 0"),
}


@pytest.mark.parametrize("fmt, row, message", [
    pytest.param(fmt, row, message, id=fmt + suffix)
    for suffix, (row, message) in MISSING.items() for fmt in FORMATS])
def test_missing_value_is_hard_error(tmp_path, fmt, row, message):
    path = stream_file(tmp_path, fmt, f"a,b,label\n{row}\n")
    with pytest.raises(StreamFormatError, match=f"line 6: {message}"):
        load(path)
    # after a good row and a skipped blank one, the count still holds
    path = stream_file(tmp_path, fmt, f"a,b,label\n1.0,2.0,0\n\n{row}\n")
    with pytest.raises(StreamFormatError, match=f"line 8: {message}"):
        load(path)


@pytest.mark.parametrize("fmt", FORMATS)
def test_bad_numeric_reports_line(tmp_path, fmt):
    path = stream_file(tmp_path, fmt, "a,label\n1.0,0\noops,1\n")
    with pytest.raises(StreamFormatError, match="line 6:"):
        load(path)


@pytest.mark.parametrize("fmt", FORMATS)
def test_column_count_mismatch(tmp_path, fmt):
    path = stream_file(tmp_path, fmt, "a,b,label\n1.0,2.0,0\n1.0,0\n")
    with pytest.raises(StreamFormatError, match="line 7:"):
        load(path)


def test_csv_empty_and_headerless_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(StreamFormatError):
        load_csv(empty)
    header_only = tmp_path / "h.csv"
    header_only.write_text("a,label\n")
    with pytest.raises(StreamFormatError):
        load_csv(header_only)


@pytest.mark.parametrize("fmt", FORMATS)
def test_max_instances_truncates(tmp_path, fmt):
    path = stream_file(tmp_path, fmt,
                       "a,label\n" + "".join(f"{i},0\n" for i in range(50)))
    instances, meta = load(path, max_instances=10)
    assert meta.n_instances == 10
    assert len(instances) == 10


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("max_instances", [0, -1])
def test_max_instances_below_one_is_an_error(tmp_path, fmt, max_instances):
    path = stream_file(tmp_path, fmt, "a,label\n1.0,0\n2.0,1\n")
    with pytest.raises(ValueError, match="max_instances"):
        load(path, max_instances=max_instances)


@pytest.mark.parametrize("fmt", FORMATS)
def test_max_instances_must_be_an_integer(tmp_path, fmt):
    # no row count equals 2.5, so it would read every row, and True one
    path = stream_file(tmp_path, fmt,
                       "a,label\n" + "".join(f"{i},0\n" for i in range(50)))
    for max_instances in (2.5, True, np.float64(10)):
        with pytest.raises(ValueError, match="max_instances must be an integer"):
            load(path, max_instances=max_instances)
    instances, meta = load(path, max_instances=np.int64(10))
    assert len(instances) == meta.n_instances == 10


def test_write_csv_round_trip(tmp_path):
    spec = SyntheticSpec(default_concepts(), ["A", "B"], [30, 30])
    instances, _ = synth_recurring(spec, seed=1)
    path = tmp_path / "round.csv"
    write_csv(instances, path)
    loaded, meta = load_csv(path)
    assert meta.n_instances == len(instances)
    for orig, back in zip(instances, loaded):
        assert np.array_equal(orig.features, back.features)
        assert orig.label == back.label
    # edge floats come back bit for bit: signed zero, the smallest
    # subnormal, values near the largest finite float, and 0.1
    edges = np.array([[-0.0, 5e-324, 1.7e308, -1.7e308],
                      [0.1, -5e-324, 0.0, -0.1]])
    stream = Stream(np.vstack([instances.X, edges]),
                    np.concatenate([instances.y, [1, 0]]))
    write_csv(stream, path)
    loaded, _ = load_csv(path)
    assert loaded.X.tobytes() == stream.X.tobytes()
    assert np.array_equal(loaded.y, stream.y)


def traced(build):
    """``build()``, with the bytes it left allocated and its peak."""
    tracemalloc.start()
    try:
        stream, _ = build()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return stream, retained, peak


def test_loaded_stream_costs_its_two_arrays(tmp_path):
    rng = np.random.default_rng(0)
    n, d = 50_000, 4
    path = tmp_path / "long.csv"
    write_csv(Stream(rng.normal(size=(n, d)), rng.integers(0, 2, n)), path)
    stream, retained, peak = traced(lambda: load_csv(path))
    nbytes = stream.X.nbytes + stream.y.nbytes
    assert stream.X.shape == (n, d)
    assert peak <= 3 * nbytes
    assert retained <= 1.5 * nbytes


def test_synthetic_stream_costs_its_two_arrays():
    spec = SyntheticSpec(default_concepts(), ["A", "B"], [25_000, 25_000])
    stream, retained, _ = traced(lambda: synth_recurring(spec, seed=0))
    assert len(stream) == 50_000
    assert retained <= 1.5 * (stream.X.nbytes + stream.y.nbytes)


# -- the Stream type ---------------------------------------------------------


def test_stream_is_a_sequence_of_pairs_over_two_arrays():
    X = np.arange(12, dtype=float).reshape(4, 3)
    y = np.array([1, 0, 1, 1])
    stream = Stream(X, y)
    assert len(stream) == 4
    for i in (0, 2, -1, -4):
        x, label = stream[i]
        assert np.shares_memory(x, X) and x.tolist() == X[i].tolist()
        assert label == y[i] and type(label) is int
    for i in (4, -5):
        with pytest.raises(IndexError):
            stream[i]
    # a slice is a stream of views of the same arrays
    part = stream[1:4:2]
    assert isinstance(part, Stream) and len(part) == 2
    assert np.shares_memory(part.X, X) and np.shares_memory(part.y, y)
    assert part[1].features.tolist() == X[3].tolist() and part[1].label == 1
    # iteration yields the pairs that indexing does
    pairs = [(x.tolist(), label) for x, label in stream]
    assert pairs == [(stream[i].features.tolist(), stream[i].label)
                     for i in range(len(stream))]
    assert {type(label) for _, label in stream} == {int}
    # no row can be written through the stream; the caller's array can
    with pytest.raises(ValueError):
        stream[0].features[0] = 1.0
    assert X.flags.writeable
    with pytest.raises(ValueError, match="n labels"):
        Stream(X, y[:3])


# -- ARFF --------------------------------------------------------------------

ARFF_DOC = """% comment
@relation toy

@attribute a numeric
@attribute color {red, blue}
@attribute class {yes, no}

@data
1.0,red,yes
2.5,blue,no
3.0,red,yes
"""


def test_arff_basic(tmp_path):
    path = tmp_path / "toy.arff"
    path.write_text(ARFF_DOC)
    instances, meta = load_arff(path)
    assert meta.n_features == 2
    assert meta.label_alphabet == ["yes", "no"]
    assert [i.label for i in instances] == [0, 1, 0]
    assert instances[1].features[0] == 2.5


def test_arff_matches_equivalent_csv(tmp_path):
    arff = tmp_path / "toy.arff"
    arff.write_text(ARFF_DOC)
    csv_path = tmp_path / "toy.csv"
    csv_path.write_text("a,color,class\n1.0,red,yes\n2.5,blue,no\n3.0,red,yes\n")
    a_instances, a_meta = load_arff(arff)
    c_instances, c_meta = load_csv(csv_path)
    assert a_meta.label_alphabet == c_meta.label_alphabet
    for a, c in zip(a_instances, c_instances):
        assert np.allclose(a.features, c.features)
        assert a.label == c.label


def test_arff_quoted_nominal_is_the_same_value(tmp_path):
    path = tmp_path / "quoted.arff"
    path.write_text("@relation q\n@attribute color {red,blue}\n"
                    "@attribute class {y,n}\n@data\nred,y\n'red',n\nblue,'y'\n")
    instances, _ = load_arff(path)
    assert [inst.features.tolist() for inst in instances] == [[0], [0], [1]]
    assert [inst.label for inst in instances] == [0, 1, 0]


def test_arff_unsupported_attribute_type(tmp_path):
    path = tmp_path / "bad.arff"
    path.write_text("@relation x\n@attribute a date\n@attribute c {y,n}\n@data\n")
    with pytest.raises(StreamFormatError):
        load_arff(path)


def test_arff_missing_data_section(tmp_path):
    path = tmp_path / "bad.arff"
    path.write_text("@relation x\n@attribute a numeric\n@attribute c {y,n}\n")
    with pytest.raises(StreamFormatError):
        load_arff(path)


def test_load_dispatches_on_suffix(tmp_path):
    arff = tmp_path / "toy.arff"
    arff.write_text(ARFF_DOC)
    instances, _ = load(arff)
    assert len(instances) == 3
    # the suffix's case does not matter, and any other name is a CSV
    upper = tmp_path / "TOY.ARFF"
    upper.write_text(ARFF_DOC)
    assert len(load(upper)[0]) == 3
    text = tmp_path / "toy.txt"
    text.write_text("a,b,label\n1.0,2.0,0\n3.5,-1.0,1\n")
    instances, meta = load(text)
    assert meta.n_features == 2 and instances.y.tolist() == [0, 1]


# -- synthetic streams -------------------------------------------------------


def test_synth_deterministic_per_seed():
    spec = SyntheticSpec(default_concepts(), ["A", "B"], [50, 50])
    first, _ = synth_recurring(spec, seed=9)
    second, _ = synth_recurring(spec, seed=9)
    other, _ = synth_recurring(spec, seed=10)
    assert all(
        np.array_equal(a.features, b.features) and a.label == b.label
        for a, b in zip(first, second)
    )
    assert any(not np.array_equal(a.features, o.features)
               for a, o in zip(first, other))


def test_synth_ground_truth_change_points():
    spec = SyntheticSpec(default_concepts(), ["A", "B", "A"], [100, 200, 50])
    instances, meta = synth_recurring(spec, seed=0)
    assert meta.n_instances == 350
    assert meta.change_points == [100, 300]
    assert meta.segment_concepts == ["A", "B", "A"]
    assert meta.label_alphabet == [0, 1]
    assert {type(y) for _, y in instances} == {int}


def test_synth_concepts_are_linearly_separable():
    # every concept's dominant feature predicts the label almost perfectly
    spec = SyntheticSpec(default_concepts(), ["A"], [500])
    instances, _ = synth_recurring(spec, seed=2)
    agree = sum((inst.features[0] > 0) == (inst.label == 0) for inst in instances)
    assert agree / len(instances) > 0.99


def test_synthetic_spec_validation():
    concepts = default_concepts()
    with pytest.raises(ValueError):
        SyntheticSpec(concepts, ["A", "B"], [10]).validate()
    with pytest.raises(ValueError):
        SyntheticSpec(concepts, ["Z"], [10]).validate()
    with pytest.raises(ValueError):
        SyntheticSpec(concepts, ["A"], [0]).validate()
    with pytest.raises(ValueError, match="no concept"):
        SyntheticSpec(concepts, [], []).validate()


def test_write_ground_truth(tmp_path):
    spec = SyntheticSpec(default_concepts(), ["A", "B"], [20, 20])
    _, meta = synth_recurring(spec, seed=0)
    path = tmp_path / "truth.json"
    write_ground_truth(meta, path)
    doc = json.loads(path.read_text())
    assert doc["change_points"] == [20]
    assert doc["segment_concepts"] == ["A", "B"]
    assert doc["n_instances"] == 40
    assert read_ground_truth(path) == ([20], ["A", "B"])


def test_ground_truth_of_a_loaded_stream_round_trips(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("a,label\n1.0,0\n2.0,1\n3.0,0\n")
    _, meta = load_csv(path)
    truth = tmp_path / "truth.json"
    write_ground_truth(meta, truth)
    assert "segment_concepts" not in json.loads(truth.read_text())
    assert read_ground_truth(truth) == ([], [])


@pytest.mark.parametrize("doc, want", [
    ({"change_points": [5, 9]}, ([5, 9], [])),
    ({"change_points": [], "segment_concepts": ["A"]}, ([], ["A"])),
])
def test_read_ground_truth_accepts_optional_concepts(tmp_path, doc, want):
    path = tmp_path / "truth.json"
    path.write_text(json.dumps(doc))
    assert read_ground_truth(path) == want


@pytest.mark.parametrize("text", [
    "{not json",
    "[150, 300]",
    json.dumps({"segment_concepts": ["A", "B"]}),
    json.dumps({"change_points": 150}),
    json.dumps({"change_points": [150, "x"]}),
    json.dumps({"change_points": [150, 1.5e3]}),
    json.dumps({"change_points": [True]}),
    json.dumps({"change_points": [0, 150]}),
    json.dumps({"change_points": [300, 150]}),
    json.dumps({"change_points": [150, 150]}),
    json.dumps({"change_points": [150], "segment_concepts": ["A"]}),
    json.dumps({"change_points": [150], "segment_concepts": ["A", 2]}),
    json.dumps({"change_points": [150], "segment_concepts": None}),
], ids=["not-json", "not-object", "no-change-points", "not-a-list",
        "string", "float", "bool", "zero", "decreasing", "repeated",
        "concepts-too-few", "concept-not-string", "concepts-null"])
def test_malformed_ground_truth_is_an_error(tmp_path, text):
    path = tmp_path / "truth.json"
    path.write_text(text)
    with pytest.raises(StreamFormatError):
        read_ground_truth(path)
