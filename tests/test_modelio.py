"""File formats: model JSON, binary tensors, prune reports."""
from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import os
import re
import struct
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, array_shapes

from convprune import (
    ConvLayer,
    ModelIOError,
    Network,
    PruneConfig,
    SchemaError,
    TensorFormatError,
    build_report,
    heatmap_csv,
    hbgts,
    modelio,
    read_dataset,
    read_model,
    read_report,
    read_tensor,
    uniform_baseline,
    write_model,
    write_report,
    write_tensor,
)

from conftest import assert_one_weight_array, rand_net


# ------------------------------------------------------------------- models


EXTREMES = [
    -0.0,
    5e-324,  # the smallest subnormal
    np.finfo(np.float64).smallest_normal,
    np.finfo(np.float64).max,
    1e-5,
    1e300,
]


def test_model_roundtrip_is_exact(rng, tmp_path):
    extremes = np.array(EXTREMES + [-v for v in EXTREMES])
    net = Network(
        [
            ConvLayer(rng.standard_normal((5, 2, 3, 3)), activation="relu"),
            ConvLayer(
                rng.standard_normal((4, 5, 1, 1)),
                comp=rng.standard_normal((4, 6)),
                activation="identity",
            ),
            ConvLayer(rng.standard_normal((3, 6, 2, 2)), activation="relu"),
            ConvLayer(extremes.reshape(4, 3, 1, 1), comp=extremes.reshape(4, 3)),
        ]
    )
    path = tmp_path / "model.json"
    write_model(net, (2, 8, 9), path)
    # the bit patterns, read as int64
    assert json.loads(path.read_text())["layers"][3]["weights"][:4] == [
        -(2**63),  # -0.0: the sign bit alone
        1,
        2**52,
        2**63 - 2**52 - 1,
    ]
    back, shape = read_model(path)
    assert shape == (2, 8, 9)
    assert len(back) == 4
    for a, b in zip(net.layers, back.layers):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert_one_weight_array(b)
        assert a.activation == b.activation
        if a.comp is None:
            assert b.comp is None
        else:
            assert a.comp.tobytes() == b.comp.tobytes()


def test_read_model_peak_is_bounded_by_the_text(tmp_path):
    # short reprs, so that a Python float per weight (32 bytes with its list
    # slot) costs several times its text; decoding the text alone holds the
    # file's bytes and its str at once, about 2x the file
    rng = np.random.default_rng(0)
    layers = [
        ConvLayer(rng.integers(-8, 9, (16, 16, 3, 3)) / 4 + 0.125) for _ in range(8)
    ]
    path = tmp_path / "model.json"
    write_model(Network(layers), (16, 8, 8), path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        net, _ = read_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(np.array_equal(a.weights, b.weights) for a, b in zip(layers, net.layers))
    assert peak < 3 * size, f"read_model peak {peak / size:.2f}x the file size"


def wide_network() -> Network:
    """Three 128x128 3x3 layers: a 9.1 MB model file."""
    rng = np.random.default_rng(0)
    return Network([ConvLayer(rng.standard_normal((128, 128, 3, 3))) for _ in range(3)])


def test_read_model_peak_is_below_the_file_size(tmp_path):
    """read_model holds a block of the file at a time, not the file: for
    a model of 8 MiB or more its peak is below the file's size."""
    layers = wide_network().layers
    path = tmp_path / "model.json"
    write_model(Network(layers), (128, 8, 8), path)
    size = path.stat().st_size
    assert size >= 8 * 2**20
    tracemalloc.start()
    try:
        net, _ = read_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(a.weights.tobytes() == b.weights.tobytes() for a, b in zip(layers, net.layers))
    assert peak < size, f"read_model peak {peak / size:.2f}x the file size"


def test_write_model_peak_is_bounded(tmp_path):
    """write_model encodes _CHUNK values or fewer at a time: its peak is a
    small share of the file it writes."""
    net = wide_network()
    path = tmp_path / "model.json"
    tracemalloc.start()
    try:
        write_model(net, (128, 8, 8), path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size >= 8 * 2**20
    assert peak < size / 4, f"write_model peak {peak / size:.2f}x the file size"


def test_schema_version_is_a_json_integer(rng, small_report, tmp_path):
    # true and 1.0 equal 1 in Python, and read as schema 1 if compared so
    model, report = tmp_path / "m.json", tmp_path / "r.json"
    write_model(rand_net(rng, [2, 3], k=3), (2, 4, 4), model)
    write_report(small_report, report)
    for path, read in [(model, read_model), (report, read_report)]:
        good = json.loads(path.read_text())
        for bad in [True, 1.0, "1", None]:
            path.write_text(json.dumps(dict(good, schema_version=bad)))
            with pytest.raises(ModelIOError, match="schema_version must be an integer"):
                read(path)


def test_model_file_layout(rng, tmp_path):
    net = rand_net(rng, [2, 3], k=2)
    path = tmp_path / "model.json"
    write_model(net, (2, 4, 4), path)
    text = path.read_text()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["schema_version"] == 2
    assert doc["input_shape"] == [2, 4, 4]
    layer = doc["layers"][0]
    assert layer["out_channels"] == 3
    assert layer["in_channels"] == 2
    assert layer["kernel_size"] == 2
    assert layer["comp"] is None
    # each weight is the int64 read of its float64 bits, in row-major order
    assert all(type(v) is int for v in layer["weights"])
    assert layer["weights"] == net.layers[0].weights.ravel().view(np.int64).tolist()
    # one line per array, inside the indent=1 document
    lines = [line for line in text.splitlines() if '"weights"' in line]
    assert lines == [
        '   "weights": ' + json.dumps(entry["weights"], separators=(",", ":"))
        for entry in doc["layers"]
    ]
    # deterministic encoder
    path2 = tmp_path / "again.json"
    write_model(net, (2, 4, 4), path2)
    assert path.read_bytes() == path2.read_bytes()


def test_write_model_validates(rng, tmp_path):
    path = tmp_path / "m.json"
    net = rand_net(rng, [2, 3], k=3)
    with pytest.raises(ModelIOError):
        write_model(net, (3, 4, 4), path)
    # read_model's rule for input_shape, checked before the file is opened
    for shape, message in [
        ((2, 0, 4), r"input_shape must be 3 positive integers, got \(2, 0, 4\)"),
        ((2, 4), "input_shape must be 3 positive integers"),
        ((2.7, 4, 4), "input_shape entry must be an integer, got 2.7"),
        ((2, True, 4), "input_shape entry must be an integer"),
    ]:
        with pytest.raises(ModelIOError, match=message):
            write_model(net, shape, path)
        assert not path.exists()
    weights = rng.standard_normal((2, 2, 1, 1))
    weights[1, 0, 0, 0] = np.inf
    comp = rng.standard_normal((2, 2))
    comp[0, 1] = np.nan
    for bad in [
        Network([ConvLayer(weights)]),
        Network([ConvLayer(weights[::-1].copy(), comp=rng.standard_normal((2, 2)))]),
        Network([ConvLayer(weights[:1].copy(), comp=comp[:1])]),
        Network([rand_net(rng, [2, 2], k=1).layers[0], ConvLayer(weights)]),
    ]:
        with pytest.raises(ModelIOError, match="non-finite"):
            write_model(bad, (2, 4, 4), path)
        assert not path.exists()


FIXTURE = Path(__file__).parent / "data" / "schema1_pruned.json"
# sha256 of the fixture's weight and comp arrays, layer by layer, as
# little-endian float64 bytes
FIXTURE_BITS = "dc9b52ed7f7fe0eaea1898879aa7befdf3713e53e94c83146b97846d007299af"


def array_bits(net: Network) -> str:
    h = hashlib.sha256()
    for layer in net.layers:
        h.update(layer.weights.astype("<f8").tobytes())
        if layer.comp is not None:
            h.update(layer.comp.astype("<f8").tobytes())
    return h.hexdigest()


def test_schema1_fixture_reads_to_pinned_bits():
    """A pruned model with comp maps, written by the schema-1 float writer."""
    net, shape = read_model(FIXTURE)
    assert shape == (4, 8, 8)
    assert [layer.comp is None for layer in net.layers] == [False, False, True]
    assert net.layers[0].comp.shape[0] < net.layers[0].comp.shape[1]
    assert array_bits(net) == FIXTURE_BITS
    # the values are those of the file's float text
    doc = json.loads(FIXTURE.read_text())
    assert doc["schema_version"] == 1
    for entry, layer in zip(doc["layers"], net.layers):
        assert np.array(entry["weights"]).tobytes() == layer.weights.tobytes()


def test_schema1_fixture_rewrite_reads_back_bit_identical(tmp_path):
    net, shape = read_model(FIXTURE)
    path = tmp_path / "again.json"
    write_model(net, shape, path)
    assert json.loads(path.read_text())["schema_version"] == 2
    back, back_shape = read_model(path)
    assert back_shape == shape
    assert array_bits(back) == FIXTURE_BITS
    assert [layer.activation for layer in back.layers] == [
        layer.activation for layer in net.layers
    ]


def one_line_text(doc: dict) -> str:
    """doc as write_model lays a model out: json.dumps(doc, sort_keys=True,
    indent=1), with each layer's weights and comp data list written by
    json.dumps(values, separators=(",", ":")) on one line."""
    arrays = {}

    def slot(values: list) -> str:
        name = f"array {len(arrays)}"
        arrays[json.dumps(name)] = json.dumps(values, separators=(",", ":"))
        return name

    layers = []
    for entry in doc["layers"]:
        entry = dict(entry, weights=slot(entry["weights"]))
        if entry["comp"] is not None:
            entry["comp"] = dict(entry["comp"], data=slot(entry["comp"]["data"]))
        layers.append(entry)
    text = json.dumps(dict(doc, layers=layers), sort_keys=True, indent=1)
    for name, array_text in arrays.items():
        assert text.count(name) == 1
        text = text.replace(name, array_text)
    return text + "\n"


def reference_model_text(net: Network, input_shape) -> str:
    """The model file as json.dumps(doc, sort_keys=True, indent=1) writes
    it, with each array as json.dumps(bits, separators=(",", ":"))."""

    def bits(arr: np.ndarray) -> list[int]:
        return np.ascontiguousarray(arr, dtype="<f8").view("<i8").ravel().tolist()

    doc = {
        "schema_version": 2,
        "input_shape": list(input_shape),
        "layers": [
            {
                "in_channels": layer.in_channels,
                "out_channels": layer.out_channels,
                "kernel_size": layer.kernel_size,
                "activation": layer.activation,
                "weights": bits(layer.weights),
                "comp": None
                if layer.comp is None
                else {"shape": list(layer.comp.shape), "data": bits(layer.comp)},
            }
            for layer in net.layers
        ],
    }
    return one_line_text(doc)


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("with_comp", [False, True])
def test_write_model_matches_json_dump(rng, tmp_path, offset, with_comp):
    """Arrays of chunk-1, chunk and chunk+1 values, with edge-case floats."""
    size = modelio._CHUNK + offset
    special = [-0.0, 1.0, 5e-324, 1e300, 1e-5, 0.0, -1e-300, 123456789.0]
    values = np.resize(np.array(special), size) * np.where(rng.random(size) < 0.5, 1, -1)
    values[-3:] = rng.standard_normal(3)
    comp = values[::-1].reshape(size, 1).copy() if with_comp else None
    width = 1 if with_comp else size
    net = Network(
        [
            ConvLayer(values.reshape(size, 1, 1, 1), comp=comp, activation="identity"),
            # a non-contiguous bank is written in row-major order
            ConvLayer(rng.standard_normal((2, 2, width, 3)).T),
        ]
    )
    assert not net.layers[1].weights.flags.c_contiguous
    path = tmp_path / "m.json"
    write_model(net, (1, 5, 6), path)
    assert path.read_text(encoding="utf-8") == reference_model_text(net, (1, 5, 6))


INT64 = np.iinfo(np.int64)
# bit patterns at the edges of _encode_bits: INT64_MIN (-0.0), 0, the
# smallest and largest subnormal of either sign, and each power of ten it
# splits at with the value below it, of either sign
EDGE_BITS = (
    [INT64.min, 0]
    + np.array([5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308])
    .view(np.int64)
    .tolist()
    + [sign * (10**p + d) for p in (4, 8, 16, 18) for d in (-1, 0) for sign in (1, -1)]
)


def bit_patterns():
    """int64 bit patterns of each digit count from 1 to 19, of either sign."""
    magnitudes = st.integers(1, 19).flatmap(
        lambda digits: st.integers(10 ** (digits - 1), min(10**digits - 1, INT64.max))
    )
    return st.tuples(magnitudes, st.booleans()).map(lambda v: -v[0] if v[1] else v[0])


def assert_written_as_json(arr: np.ndarray, bits: np.ndarray) -> None:
    """_write_bits writes arr as json writes the ints of bits."""
    fh = io.BytesIO()
    modelio._write_bits(fh, arr)
    expected = json.dumps(bits.tolist(), separators=(",", ":"))
    # value by value, so that a failure names the first value that differs
    # without a diff of the whole text
    assert fh.getvalue().decode("ascii").split(",") == expected.split(",")


@settings(max_examples=60, deadline=None)
@given(
    patterns=st.lists(bit_patterns(), min_size=1, max_size=64),
    offset=st.sampled_from([-1, 0, 1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_write_bits_matches_json_dump(patterns, offset, seed):
    """The edge patterns and the drawn ones, repeated to chunk-1, chunk or
    chunk+1 values and shuffled, as json writes them."""
    bits = np.resize(np.array(EDGE_BITS + patterns, dtype=np.int64), modelio._CHUNK + offset)
    np.random.default_rng(seed).shuffle(bits)
    assert_written_as_json(bits.view(np.float64), bits)


@settings(max_examples=40, deadline=None)
@given(
    patterns=st.lists(bit_patterns(), min_size=1, max_size=64),
    n=st.integers(1, 16),
    m=st.integers(2, 600),
    k=st.sampled_from([1, 3]),
)
@example(patterns=[1], n=2, m=500, k=3)  # filters of 4500 values > _CHUNK
@example(patterns=[1], n=16, m=600, k=1)  # 9600 values in whole rows
def test_write_bits_of_a_weight_bank(patterns, n, m, k):
    """A layer's weights are a transposed view of its GEMM matrix for K > 1
    (not C-contiguous for m > 1) and a contiguous array for K = 1; either is
    written in row-major order, also where a filter holds more than _CHUNK
    values."""
    bits = np.resize(np.array(EDGE_BITS + patterns, dtype=np.int64), n * m * k * k)
    # an inf or NaN pattern with bit 62 flipped is a finite one
    bits[~np.isfinite(bits.view(np.float64))] ^= np.int64(1 << 62)
    weights = ConvLayer(bits.view(np.float64).reshape(n, m, k, k)).weights
    assert weights.flags.c_contiguous == (k == 1)
    assert_written_as_json(weights, bits)


# a model document as json.dumps writes it by default, with ", " between
# values, and in write_model's layout, where read_model parses an array of
# integers with NumPy
LAYOUTS = {"spaced": json.dumps, "one-line": one_line_text}


def numpy_arrays(path: Path) -> int:
    """How many arrays of the model file NumPy parses: every weights and
    data array, or none if one of them is not in write_model's layout."""
    with path.open("rb") as fh:
        split = modelio._split_model(fh)
    return 0 if split is None else len(split[1])


@pytest.mark.parametrize("layout", LAYOUTS)
def test_schema2_arrays_hold_only_finite_int64_bit_patterns(rng, tmp_path, layout):
    net = Network([ConvLayer(rng.standard_normal((3, 2, 1, 1)), comp=np.eye(3))])
    path = tmp_path / "m.json"
    write_model(net, (2, 4, 4), path)
    good = json.loads(path.read_text())
    dump = LAYOUTS[layout]
    bits = good["layers"][0]["weights"]
    inf_bits = 9218868437227405312  # 0x7FF0000000000000
    assert np.array(inf_bits).view(np.float64) == np.inf
    for field, value, message in [
        # the benchmark self-test's tamper: a float among the integers
        ("weights", [bits[0] + 1e-3] + bits[1:], "not an int64 bit pattern"),
        ("weights", [2**63] + bits[1:], "not an int64 bit pattern"),
        ("weights", [-(2**63) - 1] + bits[1:], "not an int64 bit pattern"),
        ("weights", [0.5] * len(bits), "not an int64 bit pattern"),
        ("weights", [True] + bits[1:], "not a flat list of numbers"),
        ("weights", [inf_bits] + bits[1:], "non-finite"),
        ("weights", [inf_bits - 2**63] + bits[1:], "non-finite"),  # -inf
        ("weights", [inf_bits + 1] + bits[1:], "non-finite"),  # a NaN
        ("weights", [-1] + bits[1:], "non-finite"),  # all bits set: a NaN
        ("weights", bits[:-1], "holds 5 values, expected 6"),
        ("weights", bits + [0], "holds 7 values, expected 6"),
        ("data", [0.0] * 9, "not an int64 bit pattern"),
        ("data", [inf_bits] * 9, "non-finite"),
        ("data", [0] * 8, "holds 8 values, expected 9"),
    ]:
        doc = json.loads(json.dumps(good))
        layer = doc["layers"][0]
        (layer if field == "weights" else layer["comp"])[field] = value
        content = dump(doc)
        path.write_text(content)
        # in write_model's layout, NumPy parses both arrays if the edited
        # one is still canonical, else json parses the file
        body = content[slice(*array_span(content, field))]
        assert numpy_arrays(path) == (2 if layout == "one-line" and is_canonical(body) else 0)
        with pytest.raises(ModelIOError, match=f"layer 0: .*{message}"):
            read_model(path)
    # integers read as bit patterns, not as values
    doc = json.loads(json.dumps(good))
    doc["layers"][0]["comp"]["data"] = [0, 1, 2, 3, 4, 5, 6, 7, 8]
    path.write_text(dump(doc))
    comp = read_model(path)[0].layers[0].comp
    assert comp.ravel().view(np.int64).tolist() == list(range(9))
    assert comp[0, 1] == 5e-324


def reference_model_doc(path: Path):
    """The model document as plain json reads the file, opened as UTF-8
    text, with each weights and data list made an int64 array if it holds
    only integers within int64, else a float64 array if it holds only
    numbers within float64: read_model's parse before NumPy read arrays."""

    def convert(obj: dict) -> dict:
        for key in ("weights", "data"):
            values = obj.get(key)
            if type(values) is not list:
                continue
            if all(type(v) is int and -(2**63) <= v < 2**63 for v in values):
                obj[key] = np.array(values, dtype=np.int64)
            elif all(type(v) in (int, float) for v in values):
                try:
                    obj[key] = np.array([float(v) for v in values])
                except OverflowError:
                    pass
        return obj

    try:
        return json.loads(path.read_text(encoding="utf-8"), object_hook=convert)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ModelIOError(f"not a model file: {exc}") from None


def model_outcome(path: Path):
    """What read_model gives: the shape and every array's bytes, or the
    error and its message."""
    try:
        net, shape = read_model(path)
    except ModelIOError as exc:
        return type(exc).__name__, str(exc)
    return shape, [
        (layer.activation, layer.weights.tobytes(), layer.comp is None or layer.comp.tobytes())
        for layer in net.layers
    ]


def reference_outcome(path: Path):
    """model_outcome with the document parsed by reference_model_doc."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modelio, "_load_model", reference_model_doc)
        return model_outcome(path)


def is_canonical(body: str) -> bool:
    """body is ",".join(map(str, values)) of int64 values other than the
    int64 limits, as json reads them."""
    try:
        values = json.loads(f"[{body}]")
    except ValueError:
        return False
    return (
        bool(values)
        and all(type(v) is int and -(2**63) < v < 2**63 - 1 for v in values)
        and ",".join(map(str, values)) == body
    )


def equivalence_model(tmp_path: Path) -> tuple[Path, str]:
    """A one-layer model with a comp map holding a 0.0, in write_model's
    layout, and its text."""
    rng = np.random.default_rng(7)
    comp = rng.standard_normal((3, 3))
    comp[0, 1] = 0.0
    net = Network([ConvLayer(rng.standard_normal((3, 2, 1, 1)), comp=comp, activation="relu")])
    path = tmp_path / "m.json"
    write_model(net, (2, 4, 4), path)
    return path, path.read_text()


def array_span(text: str, field: str) -> tuple[int, int]:
    """Where the values of the field's array begin and end in text."""
    start = text.index(f'"{field}": [') + len(f'"{field}": [')
    return start, text.index("]", start)


def edited_bodies(values: list[int]) -> dict[str, str]:
    """Text between an array's brackets: write_model's for values, and
    edits of it that json reads differently or rejects."""
    canon = ",".join(map(str, values))
    rest = canon.split(",", 1)[1]
    bodies = {
        "canonical": canon,
        "leading zero": "0" + canon.lstrip("-"),
        "plus": "+" + canon.lstrip("-"),
        "minus zero": "-0," + rest,
        "zero": "0," + rest,
        "bare minus": "-," + rest,
        "bare minus last": canon.rsplit(",", 1)[0] + ",-",
        "bare plus": "+," + rest,
        "bare space": " ," + rest,
        "double minus": "--1," + rest,
        "inner minus": "1-2," + rest,
        "trailing minus": canon + "-",
        "trailing comma": canon + ",",
        "leading comma": "," + canon,
        "double comma": canon.replace(",", ",,", 1),
        "empty": "",
        "spaces": canon.replace(",", ", "),
        "newlines": canon.replace(",", ",\n "),
        "exponent": "1e5," + rest,
        "fraction": "0.5," + rest,
        "bool": "true," + rest,
        "int64 min": f"{-(2**63)}," + rest,  # the bit pattern of -0.0
        "int64 max": f"{2**63 - 1}," + rest,
    }
    for beyond in [2**63, -(2**63) - 1, 10**19, -(10**19), 2**64 + 1, 10**30]:
        bodies[f"beyond int64 {beyond}"] = f"{beyond}," + rest
    return bodies


def equivalence_files(text: str, field: str) -> dict[str, tuple[str, int]]:
    """Edits of equivalence_model's text, and how many arrays NumPy parses
    in each: both, or none if either is not in write_model's layout."""
    start, end = array_span(text, field)
    bodies = edited_bodies(json.loads(f"[{text[start:end]}]"))
    files = {
        name: (text[:start] + body + text[end:], 2 * is_canonical(body))
        for name, body in bodies.items()
    }
    # a backslash anywhere sends every array to json
    files["escape"] = (text.replace('"relu"', '"rel\\u0075"'), 0)
    files["bad escape"] = (text.replace('"relu"', '"rel\\q"'), 0)
    # NumPy parses only weights and data arrays
    one_line_shape = re.sub(r'"input_shape": \[[^]]*\]', '"input_shape": [2,4,4]', text)
    files["one-line input_shape"] = (one_line_shape, 2)
    # json reports an error with the file's positions, not the skeleton's
    files["bare string"] = (text.replace('"relu"', "relu"), 2)
    files["end inside the array"] = (text[: (start + end) // 2], 0)
    return files


@pytest.mark.parametrize("numpy_raises", [True, False], ids=["numpy-raises", "numpy-warns"])
@pytest.mark.parametrize("field", ["weights", "data"])
def test_numpy_arrays_read_as_json_reads_them(tmp_path, field, numpy_raises):
    """NumPy parses an array only if json would write it so, and read_model
    gives the same arrays or the same error as plain json would.  Without
    numpy_raises, fromstring behaves as in NumPy releases that warn on text
    they cannot read to its end and return the values before it; no
    warning leaks."""
    path, text = equivalence_model(tmp_path)
    start, end = array_span(text, field)
    real_fromstring = np.fromstring

    def warning_fromstring(text, dtype, sep):
        try:
            return real_fromstring(text, dtype=dtype, sep=sep)
        except ValueError:
            warnings.warn("string or file could not be read to its end", DeprecationWarning)
            values = []
            for item in text.split(b","):
                if not re.fullmatch(rb"-?[0-9]*", item) or not item:
                    break
                values.append(int(item) if item != b"-" else 0)
            return np.array(values, dtype=np.int64)

    bodies = edited_bodies(json.loads(f"[{text[start:end]}]"))
    assert [name for name, body in bodies.items() if is_canonical(body)] == ["canonical", "zero"]
    for name, (content, parsed) in equivalence_files(text, field).items():
        path.write_text(content)
        assert numpy_arrays(path) == parsed, name
        expected = reference_outcome(path)
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if not numpy_raises:
                patch.setattr(np, "fromstring", warning_fromstring)
            assert model_outcome(path) == expected, name
        assert caught == [], name


@pytest.mark.parametrize("chunk", [1, 5, 17, 64])
@pytest.mark.parametrize("field", ["weights", "data"])
def test_numpy_arrays_read_as_json_reads_them_across_blocks(tmp_path, monkeypatch, field, chunk):
    """read_model reads the file _TEXT_CHUNK bytes at a time.  With each
    file shifted by 0 to chunk - 1 leading spaces, every key, comma and
    "]" falls at every offset of a block, and NumPy still parses the same
    arrays, and read_model still gives what plain json gives."""
    path, text = equivalence_model(tmp_path)
    monkeypatch.setattr(modelio, "_TEXT_CHUNK", chunk)
    for name, (content, parsed) in equivalence_files(text, field).items():
        for shift in range(chunk):
            path.write_text(" " * shift + content)
            assert numpy_arrays(path) == parsed, (name, shift)
            assert model_outcome(path) == reference_outcome(path), (name, shift)


@settings(max_examples=150, deadline=None)
@given(
    field=st.sampled_from(["weights", "data"]),
    values=st.lists(
        st.integers(-(2**63), 2**63 - 1) | st.sampled_from([0, 1, -1, 2**63 - 1, 2**63, -(2**63)]),
        min_size=9,
        max_size=9,
    ),
    edits=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "repeat"]),
            st.integers(0, 500),
            st.sampled_from(list("0123456789,-+.e []\n\"\\x")),
        ),
        max_size=3,
    ),
    # the file in blocks of a few bytes, of 16, or whole
    chunk=st.sampled_from([3, 16, modelio._TEXT_CHUNK]),
)
def test_numpy_arrays_read_as_json_reads_them_fuzz(field, values, edits, chunk, tmp_path_factory):
    path, text = equivalence_model(tmp_path_factory.mktemp("equivalence"))
    start, end = array_span(text, field)
    array = "[" + ",".join(map(str, values[: len(json.loads(f"[{text[start:end]}]"))])) + "]"
    for op, at, char in edits:
        at %= len(array) + (op == "insert")
        if op == "insert":
            array = array[:at] + char + array[at:]
        elif op == "delete":
            array = array[:at] + array[at + 1 :]
        else:
            array = array[:at] + array[at : at + 1] * 2 + array[at + 1 :]
    content = text[: start - 1] + array + text[end + 1 :]
    path.write_text(content)
    body = array[1:-1]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modelio, "_TEXT_CHUNK", chunk)
        if array[:1] + array[-1:] == "[]" and not re.search(r'[][\\"]', body):
            assert numpy_arrays(path) == 2 * is_canonical(body)
        assert model_outcome(path) == reference_outcome(path)


def test_schema1_reads_numbers_as_values(tmp_path):
    """Schema 1 reads integers as the values they name, as floats do,
    beyond int64 too; only the values' type and finiteness are checked."""
    doc = {
        "schema_version": 1,
        "input_shape": [1, 3, 3],
        "layers": [
            {
                "activation": "relu",
                "comp": {"data": [1, 0, 2**64, 0.5], "shape": [2, 2]},
                "in_channels": 1,
                "kernel_size": 1,
                "out_channels": 2,
                "weights": [3, -(2**63)],
            }
        ],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    layer = read_model(path)[0].layers[0]
    assert layer.weights.ravel().tolist() == [3.0, -(2.0**63)]
    assert layer.comp.tolist() == [[1.0, 0.0], [2.0**64, 0.5]]
    doc["layers"][0]["weights"] = [3, 10**400]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelIOError, match="layer 0: .*not a flat list of numbers"):
        read_model(path)


# text json.load cannot parse: not UTF-8, or nested deeper than the
# parser recurses
UNREADABLE = [
    b"\xff\xfe{}",
    b'{"schema_version": 1, "name": "\xe9"}',
    b"[" * 200_000,
    b'{"a": ' * 200_000,
]


def check_layer_diagnostics(doc: dict, path: Path) -> None:
    """Layer 0 of doc has 3 filters of 3x3 kernels, over 2 or more input
    channels but not 3; each edit below must make read_model fail."""
    broken = json.loads(json.dumps(doc))
    broken["layers"][0]["weights"] = broken["layers"][0]["weights"][:-1]
    path.write_text(json.dumps(broken))
    with pytest.raises(ModelIOError, match="layer 0"):
        read_model(path)

    broken = json.loads(json.dumps(doc))
    del broken["layers"][0]["out_channels"]
    path.write_text(json.dumps(broken))
    with pytest.raises(ModelIOError, match="layer 0"):
        read_model(path)

    broken = json.loads(json.dumps(doc))
    broken["layers"][0]["activation"] = "sigmoid"
    path.write_text(json.dumps(broken))
    with pytest.raises(ModelIOError, match="layer 0"):
        read_model(path)

    broken = json.loads(json.dumps(doc))
    broken["layers"][0]["weights"][0] = None
    path.write_text(json.dumps(broken))
    with pytest.raises(ModelIOError):
        read_model(path)

    for field, value in [
        ("weights", 5),
        ("weights", ["x"] * len(doc["layers"][0]["weights"])),
        ("weights", [10**400] + doc["layers"][0]["weights"][1:]),
        ("weights", [[v] for v in doc["layers"][0]["weights"]]),
        ("weights", [[1.0, 2.0], 3.0]),
        ("out_channels", "abc"),
        ("comp", {"shape": [3, 3], "data": 5}),
        ("comp", {"shape": [3, 3], "data": [[1.0] * 3] * 3}),
        ("comp", {"shape": 3, "data": [1.0] * 9}),
    ]:
        broken = json.loads(json.dumps(doc))
        broken["layers"][0][field] = value
        path.write_text(json.dumps(broken))
        with pytest.raises(ModelIOError, match="layer 0"):
            read_model(path)

    broken = json.loads(json.dumps(doc))
    broken["input_shape"] = [3, 4, 4]
    path.write_text(json.dumps(broken))
    with pytest.raises(ModelIOError, match="declares 3 channels"):
        read_model(path)

    # shape fields are JSON integers: int() would truncate 3.9 to the right
    # count and parse "3", so these read back as a valid model if coerced
    for field, value in [
        ("out_channels", 3.9),
        ("in_channels", float(doc["layers"][0]["in_channels"])),
        ("kernel_size", "3"),
        ("comp", {"shape": [3, "3"], "data": [1.0] * 9}),
        ("comp", {"shape": [3.0, 3], "data": [1.0] * 9}),
    ]:
        broken = json.loads(json.dumps(doc))
        broken["layers"][0][field] = value
        path.write_text(json.dumps(broken))
        with pytest.raises(ModelIOError, match="layer 0: .*must be an integer"):
            read_model(path)
    for shape in ([2.7, "4", 4], [2, 4.0, 4]):
        broken = json.loads(json.dumps(doc))
        broken["input_shape"] = shape
        path.write_text(json.dumps(broken))
        with pytest.raises(ModelIOError, match="must be an integer"):
            read_model(path)
    for shape in ([2, 0, 4], [2, 4, -4]):
        broken = json.loads(json.dumps(doc))
        broken["input_shape"] = shape
        path.write_text(json.dumps(broken))
        with pytest.raises(ModelIOError, match="3 positive integers"):
            read_model(path)

    # weights are JSON numbers: NumPy would parse a numeric string and read
    # true as 1.0, alone or among floats
    weights = doc["layers"][0]["weights"]
    for field, value in [
        ("weights", [repr(v) for v in weights]),
        ("weights", [True] + weights[1:]),
        ("weights", [True] * len(weights)),
        ("weights", weights[:-1] + [False]),
        ("comp", {"shape": [3, 3], "data": [1.0] * 8 + ["1.0"]}),
        ("comp", {"shape": [3, 3], "data": [True] + [1.0] * 8}),
    ]:
        broken = json.loads(json.dumps(doc))
        broken["layers"][0][field] = value
        path.write_text(json.dumps(broken))
        with pytest.raises(ModelIOError, match="layer 0: .*not a flat list of numbers"):
            read_model(path)


def test_read_model_diagnostics(rng, tmp_path):
    path = tmp_path / "m.json"

    path.write_text("not json at all {")
    with pytest.raises(ModelIOError, match="not a model file"):
        read_model(path)
    for blob in UNREADABLE:
        path.write_bytes(blob)
        with pytest.raises(ModelIOError, match="not a model file"):
            read_model(path)

    path.write_text(json.dumps({"layers": []}))
    with pytest.raises(ModelIOError, match="schema_version"):
        read_model(path)

    for version in [0, 3, 99]:
        path.write_text(json.dumps({"schema_version": version}))
        with pytest.raises(SchemaError, match="expected 1 or 2"):
            read_model(path)

    net = rand_net(rng, [2, 3], k=3)
    write_model(net, (2, 4, 4), path)
    doc = json.loads(path.read_text())
    check_layer_diagnostics(doc, path)

    # JSON's NaN parses to a float, which enumerate would reject uncaught
    for layers in [5, float("nan"), None, "abc", {}]:
        path.write_text(json.dumps(dict(doc, layers=layers)))
        with pytest.raises(ModelIOError, match="layers must be a list"):
            read_model(path)

    # bool is an int subclass in Python, and True would pass for a 1
    one = Network([ConvLayer(rng.standard_normal((1, 1, 1, 1)))])
    write_model(one, (1, 4, 4), path)
    one_doc = json.loads(path.read_text())
    for field in ("out_channels", "in_channels", "kernel_size"):
        broken = json.loads(json.dumps(one_doc))
        broken["layers"][0][field] = True
        path.write_text(json.dumps(broken))
        with pytest.raises(ModelIOError, match="layer 0: .*must be an integer"):
            read_model(path)
    broken = json.loads(json.dumps(one_doc))
    broken["input_shape"] = [True, 4, 4]
    path.write_text(json.dumps(broken))
    with pytest.raises(ModelIOError, match="must be an integer"):
        read_model(path)

    # json's message names the line and column in the file, not in the text
    # json parses once NumPy has parsed the arrays: a file cut off right
    # after an array, and one without the comma after an array
    comp_net = Network([ConvLayer(rng.standard_normal((3, 2, 1, 1)), comp=np.eye(3))])
    write_model(comp_net, (2, 4, 4), path)
    text = path.read_text()
    weights_end = text.index("]", text.index('"weights": [')) + 1
    data_end = text.index("]", text.index('"data": [')) + 1
    assert text[data_end] == ","
    for broken in [text[:weights_end], text[:data_end] + text[data_end + 1 :]]:
        with pytest.raises(json.JSONDecodeError) as error:
            json.loads(broken)
        path.write_text(broken)
        with pytest.raises(ModelIOError) as raised:
            read_model(path)
        assert str(raised.value) == f"not a model file: {error.value}"


def test_read_model_diagnostics_on_schema1(tmp_path):
    """The float path of schema 1, on the checked-in fixture."""
    check_layer_diagnostics(json.loads(FIXTURE.read_text()), tmp_path / "m.json")


def test_read_model_rejects_broken_chain(rng, tmp_path):
    net = Network([ConvLayer(rng.standard_normal((3, 2, 1, 1)))])
    other = Network([ConvLayer(rng.standard_normal((2, 4, 1, 1)))])
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_model(net, (2, 4, 4), p1)
    write_model(other, (4, 4, 4), p2)
    doc1 = json.loads(p1.read_text())
    doc2 = json.loads(p2.read_text())
    doc1["layers"].append(doc2["layers"][0])
    p1.write_text(json.dumps(doc1))
    with pytest.raises(ModelIOError, match="chain"):
        read_model(p1)


def test_read_model_rejects_bad_comp(rng, tmp_path):
    net = Network(
        [ConvLayer(rng.standard_normal((3, 2, 1, 1)), comp=rng.standard_normal((3, 3)))]
    )
    path = tmp_path / "m.json"
    write_model(net, (2, 4, 4), path)
    doc = json.loads(path.read_text())
    doc["layers"][0]["comp"]["data"] = doc["layers"][0]["comp"]["data"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelIOError, match="comp map holds"):
        read_model(path)


# ------------------------------------------------------------------ tensors


@pytest.mark.parametrize("shape", [(3,), (2, 5), (4, 1, 3), (2, 3, 4, 5)])
def test_tensor_roundtrip(rng, tmp_path, shape):
    arr = rng.standard_normal(shape)
    path = tmp_path / "t.bin"
    write_tensor(arr, path)
    back = read_tensor(path)
    assert back.shape == arr.shape
    assert back.dtype == np.float64
    assert back.tobytes() == arr.tobytes()


def test_tensor_single_value_layout(tmp_path):
    path = tmp_path / "t.bin"
    write_tensor(np.array([3.5]), path)
    blob = path.read_bytes()
    assert len(blob) == 20
    assert blob == b"PKT1" + struct.pack("<II", 1, 1) + struct.pack("<d", 3.5)
    assert read_tensor(path).tolist() == [3.5]


def test_tensor_accepts_noncontiguous_and_ints(rng, tmp_path):
    path = tmp_path / "t.bin"
    arr = rng.standard_normal((4, 6)).T
    write_tensor(arr, path)
    np.testing.assert_array_equal(read_tensor(path), arr)
    write_tensor(np.arange(6).reshape(2, 3), path)
    got = read_tensor(path)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, np.arange(6.0).reshape(2, 3))


def test_write_tensor_rejects_rank0(tmp_path):
    with pytest.raises(TensorFormatError):
        write_tensor(np.float64(3.0), tmp_path / "t.bin")


@pytest.mark.parametrize("shape", [(0, 3), (2, 0, 4), (0,)])
def test_write_tensor_rejects_empty_dimensions(tmp_path, shape):
    # read_tensor would reject the file, so write_tensor writes none
    path = tmp_path / "t.bin"
    with pytest.raises(TensorFormatError, match=re.escape(f"empty dimensions {shape}")):
        write_tensor(np.zeros(shape), path)
    assert not path.exists()


def test_read_tensor_diagnostics(rng, tmp_path):
    path = tmp_path / "t.bin"

    path.write_bytes(b"")
    with pytest.raises(TensorFormatError, match="magic"):
        read_tensor(path)

    path.write_bytes(b"JUNK" + struct.pack("<I", 1))
    with pytest.raises(TensorFormatError, match="magic"):
        read_tensor(path)

    path.write_bytes(b"PKT1" + struct.pack("<I", 0))
    with pytest.raises(TensorFormatError, match="rank-0"):
        read_tensor(path)

    path.write_bytes(b"PKT1" + struct.pack("<I", 3) + struct.pack("<I", 2))
    with pytest.raises(TensorFormatError, match="truncated"):
        read_tensor(path)

    path.write_bytes(b"PKT1" + struct.pack("<III", 2, 2, 0))
    with pytest.raises(TensorFormatError, match="empty"):
        read_tensor(path)

    good = b"PKT1" + struct.pack("<II", 1, 2) + struct.pack("<dd", 1.0, 2.0)
    path.write_bytes(good[:-8])
    with pytest.raises(TensorFormatError, match="payload"):
        read_tensor(path)
    path.write_bytes(good + b"\x00" * 8)
    with pytest.raises(TensorFormatError, match="payload"):
        read_tensor(path)
    path.write_bytes(good + b"\x00" * 3)  # not even a whole float
    with pytest.raises(TensorFormatError, match="payload"):
        read_tensor(path)


def test_read_tensor_holds_the_payload_once(rng, tmp_path):
    """The payload is read into the array returned: no copy of the file's
    bytes, or of the array, is held beside it."""
    path = tmp_path / "t.bin"
    data = rng.standard_normal((8, 16, 64, 64))
    write_tensor(data, path)
    tracemalloc.start()
    try:
        back = read_tensor(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.dtype == np.float64 and back.flags.c_contiguous and back.flags.writeable
    assert back.tobytes() == data.tobytes()
    assert peak < 1.1 * data.nbytes, f"read_tensor peak {peak / data.nbytes:.2f}x the payload"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_readers_read_a_pipe(rng, tmp_path):
    """A pipe, as a shell's <(...) passes it, has no size: read_model and
    read_tensor read it whole and give what the regular file gives."""
    model, tensor, fifo = tmp_path / "m.json", tmp_path / "t.bin", tmp_path / "fifo"
    write_model(rand_net(rng, [2, 3], k=3), (2, 4, 4), model)
    write_tensor(rng.standard_normal((2, 2, 4, 4)), tensor)
    os.mkfifo(fifo)
    for path, outcome in [(model, model_outcome), (tensor, lambda p: read_tensor(p).tobytes())]:
        writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()))
        writer.start()
        try:
            assert outcome(fifo) == outcome(path)
        finally:
            writer.join()


def test_read_dataset_requires_rank4(rng, tmp_path):
    path = tmp_path / "d.bin"
    data = rng.standard_normal((5, 2, 4, 4))
    write_tensor(data, path)
    np.testing.assert_array_equal(read_dataset(path), data)
    write_tensor(rng.standard_normal((5, 2, 4)), path)
    with pytest.raises(TensorFormatError, match="rank 4"):
        read_dataset(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_read_dataset_rejects_non_finite(rng, tmp_path, bad):
    path = tmp_path / "d.bin"
    data = rng.standard_normal((3, 2, 4, 4))
    data[1, 0, 2, 3] = bad
    write_tensor(data, path)  # the container itself holds any float64
    np.testing.assert_array_equal(read_tensor(path), data)
    with pytest.raises(TensorFormatError, match="non-finite"):
        read_dataset(path)


# ------------------------------------------------------------------ reports


@pytest.fixture
def small_report(rng):
    net = rand_net(rng, [2, 8, 6], k=3, activation="relu")
    data = rng.standard_normal((2, 2, 4, 4))
    cfg = PruneConfig(beta=0.3, alpha=2, selector="hbgts")
    result = hbgts(net, data, cfg)
    assert len(result.rounds) >= 2
    return build_report(cfg, result, net, (2, 4, 4))


def test_report_roundtrip(small_report, tmp_path):
    path = tmp_path / "r.json"
    write_report(small_report, path)
    back = read_report(path)
    assert back == small_report


def test_report_layout(small_report, tmp_path):
    path = tmp_path / "r.json"
    write_report(small_report, path)
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
    assert doc["config"]["beta"] == 0.3
    assert doc["config"]["selector"] == "hbgts"
    assert doc["status"] == "reached"
    assert doc["before"]["params"] > doc["after"]["params"]
    # layers are 1-based on disk
    first = doc["rounds"][0]
    assert first["chosen_layer"] == small_report.rounds[0].chosen_layer + 1
    assert doc["heatmap_csv"] == heatmap_csv(small_report)
    # deterministic encoder
    path2 = tmp_path / "again.json"
    write_report(small_report, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_report_encodes_inf_as_null(rng, tmp_path):
    net = rand_net(rng, [2, 6, 6], k=3)
    data = rng.standard_normal((2, 2, 4, 4))
    cfg = PruneConfig(beta=0.4, selector="uniform")
    report = build_report(cfg, uniform_baseline(net, data, cfg), net, (2, 4, 4))
    path = tmp_path / "r.json"
    write_report(report, path)
    doc = json.loads(path.read_text())
    assert doc["rounds"][0]["errors"] == [None, None]
    assert doc["rounds"][0]["chosen_layer"] is None
    back = read_report(path)
    assert back.rounds[0].errors == (math.inf, math.inf)
    assert back.rounds[0].chosen_layer is None


def test_heatmap_csv_table(small_report):
    lines = heatmap_csv(small_report).splitlines()
    assert lines[0] == "round,layer,relative_error,pruned_percent"
    n_layers = len(small_report.before.per_layer)
    assert len(lines) == 1 + n_layers * len(small_report.rounds)
    r0 = small_report.rounds[0]
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1"
    assert float(first[2]) == pytest.approx(r0.errors[0])
    originals = [e.out_channels for e in small_report.before.per_layer]
    want_pct = round(100.0 * (1.0 - r0.retained[0] / originals[0]), 1)
    assert float(first[3]) == want_pct


def test_heatmap_csv_prints_inf(rng):
    net = rand_net(rng, [2, 6, 6], k=3)
    data = rng.standard_normal((2, 2, 4, 4))
    cfg = PruneConfig(beta=0.4, selector="uniform")
    report = build_report(cfg, uniform_baseline(net, data, cfg), net, (2, 4, 4))
    lines = heatmap_csv(report).splitlines()
    assert lines[1].split(",")[2] == "inf"


def test_read_report_diagnostics(small_report, tmp_path):
    path = tmp_path / "r.json"
    path.write_text("[1, 2")
    with pytest.raises(ModelIOError, match="not a report file"):
        read_report(path)
    for blob in UNREADABLE:
        path.write_bytes(blob)
        with pytest.raises(ModelIOError, match="not a report file"):
            read_report(path)
    path.write_text(json.dumps({"schema_version": 5}))
    with pytest.raises(SchemaError):
        read_report(path)
    for bad in [True, 1.0]:
        path.write_text(json.dumps({"schema_version": bad}))
        with pytest.raises(ModelIOError, match="schema_version must be an integer"):
            read_report(path)
    path.write_text(json.dumps({"schema_version": 1, "status": "reached"}))
    with pytest.raises(ModelIOError, match="malformed report"):
        read_report(path)
    # integer fields must be JSON integers, not values int() would coerce
    write_report(small_report, path)
    good = json.loads(path.read_text())
    for field in ["t", "chosen_layer", "retained", "forward_passes", "skipped_refs"]:
        for bad in [1.9, 2.0, "5", True]:
            doc = json.loads(json.dumps(good))
            entry = doc["rounds"][0]
            if field == "retained":
                entry["retained"][0] = bad
            else:
                entry[field] = bad
            path.write_text(json.dumps(doc))
            with pytest.raises(ModelIOError, match=f"{field}.* must be an integer"):
                read_report(path)
    # float fields: an integer beyond float64 overflows float()
    for edit in [
        lambda d: d["rounds"][0].update(errors=[10**400] + d["rounds"][0]["errors"][1:]),
        lambda d: d["rounds"][0].update(param_reduction=10**400),
        lambda d: d.update(param_drop_pct=10**400),
    ]:
        doc = json.loads(json.dumps(good))
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelIOError, match="malformed report file: int too large"):
            read_report(path)


# (where in the report document, bad value, message after "malformed report file: ")
MALFORMED_REPORT_FIELDS = [
    (("rounds", 0, "param_reduction"), "0.5", "param_reduction must be a number, got '0.5'"),
    (("rounds", 0, "param_reduction"), True, "param_reduction must be a number, got True"),
    (("rounds", 0, "param_reduction"), None, "param_reduction must be a number, got None"),
    (("rounds", 0, "errors", 0), "nan", "errors entry must be a number, got 'nan'"),
    (("rounds", 0, "errors", 0), "0.5", "errors entry must be a number, got '0.5'"),
    (("rounds", 0, "errors", 0), False, "errors entry must be a number, got False"),
    (("rounds", 0, "errors", 0), [0.5], r"errors entry must be a number, got \[0.5\]"),
    (("rounds", 0, "errors"), "123", "errors must be a list, got '123'"),
    (("rounds", 0, "errors"), {"0": 0.5}, "errors must be a list, got {'0': 0.5}"),
    (("rounds", 0, "errors"), 0.5, "errors must be a list, got 0.5"),
    (("param_drop_pct",), True, "param_drop_pct must be a number, got True"),
    (("flops_drop_pct",), "40.3", "flops_drop_pct must be a number, got '40.3'"),
    (("status",), "done", """status must be "reached" or "partial", got 'done'"""),
    (("status",), None, 'status must be "reached" or "partial", got None'),
    (("status",), ["reached"], r"""status must be "reached" or "partial", got \['reached'\]"""),
]


@pytest.mark.parametrize(
    "where, value, message",
    [
        pytest.param(*case, id=f"{'.'.join(map(str, case[0]))}={case[1]!r}")
        for case in MALFORMED_REPORT_FIELDS
    ],
)
def test_read_report_rejects_malformed_float_and_status_fields(
    small_report, tmp_path, where, value, message
):
    path = tmp_path / "r.json"
    write_edited_report(small_report, path, where, value)
    with pytest.raises(ModelIOError, match=f"^malformed report file: {message}$"):
        read_report(path)


# (where in the report document, bad value, message after "malformed report
# file: "): each would make heatmap_csv raise, or read a config that is no
# PruneConfig, if read_report let it through
MALFORMED_REPORT_SHAPES = [
    (("config",), "x", "config must be an object, got 'x'"),
    (("config", "beta"), 2.0, r"beta must be in \(0, 1\), got 2.0"),
    (("config", "budget"), 3, ".*unexpected keyword argument 'budget'"),
    (("before",), 5, "before must be an object, got 5"),
    (("after",), None, "after must be an object, got None"),
    (("before", "params"), 1.5, "before params must be an integer, got 1.5"),
    (("after", "flops"), "7", "after flops must be an integer, got '7'"),
    (("before", "per_layer"), {}, "before per_layer must be a list, got {}"),
    (("before", "per_layer", 0), 3, "before per_layer entry must be an object, got 3"),
    (("before", "per_layer", 0, "out_channels"), 0, "before per_layer out_channels must be positive, got 0"),
    (
        ("before", "per_layer", 1, "out_channels"),
        2.0,
        "before per_layer out_channels must be an integer, got 2.0",
    ),
    (("after", "per_layer", 1, "width"), True, "after per_layer width must be an integer, got True"),
    (("after", "per_layer", 1), "gone", "after per_layer entry must be an object, got 'gone'"),
    (("rounds", 0, "errors"), [0.5], r"errors holds 1 entries, expected 2 \(one per layer\)"),
    (("rounds", 1, "errors"), [None] * 3, r"errors holds 3 entries, expected 2 \(one per layer\)"),
    (("rounds", 0, "retained"), [3], r"retained holds 1 entries, expected 2 \(one per layer\)"),
    (("rounds", 0, "retained"), 3, "retained must be a list, got 3"),
]


def write_edited_report(report, path: Path, where: tuple, value) -> None:
    """report as write_report writes it, with value at where in its document."""
    write_report(report, path)
    doc = json.loads(path.read_text())
    *parents, leaf = where
    owner = doc
    for key in parents:
        owner = owner[key]
    owner[leaf] = value
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "where, value, message",
    [
        pytest.param(*case, id=f"{'.'.join(map(str, case[0]))}={case[1]!r}")
        for case in MALFORMED_REPORT_SHAPES
    ],
)
def test_read_report_rejects_malformed_stats_and_round_lengths(
    small_report, tmp_path, where, value, message
):
    assert len(small_report.before.per_layer) == 2
    path = tmp_path / "r.json"
    write_edited_report(small_report, path, where, value)
    with pytest.raises(ModelIOError, match=f"^malformed report file: {message}$"):
        read_report(path)


def test_read_report_requires_a_stats_entry_per_layer(small_report, tmp_path):
    path = tmp_path / "r.json"
    one_layer = [dataclasses.asdict(small_report.after.per_layer[0])]
    write_edited_report(small_report, path, ("after", "per_layer"), one_layer)
    message = "^malformed report file: after per_layer holds 1 layers, before 2$"
    with pytest.raises(ModelIOError, match=message):
        read_report(path)
    # a report read without an error makes its heatmap
    write_report(small_report, path)
    assert heatmap_csv(read_report(path)) == heatmap_csv(small_report)


def test_read_report_reads_json_ints_as_floats(small_report, tmp_path):
    path = tmp_path / "r.json"
    write_report(small_report, path)
    doc = json.loads(path.read_text())
    doc["status"] = "partial"
    doc["param_drop_pct"] = 40
    doc["rounds"][0]["errors"][0] = 2
    doc["rounds"][0]["param_reduction"] = 0
    path.write_text(json.dumps(doc))
    back = read_report(path)
    assert back.status == "partial"
    assert type(back.param_drop_pct) is float and back.param_drop_pct == 40.0
    assert type(back.rounds[0].errors[0]) is float and back.rounds[0].errors[0] == 2.0
    assert type(back.rounds[0].param_reduction) is float


# --------------------------------------------------------------------- fuzz


@settings(max_examples=60, deadline=None)
@given(
    arr=arrays(
        np.float64,
        array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=6),
        elements=st.floats(
            allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
        ),
    )
)
def test_tensor_roundtrip_fuzz(arr, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "t.bin"
    write_tensor(arr, path)
    back = read_tensor(path)
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    channels=st.lists(st.integers(1, 5), min_size=2, max_size=4),
    k=st.sampled_from([1, 2, 3]),
    with_comp=st.booleans(),
    # any finite float64, subnormals and -0.0 included
    specials=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
)
def test_model_roundtrip_fuzz(seed, channels, k, with_comp, specials, tmp_path_factory):
    rng = np.random.default_rng(seed)
    layers = []
    width_in = channels[0]
    for n in channels[1:]:
        comp = rng.standard_normal((n, n + 1)) if with_comp else None
        weights = rng.standard_normal((n, width_in, k, k))
        if not layers:
            weights.flat[: len(specials)] = specials[: weights.size]
            if comp is not None:
                comp.flat[: len(specials)] = specials[::-1][: comp.size]
        layers.append(
            ConvLayer(weights, comp=comp, activation="relu" if seed % 2 else "identity")
        )
        width_in = n + 1 if with_comp else n
    net = Network(layers)
    path = tmp_path_factory.mktemp("fuzz") / "m.json"
    write_model(net, (channels[0], 4, 4), path)
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 2
    back, shape = read_model(path)
    assert shape == (channels[0], 4, 4)
    for a, b, entry in zip(net.layers, back.layers, doc["layers"]):
        assert entry["weights"] == a.weights.ravel().view(np.int64).tolist()
        assert a.weights.tobytes() == b.weights.tobytes()
        if a.comp is None:
            assert b.comp is None
        else:
            assert a.comp.tobytes() == b.comp.tobytes()
