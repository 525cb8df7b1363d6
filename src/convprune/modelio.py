"""On-disk formats: models (structured text), tensors (binary), prune reports.

Models are JSON, so their metadata stays readable and diffable.  Schema 2
stores each weight and comp array as a flat row-major list of integers on
one line: the little-endian bit pattern of each float64 value read as an
int64, so every value round-trips exactly and no float is formatted or
parsed as text.  A reader whose JSON numbers are doubles (JavaScript's, for
one) must parse these values as 64-bit integers.  The writer encodes each
array a block of at most _CHUNK values at a time, with NumPy: it splits
each value's magnitude into a head and four 4-digit groups, looks each
group up in a 10,000-entry table of 4-byte ASCII words, and deletes the NUL
padding with one bytes.translate.  It writes the bytes json.dumps writes
for the ints, but makes no Python int per weight.  Everything else is one
json.dumps(doc, sort_keys=True, indent=1) of the model.  The reader reads
the file in blocks of at most 1 MiB.  Where every "weights" and "data"
array is in that one-line layout, it parses each with np.fromstring, a
piece cut at a comma at a time, so it neither holds the file's bytes whole
nor makes a Python number per value; json parses the rest of the file,
with a slot string in each array's place.  Any other
file (schema 1's lists of floats, a re-indented or spaced list, "-0" or a
leading zero, an int beyond int64 or at its limits, a backslash anywhere,
text that is not UTF-8 JSON) is read whole and parsed by json, which turns
each array into an int64 array (a list of integers) or a float64 array
(any float among them) as soon as it has built its object, so the Python
numbers of at most one array exist at a time.  Both paths accept the same
files, with the same values and the same errors.
Tensors use a small binary container: magic "PKT1", little-endian u32 rank,
u32 dims, then the float64 payload in row-major order, which the reader
reads straight into its array.  Reports echo the run configuration, every
committed round, and the per-round heatmap table as embedded CSV; the
encoder is deterministic (sorted keys, no timestamps) so identical runs
produce byte-identical files.  Models and reports have "\n" line ends on
every platform.  A report holds the run's own PruneConfig, ModelStats and
PruneRounds.  Its reader checks each field's type, rebuilds the config
through PruneConfig, and checks that each round has one errors and one
retained entry per layer.
"""
from __future__ import annotations

import dataclasses
import io
import json
import math
import numbers
import os
import re
import stat
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .metrics import LayerStats, ModelStats, count_stats, reduction_report
from .nets import ConvLayer, DimensionError, Network
from .search import PruneConfig, PruneResult, PruneRound

MODEL_SCHEMA_VERSION = 2
REPORT_SCHEMA_VERSION = 1
TENSOR_MAGIC = b"PKT1"
_U32_MAX = 2**32 - 1
# write_model streams every array _CHUNK values at a time, or fewer.  In
# the document json formats, an array is a string: _ARRAY_SLOT and its index.
_CHUNK = 4096
_ARRAY_SLOT = "\0array"
_SLOT_TEXT = re.compile(r'"\\u0000array(\d+)"')
# _encode_bits splits a magnitude with these divisors (typed scalars, which
# NumPy divides by fast), and writes it as words of 4 ASCII bytes
_E16, _E8, _E4 = np.uint64(10**16), np.uint64(10**8), np.uint32(10**4)
_MINUS, _COMMA, _ZERO = np.frombuffer(b"-\0\0\0" b",\0\0\0" b"0\0\0\0", np.uint32)


def _group_words(leading_zero: int) -> np.ndarray:
    """The word of each group 0 to 9999: its 4 decimal digits, with the
    byte leading_zero in place of each leading zero ("0" is all four)."""
    values = np.arange(10**4)[:, None]
    places = 10 ** np.arange(3, -1, -1)
    text = np.where(values < places, leading_zero, values // places % 10 + ord("0"))
    return text.astype(np.uint8).view(np.uint32).ravel()


_DIGITS = _group_words(ord("0"))
_LEADING = _group_words(0)
# read_model reads a model file _TEXT_CHUNK bytes at a time, and puts a
# slot, as json.dumps writes it, in place of each array after _ARRAY_KEY
# that it parses itself.  A key cut by a block's end lies in its last
# _KEY_TAIL bytes; no int64 that _parse_bits reads is longer than _VALUE_MAX
_TEXT_CHUNK = 2**20
_SLOT_JSON = b'"\\u0000array%d"'
_ARRAY_KEY = re.compile(rb'"(?:weights|data)": \[')
_KEY_TAIL = len(b'"weights": [') - 1
_INT64 = np.iinfo(np.int64)
_VALUE_MAX = len(str(_INT64.min + 1))
# 10 ... 10**18: a nonzero int64 magnitude has 1 + (how many are <= it) digits
_POWERS_OF_10 = 10 ** np.arange(1, 19, dtype=np.int64)


class ModelIOError(ValueError):
    """Anything wrong with a model, tensor, or report file."""


class SchemaError(ModelIOError):
    """File declares a schema version this code does not understand."""


class TensorFormatError(ModelIOError):
    """Malformed binary tensor container."""


# --------------------------------------------------------------------------
# models


def _layer_to_json(layer: ConvLayer, arrays: list[np.ndarray]) -> dict:
    """A layer entry in which each array is a slot string (see write_model)."""

    def slot(arr: np.ndarray, what: str) -> str:
        if not np.all(np.isfinite(arr)):
            raise ModelIOError(f"layer {what} contains non-finite values")
        arrays.append(arr)
        return f"{_ARRAY_SLOT}{len(arrays) - 1}"

    entry = {
        "in_channels": layer.in_channels,
        "out_channels": layer.out_channels,
        "kernel_size": layer.kernel_size,
        "activation": layer.activation,
        "weights": slot(layer.weights, "weight list"),
        "comp": None,
    }
    if layer.comp is not None:
        entry["comp"] = {
            "shape": list(layer.comp.shape),
            "data": slot(layer.comp, "comp map"),
        }
    return entry


def _blocks(arr: np.ndarray):
    """arr's values in row-major order, as contiguous "<f8" blocks of at
    most _CHUNK values.

    A block is whole rows of arr's leading axis (of a row's leading axis,
    if a row is longer), so a strided view is copied with one strided copy
    per block.
    """
    row = max(math.prod(arr.shape[1:]), 1)
    if row > _CHUNK:
        for sub in arr:
            yield from _blocks(sub)
        return
    step = _CHUNK // row
    for start in range(0, len(arr), step):
        yield np.ascontiguousarray(arr[start : start + step], dtype="<f8").reshape(-1)


def _encode_bits(block: np.ndarray) -> bytes:
    """The int64 bit pattern of each value of block, a contiguous "<f8"
    array, in decimal ASCII as str() writes it, and a comma after each.

    Each value is laid out as 6 words of 4 bytes, where a NUL fills each
    unused byte: its sign and head, four 4-digit groups, and a comma; one
    translate deletes the NULs.  A magnitude is at most 2**63 < 10**19, so
    its head (its digits above 10**16) is below 10**3, and the first byte
    of the head's word is free for the sign.
    """
    bits = block.view("<i8")
    # INT64_MIN (the bits of -0.0) has no int64 magnitude: abs wraps it to
    # itself, which is 2**63 as uint64
    magnitude = np.abs(bits).view(np.uint64)
    head = magnitude // _E16
    rest = magnitude - head * _E16
    high = rest // _E8
    halves = np.empty((bits.size, 2), np.uint32)
    halves[:, 0] = high
    halves[:, 1] = rest - high * _E8
    groups = np.empty((bits.size, 4), np.uint32)
    groups[:, 0::2] = halves // _E4
    groups[:, 1::2] = halves - groups[:, 0::2] * _E4
    words = np.empty((bits.size, 6), np.uint32)
    words[:, 0] = _LEADING.take(head) | (bits < 0) * _MINUS
    words[:, 1:5] = _DIGITS.take(groups)
    words[:, 5] = _COMMA
    small = np.flatnonzero(head == 0)
    if small.size:
        # below 10**16 (zeros and subnormals), the groups up to the first
        # nonzero one have no leading zeros, and 0 is "0"
        groups = groups[small]
        zeros = np.logical_and.accumulate(groups == 0, axis=1)
        leading = np.ones_like(zeros)
        leading[:, 1:] = zeros[:, :-1]
        digits = np.where(leading, _LEADING.take(groups), _DIGITS.take(groups))
        digits[zeros[:, -1], -1] = _ZERO
        words[small, 1:5] = digits
    return words.tobytes().translate(None, b"\0")


def _write_bits(fh, arr: np.ndarray) -> None:
    """arr's values in row-major order, as the one-line JSON list of their
    int64 bit patterns that json.dumps(ints, separators=(",", ":")) writes,
    to the binary file fh.

    It encodes a block of _CHUNK values or fewer at a time with NumPy table
    lookups, and makes no Python int per value.
    """
    fh.write(b"[")
    text = b""
    for block in _blocks(arr):
        fh.write(text)
        text = _encode_bits(block)
    fh.write(text[:-1] + b"]")


def _arrays_hook(obj: dict) -> dict:
    """json object_hook: a layer's weights and a comp map's data list, as a
    flat int64 array if every value is a JSON integer within int64, else as
    a flat float64 array if every value is a JSON number.

    It runs as soon as each object has been parsed, so the Python numbers
    of one array are freed before the next array is parsed.  A list it
    cannot convert stays a list, for _float_array to reject.
    """
    for key in ("weights", "data"):
        values = obj.get(key)
        if type(values) is not list:
            continue
        # the value types, checked in C with no bytecode per value: the
        # dtype NumPy infers for [0.5, true] is float64, which hides the bool
        if {int}.issuperset(map(type, values)):
            try:
                obj[key] = np.asarray(values, dtype=np.int64)
                continue
            except OverflowError:  # an int beyond int64
                pass
        if {float, int}.issuperset(map(type, values)):
            try:
                obj[key] = np.asarray(values, dtype=np.float64)
            except OverflowError:  # an int beyond float64
                pass
    return obj


def _parse_bits(text: bytes) -> np.ndarray | None:
    """The int64 values whose ",".join(map(str, values)) is text, as
    _write_bits writes them between the brackets; None for other text.

    np.fromstring parses them in one call.  It also reads other text: a
    leading zero, "-0", a bare "-" (as 0), a trailing comma, an int beyond
    int64 (as an int64 limit), and text it stops reading before its end.
    So the text must hold only digits, commas and minus signs, no value may
    be a limit, and the text must be as long as the values' canonical text:
    what fromstring reads as any other value is longer than the value's
    text, and what it does not read is left over.  A bare "-" is as long
    as "0", and is ruled out on its own.
    """
    if text.translate(None, b"0123456789,-"):
        return None
    with warnings.catch_warnings():
        # text that fromstring cannot read to its end raises in current
        # NumPy; older NumPy warns and returns the values before it
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            values = np.fromstring(text, dtype=np.int64, sep=",")
        except ValueError:
            return None
    if values.size == 0 or values.min() == _INT64.min or values.max() == _INT64.max:
        return None
    # the commas and minus signs, then the digits, _CHUNK values at a time
    length = values.size - 1 + np.count_nonzero(values < 0)
    for i in range(0, values.size, _CHUNK):
        magnitudes = np.abs(values[i : i + _CHUNK])
        length += magnitudes.size + np.searchsorted(_POWERS_OF_10, magnitudes, "right").sum()
    if length != len(text):
        return None
    if not values.all() and (b"-," in text or text.endswith(b"-")):
        return None
    return values


def _split_model(fh) -> tuple[bytes, list[np.ndarray]] | None:
    """The model file fh, read _TEXT_CHUNK bytes at a time, as a skeleton
    (its text with a slot string in place of each "weights" and "data"
    array that follows its key, a colon and a space) and those arrays in
    slot order; None if the file holds a backslash or such an array that
    _parse_bits does not read, or ends inside one.

    Without a backslash, every quote delimits a string, and no string of
    the file can equal a slot, which is written with an escape.  An array
    found after its key and colon is then a value wherever json reads on to
    it, so json accepts the skeleton exactly when it accepts the file, and
    gives the same objects but for a slot in place of each array.

    An array is parsed in pieces, each cut at the last comma read so far:
    its text is canonical exactly when each piece is.  What is left after
    a cut is the start of one value, and no canonical value is longer
    than _VALUE_MAX bytes, so the text held between blocks stays short.
    """
    info = os.fstat(fh.fileno())
    if not stat.S_ISREG(info.st_mode):  # a pipe has no size to read up to
        return None
    left = info.st_size
    skeleton: list[bytes] = []
    arrays: list[np.ndarray] = []
    pieces = None  # the parsed pieces of the array being read
    text, at = b"", 0  # what was read, and how much of it is placed
    while left > 0:
        block = fh.read(min(_TEXT_CHUNK, left))
        if not block or b"\\" in block:
            return None
        left -= len(block)
        # the block is held once: as text, with what is left of the last
        text, at = text[at:] + block, 0
        del block
        while True:
            if pieces is None:
                key = _ARRAY_KEY.search(text, at)
                if key is None:
                    # a key cut by the block's end is found after the next
                    keep = max(at, len(text) - _KEY_TAIL)
                    skeleton.append(text[at:keep])
                    at = keep
                    break
                skeleton.append(text[at : key.end() - 1])
                at, pieces = key.end(), []
            end = text.find(b"]", at)
            cut = end if end >= 0 else text.rfind(b",", at)
            if cut >= 0:
                values = _parse_bits(text[at:cut])
                if values is None:
                    return None
                pieces.append(values)
                at = cut + 1
            if end < 0:
                if len(text) - at > _VALUE_MAX:
                    return None
                break
            skeleton.append(_SLOT_JSON % len(arrays))
            arrays.append(np.concatenate(pieces))
            pieces = None
    if pieces is not None:
        return None
    skeleton.append(text[at:])
    return b"".join(skeleton), arrays


def _float_array(values, shape: tuple[int, ...], what: str, schema: int) -> np.ndarray:
    """A flat array from _arrays_hook, checked and given its shape.

    Schema 2 takes only an int64 array and reads it as bit patterns; schema
    1 takes either array and converts its values.  Anything else was a list
    holding a value that is not a JSON number (an error, as in the shape
    fields, although NumPy would convert a numeric string or a bool), or no
    list at all.
    """
    if not isinstance(values, np.ndarray):
        raise ModelIOError(f"{what} is not a flat list of numbers")
    if schema == 1:
        values = values.astype(np.float64, copy=False)
    elif values.dtype != np.int64:
        raise ModelIOError(f"{what} holds a value that is not an int64 bit pattern")
    else:
        values = values.view(np.float64)
    expected = math.prod(shape)
    if values.size != expected:
        raise ModelIOError(f"{what} holds {values.size} values, expected {expected}")
    if not np.all(np.isfinite(values)):
        raise ModelIOError(f"{what} contains non-finite values")
    return values.reshape(shape)


def _int_field(value, what: str) -> int:
    """An integer (a JSON one, when read); a float, a numeric string or a
    bool is an error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ModelIOError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _float_field(value, what: str) -> float:
    """A number (a JSON int or float, when read); a string or a bool is an
    error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ModelIOError(f"{what} must be a number, got {value!r}")
    return float(value)


def _check_schema(value, supported: tuple[int, ...], kind: str) -> int:
    """A schema_version is a JSON integer (true and 1.0 equal 1 in Python)."""
    version = _int_field(value, "schema_version")
    if version not in supported:
        expected = " or ".join(map(str, supported))
        raise SchemaError(f"{kind} schema {value} unsupported (expected {expected})")
    return version


def _layer_from_json(entry: dict, index: int, schema: int) -> ConvLayer:
    try:
        n = _int_field(entry["out_channels"], "out_channels")
        m = _int_field(entry["in_channels"], "in_channels")
        k = _int_field(entry["kernel_size"], "kernel_size")
        activation = entry["activation"]
        weights = _float_array(entry["weights"], (n, m, k, k), "weight list", schema)
        comp_entry = entry.get("comp")
        comp = None
        if comp_entry is not None:
            rows, cols = (_int_field(v, "comp shape entry") for v in comp_entry["shape"])
            comp = _float_array(comp_entry["data"], (rows, cols), "comp map", schema)
        return ConvLayer(weights=weights, comp=comp, activation=activation)
    except ModelIOError as exc:
        raise ModelIOError(f"layer {index}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelIOError(f"layer {index}: missing or malformed field ({exc})") from None


def _check_input_shape(shape: tuple) -> None:
    if len(shape) != 3 or min(shape) < 1:
        raise ModelIOError(f"input_shape must be 3 positive integers, got {shape}")


def write_model(net: Network, input_shape: tuple[int, int, int], path) -> None:
    shape = tuple(_int_field(v, "input_shape entry") for v in input_shape)
    _check_input_shape(shape)
    m0, h, w = shape
    if m0 != net.in_channels:
        raise ModelIOError(
            f"input shape declares {m0} channels, network expects {net.in_channels}"
        )
    arrays: list[np.ndarray] = []
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "input_shape": [m0, h, w],
        "layers": [_layer_to_json(layer, arrays) for layer in net.layers],
    }
    # json formats everything but the arrays; each slot's list goes where
    # json put its string
    pieces = _SLOT_TEXT.split(json.dumps(doc, sort_keys=True, indent=1))
    with open(path, "wb") as fh:
        for text, index in zip(pieces[::2], pieces[1::2]):
            fh.write(text.encode("utf-8"))
            _write_bits(fh, arrays[int(index)])
        fh.write((pieces[-1] + "\n").encode("utf-8"))


def _parse_json(raw: bytes, kind: str, object_hook=None):
    """raw parsed as json.load parses the file opened as UTF-8 text; text
    that is not JSON, not UTF-8, or nested too deeply for the parser is a
    ModelIOError."""
    try:
        with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8") as fh:
            return json.load(fh, object_hook=object_hook)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ModelIOError(f"not a {kind} file: {exc}") from None


def _load_model(path):
    """The parsed model file, with its "weights" and "data" arrays made by
    _split_model or _arrays_hook."""
    with open(path, "rb") as fh:
        split = _split_model(fh)
        if split is not None:
            skeleton, arrays = split

            def hook(obj: dict) -> dict:
                for key in ("weights", "data"):
                    value = obj.get(key)
                    if type(value) is str and value.startswith(_ARRAY_SLOT):
                        obj[key] = arrays[int(value[len(_ARRAY_SLOT) :])]
                return _arrays_hook(obj)

            try:
                return json.loads(skeleton.decode("utf-8"), object_hook=hook)
            except (json.JSONDecodeError, UnicodeDecodeError, RecursionError):
                # the file is not UTF-8 JSON: json reports it below with the
                # file's positions, not the skeleton's
                pass
        if fh.seekable():  # a pipe, which _split_model left unread, is not
            fh.seek(0)
        raw = fh.read()
    return _parse_json(raw, "model", object_hook=_arrays_hook)


def read_model(path) -> tuple[Network, tuple[int, int, int]]:
    doc = _load_model(path)
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise ModelIOError("not a model file: no schema_version")
    schema = _check_schema(doc["schema_version"], (1, MODEL_SCHEMA_VERSION), "model")
    try:
        shape = tuple(_int_field(v, "input_shape entry") for v in doc["input_shape"])
        entries = doc["layers"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelIOError(f"malformed model file: {exc}") from None
    _check_input_shape(shape)
    if not isinstance(entries, list):
        raise ModelIOError(f"malformed model file: layers must be a list, got {type(entries).__name__}")
    layers = [_layer_from_json(entry, i, schema) for i, entry in enumerate(entries)]
    try:
        net = Network(layers)
    except DimensionError as exc:
        raise ModelIOError(f"incompatible layer chain: {exc}") from None
    if net.in_channels != shape[0]:
        raise ModelIOError(
            f"input_shape declares {shape[0]} channels, network expects "
            f"{net.in_channels}"
        )
    return net, shape


# --------------------------------------------------------------------------
# tensors


def write_tensor(arr: np.ndarray, path) -> None:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 0:
        raise TensorFormatError("rank-0 tensors are not supported")
    if arr.size == 0:
        raise TensorFormatError(f"empty dimensions {arr.shape}")  # as read_tensor says
    if any(d > _U32_MAX for d in arr.shape) or arr.ndim > _U32_MAX:
        raise TensorFormatError(f"dimensions {arr.shape} overflow the container")
    header = struct.pack("<4sI", TENSOR_MAGIC, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}I", *arr.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(dims)
        fh.write(np.ascontiguousarray(arr).astype("<f8").tobytes())


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            return _read_tensor(fh, info.st_size)
        blob = fh.read()  # a pipe's size is known once it is read
    return _read_tensor(io.BytesIO(blob), len(blob))


def _read_tensor(fh, size: int) -> np.ndarray:
    """The tensor in fh, a file of size bytes.  The header is checked
    against the size before the payload is read, straight into the array
    returned."""
    head = fh.read(8)
    if len(head) < 8 or head[:4] != TENSOR_MAGIC:
        raise TensorFormatError("bad magic: not a tensor file")
    (rank,) = struct.unpack_from("<I", head, 4)
    if rank == 0:
        raise TensorFormatError("rank-0 tensors are not supported")
    if size < 8 + 4 * rank:
        raise TensorFormatError("truncated tensor header")
    dims = struct.unpack(f"<{rank}I", fh.read(4 * rank))
    count = math.prod(dims)
    if count == 0:
        raise TensorFormatError(f"empty dimensions {dims}")
    payload = size - 8 - 4 * rank
    if count * 8 != payload:
        raise TensorFormatError(
            f"payload holds {payload // 8} values, dims {dims} require {count}"
        )
    data = np.empty(dims, dtype="<f8")
    if fh.readinto(data) != payload:
        raise TensorFormatError("truncated tensor payload")
    return data.astype(np.float64, copy=False)


def read_dataset(path) -> np.ndarray:
    """A dataset file is a rank-4 tensor (examples, channels, H, W) of finite values."""
    data = read_tensor(path)
    if data.ndim != 4:
        raise TensorFormatError(
            f"dataset tensor must have rank 4, got rank {data.ndim}"
        )
    if not np.all(np.isfinite(data)):
        raise TensorFormatError("dataset tensor contains non-finite values")
    return data


# --------------------------------------------------------------------------
# prune reports


@dataclass(frozen=True)
class PruneReport:
    config: PruneConfig
    status: str
    rounds: tuple[PruneRound, ...]
    before: ModelStats
    after: ModelStats
    param_drop_pct: float
    flops_drop_pct: float


def build_report(
    cfg: PruneConfig,
    result: PruneResult,
    original: Network,
    input_shape: tuple[int, int, int],
) -> PruneReport:
    before = count_stats(original, input_shape)
    after = count_stats(result.network, input_shape)
    drops = reduction_report(before, after)
    return PruneReport(
        config=cfg,
        status=result.status,
        rounds=result.rounds,
        before=before,
        after=after,
        param_drop_pct=drops.param_drop_pct,
        flops_drop_pct=drops.flops_drop_pct,
    )


def _encode_error(e: float):
    return None if math.isinf(e) else float(e)


def _round_to_json(r: PruneRound) -> dict:
    return {
        "t": r.t,
        "errors": [_encode_error(e) for e in r.errors],
        "chosen_layer": None if r.chosen_layer is None else r.chosen_layer + 1,
        "retained": list(r.retained),
        "param_reduction": r.param_reduction,
        "forward_passes": r.forward_passes,
        "skipped_refs": r.skipped_refs,
    }


def _round_from_json(entry: dict, layers: int) -> PruneRound:
    chosen, errors, retained = entry["chosen_layer"], entry["errors"], entry["retained"]
    for name, values in [("errors", errors), ("retained", retained)]:
        if not isinstance(values, list):
            raise ModelIOError(f"{name} must be a list, got {values!r}")
        if len(values) != layers:
            raise ModelIOError(
                f"{name} holds {len(values)} entries, expected {layers} (one per layer)"
            )
    return PruneRound(
        t=_int_field(entry["t"], "t"),
        errors=tuple(math.inf if e is None else _float_field(e, "errors entry") for e in errors),
        chosen_layer=None if chosen is None else _int_field(chosen, "chosen_layer") - 1,
        retained=tuple(_int_field(v, "retained entry") for v in retained),
        param_reduction=_float_field(entry["param_reduction"], "param_reduction"),
        forward_passes=_int_field(entry["forward_passes"], "forward_passes"),
        skipped_refs=_int_field(entry["skipped_refs"], "skipped_refs"),
    )


def _stats_from_json(stats, what: str) -> ModelStats:
    """A ModelStats from a before or after entry: integer params and flops,
    and per_layer entries with integer fields, out_channels >= 1."""
    if not isinstance(stats, dict):
        raise ModelIOError(f"{what} must be an object, got {stats!r}")
    params = _int_field(stats["params"], f"{what} params")
    flops = _int_field(stats["flops"], f"{what} flops")
    per_layer = stats["per_layer"]
    if not isinstance(per_layer, list):
        raise ModelIOError(f"{what} per_layer must be a list, got {per_layer!r}")
    layers = []
    for entry in per_layer:
        if not isinstance(entry, dict):
            raise ModelIOError(f"{what} per_layer entry must be an object, got {entry!r}")
        values = {
            f.name: _int_field(entry[f.name], f"{what} per_layer {f.name}")
            for f in dataclasses.fields(LayerStats)
        }
        if values["out_channels"] < 1:
            raise ModelIOError(
                f"{what} per_layer out_channels must be positive, got {values['out_channels']}"
            )
        layers.append(LayerStats(**values))
    return ModelStats(params, flops, tuple(layers))


def heatmap_csv(report: PruneReport) -> str:
    """Per-round, per-layer table: relative error and cumulative pruned %.

    Layers are numbered from 1; rows are sorted by (round, layer).  Layers
    without a finite error that round print "inf".
    """
    originals = [layer.out_channels for layer in report.before.per_layer]
    lines = ["round,layer,relative_error,pruned_percent"]
    for r in sorted(report.rounds, key=lambda r: r.t):
        for c, n0 in enumerate(originals):
            err = "inf" if math.isinf(r.errors[c]) else repr(float(r.errors[c]))
            pct = round(100.0 * (1.0 - r.retained[c] / n0), 1)
            lines.append(f"{r.t},{c + 1},{err},{pct}")
    return "\n".join(lines) + "\n"


def write_report(report: PruneReport, path) -> None:
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": dataclasses.asdict(report.config),
        "status": report.status,
        "rounds": [_round_to_json(r) for r in report.rounds],
        "before": dataclasses.asdict(report.before),
        "after": dataclasses.asdict(report.after),
        "param_drop_pct": report.param_drop_pct,
        "flops_drop_pct": report.flops_drop_pct,
        "heatmap_csv": heatmap_csv(report),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_report(path) -> PruneReport:
    with open(path, "rb") as fh:
        doc = _parse_json(fh.read(), "report")
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise ModelIOError("not a report file: no schema_version")
    _check_schema(doc["schema_version"], (REPORT_SCHEMA_VERSION,), "report")
    try:
        config, status = doc["config"], doc["status"]
        if not isinstance(config, dict):
            raise ModelIOError(f"config must be an object, got {config!r}")
        if status not in ("reached", "partial"):
            raise ModelIOError(f'status must be "reached" or "partial", got {status!r}')
        cfg = PruneConfig(**config)
        before = _stats_from_json(doc["before"], "before")
        after = _stats_from_json(doc["after"], "after")
        layers = len(before.per_layer)
        if len(after.per_layer) != layers:
            raise ModelIOError(
                f"after per_layer holds {len(after.per_layer)} layers, before {layers}"
            )
        return PruneReport(
            config=cfg,
            status=status,
            rounds=tuple(_round_from_json(r, layers) for r in doc["rounds"]),
            before=before,
            after=after,
            param_drop_pct=_float_field(doc["param_drop_pct"], "param_drop_pct"),
            flops_drop_pct=_float_field(doc["flops_drop_pct"], "flops_drop_pct"),
        )
    # OverflowError: an integer beyond float64 where a float belongs
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelIOError(f"malformed report file: {exc}") from None
