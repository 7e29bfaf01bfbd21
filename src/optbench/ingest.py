"""File formats: every output file, the dataset CSV and model files.

`write_file` is the only code in the package that writes a file. It
writes to a temporary file in the target's directory and moves it onto
the target with `os.replace`, so a failed or interrupted write leaves
the target as it was (or absent), never half-written. `write_rows` is
the one CSV cell rule of the small result tables: None is an empty
cell, a float its repr, anything else str().

The quote CSV holds one quote table (see `core`): a header of the 28
QUOTE_COLUMNS, then one line per row. option_type is written as C or P,
every float with repr() so it round-trips bit-exactly, and an unknown
(NaN) implied_vol as an empty cell. Most cells repeat: every quote of a
chain carries the same 25 terms (its segment), so the writer formats
each distinct segment and strike once, keeping each text until the
write ends (so at most one per distinct segment and strike written),
and writes a row as
`code,strike,segment,midpoint`. Every write takes row positions
(`rows=`, all rows when none are given) and writes those rows of the
table, in that order, one chunk at a time, so a part of a table is
written without a copy of the part.

Next to the CSV the writer leaves its binary twin: the table the text
parses to, as a float64 `.npy` array named `.<csv name>.<sha256>.npy`
after the sha256 of the CSV's bytes (`twin=False` leaves none, for a
CSV that no command reads back). `read_csv` returns the table and the
CSV's digest from one call. It hashes the CSV in one streamed pass,
without holding it, and loads the twin of that digest if there is one;
otherwise, and with one warning if that twin is not the `.npy` file of
a 28-column float64 table, it streams the text a second time, a line at
a time, hashing what it parses. So an edited, appended-to or
copied-alone CSV reads its text, and a twin is safe to delete.

Parsing decodes each line on its own and tolerates up to 1% malformed
data rows (skipped with a warning, each naming its 1-based line number),
a line that is not UTF-8 included; beyond that it aborts. It parses a
line's terms only when their text differs from the last good line's,
and packs each good row onto one growing buffer that becomes the table.

Model files are an 8-byte magic prefix plus one JSON document:

    {"format_version": 1, "kind": ..., "manifest": {...}, "model": {...}}

The magic distinguishes tree ensembles from networks before parsing,
and `load_model` returns the model and its manifest from one read. File
bytes are a pure function of the model and manifest passed in;
nothing time- or machine-dependent is written, so retraining with the
same inputs reproduces the file byte for byte.
"""

from __future__ import annotations

import glob
import hashlib
import io
import itertools
import json
import logging
import math
import os
import struct
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .core import (
    QUOTE_COLUMNS,
    QUOTE_WIDTH,
    TERM_RULES,
    OptionType,
    check_fields,
    check_positions,
    check_width,
)
from .errors import CsvRowError, IncompatibleModelError, SchemaError, ValidationError
from .gbdt import RoundRecord, Tree, TreeEnsemble
from .mlp import Architecture, FeatureStats, LayerSpec, NetworkParams

logger = logging.getLogger(__name__)

MAX_BAD_ROW_FRACTION = 0.01

MAGIC_TREES = b"OBTREE1\n"
MAGIC_NET = b"OBNET01\n"
FORMAT_VERSION = 1


_TYPE_CODES = {t.flag: t.value for t in OptionType}  # 1.0: "C", 0.0: "P"
_TYPE_FLAGS = {t.value: t.flag for t in OptionType}
_VOL = QUOTE_COLUMNS.index("implied_vol")
_STRIKE = QUOTE_COLUMNS.index("strike")
_MIDPOINT = QUOTE_COLUMNS.index("midpoint")
# The cells between strike and midpoint are the terms every quote of a
# chain repeats: spot, rate, yield, maturity, implied vol and the lags.
_TERMS = slice(_STRIKE + 1, _MIDPOINT)
_WRITE_CHUNK = 2048  # rows formatted at a time, to bound memory
_ROW = struct.Struct(f"{QUOTE_WIDTH}d")  # one table row of doubles
_HASH_BLOCK = 1 << 20  # bytes read at a time to hash a CSV
# A tree's arrays and their dtypes; a model file holds each as a list, one number per node
_TREE_ARRAYS = {"feature": np.int32, "threshold": np.float64, "left": np.int32,
                "right": np.int32, "value": np.float64}


def write_file(path: str | Path, chunks: Iterable[bytes]) -> Path:
    """Write `chunks` to `path` atomically: a temporary file, then os.replace.

    On any exception the temporary file is removed and the exception
    re-raised, so `path` keeps its old content or stays absent. The
    temporary file is opened plainly, so the output's permissions follow
    the umask.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # np.float64 would repr as "np.float64(...)"
    return str(value)


def write_rows(path: str | Path, header: Iterable[str], rows: Iterable) -> Path:
    """A CSV of `rows` under `header`, every cell by the one cell rule."""
    lines = (",".join(map(_cell, row)) + "\n" for row in (header, *rows))
    return write_file(path, (line.encode("utf-8") for line in lines))


def write_csv(quotes, path: str | Path, *, twin: bool = True, rows=None) -> Path:
    """Write a quote table in the canonical 28-column layout, and its twin.

    `rows`, integer positions into the table (the rule of
    `core.check_positions`; all rows when None), are written in that
    order: the same bytes, twin included, as writing `quotes[rows]`, but
    read from the table one write chunk at a time, so no copy of the
    selection is made. The option-type check covers the written rows
    only. A refused `rows` writes nothing.

    The twin is keyed by the sha256 of the CSV bytes as they are
    written; twins of earlier contents of the same path are removed, and
    with `twin=False` no new one is written. A twin that cannot be
    written is only logged: the CSV still reads.
    """
    table = check_width(quotes, QUOTE_WIDTH, "quotes")
    rows = check_positions(np.arange(len(table)) if rows is None else rows, len(table), "rows")
    check_fields(TERM_RULES, option_type=table[rows, 0])
    digest = hashlib.sha256()
    chunks = _csv_chunks(table, rows)
    path = write_file(path, _hashed(chunks, digest) if twin else chunks)
    own = _twin_path(path, digest.hexdigest()) if twin else None
    any_twin = glob.escape(f".{path.name}.") + "[0-9a-f]" * 64 + ".npy"
    try:
        for old in path.parent.glob(any_twin):
            if old != own:
                old.unlink(missing_ok=True)
        if own is not None:
            write_file(own, _twin_chunks(table, rows))
    except OSError as exc:
        logger.warning("%s: binary twin not written (%s); reads will parse the text", path, exc)
    return path


def _hashed(chunks: Iterable[bytes], digest) -> Iterable[bytes]:
    for chunk in chunks:
        digest.update(chunk)
        yield chunk


def _segment_texts(values: np.ndarray) -> list[str]:
    """Each row of terms as CSV cells: repr() of each distinct float (by
    bit pattern, so -0.0 and 0.0 keep their own text) formatted once, and
    an empty cell for a NaN implied vol."""
    keys, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    texts = np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype=object)
    cells = texts[inverse.reshape(values.shape)]
    cells[np.isnan(values[:, _VOL - _TERMS.start]), _VOL - _TERMS.start] = ""
    return list(map(",".join, cells.tolist()))


def _strike_texts(values: np.ndarray) -> list[str]:
    return list(map(repr, values[:, 0].tolist()))


def _cached_texts(cells: np.ndarray, cache: dict[bytes, str], make) -> list[str]:
    """The text of each row of `cells`. `make` formats the rows whose bit
    patterns `cache` lacks, and they are added."""
    row = np.dtype((np.void, cells.shape[1] * cells.itemsize))
    keys = np.ascontiguousarray(cells).view(row).ravel().tolist()
    new = list(dict.fromkeys(key for key in keys if key not in cache))
    if new:
        values = np.frombuffer(b"".join(new), dtype=np.float64).reshape(len(new), -1)
        cache.update(zip(new, make(values)))
    return [cache[key] for key in keys]


def _row_chunks(table: np.ndarray, rows: np.ndarray) -> Iterable[np.ndarray]:
    """The table's rows at each _WRITE_CHUNK run of `rows`, copied one run at a time."""
    for start in range(0, len(rows), _WRITE_CHUNK):
        yield table[rows[start : start + _WRITE_CHUNK]]


def _csv_chunks(table: np.ndarray, rows: np.ndarray) -> Iterable[bytes]:
    yield (",".join(QUOTE_COLUMNS) + "\n").encode("utf-8")
    segments: dict[bytes, str] = {}  # the bits of a row's terms -> their text
    strikes: dict[bytes, str] = {}
    for chunk in _row_chunks(table, rows):
        lines = zip(
            [_TYPE_CODES[flag] for flag in chunk[:, 0].tolist()],
            _cached_texts(chunk[:, _STRIKE : _STRIKE + 1], strikes, _strike_texts),
            _cached_texts(chunk[:, _TERMS], segments, _segment_texts),
            map(repr, chunk[:, _MIDPOINT].tolist()),  # nearly all distinct
        )
        yield "".join([f"{c},{k},{s},{m}\n" for c, k, s, m in lines]).encode("utf-8")


def _twin_path(path: Path, digest: str) -> Path:
    return path.with_name(f".{path.name}.{digest}.npy")


def _twin_header(rows: int) -> bytes:
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<f8", "fortran_order": False, "shape": (rows, QUOTE_WIDTH)}
    )
    return header.getvalue()


def _twin_chunks(table: np.ndarray, rows: np.ndarray) -> Iterable[bytes]:
    """The `.npy` bytes of what parsing the CSV of the written rows gives:
    flags exactly 1.0 or 0.0 and every NaN float('nan'); -0.0 and inf stay."""
    yield _twin_header(len(rows))
    for chunk in _row_chunks(table, rows):
        chunk = chunk.astype("<f8", copy=False)  # each chunk is a copy already
        chunk[:, 0] = chunk[:, 0] == 1.0
        chunk[np.isnan(chunk)] = math.nan
        yield chunk.tobytes()


def _load_twin(path: Path, twin: Path) -> np.ndarray | None:
    """The twin's table: the file must be the header write_csv writes for
    some row count n, then n rows of values. Else None, with a warning."""
    try:
        size = twin.stat().st_size
        rows = max(size - len(_twin_header(0)), 0) // _ROW.size
        header = _twin_header(rows)
        if size != len(header) + rows * _ROW.size or (
            np.fromfile(twin, dtype=np.uint8, count=len(header)).tobytes() != header
        ):
            raise ValueError(f"not the .npy file of a {QUOTE_WIDTH}-column float64 table")
        return np.fromfile(twin, dtype="<f8", offset=len(header)).reshape(rows, QUOTE_WIDTH)
    except (OSError, ValueError) as exc:
        logger.warning("%s: ignoring binary twin %s: %s; parsing the text", path, twin.name, exc)
        return None


def _parse_line(line: bytes, last: tuple) -> tuple[list[str], list[float], bytes]:
    """(term cells, term values, row) of one data line, given those of the
    last good line; the row is the line's table row as packed doubles.

    The term values are the last good line's when its term cells read
    the same: equal text parses to equal floats.
    """
    cells = line.decode("utf-8").split(",")
    if len(cells) != QUOTE_WIDTH:
        raise ValueError(f"expected {QUOTE_WIDTH} columns, got {len(cells)}")
    flag = _TYPE_FLAGS.get(cells[0])
    if flag is None:
        raise ValueError(f"option_type: expected 'C' or 'P', got {cells[0]!r}")
    strike = float(cells[_STRIKE])
    cells[_VOL] = cells[_VOL] or "nan"
    terms = cells[_TERMS]
    values = last[1] if terms == last[0] else list(map(float, terms))
    return terms, values, _ROW.pack(flag, strike, *values, float(cells[_MIDPOINT]))


def read_csv(path: str | Path) -> tuple[np.ndarray, str]:
    """The quote table of a CSV written by write_csv, and the sha256 hex
    digest of the file's bytes.

    The file is hashed in one pass of _HASH_BLOCK reads, and the table
    comes from the binary twin of that digest, so the text is never held
    whole. Only when there is no usable twin is the file read a second
    time, a line at a time, hashed as it is parsed: the digest is then
    that of the bytes parsed. A line ends at LF, CR LF or a lone CR.

    Raises SchemaError on a missing, undecodable or wrong header.
    Malformed data rows are collected with their line numbers; if more
    than 1% of data rows are bad the whole read fails with CsvRowError,
    otherwise each bad row is skipped with a logged warning. Values are
    not checked here; `filter_quotes` applies the validity rule.
    """
    path = Path(path)
    digest, block = hashlib.sha256(), memoryview(bytearray(_HASH_BLOCK))
    with io.FileIO(path) as fh:  # read-only, into one reused block
        while size := fh.readinto(block):
            digest.update(block[:size])
    del block  # freed before the table is loaded
    twin = _twin_path(path, digest.hexdigest())
    table = _load_twin(path, twin) if twin.is_file() else None
    if table is None:
        digest = hashlib.sha256()
        with io.BufferedReader(io.FileIO(path)) as fh:
            # the reader ends a line at LF only; splitlines also splits at a
            # lone CR and drops the line ends, as splitting the whole file would
            lines = itertools.chain.from_iterable(map(bytes.splitlines, _hashed(fh, digest)))
            table = _parse_lines(path, lines)
    return table, digest.hexdigest()


def _parse_lines(path: Path, lines: Iterator[bytes]) -> np.ndarray:
    header = next(lines, None)
    if header is None:
        raise SchemaError(f"{path}: empty file, expected a header row")
    try:
        header = tuple(header.decode("utf-8").split(","))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: header is not UTF-8 text: {exc}") from exc
    if header != QUOTE_COLUMNS:
        raise SchemaError(
            f"{path}: header mismatch; expected {','.join(QUOTE_COLUMNS)!r}, "
            f"got {','.join(header)!r}"
        )
    rows = bytearray()  # the good rows, packed
    last: tuple = (None, None)  # no good line yet
    bad_rows: list[tuple[int, str]] = []
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        try:
            last = _parse_line(line, last)
        except ValueError as exc:  # UnicodeDecodeError included
            bad_rows.append((lineno, str(exc)))
            continue
        rows += last[2]
    table = np.frombuffer(rows).reshape(-1, QUOTE_WIDTH)
    total = len(table) + len(bad_rows)
    if bad_rows:
        if len(bad_rows) > MAX_BAD_ROW_FRACTION * total:
            shown = "; ".join(f"line {ln}: {msg}" for ln, msg in bad_rows[:5])
            more = "" if len(bad_rows) <= 5 else f" (and {len(bad_rows) - 5} more)"
            raise CsvRowError(
                f"{path}: {len(bad_rows)} of {total} data rows are malformed, "
                f"above the {MAX_BAD_ROW_FRACTION:.0%} limit: {shown}{more}",
                bad_rows=bad_rows,
            )
        for ln, msg in bad_rows:
            logger.warning("%s: skipping malformed line %d: %s", path, ln, msg)
    return table


def _tree_payload(tree: Tree) -> dict:
    return {name: getattr(tree, name).tolist() for name in _TREE_ARRAYS}


def _ensemble_payload(model: TreeEnsemble) -> dict:
    return {
        "base_score": float(model.base_score),
        "n_features": int(model.n_features),
        "best_round": int(model.best_round),
        "history": [
            [int(r.round_index), float(r.eta), float(r.train_mae), float(r.val_mae)]
            for r in model.history
        ],
        "n_trees": len(model.trees),
        "trees": [],  # save_model streams each tree into the list
    }


def _network_payload(net: NetworkParams) -> dict:
    return {
        "layers": [
            {"units": spec.units, "activation": spec.activation}
            for spec in net.architecture.layers
        ],
        "n_layers": len(net.architecture.layers),
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "feature_mean": net.stats.mean.tolist(),
        "feature_std": net.stats.std.tolist(),
    }


def save_model(
    model: TreeEnsemble | NetworkParams,
    path: str | Path,
    manifest: dict | None = None,
) -> Path:
    """Serialize a trained model with its hyperparameter manifest.

    The manifest must be JSON-serializable and should not contain
    timestamps or durations if byte-reproducible files are wanted.
    """
    if isinstance(model, TreeEnsemble):
        magic, kind, payload = MAGIC_TREES, "tree_ensemble", _ensemble_payload(model)
    elif isinstance(model, NetworkParams):
        magic, kind, payload = MAGIC_NET, "network", _network_payload(model)
    else:
        raise ValidationError(f"model: unsupported type {type(model).__name__}")
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "manifest": manifest or {},
        "model": payload,
    }
    blob = magic + _json(doc)
    # "trees" sorts last in "model", and "model" last in the document, so
    # the trees stream in before the document's last 3 bytes, "]}}"
    assert kind != "tree_ensemble" or blob.endswith(b'"trees":[]}}')
    trees = model.trees if kind == "tree_ensemble" else []
    items = (b"," * (i > 0) + _json(_tree_payload(t)) for i, t in enumerate(trees))
    return write_file(path, itertools.chain([blob[:-3]], items, [blob[-3:]]))


def _json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()


def _read_doc(path: Path) -> tuple[str, dict]:
    blob = path.read_bytes()
    if len(blob) < 8:
        raise IncompatibleModelError(f"{path}: truncated; shorter than the magic prefix")
    magic, body = blob[:8], blob[8:]
    if magic == MAGIC_TREES:
        kind = "tree_ensemble"
    elif magic == MAGIC_NET:
        kind = "network"
    else:
        raise IncompatibleModelError(f"{path}: unrecognized magic {magic!r}")
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IncompatibleModelError(f"{path}: corrupt or truncated payload: {exc}") from exc
    if not isinstance(doc, dict):
        raise IncompatibleModelError(f"{path}: payload is not a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise IncompatibleModelError(
            f"{path}: unsupported format_version {doc.get('format_version')!r}"
        )
    if doc.get("kind") != kind:
        raise IncompatibleModelError(
            f"{path}: kind {doc.get('kind')!r} does not match the {kind!r} magic"
        )
    return kind, doc


def _check_tree(tree: Tree, n_features: int) -> None:
    """Reject a tree that prediction could not walk to a leaf in bounds.

    Children strictly after their parent rule out cycles, so every walk
    from the root ends within n_nodes steps; every node but the root being
    the child of exactly one internal node means each node is reached by
    exactly one path from the root.
    """
    n = tree.n_nodes
    if n == 0:
        raise ValueError("a tree needs at least one node")
    if not np.all((tree.feature >= -1) & (tree.feature < n_features)):
        raise ValueError(f"node feature outside [-1, {n_features})")
    internal = np.nonzero(tree.feature >= 0)[0]
    children = np.concatenate((tree.left[internal], tree.right[internal]))
    if not np.all((np.tile(internal, 2) < children) & (children < n)):
        raise ValueError(f"child index not between its parent and the node count {n}")
    parents = np.bincount(children, minlength=n)
    wrong = np.flatnonzero(parents != (np.arange(n) > 0))
    if wrong.size:
        node = int(wrong[0])
        raise ValueError(
            f"node {node} is the child of {int(parents[node])} internal nodes; "
            "the root must be the child of none and every other node of one"
        )
    if not (np.all(np.isfinite(tree.threshold)) and np.all(np.isfinite(tree.value))):
        raise ValueError("tree thresholds and values must be finite")


def _rebuild_ensemble(payload: dict) -> TreeEnsemble:
    trees = []
    if payload["n_trees"] != len(payload["trees"]):
        raise ValueError(
            f"declared n_trees {payload['n_trees']} but found {len(payload['trees'])}"
        )
    n_features = int(payload["n_features"])
    for raw in payload["trees"]:
        for key in _TREE_ARRAYS:
            if len(raw[key]) != len(raw["feature"]):
                raise ValueError(f"tree arrays disagree on node count for {key!r}")
        tree = Tree(**{key: np.asarray(raw[key], dtype=t) for key, t in _TREE_ARRAYS.items()})
        _check_tree(tree, n_features)
        trees.append(tree)
    # files written before `etas` was dropped still carry it
    if "etas" in payload and len(payload["etas"]) != len(trees):
        raise ValueError("etas do not align with trees")
    base_score = float(payload["base_score"])
    if not np.isfinite(base_score):
        raise ValueError("base_score must be finite")
    return TreeEnsemble(
        base_score=base_score,
        trees=trees,
        n_features=n_features,
        best_round=int(payload["best_round"]),
        history=[
            RoundRecord(int(r), float(e), float(tm), float(vm))
            for r, e, tm, vm in payload["history"]
        ],
    )


def _rebuild_network(payload: dict) -> NetworkParams:
    layers = tuple(
        LayerSpec(int(l["units"]), str(l["activation"])) for l in payload["layers"]
    )
    if payload["n_layers"] != len(layers):
        raise ValueError(
            f"declared n_layers {payload['n_layers']} but found {len(layers)}"
        )
    weights = [np.asarray(w, dtype=np.float64) for w in payload["weights"]]
    biases = [np.asarray(b, dtype=np.float64) for b in payload["biases"]]
    if len(weights) != len(layers) or len(biases) != len(layers):
        raise ValueError("weights/biases do not align with the declared layers")
    for spec, w, b in zip(layers, weights, biases):
        if w.ndim != 2 or w.shape[0] != spec.units or b.shape != (spec.units,):
            raise ValueError(f"layer shape mismatch for {spec!r}: {w.shape}, {b.shape}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("weights and biases must be finite")
    for prev, w in zip(layers, weights[1:]):
        if w.shape[1] != prev.units:
            raise ValueError("consecutive layer shapes do not chain")
    mean = np.asarray(payload["feature_mean"], dtype=np.float64)
    std = np.asarray(payload["feature_std"], dtype=np.float64)
    if mean.shape != (weights[0].shape[1],) or std.shape != mean.shape:
        raise ValueError("feature statistics do not match the input width")
    if not np.all(np.isfinite(mean)):
        raise ValueError("feature_mean must be finite")
    if not np.all(np.isfinite(std) & (std > 0)):
        raise ValueError("feature_std must be finite and > 0")
    return NetworkParams(
        architecture=Architecture(layers),
        weights=weights,
        biases=biases,
        stats=FeatureStats(mean, std),
    )


def load_model(path: str | Path) -> tuple[TreeEnsemble | NetworkParams, dict]:
    """Either model kind, with structural verification, and its manifest,
    from one read and one parse of the file."""
    path = Path(path)
    kind, doc = _read_doc(path)
    manifest = doc.get("manifest", {})
    if not isinstance(manifest, dict):
        raise IncompatibleModelError(f"{path}: manifest is not a JSON object")
    rebuild = _rebuild_ensemble if kind == "tree_ensemble" else _rebuild_network
    try:
        model = rebuild(doc["model"])
    except (KeyError, TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise IncompatibleModelError(f"{path}: malformed model payload: {exc}") from exc
    return model, manifest
