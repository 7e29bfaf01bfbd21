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
(NaN) implied_vol as an empty cell. Reading decodes each line on its
own and tolerates up to 1% malformed data rows (skipped with a warning,
each naming its 1-based line number), a line that is not UTF-8
included; beyond that it aborts.

Most cells repeat: every quote of a chain carries the same 25 terms.
The writer formats each distinct float of a chunk once, and the reader
parses a line's terms only when their text differs from the last good
line's. Neither changes the bytes or the table.

Model files are an 8-byte magic prefix plus one JSON document:

    {"format_version": 1, "kind": ..., "manifest": {...}, "model": {...}}

The magic distinguishes tree ensembles from networks before parsing.
File bytes are a pure function of the model and manifest passed in;
nothing time- or machine-dependent is written, so retraining with the
same inputs reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import QUOTE_COLUMNS, QUOTE_WIDTH, OptionType, check_table, check_terms
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
_WRITE_CHUNK = 4096  # rows formatted at a time, to bound memory


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


def write_csv(quotes, path: str | Path) -> Path:
    """Write a quote table in the canonical 28-column layout."""
    table = check_table(quotes)
    check_terms(option_type=table[:, 0])
    return write_file(path, _csv_chunks(table))


def _csv_chunks(table: np.ndarray) -> Iterable[bytes]:
    yield (",".join(QUOTE_COLUMNS) + "\n").encode("utf-8")
    for start in range(0, len(table), _WRITE_CHUNK):
        chunk = table[start : start + _WRITE_CHUNK]
        # Distinct by bit pattern, so -0.0 and 0.0 keep their own text.
        keys, inverse = np.unique(chunk.view(np.uint64).ravel(), return_inverse=True)
        texts = np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype=object)
        cells = texts[inverse].reshape(chunk.shape)
        cells[:, 0] = [_TYPE_CODES[flag] for flag in chunk[:, 0].tolist()]
        cells[np.isnan(chunk[:, _VOL]), _VOL] = ""
        yield "".join(",".join(row) + "\n" for row in cells.tolist()).encode("utf-8")


def _parse_line(
    line: bytes, last_terms: list[str] | None, last_values: list[float] | None
) -> tuple[float, float, list[str], list[float], float]:
    """(flag, strike, term cells, term values, midpoint) of one data line.

    The term values are reused from the last good line when its term
    cells read the same: equal text parses to equal floats.
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
    values = last_values if terms == last_terms else list(map(float, terms))
    return flag, strike, terms, values, float(cells[_MIDPOINT])


def read_csv(path: str | Path) -> np.ndarray:
    """Read the quote table of a CSV written by write_csv.

    Raises SchemaError on a missing, undecodable or wrong header.
    Malformed data rows are collected with their line numbers; if more
    than 1% of data rows are bad the whole read fails with CsvRowError,
    otherwise each bad row is skipped with a logged warning. Values are
    not checked here; `filter_quotes` applies the validity rule.
    """
    path = Path(path)
    lines = path.read_bytes().splitlines()
    if not lines:
        raise SchemaError(f"{path}: empty file, expected a header row")
    try:
        header = tuple(lines[0].decode("utf-8").split(","))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: header is not UTF-8 text: {exc}") from exc
    if header != QUOTE_COLUMNS:
        raise SchemaError(
            f"{path}: header mismatch; expected {','.join(QUOTE_COLUMNS)!r}, "
            f"got {','.join(header)!r}"
        )
    table = np.empty((len(lines) - 1, QUOTE_WIDTH))
    n = run = 0  # rows read; first row of the current run of equal terms
    terms = values = None
    bad_rows: list[tuple[int, str]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            flag, strike, line_terms, line_values, midpoint = _parse_line(line, terms, values)
        except ValueError as exc:  # UnicodeDecodeError included
            bad_rows.append((lineno, str(exc)))
            continue
        if line_values is not values:
            if n:
                table[run:n, _TERMS] = values
            run, terms, values = n, line_terms, line_values
        table[n, 0] = flag
        table[n, _STRIKE] = strike
        table[n, _MIDPOINT] = midpoint
        n += 1
    if n:
        table[run:n, _TERMS] = values
    total = n + len(bad_rows)
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
    return table[:n]


def _tree_payload(tree: Tree) -> dict:
    return {
        "feature": tree.feature.tolist(),
        "threshold": tree.threshold.tolist(),
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "value": tree.value.tolist(),
    }


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
        "trees": [_tree_payload(t) for t in model.trees],
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
    blob = magic + json.dumps(
        doc, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    return write_file(path, [blob])


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
        n = len(raw["feature"])
        for key in ("threshold", "left", "right", "value"):
            if len(raw[key]) != n:
                raise ValueError(f"tree arrays disagree on node count for {key!r}")
        tree = Tree(
            feature=np.asarray(raw["feature"], dtype=np.int32),
            threshold=np.asarray(raw["threshold"], dtype=np.float64),
            left=np.asarray(raw["left"], dtype=np.int32),
            right=np.asarray(raw["right"], dtype=np.int32),
            value=np.asarray(raw["value"], dtype=np.float64),
        )
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


def load_model_and_manifest(path: str | Path) -> tuple[TreeEnsemble | NetworkParams, dict]:
    """Either model kind, with structural verification, and its manifest.

    The file is read and parsed once for both.
    """
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


def load_model(path: str | Path) -> TreeEnsemble | NetworkParams:
    """Load either model kind, with structural verification."""
    return load_model_and_manifest(path)[0]


def write_metrics_csv(records, path: str | Path) -> Path:
    """Per-round or per-epoch training log as CSV (header from the record type)."""
    records = list(records)
    if not records:
        raise ValidationError("records: need at least one record")
    return write_rows(path, records[0]._fields, records)
