"""Dataset CSV format and model-file persistence.

The quote CSV has a fixed 28-column header. Floats are written with
repr() so every value round-trips bit-exactly; an empty implied_vol
cell means "unknown". Reading tolerates up to 1% malformed data rows
(skipped with a warning, each naming its 1-based line number) and
aborts beyond that.

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
from pathlib import Path

import numpy as np

from .core import N_LAGS, OptionQuote, OptionType
from .errors import CsvRowError, IncompatibleModelError, SchemaError, ValidationError
from .gbdt import RoundRecord, Tree, TreeEnsemble
from .mlp import Architecture, FeatureStats, LayerSpec, NetworkParams

logger = logging.getLogger(__name__)

CSV_HEADER: tuple[str, ...] = (
    ("option_type", "strike", "underlying_price", "rate", "dividend_yield",
     "maturity_years", "implied_vol")
    + tuple(f"lag_{i}" for i in range(1, N_LAGS + 1))
    + ("midpoint",)
)

MAX_BAD_ROW_FRACTION = 0.01

MAGIC_TREES = b"OBTREE1\n"
MAGIC_NET = b"OBNET01\n"
FORMAT_VERSION = 1


def _fmt(x: float) -> str:
    return repr(float(x))


def write_csv(quotes, path: str | Path) -> Path:
    """Write quotes in the canonical 28-column layout."""
    path = Path(path)
    lines = [",".join(CSV_HEADER)]
    for q in quotes:
        cells = [
            q.option_type.value,
            _fmt(q.strike),
            _fmt(q.underlying_price),
            _fmt(q.rate),
            _fmt(q.dividend_yield),
            _fmt(q.maturity_years),
            "" if q.implied_vol is None else _fmt(q.implied_vol),
        ]
        cells.extend(_fmt(x) for x in q.lags)
        cells.append(_fmt(q.midpoint))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _parse_row(cells: list[str]) -> OptionQuote:
    if len(cells) != len(CSV_HEADER):
        raise ValueError(f"expected {len(CSV_HEADER)} columns, got {len(cells)}")
    type_cell = cells[0]
    if type_cell not in ("C", "P"):
        raise ValueError(f"option_type: expected 'C' or 'P', got {type_cell!r}")
    vol_cell = cells[6]
    return OptionQuote(
        option_type=OptionType(type_cell),
        strike=float(cells[1]),
        underlying_price=float(cells[2]),
        rate=float(cells[3]),
        dividend_yield=float(cells[4]),
        maturity_years=float(cells[5]),
        implied_vol=None if vol_cell == "" else float(vol_cell),
        lags=tuple(float(c) for c in cells[7 : 7 + N_LAGS]),
        midpoint=float(cells[-1]),
    )


def read_csv(path: str | Path) -> list[OptionQuote]:
    """Read a quote CSV written by write_csv.

    Raises SchemaError on a wrong header. Malformed data rows are
    collected with their line numbers; if more than 1% of data rows are
    bad the whole read fails with CsvRowError, otherwise each bad row
    is skipped with a logged warning.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        header_line = fh.readline()
        if header_line == "":
            raise SchemaError(f"{path}: empty file, expected a header row")
        header = tuple(header_line.rstrip("\r\n").split(","))
        if header != CSV_HEADER:
            raise SchemaError(
                f"{path}: header mismatch; expected {','.join(CSV_HEADER)!r}, "
                f"got {','.join(header)!r}"
            )
        quotes: list[OptionQuote] = []
        bad_rows: list[tuple[int, str]] = []
        total = 0
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\r\n")
            if line == "":
                continue
            total += 1
            try:
                quotes.append(_parse_row(line.split(",")))
            except (ValueError, ValidationError) as exc:
                bad_rows.append((lineno, str(exc)))
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
    return quotes


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
    path = Path(path)
    path.write_bytes(blob)
    return path


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
    from the root ends within n_nodes steps.
    """
    n = tree.n_nodes
    if n == 0:
        raise ValueError("a tree needs at least one node")
    if not np.all((tree.feature >= -1) & (tree.feature < n_features)):
        raise ValueError(f"node feature outside [-1, {n_features})")
    internal = np.nonzero(tree.feature >= 0)[0]
    for child in (tree.left[internal], tree.right[internal]):
        if not np.all((internal < child) & (child < n)):
            raise ValueError(f"child index not between its parent and the node count {n}")
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
    return TreeEnsemble(
        base_score=float(payload["base_score"]),
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


def load_model(path: str | Path) -> TreeEnsemble | NetworkParams:
    """Load either model kind, with structural verification."""
    path = Path(path)
    kind, doc = _read_doc(path)
    try:
        payload = doc["model"]
        if kind == "tree_ensemble":
            return _rebuild_ensemble(payload)
        return _rebuild_network(payload)
    except (KeyError, TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise IncompatibleModelError(f"{path}: malformed model payload: {exc}") from exc


def load_tree_ensemble(path: str | Path) -> TreeEnsemble:
    model = load_model(path)
    if not isinstance(model, TreeEnsemble):
        raise IncompatibleModelError(f"{path}: expected a tree-ensemble file")
    return model


def load_network(path: str | Path) -> NetworkParams:
    model = load_model(path)
    if not isinstance(model, NetworkParams):
        raise IncompatibleModelError(f"{path}: expected a network file")
    return model


def load_model_manifest(path: str | Path) -> dict:
    _, doc = _read_doc(Path(path))
    manifest = doc.get("manifest", {})
    if not isinstance(manifest, dict):
        raise IncompatibleModelError(f"{path}: manifest is not a JSON object")
    return manifest


def write_metrics_csv(records, path: str | Path) -> Path:
    """Per-round or per-epoch training log as CSV (header from the record type)."""
    path = Path(path)
    records = list(records)
    if not records:
        raise ValidationError("records: need at least one record")
    fields = records[0]._fields
    lines = [",".join(fields)]
    for rec in records:
        lines.append(
            ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in rec)
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
