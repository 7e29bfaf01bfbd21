"""Command line pipeline: gen, split, train, tune, evaluate, report.

Each command is an adapter over the library calls of optbench.pipeline,
which a script can make directly: it builds configs from its arguments,
makes the calls and writes the files.
Configuration is flat dotted key=value pairs, read from --config files
(one pair per line, # comments) and overridden by repeated --set flags;
--seed and --data override their keys last. Exit codes: 0 success,
1 usage, 2 data problem, 3 training failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, pipeline
from .blackscholes import MIN_VOL_TIME
from .core import QUOTE_COLUMNS, Dataset, SplitSpec, check_fields, integer_rule
from .errors import (
    DivergenceError,
    IncompatibleModelError,
    InconsistentEvaluationError,
    OptbenchError,
    UsageError,
    ValidationError,
)
from .evaluation import (
    ModelResult,
    compare_models,
    histogram,
    summary_stats,
    write_histogram_csv,
    write_report,
    write_summary_csv,
)
from .ingest import (  # read_csv unused here: perfbench's tracer test looks it up on cli
    load_model_and_manifest,
    read_csv,
    save_model,
    write_csv,
    write_file,
    write_metrics_csv,
)
from .simgen import SimConfig, generate_dataset
from .tune import CANDIDATES, tune_gbdt

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAINING = 3

logger = logging.getLogger(__name__)


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part != "")


def _parse_regimes(text: str) -> tuple[tuple[float, float], ...]:
    # "sigma:weight,sigma:weight,..."
    regimes = []
    for part in text.split(","):
        sigma, _, weight = part.partition(":")
        if not _:
            raise ValueError(f"expected sigma:weight, got {part!r}")
        regimes.append((float(sigma), float(weight)))
    return tuple(regimes)


def _parse_optional_int(text: str):
    if text.lower() in ("none", "null", ""):
        return None
    return int(text)


# Each field of these dataclasses is the key "<section>.<field>".
SECTIONS = {"sim": SimConfig, "split": SplitSpec, **pipeline.CONFIGS}
# No key sets this: max_depth comes from the model kind.
FIXED_FIELDS = {"gbdt.max_depth"}

# Parsers by annotation (a string in the config modules)
_PARSERS = {
    "int": int,
    "float": float,
    "int | None": _parse_optional_int,
    "tuple[float, ...]": _parse_float_list,
    "tuple[tuple[float, float], ...]": _parse_regimes,
}

# The rules of the keys that no config dataclass holds
_KEY_RULES = {"eval.curve_bins": integer_rule(1), "report.hist_bins": integer_rule(1)}

KNOWN_KEYS = {
    "data": str,
    "seed": int,
    "eval.curve_bins": int,
    "report.hist_bins": int,
    **{
        f"{section}.{field.name}": _PARSERS[field.type]
        for section, cls in SECTIONS.items()
        for field in dataclasses.fields(cls)
        if f"{section}.{field.name}" not in FIXED_FIELDS
    },
}


def _set_key(cfg: dict, key: str, raw: str, source: str) -> None:
    if key not in KNOWN_KEYS:
        raise UsageError(f"{source}: unknown configuration key {key!r}")
    try:
        cfg[key] = KNOWN_KEYS[key](raw.strip())
    except ValueError as exc:
        raise UsageError(f"{source}: bad value for {key!r}: {exc}") from exc


def parse_config_file(path: str | Path) -> dict:
    """key = value lines; blank lines and # comments ignored."""
    path = Path(path)
    if not path.exists():
        raise UsageError(f"--config: no such file: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: configuration is not UTF-8 text: {exc}") from exc
    cfg: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {line!r}")
        _set_key(cfg, key.strip(), value, f"{path}:{lineno}")
    return cfg


def load_config(args: argparse.Namespace) -> dict:
    cfg: dict = {}
    if args.config:
        cfg.update(parse_config_file(args.config))
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"--set: expected key=value, got {item!r}")
        _set_key(cfg, key.strip(), value, "--set")
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "data", None) is not None:
        cfg["data"] = args.data
    try:
        check_fields(_KEY_RULES, **{key: cfg[key] for key in _KEY_RULES if key in cfg})
    except ValidationError as exc:
        raise UsageError(f"configuration: {exc}") from exc
    return cfg


def build_config(section: str, cfg: dict, **fixed):
    """The config dataclass of `section` from flat keys; `fixed` fields win."""
    cls = SECTIONS[section]
    kwargs = dict(fixed)
    for field in dataclasses.fields(cls):
        key = f"{section}.{field.name}"
        if field.name in kwargs or key in FIXED_FIELDS:
            continue
        # a master seed fills every unset section seed
        default = cfg.get("seed", 0) if field.name == "seed" else field.default
        kwargs[field.name] = cfg.get(key, default)
    try:
        return cls(**kwargs)
    except ValidationError as exc:
        raise UsageError(f"{section} configuration: {exc}") from exc


def _write_json(doc: dict, path: Path) -> None:
    write_file(path, [(json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")])


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(path: Path, command: str, **doc) -> None:
    """A command's side manifest, stamped with the command and the time it was written."""
    _write_json({"command": command, **doc, "created_at": _now()}, path)


def cmd_gen(cfg: dict, out: Path) -> int:
    sim = build_config("sim", cfg)
    # SimConfig allows sigma = 0 and any positive maturity, but the pricer
    # quotes only where sigma * sqrt(T) reaches its bound
    vol_time = min(s for s, _ in sim.vol_regimes) * math.sqrt(min(sim.maturities))
    if vol_time < MIN_VOL_TIME:
        raise UsageError(
            f"sim.vol_regimes, sim.maturities: quoting needs the smallest sigma * "
            f"sqrt(maturity) >= {MIN_VOL_TIME}, got {vol_time!r}"
        )
    quotes = generate_dataset(sim)
    if len(quotes) == 0:
        logger.warning("generated an empty dataset (n_underlyings=%d)", sim.n_underlyings)
    out.mkdir(parents=True, exist_ok=True)
    data_path = write_csv(quotes, out / "dataset.csv")
    _write_manifest(
        out / "dataset.manifest.json", "gen", rows=len(quotes), config=dataclasses.asdict(sim)
    )
    print(f"wrote {len(quotes)} quotes to {data_path}")
    return EXIT_OK


def _load_parts(cfg: dict):
    """The dataset's filter result, its (train, val, test) quote rows under the
    split configuration, and the identity of those parts."""
    spec = build_config("split", cfg)
    result, digest = pipeline.load(cfg["data"])
    return result, pipeline.parts(result.kept, spec), pipeline.identity(digest, spec)


def cmd_split(cfg: dict, out: Path) -> int:
    (kept, dropped, by_reason), rows, identity = _load_parts(cfg)
    out.mkdir(parents=True, exist_ok=True)
    parts = {}
    for name, part in zip(("train", "val", "test"), rows):
        # no command reads a part back (train and evaluate re-split the
        # dataset), so a part gets no binary twin
        part_path = write_csv(part, out / f"{name}.csv", twin=False)
        parts[name] = {"rows": len(part), "path": part_path.name}
    _write_manifest(
        out / "split.manifest.json",
        "split",
        source_rows=len(kept) + dropped,
        kept_rows=len(kept),
        dropped_rows=dropped,
        dropped_by_reason=by_reason,
        split=identity["split"],
        parts=parts,
    )
    print(f"split {len(kept)} quotes into "
          + " / ".join(f"{info['rows']} {name}" for name, info in parts.items()))
    return EXIT_OK


def _fit_inputs(cfg: dict, kind: str):
    """What train and tune share: the kind's config, the train and val parts
    and what ties a model to them. The config is built before the dataset is read."""
    family, fixed = pipeline.KINDS[kind]
    config = build_config(family, cfg, **({"max_depth": fixed} if family == "gbdt" else {}))
    _, rows, identity = _load_parts(cfg)
    train, val = (Dataset.from_quotes(part) for part in rows[:2])
    return config, train, val, {**identity, "dataset_name": Path(cfg["data"]).name}


def cmd_train(cfg: dict, kind: str, out: Path) -> int:
    config, train, val, identity = _fit_inputs(cfg, kind)
    family, fixed = pipeline.KINDS[kind]
    started = time.perf_counter()
    model, records = pipeline.fit(kind, train, val, config)
    seconds = time.perf_counter() - started

    hyper = dataclasses.asdict(config)
    if family == "mlp":
        hyper["layers"] = [[layer.units, layer.activation] for layer in fixed.layers]
    unit = "round" if family == "gbdt" else "epoch"
    # a record's first field is its round (0-based) or epoch (1-based)
    best = min(records, key=lambda record: record.val_mae)[0] if records else 0
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"kind": kind, "hyperparameters": hyper, **identity}
    model_path = save_model(model, out / f"{kind}.model", manifest)
    if records:
        write_metrics_csv(records, out / f"{kind}_metrics.csv")
    _write_json(
        {
            **manifest,
            f"{unit}s_trained": len(records),
            f"best_{unit}": best,
            "training_seconds": seconds,
            "trained_at": _now(),
            "final_val_mae": records[-1].val_mae if records else None,
        },
        out / f"{kind}.manifest.json",
    )
    print(f"trained {kind} in {seconds:.1f}s; model at {model_path}")
    return EXIT_OK


def cmd_tune(cfg: dict, kind: str, out: Path) -> int:
    """Successive halving over gbdt keys; the winner becomes a --config file for train."""
    base, train, val, identity = _fit_inputs(cfg, kind)
    seed = cfg.get("seed", 0)
    started = time.perf_counter()
    result = tune_gbdt(train, val, base, seed)
    seconds = time.perf_counter() - started

    lines = [f"# optbench tune {kind} --seed {seed}: candidate {result.winner} of {CANDIDATES}"]
    for name, value in dataclasses.asdict(result.candidates[result.winner]).items():
        if f"gbdt.{name}" not in FIXED_FIELDS:
            lines.append(f"gbdt.{name} = {'none' if value is None else repr(value)}")
    out.mkdir(parents=True, exist_ok=True)
    conf_path = write_file(out / f"{kind}.tuned.conf", [("\n".join(lines) + "\n").encode("utf-8")])
    _write_manifest(
        out / f"{kind}.tune.json",
        "tune",
        kind=kind,
        **identity,
        seed=seed,
        candidates=[dataclasses.asdict(c) for c in result.candidates],
        rungs=[rung._asdict() for rung in result.rungs],  # val_mae keyed by candidate
        winner=result.winner,
        tuning_seconds=seconds,
    )
    print(f"tuned {kind} in {seconds:.1f}s: candidate {result.winner}; config at {conf_path}")
    return EXIT_OK


# the baselines by the names that tests import from this module
_bs_implied_predictions = pipeline.bs_implied
_bs_realized_predictions = pipeline.bs_realized


def _training_seconds(side: Path) -> float | None:
    """The finite `training_seconds` a model's side manifest records, else None.

    A missing side manifest is normal; a malformed one is logged.
    """
    if not side.exists():
        return None
    try:
        seconds = json.loads(side.read_text(encoding="utf-8"))["training_seconds"]
        if type(seconds) in (int, float) and math.isfinite(seconds):
            return float(seconds)
    except (OSError, ValueError, LookupError, TypeError, OverflowError):
        pass
    logger.warning("%s: no finite training_seconds; reported as n/a", side)
    return None


def cmd_evaluate(cfg: dict, model_paths: list[str], include_bs: bool, out: Path) -> int:
    _, (_, _, quotes), identity = _load_parts(cfg)
    if len(quotes) == 0:
        raise ValidationError(
            f"{cfg['data']}: the test fraction selects zero rows; nothing to evaluate"
        )
    test = Dataset.from_quotes(quotes)

    results = []
    for raw_path in model_paths:
        path = Path(raw_path)
        model, manifest = load_model_and_manifest(path)
        name = manifest.get("kind", path.stem)
        if not isinstance(name, str):
            raise IncompatibleModelError(f"{path}: manifest kind is not a str")
        for key, expected in identity.items():
            stored = manifest.get(key)
            if stored is None:
                logger.warning("%s: manifest has no %s; that check is skipped", path, key)
            elif type(stored) is not type(expected):
                raise IncompatibleModelError(
                    f"{path}: manifest {key} is not a {type(expected).__name__}"
                )
            elif stored != expected:
                raise InconsistentEvaluationError(
                    f"{path}: model was trained with {key} {stored!r}, "
                    f"but this evaluation uses {expected!r}"
                )
        seconds = _training_seconds(path.with_suffix(".manifest.json"))
        results.append(ModelResult(name, pipeline.predict(model, test.features), seconds))
    if include_bs:
        results += [ModelResult(name, preds) for name, preds in pipeline.baselines(quotes).items()]
    report = compare_models(test.targets, results, cfg.get("eval.curve_bins", 20))
    out.mkdir(parents=True, exist_ok=True)
    written = write_report(report, out)
    _write_manifest(
        out / "evaluate.manifest.json",
        "evaluate",
        **identity,
        rows_evaluated=report.n_rows,
        models=[row.name for row in report.rows],
    )
    print(report.to_text(), end="")
    print(f"report files in {written[0].parent}")
    return EXIT_OK


REPORT_COLUMNS = (
    "midpoint",
    "strike",
    "underlying_price",
    "rate",
    "dividend_yield",
    "maturity_years",
    "implied_vol",
)


def cmd_report(cfg: dict, out: Path) -> int:
    kept = pipeline.load(cfg["data"])[0].kept
    n_bins = cfg.get("report.hist_bins", 30)
    out.mkdir(parents=True, exist_ok=True)
    stats = {}
    for column in REPORT_COLUMNS:
        values = kept[:, QUOTE_COLUMNS.index(column)]
        if column == "implied_vol":
            values = values[np.isfinite(values)]
            if values.size == 0:
                continue
        stats[column] = summary_stats(values)
        write_histogram_csv(histogram(values, n_bins), out / f"hist_{column}.csv")
    write_summary_csv(stats, out / "summary.csv")
    width = max(len(c) for c in stats)
    print(f"{'column'.ljust(width)}  {'count':>8}  {'mean':>12}  {'std':>12}  "
          f"{'min':>12}  {'median':>12}  {'max':>12}")
    for column, s in stats.items():
        print(
            f"{column.ljust(width)}  {s.count:>8}  {s.mean:>12.4f}  {s.std:>12.4f}  "
            f"{s.minimum:>12.4f}  {s.median:>12.4f}  {s.maximum:>12.4f}"
        )
    print(f"summary files in {out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="optbench", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one configuration key (repeatable)")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--data", help="dataset CSV path")
        p.add_argument("--out", default=".", help="output directory (default: .)")

    common(sub.add_parser("gen", help="generate a synthetic quote dataset"))
    common(sub.add_parser("split", help="filter and split a dataset CSV"))

    p_train = sub.add_parser("train", help="train one model on a dataset")
    p_train.add_argument("kind", choices=tuple(pipeline.KINDS))
    common(p_train)

    p_tune = sub.add_parser("tune", help="choose a GBDT's hyperparameters on the val split")
    gbdt_kinds = tuple(kind for kind, (family, _) in pipeline.KINDS.items() if family == "gbdt")
    p_tune.add_argument("kind", choices=gbdt_kinds)
    common(p_tune)

    p_eval = sub.add_parser("evaluate", help="score trained models on the test split")
    p_eval.add_argument("models", nargs="*", help="model file paths")
    p_eval.add_argument("--include-bs", action="store_true",
                        help="add the closed-form repricing baselines")
    common(p_eval)

    common(sub.add_parser("report", help="summarize a dataset's distributions"))
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args)
        if args.command != "gen" and "data" not in cfg:
            raise UsageError("no dataset given; pass --data or set data= in the config")
        if args.command == "evaluate" and not args.models and not args.include_bs:
            raise UsageError("evaluate: give at least one model path or --include-bs")
        out = Path(args.out)
        return {
            "gen": lambda: cmd_gen(cfg, out),
            "split": lambda: cmd_split(cfg, out),
            "train": lambda: cmd_train(cfg, args.kind, out),
            "tune": lambda: cmd_tune(cfg, args.kind, out),
            "evaluate": lambda: cmd_evaluate(cfg, args.models, args.include_bs, out),
            "report": lambda: cmd_report(cfg, out),
        }[args.command]()
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except (OptbenchError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SystemExit as exc:  # argparse --help/--version
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    except Exception as exc:  # a defect, not bad input: one line, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
