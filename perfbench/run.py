"""optbench benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside an optbench checkout; the package is imported
from this checkout's `src/`. With `--trace 0` the run reports the
end-to-end metrics; with `--trace 1` it reports the per-layer metrics,
taken from traced cycles, plus the tracing overhead measured against
untraced cycles of the same run. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The
lines before it give the environment and every metric in readable form.

See README.md for the workloads, the metrics and which end-to-end
metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import tempfile
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test scale: about 8,000 quotes")
    parser.add_argument("--inject-failure", action="store_true",
                        help="self-test: break the first measured operation")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def per_pass(setup, cycles, n_cycles):
    """Layer totals for one set-up plus one traced cycle."""
    total = Tracer()
    total.add(setup)
    total.add(cycles, 1.0 / n_cycles)
    return total


def layer_metrics(p) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the per-pass totals `p` (see README.md)."""
    def sec(name):
        return p.seconds.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    rounds = p.counts.get("gbdt.rounds", 0)
    best_split = sec("gbdt.best_split")
    other = sec("gbdt.train") - sec("gbdt.quantize_features") - best_split
    return {
        "simgen.generate_dataset_s": (sec("simgen.generate_dataset"), "s"),
        "simgen.quotes": (p.counts.get("simgen.quotes", 0), "count"),
        "blackscholes.bs_price_calls": (p.calls.get("blackscholes.bs_price", 0), "count"),
        "blackscholes.bs_price_s": (sec("blackscholes.bs_price"), "s"),
        "simgen.realized_vol_calls": (p.calls.get("simgen.realized_vol", 0), "count"),
        "simgen.realized_vol_s": (sec("simgen.realized_vol"), "s"),
        "ingest.write_csv_s": (sec("ingest.write_csv"), "s"),
        "ingest.write_csv_rows": (p.counts.get("ingest.write_csv_rows", 0), "count"),
        "ingest.read_csv_s": (sec("ingest.read_csv"), "s"),
        "ingest.read_csv_calls": (p.calls.get("ingest.read_csv", 0), "count"),
        "ingest.read_csv_mb": (p.counts.get("ingest.read_csv_bytes", 0) / 1e6, "MB"),
        "ingest.save_model_s": (sec("ingest.save_model"), "s"),
        "ingest.load_model_s": (sec("ingest.load_model"), "s"),
        "ingest.model_bytes": (p.counts.get("ingest.model_bytes", 0), "bytes"),
        "core.filter_quotes_s": (sec("core.filter_quotes"), "s"),
        "core.rows_dropped": (p.counts.get("core.rows_dropped", 0), "count"),
        "core.from_quotes_s": (sec("core.from_quotes"), "s"),
        "core.split_dataset_s": (sec("core.split_dataset"), "s"),
        "gbdt.quantize_features_s": (sec("gbdt.quantize_features"), "s"),
        "gbdt.best_split_calls": (ratio(p.calls.get("gbdt.best_split", 0), rounds), "calls/round"),
        "gbdt.best_split_s": (ratio(best_split, rounds), "s/round"),
        "gbdt.round_other_s": (ratio(other, rounds), "s/round"),
        "gbdt.nodes_per_tree.d5": (
            ratio(p.counts.get("gbdt.nodes.d5", 0), p.counts.get("gbdt.trees.d5", 0)), "count"),
        "gbdt.nodes_per_tree.d10": (
            ratio(p.counts.get("gbdt.nodes.d10", 0), p.counts.get("gbdt.trees.d10", 0)), "count"),
        "gbdt.tree_predict_s": (sec("gbdt.tree_predict"), "s"),
        "gbdt.tree_predict_rows": (p.counts.get("gbdt.tree_predict_rows", 0), "count"),
        "mlp.backward_s": (ratio(sec("mlp.backward"), p.calls.get("mlp.backward", 0)), "s/batch"),
        "mlp.adam_step_s": (ratio(sec("mlp.adam_step"), p.calls.get("mlp.adam_step", 0)), "s/call"),
        "mlp.adam_step_calls": (p.calls.get("mlp.adam_step", 0), "count"),
        "mlp.forward_full_s": (sec("mlp.forward"), "s"),
        "evaluation.compare_models_s": (sec("evaluation.compare_models"), "s"),
        "evaluation.write_report_s": (sec("evaluation.write_report"), "s"),
        "cli.startup_s": (ratio(sec("cli.startup"), p.calls.get("cli.startup", 0)), "s/command"),
    }


# The per-operation figures each workload measures, by name and unit;
# in a traced run they appear as `op.<name>`, from its untraced cycles.
OP_UNITS = {
    "gen_s": "s", "split_s": "s", "report_s": "s", "evaluate_s": "s",
    "gbdt10_round_s": "s", "gbdt5_round_s": "s", "gbdt10_test_mae": "price",
    "mlp3_epoch_s": "s", "mlp5_epoch_s": "s", "mlp5_test_mae": "price",
    "score_s": "s",
}


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "optbench").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def blas_info(np) -> tuple[str, int | None]:
    """OpenBLAS version and the thread count it is actually using."""
    import ctypes

    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        version = "unknown"
    for lib_path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return version, fn()
    return version, None


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest child's (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM unwind normally: subprocess.run kills and reaps its child
    # and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "optbench" / "__init__.py").is_file():
        print(f"perfbench: no optbench sources under {ROOT / 'src'}; "
              "run inside an optbench checkout", file=sys.stderr)
        return 2
    # at most one BLAS thread per usable core, set before numpy loads
    os.environ["OPENBLAS_NUM_THREADS"] = str(NPROC)
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    import optbench
    import workloads

    if not Path(optbench.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported optbench from {optbench.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    budgets = workloads.TINY_BUDGETS if args.tiny else workloads.BUDGETS
    budget = budgets[args.workload]
    workload = workloads.WORKLOADS[args.workload](budget)
    blas_version, blas_threads = blas_info(np)
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "budget": budget, "setups": workloads.SETUPS,
        "nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
        "openblas": blas_version, "blas_threads": blas_threads,
        "git_sha": git_sha(ROOT), "source_sha256": source_sha256(ROOT),
    }
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as work:
        ctx = workloads.Context(ROOT, Path(work), args.seed, args.inject_failure)
        setup_times, plain, traced, setup_tracer, cycle_tracer = workloads.measure(
            workload, ctx, args.seconds, bool(args.trace))

    ops = {}
    for name in OP_UNITS:
        values = [r.ops[name] for r in plain if name in r.ops]
        if values:
            ops[name] = statistics.median(values)
    metrics: dict[str, tuple[float, str]] = {}
    if not args.trace:
        if setup_times:
            metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        if plain:
            metrics["cycle_s"] = (statistics.median(r.seconds for r in plain), "s")
            metrics["test_mae"] = (statistics.median(r.test_mae for r in plain), "price")
    elif traced and plain:
        metrics.update(layer_metrics(per_pass(setup_tracer, cycle_tracer, len(traced))))
        overhead = (statistics.median(r.seconds for r in traced)
                    / statistics.median(r.seconds for r in plain) - 1.0)
        metrics["trace.overhead"] = (overhead, "ratio")
        for name, unit in OP_UNITS.items():
            metrics[f"op.{name}"] = (ops.get(name, 0.0), unit)

    print(f"set-ups: {len(setup_times)} of {workloads.SETUPS}, "
          f"{' '.join(f'{t:.3f}' for t in setup_times)} s")
    print(f"cycles: {len(plain)} untraced, {' '.join(f'{r.seconds:.3f}' for r in plain)} s; "
          f"{len(traced)} traced, {' '.join(f'{r.seconds:.3f}' for r in traced)} s")
    for name, value in ops.items():
        print(f"{name} {value:.6g} {OP_UNITS[name]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    error_rate = ctx.failed / max(ctx.attempted, 1)
    print(f"error_rate {error_rate:.6g} ({ctx.failed} of {ctx.attempted} operations failed)")

    complete = bool(setup_times) and bool(plain) and (bool(traced) or not args.trace)
    result = {
        "correct": ctx.failed == 0 and complete,
        "attempted": max(ctx.attempted, 1),
        "failed": ctx.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
