"""Run perfbench in parent/change pairs and write the results as BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent REV --seeds 2601-2610 --out BENCH_26.json \
        [--workloads cli_data,gbdt_fit] [--seconds 16] [--description TEXT] [--tmp DIR]

The parent side is REV, exported with `git archive` into a temporary
directory (under DIR when given) that is removed at the end; the change
side is this checkout's working tree. For every seed, and every workload
in turn, `python3 perfbench/run.py --trace 0` runs once on each side, one
run at a time, and the side that runs first alternates from seed to
seed. The output keeps every run's result line and, per workload and
end-to-end metric of BENCHMARK.json, each side's quartiles, the pairs
the change wins and ties, the ratio of the medians (change over parent)
and a verdict (see `verdict`). Stopped by SIGTERM or Ctrl-C, it kills the run in progress and
removes the export before it exits. Uses git and the standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """"2601-2610" or "2601,2605" as a list of seeds."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def export(rev: str, dest: Path) -> None:
    """The tree of `rev` written into `dest`, as `git archive` gives it."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run in `checkout`: its result line, or the error."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 and lines:
        return json.loads(lines[-1])
    return {"correct": False, "error": (done.stderr or done.stdout).strip()[-2000:]}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """How the change's runs compare with the parent's, pair by pair.

    "gain": the change wins at least 9 in 10 pairs (a tie counts for
    neither side) and its median is better by more than the parent's
    q3 - q1. "regression": its median is worse by more than bound x the
    parent's median. "unresolved": neither, and the parent's q3 - q1 is
    wider than bound x its median. "no change": any other case.
    """
    q1, median, q3 = statistics.quantiles(parent, n=4)
    sign = 1 if better == "lower" else -1  # > 0 where the change is better
    ahead = sign * (median - statistics.median(change))
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    if wins >= 0.9 * len(parent) and ahead > q3 - q1:
        return "gain"
    if -ahead > bound * abs(median):
        return "regression"
    if q3 - q1 > bound * abs(median):
        return "unresolved"
    return "no change"


def summarize(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per workload and metric: quartiles, change wins and ties, median
    ratio and verdict. `metrics` maps each name to its BENCHMARK.json entry."""
    summary: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        summary[workload] = {}
        for name, metric in metrics.items():
            value = {
                (run["seed"], run["side"]): run["metrics"][name]["value"]
                for run in runs
                if run["workload"] == workload and name in run.get("metrics", {})
            }
            seeds = sorted({seed for seed, side in value if (seed, "parent") in value
                            and (seed, "change") in value})
            if len(seeds) < 2:
                continue
            parent = [value[seed, "parent"] for seed in seeds]
            change = [value[seed, "change"] for seed in seeds]
            lower = metric["better"] == "lower"
            summary[workload][name] = {
                "parent_q1_median_q3": statistics.quantiles(parent, n=4),
                "change_q1_median_q3": statistics.quantiles(change, n=4),
                "change_wins": sum((c < p) if lower else (c > p) for p, c in zip(parent, change)),
                "ties": sum(c == p for p, c in zip(parent, change)),
                "pairs": len(seeds),
                "median_ratio": statistics.median(change) / statistics.median(parent),
                "verdict": verdict(parent, change, metric["better"], metric["bound"]),
                "seeds": seeds,
            }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="FIRST-LAST or a comma-separated list")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workloads", help="comma-separated; default: all of BENCHMARK.json")
    parser.add_argument("--seconds", type=int, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--description", default="")
    parser.add_argument("--tmp", type=Path, help="where the parent's export is written")
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally: subprocess.run kills and reaps the running
    # perfbench child, and the parent's export directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-", dir=args.tmp) as tmp:
        parent = Path(tmp)
        export(args.parent, parent)
        sides = {"parent": parent, "change": ROOT}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    result = run_once(sides[side], workload, seed, seconds)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "trace": 0, **result})
                    shown = result.get("metrics", {}).get("cycle_s", {}).get("value")
                    print(f"{workload} seed {seed} {side}: cycle_s {shown}", flush=True)

    out = {"description": args.description, "runs": runs, "summary": summarize(runs, metrics)}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
