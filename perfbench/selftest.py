"""Tiny-scale self-test of the benchmark itself.

    python3 perfbench/selftest.py

For every workload named in BENCHMARK.json, runs run.py at self-test
scale untraced and traced, and checks that the last output line is the
result object with every end-to-end (resp. per-layer) metric of
BENCHMARK.json, each with its unit. Then checks that a deliberately
broken operation is counted as failed and raises error_rate, and that
the benchmark refuses to run, printing no result, in a directory that
holds only BENCHMARK.json and the benchmark's files. Takes about a
minute; exits 1 on the first failed check.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int, *extra: str, root: Path = ROOT):
    cmd = [sys.executable, str(root / HERE.name / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-800:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def error_rate_of(proc) -> float:
    for line in proc.stdout.splitlines():
        if line.startswith("error_rate "):
            return float(line.split()[1])
    raise AssertionError("no error_rate line")


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise AssertionError(f"{label}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            raise AssertionError(f"{label}: {name} = {m['value']!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                label = f"{workload} trace {trace}"
                proc = run(workload, trace)
                result = result_of(proc)
                if not result["correct"] or result["failed"] or error_rate_of(proc) != 0:
                    raise AssertionError(f"{label}: not correct: {proc.stderr[-800:]}")
                check_metrics(result, declared, label)
                print(f"ok   {label}: {len(declared)} metrics", flush=True)

            proc = run(workload, 0, "--inject-failure")
            result = result_of(proc)
            if result["correct"] or result["failed"] < 1 or not error_rate_of(proc) > 0:
                raise AssertionError(f"{workload}: an injected failure was not counted")
            print(f"ok   {workload}: injected failure counted "
                  f"({result['failed']} of {result['attempted']})", flush=True)

        with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as bare:
            bare = Path(bare)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(spec["workloads"][0]["name"], 0, root=bare)
            if proc.returncode == 0 or proc.stdout.strip():
                raise AssertionError("ran without the optbench sources")
            print("ok   refuses to run without the optbench sources", flush=True)
    except (AssertionError, json.JSONDecodeError, IndexError) as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
