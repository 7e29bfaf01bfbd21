"""The seeded outputs of a small CLI run, pinned byte for byte.

gen, split, train of both tree kinds, evaluate with the baselines and
report run in-process, and every output that is a pure function of the
seed must keep the sha256 pinned below: the quote CSV and its binary
twin, the three parts, the model files, the metrics, curve, summary and
histogram tables. A change to a file format shows here as a changed
digest. Networks are left out: their last bits depend on the BLAS
thread count and kernel. Side manifests and report.txt carry times, and
report_table.csv the training seconds, so they are left out too.
"""

import hashlib
from pathlib import Path

from optbench.cli import main

SEED = ("--seed", "7")
PINNED = (
    "dataset.csv", ".dataset.csv.*.npy", "train.csv", "val.csv", "test.csv",
    "*.model", "*_metrics.csv", "curve_*.csv", "summary.csv", "hist_*.csv",
)

DIGESTS = {
    ".dataset.csv.1c42b605bad16e77c22135d903219e15ab1c2d5fc3d8e595763f0bf57e044cf0.npy":
        "3fcdd8c9c409bf3219038b9c115d6045d945024ba79ff7d0fb1bc1127d7c29e2",
    "curve_bs_implied.csv": "7dc4503f5be935d067dba1090dfcbfa7fd8d79d66e03c7ed88d23a4fb51235e6",
    "curve_bs_realized.csv": "f3106f36c48829b4c069992f696f0c35299d04ec0e4c996c7d168800abaa3d24",
    "curve_gbdt10.csv": "960a27b84249db49b5d41ad061bacf76278dcb1a192f0ebbf640bea13a4875de",
    "curve_gbdt5.csv": "62ea5f4fa0bc155a0736db9e1d89754f7786e2dcfead299113faebe25b5f6521",
    "dataset.csv": "1c42b605bad16e77c22135d903219e15ab1c2d5fc3d8e595763f0bf57e044cf0",
    "gbdt10.model": "122f912025fc3d21aec9ade1af721b2b500d418958d9d70598b6c64a2435072e",
    "gbdt10_metrics.csv": "e0f22460ee28200397b7bf6004fe06dc18f932fdf6ab6eca1fecf8905d6a0fca",
    "gbdt5.model": "130f91f71b52e51981dba5bf4ff52031e7f6bb261ab1310042a71cda24ba7763",
    "gbdt5_metrics.csv": "bb07cafeda819cf107d897e8aa9e1f7660268b3eb47ec489cc27c2744095cb72",
    "hist_dividend_yield.csv": "b389772326eb9db87d8e3df690aaf61a0ee2f763dddf3219161fc3408a182498",
    "hist_implied_vol.csv": "20ab66dd07d09f69fb1103665f999dc48c6498bd43d707f8c34ecce54d5b49f9",
    "hist_maturity_years.csv": "c6e4c9d41a29cf272c820e578b587d7782480f7720a02b58f6cf429dc8345994",
    "hist_midpoint.csv": "c5cb5ffd9ac8bca979280d4ce8f3a686f410fb2e34494ec1e3ec6bcf4c8aff45",
    "hist_rate.csv": "a4058da2f1159075d2ffaced0cfe14cc756764970c96573c506200a5acf8a7c5",
    "hist_strike.csv": "ce73ba13872e2f7aabd047d3ffa752448dd984fdeadbe7153369e0b87dbca989",
    "hist_underlying_price.csv":
        "e7f92ce4ae64c41ae5bf63a17d5b7795a245e01a7bd569e9ceb010589c988f12",
    "summary.csv": "3ff3bd6ad74ac543cdee62e74bef9fd52b5af737228c7145a0733bda2e6bb782",
    "test.csv": "9341ee5a08967207455836c039666ca036c3522c52cdc70e336b342aa4564030",
    "train.csv": "0b8df1eb0ce7acd2a068fcdad0eab8cb544acebf237f300e0d1c51a15c2279df",
    "val.csv": "bafd1961631d0f396ecedfc5d18d22b1ad247e74387eaf3e5eede61c47d295e5",
}


def seeded_run(out: Path) -> dict[str, str]:
    """Run the pipeline into `out`; the sha256 of each pinned file by name."""
    data = str(out / "dataset.csv")
    steps = [
        ["gen", "--set", "sim.n_underlyings=3"],
        ["split", "--data", data],
        ["train", "gbdt5", "--data", data, "--set", "gbdt.num_rounds=5"],
        ["train", "gbdt10", "--data", data, "--set", "gbdt.num_rounds=5"],
        ["evaluate", *(str(out / f"{kind}.model") for kind in ("gbdt5", "gbdt10")),
         "--include-bs", "--data", data],
        ["report", "--data", data],
    ]
    for argv in steps:
        assert main([*argv, *SEED, "--out", str(out)]) == 0, argv
    paths = sorted({path for pattern in PINNED for path in out.glob(pattern)})
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


def test_seeded_outputs_keep_their_bytes(tmp_path):
    assert seeded_run(tmp_path) == DIGESTS
