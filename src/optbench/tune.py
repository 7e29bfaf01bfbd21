"""GBDT hyperparameters chosen on validation, by successive halving.

A stand-in for the paper's AutoML arm, over the existing `GbdtConfig`
fields. `tune_gbdt` draws `CANDIDATES` configs around a base config
(candidate 0 is the base itself), fits each on `train` for
`FIRST_ROUNDS` rounds, keeps the best `1 / REDUCTION` of them by val
MAE, fits the survivors for `REDUCTION` times as many rounds, and so on
until one is left: successive halving (Jamieson & Talwalkar, AISTATS
2016). No fit runs longer than the base's `num_rounds`, and `max_depth`
is never drawn. The test split is never read.

Every fit is on the same `train` Dataset, so `train_gbdt` bins it once
per `n_bins` (at most four binnings: the base's and three drawn sizes)
rather than once per fit.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from .core import SEED, Dataset, check_fields, seeded_rng
from .gbdt import GbdtConfig, train_gbdt

CANDIDATES = 9
FIRST_ROUNDS = 20
REDUCTION = 3
_STREAM = (2,)  # mlp draws (0,) and (1,), simgen (index, stream)


class Rung(NamedTuple):
    """One budget of the search: each fitted candidate's best val MAE."""

    rounds: int
    val_mae: dict[int, float]  # candidate index -> val MAE at its best round


class TuneResult(NamedTuple):
    candidates: list[GbdtConfig]
    rungs: list[Rung]
    winner: int  # index into candidates


def _three_digits(value: float) -> float:
    return float(f"{value:.3g}")


def _draw(rng: np.random.Generator, base: GbdtConfig) -> GbdtConfig:
    """`base` with n_bins from {64, 128, 256}, reg_lambda log-uniform in
    [0.1, 10], min_child_weight log-uniform in [1, 100] and eta_base in
    [0.2, 0.5], each float to 3 significant digits; eta_min is lowered
    to eta_base when it would exceed it."""
    eta_base = _three_digits(rng.uniform(0.2, 0.5))
    return dataclasses.replace(
        base,
        n_bins=int(rng.choice((64, 128, 256))),
        reg_lambda=_three_digits(10 ** rng.uniform(-1, 1)),
        min_child_weight=_three_digits(10 ** rng.uniform(0, 2)),
        eta_base=eta_base,
        eta_min=min(base.eta_min, eta_base),
    )


def tune_gbdt(train: Dataset, val: Dataset, base: GbdtConfig, seed: int) -> TuneResult:
    """The candidate with the lowest val MAE after successive halving.

    Ties go to the lower candidate index, so the same seed and data give
    the same winner.
    """
    check_fields({"seed": SEED}, seed=seed)
    rng = seeded_rng(seed, _STREAM)
    candidates = [base] + [_draw(rng, base) for _ in range(CANDIDATES - 1)]
    alive = list(range(CANDIDATES))
    rungs: list[Rung] = []
    rounds = FIRST_ROUNDS
    while len(alive) > 1:
        rounds = min(rounds, base.num_rounds)
        scores = {}
        for i in alive:
            model = train_gbdt(train, val, dataclasses.replace(candidates[i], num_rounds=rounds))
            scores[i] = model.history[model.best_round].val_mae
        rungs.append(Rung(rounds, scores))
        alive = sorted(alive, key=lambda i: (scores[i], i))[: max(1, len(alive) // REDUCTION)]
        rounds *= REDUCTION
    return TuneResult(candidates, rungs, alive[0])
