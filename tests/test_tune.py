import dataclasses

import pytest

import optbench.gbdt as gbdt_module
from optbench import GbdtConfig, ValidationError, train_gbdt, tune_gbdt
from optbench.tune import CANDIDATES, FIRST_ROUNDS, REDUCTION

from conftest import make_dataset


@pytest.fixture(scope="module")
def pair():
    return make_dataset(240, seed=91), make_dataset(60, seed=92)


BASE = GbdtConfig(max_depth=3, num_rounds=100)


class TestTuneGbdt:
    def test_halves_until_one_is_left(self, pair):
        result = tune_gbdt(*pair, BASE, seed=5)
        assert len(result.candidates) == CANDIDATES and result.candidates[0] == BASE
        assert [rung.rounds for rung in result.rungs] == [FIRST_ROUNDS, FIRST_ROUNDS * REDUCTION]
        first, second = result.rungs
        assert sorted(first.val_mae) == list(range(CANDIDATES))
        survivors = sorted(first.val_mae, key=lambda i: (first.val_mae[i], i))
        assert sorted(second.val_mae) == sorted(survivors[: CANDIDATES // REDUCTION])
        assert result.winner == min(second.val_mae, key=lambda i: (second.val_mae[i], i))

    def test_scores_are_the_fits_best_val_mae(self, pair):
        result = tune_gbdt(*pair, BASE, seed=5)
        rung = result.rungs[-1]
        config = dataclasses.replace(result.candidates[result.winner], num_rounds=rung.rounds)
        model = train_gbdt(*pair, config)
        assert rung.val_mae[result.winner] == min(r.val_mae for r in model.history)

    def test_same_seed_same_search(self, pair):
        assert tune_gbdt(*pair, BASE, seed=7) == tune_gbdt(*pair, BASE, seed=7)
        assert tune_gbdt(*pair, BASE, seed=7).candidates != tune_gbdt(*pair, BASE, seed=8).candidates

    def test_draws_keep_depth_and_valid_schedules(self, pair):
        base = dataclasses.replace(BASE, eta_min=0.45, eta_base=0.5)
        for config in tune_gbdt(*pair, base, seed=3).candidates[1:]:
            assert config.max_depth == 3 and config.num_rounds == 100
            assert config.n_bins in (64, 128, 256)
            assert 0.1 <= config.reg_lambda <= 10 and 1 <= config.min_child_weight <= 100
            assert config.eta_min == min(0.45, config.eta_base) <= config.eta_base

    def test_no_fit_runs_past_num_rounds(self, pair, monkeypatch):
        rounds = []
        real = gbdt_module.train_gbdt

        def counted(train, val, config):
            rounds.append(config.num_rounds)
            return real(train, val, config)

        monkeypatch.setattr("optbench.tune.train_gbdt", counted)
        result = tune_gbdt(*pair, dataclasses.replace(BASE, num_rounds=30), seed=5)
        assert [rung.rounds for rung in result.rungs] == [20, 30]
        assert rounds == [20] * CANDIDATES + [30] * (CANDIDATES // REDUCTION)

    def test_train_is_binned_once_per_n_bins(self, pair, monkeypatch):
        train, val = make_dataset(240, seed=91), pair[1]
        calls = []
        real = gbdt_module.quantize_features

        def counted(features, n_bins):
            calls.append(n_bins)
            return real(features, n_bins)

        monkeypatch.setattr(gbdt_module, "quantize_features", counted)
        result = tune_gbdt(train, val, BASE, seed=5)
        drawn = {config.n_bins for config in result.candidates}
        assert sorted(calls) == sorted(drawn)
        assert len(calls) < CANDIDATES + CANDIDATES // REDUCTION  # the fits made

    def test_bad_seed_is_refused(self, pair):
        with pytest.raises(ValidationError, match="^seed: "):
            tune_gbdt(*pair, BASE, seed=-1)
