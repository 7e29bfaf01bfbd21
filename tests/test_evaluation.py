import math
import re

import numpy as np
import pytest

from optbench import (
    ModelResult,
    ValidationError,
    binned_errors,
    compare_models,
    histogram,
    mae,
    mape,
    summary_stats,
    write_report,
)
from optbench.evaluation import HistogramBin, write_summary_csv
from optbench.ingest import write_rows


class TestPointMetrics:
    def test_mae_hand_example(self):
        assert mae([1.0, 2.0], [2.0, 4.0]) == 1.5

    def test_mae_zero_at_perfect(self):
        assert mae([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_mape_hand_example(self):
        assert mape([110.0], [100.0]) == 10.0

    def test_mape_symmetric_relative(self):
        assert mape([90.0, 110.0], [100.0, 100.0]) == pytest.approx(10.0, abs=1e-12)

    def test_mape_requires_positive_targets(self):
        with pytest.raises(ValidationError):
            mape([1.0], [0.0])
        with pytest.raises(ValidationError):
            mape([1.0], [-2.0])

    def test_alignment_checked(self):
        with pytest.raises(ValidationError):
            mae([1.0, 2.0], [1.0])
        with pytest.raises(ValidationError):
            mae([], [])
        with pytest.raises(ValidationError):
            mae([np.nan], [1.0])


class TestBinnedErrors:
    def test_single_bin_matches_global(self):
        rng = np.random.default_rng(0)
        targets = rng.uniform(1.0, 100.0, size=200)
        preds = targets + rng.normal(size=200)
        stats = binned_errors(preds, targets, n_bins=1)
        assert len(stats) == 1
        assert stats[0].count == 200
        assert stats[0].mae == pytest.approx(mae(preds, targets), abs=1e-12)
        assert stats[0].mape == pytest.approx(mape(preds, targets), abs=1e-12)

    def test_weighted_mean_reconstitutes_global(self):
        rng = np.random.default_rng(1)
        targets = rng.uniform(0.5, 500.0, size=300)
        preds = targets * rng.uniform(0.9, 1.1, size=300)
        stats = binned_errors(preds, targets, n_bins=12)
        assert sum(s.count for s in stats) == 300
        weighted = sum(s.count * s.mae for s in stats if s.mae is not None) / 300
        assert weighted == pytest.approx(mae(preds, targets), abs=1e-10)

    def test_edges_are_geometric(self):
        targets = np.array([1.0, 10.0, 100.0, 1000.0])
        stats = binned_errors(targets, targets, n_bins=3)
        lowers = [s.lower for s in stats]
        assert lowers == pytest.approx([1.0, 10.0, 100.0], rel=1e-12)
        assert stats[-1].upper == pytest.approx(1000.0, rel=1e-12)

    def test_empty_bins_carry_none(self):
        targets = np.array([1.0, 1000.0])
        preds = targets + 1
        stats = binned_errors(preds, targets, n_bins=4)
        empties = [s for s in stats if s.count == 0]
        assert empties
        assert all(s.mae is None and s.mape is None for s in empties)

    def test_identical_targets_single_bucket(self):
        targets = np.full(5, 42.0)
        stats = binned_errors(targets, targets, n_bins=7)
        assert len(stats) == 1
        assert stats[0].count == 5

    @pytest.mark.parametrize("n_bins", [0, 2.5, True, "3"])
    def test_bin_count_must_be_a_positive_integer(self, n_bins):
        targets = np.linspace(1.0, 10.0, 5)
        with pytest.raises(ValidationError, match="^n_bins: "):
            binned_errors(targets, targets, n_bins)


class TestSummaryStats:
    def test_one_to_thousand(self):
        s = summary_stats(np.arange(1.0, 1001.0))
        assert s.count == 1000
        assert s.mean == pytest.approx(500.5, abs=1e-12)
        assert s.std == pytest.approx(288.8194360957494, abs=1e-10)
        assert s.minimum == 1.0
        assert s.q25 == pytest.approx(250.75, abs=1e-12)
        assert s.median == pytest.approx(500.5, abs=1e-12)
        assert s.q75 == pytest.approx(750.25, abs=1e-12)
        assert s.maximum == 1000.0

    def test_small_sample_std(self):
        s = summary_stats([1.0, 2.0, 3.0, 4.0])
        assert s.std == pytest.approx(math.sqrt(5.0 / 3.0), abs=1e-15)

    def test_single_value(self):
        s = summary_stats([7.0])
        assert s.count == 1
        assert s.std == 0.0
        assert s.mean == s.median == s.minimum == s.maximum == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            summary_stats([])


class TestHistogram:
    def test_count_conservation(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=500)
        bins = histogram(values, n_bins=13)
        assert sum(b.count for b in bins) == 500
        assert len(bins) == 13

    def test_edges_cover_range(self):
        values = np.array([2.0, 3.0, 5.0, 11.0])
        bins = histogram(values, n_bins=3)
        assert bins[0].lower == 2.0
        assert bins[-1].upper == 11.0

    @pytest.mark.parametrize("n_bins", [0, 2.5, True, "3"])
    def test_bin_count_must_be_a_positive_integer(self, n_bins):
        with pytest.raises(ValidationError, match="^n_bins: "):
            histogram([1.0, 2.0], n_bins)


class TestCompareModels:
    def make_results(self):
        targets = np.linspace(1.0, 50.0, 40)
        good = ModelResult("good", targets + 0.1, training_seconds=1.5)
        bad = ModelResult("bad", targets + 2.0, training_seconds=None)
        return targets, good, bad

    def test_sorted_by_mae(self):
        targets, good, bad = self.make_results()
        report = compare_models(targets, [bad, good])
        assert [r.name for r in report.rows] == ["good", "bad"]
        assert report.rows[0].mae == pytest.approx(0.1, abs=1e-12)
        assert report.n_rows == 40

    def test_name_breaks_ties(self):
        targets = np.linspace(1.0, 50.0, 40)
        a = ModelResult("zeta", targets + 1.0)
        b = ModelResult("alpha", targets - 1.0)
        report = compare_models(targets, [a, b])
        assert [r.name for r in report.rows] == ["alpha", "zeta"]

    def test_duplicate_names_rejected(self):
        targets = np.linspace(1.0, 10.0, 5)
        with pytest.raises(ValidationError, match="duplicate"):
            compare_models(targets, [ModelResult("m", targets), ModelResult("m", targets)])

    @pytest.mark.parametrize("name", ["gbdt5,extra", "m\nbs_implied,0.0,0.0,", "a/b", "", 5])
    def test_name_must_match_the_rule(self, name):
        targets = np.linspace(1.0, 10.0, 5)
        with pytest.raises(ValidationError, match=re.escape("[A-Za-z0-9_.-]+")):
            compare_models(targets, [ModelResult("ok", targets), ModelResult(name, targets)])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            compare_models([1.0], [])

    def test_text_table(self):
        targets, good, bad = self.make_results()
        text = compare_models(targets, [bad, good]).to_text()
        assert "good" in text and "bad" in text
        assert "rows evaluated: 40" in text
        assert text.index("good") < text.index("bad")
        assert "n/a" in text  # bad has no training time

    def test_curves_present_for_all_models(self):
        targets, good, bad = self.make_results()
        report = compare_models(targets, [bad, good], curve_bins=5)
        assert set(report.curves) == {"good", "bad"}
        assert all(len(c) >= 1 for c in report.curves.values())


class TestWriters:
    def test_write_report_files(self, tmp_path):
        targets = np.linspace(1.0, 50.0, 40)
        report = compare_models(targets, [ModelResult("m", targets + 0.5)])
        paths = write_report(report, tmp_path)
        names = {p.name for p in paths}
        assert "report.txt" in names
        assert "report_table.csv" in names
        assert "curve_m.csv" in names
        table = (tmp_path / "report_table.csv").read_text()
        assert table.splitlines()[0] == "model,mae,mape_pct,training_seconds"
        assert "0.5" in table

    def test_curve_file_takes_the_model_name(self, tmp_path):
        targets = np.linspace(1.0, 50.0, 40)
        write_report(compare_models(targets, [ModelResult("gbdt-5.v2", targets)]), tmp_path)
        assert (tmp_path / "curve_gbdt-5.v2.csv").is_file()

    def test_write_summary_csv(self, tmp_path):
        stats = {"midpoint": summary_stats([1.0, 2.0, 3.0])}
        path = write_summary_csv(stats, tmp_path / "summary.csv")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("column,count,mean,std")
        assert lines[1].startswith("midpoint,3,2.0,")

    def test_write_histogram_csv(self, tmp_path):
        bins = histogram([1.0, 2.0, 2.5, 9.0], n_bins=4)
        path = write_rows(tmp_path / "hist.csv", HistogramBin._fields, bins)
        lines = path.read_text().splitlines()
        assert lines[0] == "lower,upper,count"
        assert len(lines) == 5
