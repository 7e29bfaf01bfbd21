"""The library pipeline gives the CLI's parts, model bytes and scores bit for bit."""

import csv

import pytest

from optbench import (
    Dataset,
    GbdtConfig,
    MlpTrainConfig,
    SplitSpec,
    ValidationError,
    cli,
    mae,
    pipeline,
    read_csv,
    save_model,
)
from optbench.ingest import load_model_and_manifest

from conftest import make_dataset, same_bits
from test_cli import gen_tiny, run

FRACTIONS = ("split.train_fraction=0.6", "split.val_fraction=0.1", "split.test_fraction=0.3")
SPEC = SplitSpec(0.6, 0.1, 0.3, seed=9)
# what `--seed 9` and the budgets below make of each kind's configuration
FIT_CONFIGS = {
    "gbdt5": GbdtConfig(max_depth=5, num_rounds=3),
    "mlp3": MlpTrainConfig(max_epochs=2, batch_size=64, seed=9),
}
BUDGETS = {"gbdt5": "gbdt.num_rounds=3", "mlp3": "mlp.max_epochs=2"}


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """The CLI's split, train of gbdt5 and mlp3, and evaluate --include-bs."""
    out = tmp_path_factory.mktemp("cli")
    data = gen_tiny(out)
    common = ("--data", str(data), "--out", str(out), "--seed", "9",
              *(arg for f in FRACTIONS for arg in ("--set", f)))
    assert run("split", *common) == 0
    for kind, budget in BUDGETS.items():
        assert run("train", kind, *common, "--set", budget, "--set", "mlp.batch_size=64") == 0
    models = [str(out / f"{kind}.model") for kind in BUDGETS]
    assert run("evaluate", *models, "--include-bs", *common) == 0
    return out


@pytest.fixture(scope="module")
def library(cli_run):
    """The same steps as library calls: the digest, the part rows and each kind's model."""
    result, digest = pipeline.load(cli_run / "dataset.csv")
    rows = pipeline.parts(result.kept, SPEC)
    train, val, _ = (Dataset.from_quotes(part) for part in rows)
    models = {kind: pipeline.fit(kind, train, val, config)[0]
              for kind, config in FIT_CONFIGS.items()}
    return digest, rows, models


def test_parts_are_the_split_csvs(cli_run, library):
    _, rows, _ = library
    for name, part in zip(("train", "val", "test"), rows):
        assert same_bits(part, read_csv(cli_run / f"{name}.csv")), name


@pytest.mark.parametrize("kind", sorted(FIT_CONFIGS))
def test_fit_gives_the_model_bytes_of_train(cli_run, library, tmp_path, kind):
    digest, _, models = library
    _, manifest = load_model_and_manifest(cli_run / f"{kind}.model")
    identity = pipeline.identity(digest, SPEC)
    assert {key: manifest[key] for key in identity} == identity
    path = save_model(models[kind], tmp_path / f"{kind}.model", manifest)
    assert path.read_bytes() == (cli_run / f"{kind}.model").read_bytes()


def test_scores_are_the_report_cells(cli_run, library):
    _, rows, models = library
    test = Dataset.from_quotes(rows[2])
    with (cli_run / "report_table.csv").open(newline="") as fh:
        cells = {row["model"]: row["mae"] for row in csv.DictReader(fh)}
    scores = {kind: mae(pipeline.predict(model, test.features), test.targets)
              for kind, model in models.items()}
    scores.update({name: mae(preds, test.targets)
                   for name, preds in pipeline.baselines(rows[2]).items()})
    assert {name: repr(score) for name, score in scores.items()} == cells


def test_cli_baseline_names_are_the_pipeline_functions():
    assert cli._bs_implied_predictions is pipeline.bs_implied
    assert cli._bs_realized_predictions is pipeline.bs_realized


@pytest.mark.parametrize(
    "kind, config, field",
    [
        ("forest", GbdtConfig(num_rounds=1), "kind"),
        ("gbdt5", GbdtConfig(max_depth=10, num_rounds=1), "max_depth"),
        ("gbdt10", GbdtConfig(num_rounds=1), "max_depth"),
        ("gbdt5", MlpTrainConfig(max_epochs=1), "config"),
        ("mlp3", GbdtConfig(num_rounds=1), "config"),
        ("mlp5", None, "config"),
    ],
)
def test_fit_refuses_a_kind_and_config_that_do_not_match(kind, config, field):
    train, val = make_dataset(64, seed=1), make_dataset(16, seed=2)
    with pytest.raises(ValidationError, match=f"^{field}: "):
        pipeline.fit(kind, train, val, config)
