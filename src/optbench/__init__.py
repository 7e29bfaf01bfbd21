"""Benchmark of closed-form pricing vs learned models on option quotes.

The package generates synthetic European option datasets, trains
gradient-boosted trees and feed-forward networks to predict quote
midpoints, and compares them against repricing with the closed-form
model under known or realized volatility.
"""

__version__ = "0.1.0"

from .blackscholes import (
    BsInputs,
    bs_price,
    bs_prices,
    implied_vol,
    norm_cdf,
)
from .core import (
    FEATURE_COUNT,
    FEATURE_NAMES,
    QUOTE_COLUMNS,
    Dataset,
    FilterResult,
    OptionType,
    SplitSpec,
    filter_quotes,
    split_dataset,
    split_indices,
)
from .errors import (
    CsvRowError,
    DegenerateVolatilityError,
    DivergenceError,
    IncompatibleModelError,
    InconsistentEvaluationError,
    NoSolutionError,
    OptbenchError,
    SchemaError,
    UsageError,
    ValidationError,
)
from .evaluation import (
    BinStat,
    EvalReport,
    HistogramBin,
    ModelResult,
    ReportRow,
    SummaryStats,
    binned_errors,
    compare_models,
    histogram,
    mae,
    mape,
    summary_stats,
    write_report,
)
from .gbdt import (
    GbdtConfig,
    TreeEnsemble,
    best_split,
    eta_decay,
    predict_gbdt,
    quantize_features,
    train_gbdt,
)
from .ingest import (
    load_model,
    read_csv,
    save_model,
    write_csv,
)
from .mlp import (
    FIVE_LAYER,
    THREE_LAYER,
    AdamState,
    Architecture,
    EpochRecord,
    FeatureStats,
    LayerSpec,
    MlpTrainConfig,
    NetworkParams,
    adam_step,
    backward,
    fit_feature_stats,
    forward,
    init_network,
    reduce_lr_on_plateau,
    standardize,
    train_mlp,
)
from .simgen import (
    SimConfig,
    UnderlyingPath,
    generate_chain,
    generate_dataset,
    realized_vol,
    simulate_underlying,
)
