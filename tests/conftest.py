import numpy as np
import pytest

from optbench import Dataset
from optbench.core import LAG_COLUMNS, QUOTE_COLUMNS, QUOTE_WIDTH
from optbench.gbdt import BinnedMatrix

# one line per acceptance criterion, echoed after the run
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(ACCEPTANCE_RESULTS):
            terminalreporter.write_line(line)


def make_quote(**overrides) -> np.ndarray:
    """A one-row quote table: a valid call with 20 mildly varying lags.

    Overrides name table columns (option_type takes the 1.0/0.0 flag);
    `lags` sets all 20 lag columns.
    """
    values = dict(
        option_type=1.0,
        strike=90.0,
        underlying_price=100.0,
        rate=0.02,
        dividend_yield=0.01,
        maturity_years=0.5,
        implied_vol=0.25,
        midpoint=12.5,
    )
    lags = overrides.pop("lags", tuple(100.0 + 0.5 * ((-1) ** i) + 0.01 * i for i in range(20)))
    values.update(overrides)
    row = np.empty((1, QUOTE_WIDTH))
    for name, value in values.items():
        row[0, QUOTE_COLUMNS.index(name)] = value
    row[0, LAG_COLUMNS] = lags
    return row


def make_quotes(*rows: np.ndarray) -> np.ndarray:
    """Stack one-row tables into one table."""
    return np.concatenate([np.empty((0, QUOTE_WIDTH)), *rows])


def per_cell_csv(table: np.ndarray) -> bytes:
    """The quote CSV bytes of `table`, formatted one cell at a time.

    The oracle of `write_csv`: a header, then per row the C/P code, repr
    of every other cell, and an empty cell for a NaN implied_vol.
    """
    vol = QUOTE_COLUMNS.index("implied_vol")
    lines = [",".join(QUOTE_COLUMNS)]
    for row in table.tolist():
        cells = [repr(value) for value in row]
        cells[0] = "C" if row[0] == 1.0 else "P"
        if cells[vol] == "nan":
            cells[vol] = ""
        lines.append(",".join(cells))
    return "".join(line + "\n" for line in lines).encode("utf-8")


def per_row_quantize(features: np.ndarray, n_bins: int) -> BinnedMatrix:
    """Quantile bins with one edge search per row.

    The oracle of `quantize_features`: per column, the deduplicated
    quantiles below the column maximum, and each row's code the number
    of edges below its value.
    """
    X = np.asarray(features, dtype=np.float64)
    quantile_points = np.arange(1, n_bins) / n_bins
    dtype = np.uint8 if n_bins <= 256 else np.uint16
    codes = np.empty(X.shape, dtype=dtype, order="F")
    edges = []
    for f in range(X.shape[1]):
        col = X[:, f]
        order = np.argsort(col)
        ordered = col[order]
        e = np.unique(np.quantile(ordered, quantile_points))
        e = e[e < ordered[-1]]
        codes[order, f] = np.searchsorted(e, ordered, side="left")
        edges.append(e)
    return BinnedMatrix(edges, codes)


def allocating_forward_scaled(net, scaled: np.ndarray) -> np.ndarray:
    """The oracle of `mlp._forward_scaled`: a fresh array per operation."""
    a = scaled
    for spec, w, b in zip(net.architecture.layers, net.weights, net.biases):
        z = a @ w.T + b
        a = np.maximum(z, 0.0) if spec.activation == "relu" else z
    return a[:, 0]


def allocating_backward_scaled(net, scaled: np.ndarray, targets: np.ndarray):
    """The oracle of `mlp._backward_scaled`: a fresh array per operation.

    Returns (weight gradients, bias gradients, residuals).
    """
    layers = net.architecture.layers
    acts = [scaled]
    for spec, w, b in zip(layers, net.weights, net.biases):
        z = acts[-1] @ w.T + b
        acts.append(np.maximum(z, 0.0) if spec.activation == "relu" else z)
    residual = acts[-1][:, 0] - targets
    delta = (np.sign(residual) / len(targets))[:, None]
    grads_w = [np.empty(0)] * len(layers)
    grads_b = [np.empty(0)] * len(layers)
    for l in range(len(layers) - 1, -1, -1):
        grads_w[l] = delta.T @ acts[l]
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ net.weights[l]
            if layers[l - 1].activation == "relu":
                delta = delta * (acts[l] > 0.0)
    return grads_w, grads_b, residual


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: -0.0 and 0.0 differ, NaNs compare."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def make_dataset(n: int, seed: int = 0, with_vols: bool = True) -> Dataset:
    """Random but plausible feature rows for model-level tests."""
    rng = np.random.default_rng(seed)
    spot = rng.uniform(50.0, 500.0, size=n)
    feats = np.empty((n, 26))
    feats[:, 0] = spot * rng.uniform(0.8, 1.2, size=n)  # strike
    feats[:, 1] = spot
    feats[:, 2] = rng.uniform(0.0, 0.06, size=n)  # rate
    feats[:, 3] = rng.uniform(0.0, 0.03, size=n)  # dividend yield
    feats[:, 4] = rng.uniform(0.05, 1.5, size=n)  # maturity
    feats[:, 5] = (rng.uniform(size=n) < 0.5).astype(float)  # is_call
    feats[:, 6:] = spot[:, None] * np.exp(rng.normal(0, 0.01, size=(n, 20)))
    targets = rng.uniform(0.5, 80.0, size=n)
    vols = rng.uniform(0.1, 0.8, size=n) if with_vols else np.full(n, np.nan)
    return Dataset(feats, targets, vols, np.arange(n))


@pytest.fixture
def quote() -> np.ndarray:
    return make_quote()
