import math

import numpy as np
import pytest

from optbench import (
    BsInputs,
    DegenerateVolatilityError,
    NoSolutionError,
    OptionType,
    ValidationError,
    bs_price,
    bs_prices,
    implied_vol,
    norm_cdf,
)

# high-precision reference values, frozen from a 50-digit evaluation
PHI = {
    -3.5: 0.00023262907903552504,
    -1.0: 0.15865525393145705,
    0.0: 0.5,
    0.1: 0.5398278372770290,
    1.0: 0.8413447460685429,
    2.0: 0.9772498680518208,
}
ATM_CALL = 7.965567455405796  # S=K=100, T=1, r=q=0, sigma=0.2


class TestNormCdf:
    def test_reference_values(self):
        for x, expected in PHI.items():
            assert norm_cdf(x) == pytest.approx(expected, abs=1e-12)

    def test_saturation(self):
        assert norm_cdf(40.0) == 1.0
        assert norm_cdf(-40.0) == pytest.approx(0.0, abs=1e-300)

    def test_symmetry(self):
        for x in np.linspace(-6, 6, 121):
            assert norm_cdf(x) + norm_cdf(-x) == pytest.approx(1.0, abs=1e-14)

    def test_monotone(self):
        grid = np.linspace(-8, 8, 400)
        values = [norm_cdf(x) for x in grid]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            norm_cdf(math.nan)
        with pytest.raises(ValidationError):
            norm_cdf(math.inf)


def make_inputs(**overrides) -> BsInputs:
    fields = dict(
        underlying_price=100.0,
        strike=100.0,
        maturity_years=1.0,
        rate=0.0,
        dividend_yield=0.0,
        sigma=0.2,
        option_type=OptionType.CALL,
    )
    fields.update(overrides)
    return BsInputs(**fields)


class TestIntermediates:
    """d1 and d2 as the kernel prices them, and its degeneracy guard."""

    def test_atm_zero_rates(self):
        # d1 = 0.1, d2 = -0.1
        price = bs_prices(100.0, 100.0, 1.0, 0.0, 0.0, 0.2, True)
        assert price == pytest.approx(100.0 * (norm_cdf(0.1) - norm_cdf(-0.1)), abs=1e-12)

    def test_itm_example(self):
        d1 = (math.log(2.0) + 0.02) / 0.2
        price = bs_prices(100.0, 50.0, 1.0, 0.0, 0.0, 0.2, True)
        assert price == pytest.approx(100.0 * norm_cdf(d1) - 50.0 * norm_cdf(d1 - 0.2), abs=1e-12)

    def test_degenerate_vol_time(self):
        with pytest.raises(DegenerateVolatilityError):
            bs_prices(100.0, 100.0, 1.0, 0.0, 0.0, 1e-13, True)
        with pytest.raises(DegenerateVolatilityError):
            bs_prices(100.0, 100.0, 1e-12, 0.0, 0.0, 1e-7, True)

    def test_input_validation(self):
        with pytest.raises(ValidationError, match="underlying_price"):
            make_inputs(underlying_price=0.0)
        with pytest.raises(ValidationError, match="sigma"):
            make_inputs(sigma=-0.2)
        with pytest.raises(ValidationError, match="rate"):
            make_inputs(rate=1.5)


class TestPrice:
    def test_atm_benchmark(self):
        price = bs_price(make_inputs())
        assert price == pytest.approx(7.9656, abs=1e-4)
        assert price == pytest.approx(ATM_CALL, abs=1e-10)

    def test_atm_put_equals_call_at_zero_rates(self):
        call = bs_price(make_inputs())
        put = bs_price(make_inputs(option_type=OptionType.PUT))
        assert put == pytest.approx(call, abs=1e-12)

    def test_deep_itm_call_near_intrinsic(self):
        price = bs_price(make_inputs(strike=50.0, sigma=0.05, maturity_years=0.01))
        assert price == pytest.approx(50.0, abs=1e-6)

    def test_put_call_parity_spot_checks(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            s = rng.uniform(5, 2000)
            k = rng.uniform(5, 2000)
            t = rng.uniform(0.01, 3.0)
            r = rng.uniform(-0.05, 0.12)
            q = rng.uniform(0.0, 0.06)
            sigma = rng.uniform(0.02, 2.5)
            call = bs_price(make_inputs(
                underlying_price=s, strike=k, maturity_years=t, rate=r,
                dividend_yield=q, sigma=sigma))
            put = bs_price(make_inputs(
                underlying_price=s, strike=k, maturity_years=t, rate=r,
                dividend_yield=q, sigma=sigma, option_type=OptionType.PUT))
            expected = s * math.exp(-q * t) - k * math.exp(-r * t)
            assert call - put == pytest.approx(expected, abs=1e-10 * max(1.0, s, k))

    def test_call_bounds(self):
        for sigma in (0.05, 0.3, 1.0, 2.9):
            inp = make_inputs(sigma=sigma, rate=0.03, dividend_yield=0.01)
            price = bs_price(inp)
            disc_s = 100.0 * math.exp(-0.01)
            disc_k = 100.0 * math.exp(-0.03)
            assert max(disc_s - disc_k, 0.0) <= price <= disc_s

    def test_price_increases_with_vol(self):
        prices = [bs_price(make_inputs(sigma=s)) for s in np.linspace(0.05, 2.0, 40)]
        assert all(a < b for a, b in zip(prices, prices[1:]))

    def test_never_negative(self):
        # far out of the money: both terms underflow toward zero
        price = bs_price(make_inputs(strike=10_000.0, sigma=0.05, maturity_years=0.05))
        assert price >= 0.0


class TestImpliedVol:
    def test_round_trip(self):
        price = bs_price(make_inputs(strike=110.0, maturity_years=0.5, sigma=0.37))
        vol = implied_vol(price, 100.0, 110.0, 0.5, 0.0, 0.0, True)
        assert vol == pytest.approx(0.37, abs=1e-6)

    def test_round_trip_put_with_carry(self):
        inp = make_inputs(
            strike=95.0, maturity_years=1.5, rate=0.04, dividend_yield=0.02,
            sigma=0.6, option_type=OptionType.PUT)
        price = bs_price(inp)
        vol = implied_vol(price, 100.0, 95.0, 1.5, 0.04, 0.02, False)
        assert vol == pytest.approx(0.6, abs=1e-6)

    def test_price_below_intrinsic_rejected(self):
        # deep ITM call: discounted intrinsic is ~50
        with pytest.raises(NoSolutionError, match="no-arbitrage"):
            implied_vol(49.0, 100.0, 50.0, 0.25, 0.0, 0.0, True)

    def test_price_above_upper_bound_rejected(self):
        with pytest.raises(NoSolutionError, match="no-arbitrage"):
            implied_vol(100.0, 100.0, 100.0, 1.0, 0.0, 0.0, True)

    def test_price_above_vol_cap_rejected(self):
        almost_spot = bs_price(make_inputs(sigma=2.9999)) * 1.2
        with pytest.raises(NoSolutionError):
            implied_vol(almost_spot, 100.0, 100.0, 1.0, 0.0, 0.0, True)

    def test_zero_price_rejected(self):
        with pytest.raises(ValidationError):
            implied_vol(0.0, 100.0, 100.0, 1.0, 0.0, 0.0, True)

    def test_solution_at_floor_region(self):
        price = bs_price(make_inputs(sigma=1e-3))
        vol = implied_vol(price, 100.0, 100.0, 1.0, 0.0, 0.0, True)
        assert vol == pytest.approx(1e-3, rel=1e-4)

    def test_solution_near_cap(self):
        price = bs_price(make_inputs(sigma=2.9))
        vol = implied_vol(price, 100.0, 100.0, 1.0, 0.0, 0.0, True)
        assert vol == pytest.approx(2.9, abs=1e-6)


def reference_price(s, k, t, r, q, sigma, is_call) -> float:
    """The math-module scalar formula: the oracle for the array kernel."""
    vol_time = sigma * math.sqrt(t)
    d1 = (math.log(s / k) + (r - q + 0.5 * sigma * sigma) * t) / vol_time
    d2 = d1 - vol_time
    disc_s = s * math.exp(-q * t)
    disc_k = k * math.exp(-r * t)
    if is_call:
        price = disc_s * norm_cdf(d1) - disc_k * norm_cdf(d2)
    else:
        price = disc_k * norm_cdf(-d2) - disc_s * norm_cdf(-d1)
    return max(price, 0.0)


def reference_implied_vol(price, s, k, t, r, q, is_call) -> float:
    """The scalar safeguarded Newton solver on the math-module formula: the
    oracle for the array inverter, raising the same exception classes."""
    if not 0.0 < price < math.inf:
        raise ValidationError(f"price: must be positive and finite, got {price!r}")
    disc_s = s * math.exp(-q * t)
    disc_k = k * math.exp(-r * t)
    intrinsic = disc_s - disc_k if is_call else disc_k - disc_s
    if not max(intrinsic, 0.0) < price < (disc_s if is_call else disc_k):
        raise NoSolutionError("no-arbitrage bounds")

    def objective(sigma):
        d1 = (math.log(s / k) + (r - q + 0.5 * sigma * sigma) * t) / (sigma * math.sqrt(t))
        vega = disc_s * (math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)) * math.sqrt(t)
        return reference_price(s, k, t, r, q, sigma, is_call) - price, vega

    tol = 1e-8 * max(1.0, price)
    lo, hi = 1e-6, 3.0
    f_lo, _ = objective(lo)
    if abs(f_lo) <= tol:
        return lo
    if f_lo > 0:
        raise NoSolutionError("below the floor")
    f_hi, _ = objective(hi)
    if abs(f_hi) <= tol:
        return hi
    if f_hi < 0:
        raise NoSolutionError("above the cap")
    sigma = 0.3
    for _ in range(200):
        value, vega = objective(sigma)
        if abs(value) <= tol:
            return sigma
        if value > 0:
            hi = sigma
        else:
            lo = sigma
        if vega > 1e-12:
            candidate = sigma - value / vega
            if lo < candidate < hi:
                sigma = candidate
                continue
        sigma = 0.5 * (lo + hi)
    raise NoSolutionError("no convergence")


def random_terms(n: int, seed: int) -> tuple:
    """n valid pricing inputs over the ranges of acceptance criterion 1."""
    rng = np.random.default_rng(seed)
    return (
        rng.uniform(1.0, 5000.0, n),
        rng.uniform(1.0, 5000.0, n),
        rng.uniform(0.01, 5.0, n),
        rng.uniform(-0.05, 0.2, n),
        rng.uniform(0.0, 0.1, n),
        rng.uniform(0.01, 2.9, n),
        rng.uniform(size=n) < 0.5,
    )


class TestKernel:
    def test_matches_math_oracle(self):
        terms = random_terms(100_000, seed=31)
        prices = bs_prices(*terms)
        expected = np.array([reference_price(*row) for row in zip(*(t.tolist() for t in terms))])
        s, k = terms[0], terms[1]
        tol = 1e-12 * np.maximum(1.0, np.maximum(s, k))
        assert np.all(np.abs(prices - expected) <= tol)

    def test_scalar_wrapper_is_the_kernel(self):
        terms = random_terms(2000, seed=32)
        prices = bs_prices(*terms)
        for i, (s, k, t, r, q, sigma, call) in enumerate(zip(*(t.tolist() for t in terms))):
            kind = OptionType.CALL if call else OptionType.PUT
            price = bs_price(BsInputs(s, k, t, r, q, sigma, kind))
            assert np.float64(price).view(np.uint64) == prices[i:i + 1].view(np.uint64)[0]

    def test_flags_broadcasting_and_shapes(self):
        s = np.array([90.0, 100.0, 110.0])
        calls = bs_prices(s, 100.0, 0.5, 0.02, 0.01, 0.3, True)
        puts = bs_prices(s, 100.0, 0.5, 0.02, 0.01, 0.3, np.zeros(3))
        assert np.array_equal(bs_prices(s, 100.0, 0.5, 0.02, 0.01, 0.3, np.ones(3)), calls)
        assert calls.shape == puts.shape == (3,)
        assert np.all(calls[1:] > calls[:-1]) and np.all(puts[1:] < puts[:-1])
        assert bs_prices(100.0, 100.0, 1.0, 0.0, 0.0, 0.2, True).shape == ()
        assert bs_prices(s[:0], s[:0], 1.0, 0.0, 0.0, 0.2, s[:0]).shape == (0,)

    def test_same_errors_as_bs_inputs(self):
        names = ("underlying_price", "strike", "maturity_years", "rate", "dividend_yield", "sigma")
        good = (100.0, 100.0, 1.0, 0.0, 0.0, 0.2)
        cases = [
            (dict(underlying_price=0.0), ValidationError, "underlying_price"),
            (dict(strike=-5.0), ValidationError, "strike"),
            (dict(maturity_years=math.inf), ValidationError, "maturity_years"),
            (dict(rate=1.5), ValidationError, "rate"),
            (dict(dividend_yield=math.nan), ValidationError, "dividend_yield"),
            (dict(sigma=-0.2), ValidationError, "sigma"),
            (dict(sigma=1e-13), DegenerateVolatilityError, "sigma"),
            (dict(sigma=1e-7, maturity_years=1e-12), DegenerateVolatilityError, "sigma"),
        ]
        # an OptionType, a string or a fraction is no call flag
        for flag in (OptionType.PUT, "P", 0.5):
            with pytest.raises(ValidationError, match="option_type"):
                bs_prices(*good, flag)
            with pytest.raises(ValidationError, match="option_type"):
                bs_prices(*good, np.array([True, flag, False]))
            with pytest.raises(ValidationError, match="option_type"):
                implied_vol(5.0, *good[:5], flag)
        # terms that do not broadcast together
        with pytest.raises(ValidationError, match=r"shapes \(2,\), \(3,\)"):
            bs_prices(np.ones(2) * 100, np.ones(3) * 100, *good[2:], True)
        with pytest.raises(ValidationError, match=r"shapes \(2,\), \(\), \(3,\)"):
            implied_vol(np.full(2, 5.0), 100.0, np.ones(3) * 100, *good[2:5], True)
        for overrides, error, name in cases:
            with pytest.raises(error, match=name):
                bs_price(make_inputs(**overrides))
            # the bad values in the middle of good rows, priced as arrays
            terms = [np.array([g, overrides.get(n, g), g]) for n, g in zip(names, good)]
            with pytest.raises(error, match=name) as exc:
                bs_prices(*terms, True)
            assert "np.float64" not in str(exc.value)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: bs_prices("100", 100.0, 1.0, 0.01, 0.0, 0.2, True), "underlying_price"),
            (lambda: bs_prices(None, 100.0, 1.0, 0.01, 0.0, 0.2, True), "underlying_price"),
            (lambda: implied_vol(5.0, [100.0, "x"], 100.0, 1.0, 0.0, 0.0, True),
             "underlying_price"),
            (lambda: make_inputs(strike="90"), "strike"),
        ],
        ids=["string-spot", "none-spot", "implied-vol-list", "bs-inputs-string-strike"],
    )
    def test_non_numeric_term_is_a_validation_error(self, call, name):
        # comparing a string or None with a bound raises TypeError; the
        # term's rule turns that into a ValidationError naming the term
        with pytest.raises(ValidationError, match=f"^{name}: "):
            call()


def noisy_quotes(n: int, seed: int) -> tuple:
    """(price, S, K, T, r, q, is_call): model prices under ±1% noise."""
    terms = random_terms(n, seed)
    noise = np.random.default_rng(seed + 1).uniform(-0.01, 0.01, n)
    return (bs_prices(*terms) * (1.0 + noise), *terms[:5], terms[6])


class TestImpliedVolArrays:
    def test_matches_scalar_oracle(self):
        quotes = noisy_quotes(20_000, seed=33)
        rows = list(zip(*(a.tolist() for a in quotes)))
        expected = []
        for row in rows:
            try:
                expected.append(reference_implied_vol(*row))
            except (ValidationError, NoSolutionError) as exc:
                expected.append(type(exc))
        solved = np.array([isinstance(e, float) for e in expected])
        assert 0.5 < solved.mean() < 1.0  # both outcomes are exercised

        vols = implied_vol(*(a[solved] for a in quotes))
        price, S, K, T, r, q, call = (a[solved] for a in quotes)
        tol = 1e-8 * np.maximum(1.0, price)
        assert np.all(np.abs(bs_prices(S, K, T, r, q, vols, call) - price) <= tol)
        oracle = np.array([e for e in expected if isinstance(e, float)])
        repriced = np.array([reference_price(*row) for row in zip(S, K, T, r, q, oracle, call)])
        assert np.all(np.abs(repriced - price) <= tol)

        for row, error in zip(rows, expected):
            if not isinstance(error, float):
                with pytest.raises((ValidationError, NoSolutionError)) as exc:
                    implied_vol(*row)
                assert type(exc.value) is error

    def test_raises_on_first_bad_row(self):
        good = bs_prices(100.0, 100.0, 1.0, 0.0, 0.0, 0.2, True)
        prices = np.array([good, good, 120.0, 1e-9])
        with pytest.raises(NoSolutionError, match="at row 2: 120.0 violates no-arbitrage"):
            implied_vol(prices, 100.0, 100.0, 1.0, 0.0, 0.0, True)
        with pytest.raises(NoSolutionError, match=r"at row \(1, 0\): 120.0 violates"):
            implied_vol(prices.reshape(2, 2), 100.0, 100.0, 1.0, 0.0, 0.0, True)
        with pytest.raises(NoSolutionError, match="at row 3: 1e-09 is below the model price"):
            implied_vol(prices[[0, 1, 1, 3]], 100.0, 100.0, 1.0, 0.0, 0.0, True)

    def test_shapes(self):
        sigma = np.array([[0.2, 0.4, 0.6], [0.8, 1.0, 1.2]])
        call = np.array([[True], [False]])
        prices = bs_prices(100.0, 110.0, 0.5, 0.01, 0.0, sigma, call)
        vols = implied_vol(prices, 100.0, 110.0, 0.5, 0.01, 0.0, call)
        assert vols.shape == (2, 3)
        assert vols == pytest.approx(sigma, abs=1e-6)
        one = implied_vol(prices[0, 0], 100.0, 110.0, 0.5, 0.01, 0.0, True)
        assert isinstance(one, np.ndarray) and one.shape == ()
        assert one == vols[0, 0]
        assert implied_vol(prices[:0, 0], 100.0, 110.0, 0.5, 0.01, 0.0, True).shape == (0,)
