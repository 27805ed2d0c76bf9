import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from immunoepi import numerics
from immunoepi.errors import BracketError, ConvergenceError, NonFiniteError, StepLimitError
from immunoepi.numerics import (
    find_root,
    integrate_ode,
    quadrature,
    simpson_coefficients,
)
from immunoepi.numerics import _dp45_step
from immunoepi.within_host import WithinHostParams, WithinHostState, rhs_full

from conftest import random_within
from reference_loops import integrate_ode_array, rhs_full_array


def decay(t, y):
    return (-y[0],)


class TestIntegrateOde:
    def test_linear_decay_closed_form(self):
        run = integrate_ode(decay, [1.0], (0.0, 1.0))
        assert run.y[-1][0] == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_constant_field_is_identity(self):
        run = integrate_ode(lambda t, y: (0.0 * y[0],), [7.0], (0.0, 3.0))
        assert np.all(np.asarray(run.y) == 7.0)

    def test_event_time_bisection(self):
        # y = e^{-t} crosses 1/2 at t = ln 2
        run = integrate_ode(decay, [1.0], (0.0, 5.0), event=lambda t, y: y[0] - 0.5)
        assert run.event_time == pytest.approx(math.log(2.0), abs=1e-8)
        assert np.asarray(run.y)[-1, 0] == pytest.approx(0.5, abs=1e-8)
        assert run.t[-1] == pytest.approx(run.event_time)

    def test_no_event_crossing_returns_none(self):
        run = integrate_ode(decay, [1.0], (0.0, 1.0), event=lambda t, y: y[0] + 2.0)
        assert run.event_time is None

    def test_step_budget_exhaustion(self, monkeypatch):
        # the first step is a hundredth of the span, so ten steps fall short
        monkeypatch.setattr(numerics, "MAX_STEPS", 10)
        with pytest.raises(StepLimitError, match="exceeded 10 steps"):
            integrate_ode(decay, [1.0], (0.0, 1.0))

    def test_nonfinite_state_detected(self):
        def breaks_down(t, y):
            return (math.nan,) if t > 0.5 else (-y[0],)

        with pytest.raises(NonFiniteError):
            integrate_ode(breaks_down, [1.0], (0.0, 1.0))

    @pytest.mark.parametrize("y0", [[], [[1.0]]])
    def test_state_must_be_a_non_empty_vector(self, y0):
        with pytest.raises(ValueError, match="one-dimensional and non-empty"):
            integrate_ode(lambda t, y: y, y0, (0.0, 1.0))


# Dormand-Prince 5(4) tableau and the stage loop the explicit step replaced;
# the explicit stages must reproduce it bit for bit.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def reference_dp45_step(rhs, t, y, h, k1=None):
    with np.errstate(over="ignore", invalid="ignore"):
        k = [None] * 7
        k[0] = rhs(t, y) if k1 is None else k1
        for i in range(1, 7):
            yi = y + h * sum(a * k[j] for j, a in enumerate(_DP_A[i]))
            k[i] = rhs(t + _DP_C[i] * h, yi)
        y5 = y + h * sum(b * k[i] for i, b in enumerate(_DP_B5) if b != 0.0)
        y4 = y + h * sum(b * k[i] for i, b in enumerate(_DP_B4) if b != 0.0)
        return y5, y5 - y4, k[6]


def as_array_field(field):
    """The tuple field ``field`` in the earlier array form."""
    return lambda t, y: np.array(field(t, tuple(y.tolist())))


class TestDormandPrinceStep:
    def test_explicit_stages_match_the_tableau_loop_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            params = random_within(rng)
            field = lambda t, y: rhs_full(y, params)
            rhs = as_array_field(field)
            y = rng.uniform(0.0, 3.0, size=3)
            t = float(rng.uniform(0.0, 100.0))
            h = float(10.0 ** rng.uniform(-4.0, 1.0))
            k1 = rhs(t, y) if rng.random() < 0.5 else None
            got = _dp45_step(field, t, tuple(y.tolist()), h, None if k1 is None else tuple(k1.tolist()))
            want = reference_dp45_step(rhs, t, y, h, k1)
            for a, b in zip(got, want):
                assert np.array(a).tobytes() == b.tobytes()

    def test_overflowing_trial_step_matches_the_tableau_loop(self):
        # a huge step overflows the stages; inf and nan must land alike
        params = WithinHostParams(Lambda=1.0, mu=0.1, alpha=1.0, gamma=0.5, delta=0.3)
        field = lambda t, y: rhs_full(y, params)
        y = np.array([5.0, 40.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _dp45_step(field, 0.0, tuple(y.tolist()), 50.0)
        want = reference_dp45_step(as_array_field(field), 0.0, y, 50.0)
        assert not np.all(np.isfinite(got[0]))
        for a, b in zip(got, want):
            assert np.array(a).tobytes() == b.tobytes()


# the slow-clearance run of the benchmark's fig3: many rejected steps, and
# the clearance event located on the step that crosses P = 1e-6
SLOW_CLEARANCE = dict(
    Lambda=4.0, mu=2.0, alpha=4.0, gamma=1.2, delta=1.2, epsilon=0.01, kappa=1.0, c=0.3
)


def counted(field, calls):
    def rhs(t, y):
        calls.append(t)
        return field(t, y)

    return rhs


def run_both(params, y0, t_max, event=None):
    """The float-state and the earlier array integrator on the same within-host
    run, each with its list of rhs evaluation times."""
    got_calls, want_calls = [], []
    got = integrate_ode(
        counted(lambda t, y: rhs_full(y, params), got_calls), y0, (0.0, t_max), event
    )
    want = integrate_ode_array(
        counted(lambda t, y: rhs_full_array(y, params), want_calls), y0, (0.0, t_max), event
    )
    return got, want, got_calls, want_calls


def assert_same_run(got, want, got_calls, want_calls):
    assert np.asarray(got.t).tobytes() == want.t.tobytes()
    assert np.asarray(got.y).tobytes() == want.y.tobytes()
    assert np.asarray(got.y).dtype == want.y.dtype and np.asarray(got.y).shape == want.y.shape
    # the same trial steps, rejected ones and event root iterations included
    assert np.array(got_calls).tobytes() == np.array(want_calls).tobytes()
    if want.event_time is None:
        assert got.event_time is None
    else:
        assert got.event_time.hex() == want.event_time.hex()
        assert np.asarray(got.y[-1]).tobytes() == want.y[-1].tobytes()


class TestIntegratorReference:
    """The float-state integrator returns the earlier array integrator's run
    bit for bit (reference_loops.integrate_ode_array)."""

    @given(
        rng=st.randoms(use_true_random=False),
        level=st.floats(min_value=0.05, max_value=1.9).filter(lambda f: abs(f - 1.0) > 0.01),
        rel_tol=st.sampled_from([1e-10, 1e-8, 1e-6, 1e-4]),
    )
    def test_within_host_runs_match_the_array_integrator(self, rng, level, rel_tol):
        params = random_within(rng)
        y0 = [rng.uniform(0.1, 5.0), rng.uniform(0.05, 3.0), rng.uniform(0.0, 3.0)]
        p_event = level * y0[1]
        # both integrators read the tolerances at call time
        with mock.patch.multiple(numerics, RTOL=rel_tol, ATOL=1e-2 * rel_tol):
            runs = run_both(
                params, y0, rng.uniform(5.0, 150.0), event=lambda t, y: y[1] - p_event
            )
        assert_same_run(*runs)

    def test_slow_clearance_run_matches_with_rejections_and_its_event(self):
        params = WithinHostParams(**SLOW_CLEARANCE)
        got, want, got_calls, want_calls = run_both(
            params, [1.0, 1.0, 0.0], 8000.0, event=lambda t, y: y[1] - 1e-6
        )
        assert_same_run(got, want, got_calls, want_calls)
        assert got.event_time is not None
        # FSAL: six evaluations per accepted step and one to start; more means
        # rejected steps and the event's root iterations
        assert len(got_calls) > 6 * (np.asarray(got.t).size - 1) + 1 + 50

    def test_blow_up_raises_as_the_array_integrator_does(self):
        # y' = y^2 from y = 1 leaves the float range before t = 1
        def square(t, y):
            return (y[0] * y[0],)

        with pytest.raises(NonFiniteError) as want:
            with np.errstate(over="ignore", invalid="ignore"):
                integrate_ode_array(lambda t, y: y * y, [1.0], (0.0, 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError) as got:
                integrate_ode(square, [1.0], (0.0, 2.0))
        assert str(got.value) == str(want.value)

    def test_nan_field_raises_as_the_array_integrator_does(self):
        def breaks_down(t, y):
            return (math.nan,) if t > 0.5 else (-y[0],)

        with pytest.raises(NonFiniteError) as want:
            integrate_ode_array(
                lambda t, y: np.array(breaks_down(t, tuple(y))), [1.0], (0.0, 1.0)
            )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError) as got:
                integrate_ode(breaks_down, [1.0], (0.0, 1.0))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("rate", ["Lambda", "alpha"])
    def test_overflowing_rates_raise_as_the_array_integrator_does(self, rate):
        params = WithinHostParams(**{**SLOW_CLEARANCE, rate: 1e300})
        y0 = WithinHostState(10.0, 0.5, 0.0).as_array()
        with pytest.raises(NonFiniteError) as want:
            integrate_ode_array(lambda t, y: rhs_full_array(y, params), y0, (0.0, 300.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError) as got:
                integrate_ode(lambda t, y: rhs_full(y, params), y0, (0.0, 300.0))
        assert str(got.value) == str(want.value)


def reference_simpson_weights(a, b, n):
    """Simpson weights as they were built before the shared coefficients."""
    h = (b - a) / n
    w = np.empty(n + 1)
    w[0] = w[-1] = h / 3.0
    w[1:-1:2] = 4.0 * h / 3.0
    w[2:-1:2] = 2.0 * h / 3.0
    return w


def cubic_rows(coeffs, lengths, n):
    """Node values of one cubic per row on [0, length] and their exact
    integrals; coeffs[:, k] multiplies x**k."""
    x = lengths[:, None] * np.linspace(0.0, 1.0, n + 1)
    values = sum(coeffs[:, [k]] * x**k for k in range(4))
    exact = sum(coeffs[:, k] * lengths ** (k + 1) / (k + 1) for k in range(4))
    scale = sum(np.abs(coeffs[:, k]) * lengths ** (k + 1) / (k + 1) for k in range(4))
    return values, exact, scale


class TestQuadrature:
    def test_rule_weights_are_the_explicit_simpson_weights(self):
        # one unit vector per row reads off the rule's weight at each node
        rng = np.random.default_rng(7)
        for n in [2, 4, 6, 8, 64, 256, *(2 * int(k) for k in rng.integers(1, 300, 20))]:
            length = float(10.0 ** rng.uniform(-6.0, 3.0))
            weights = quadrature(np.eye(n + 1), length)
            np.testing.assert_allclose(
                weights, reference_simpson_weights(0.0, length, n), rtol=1e-15, atol=0.0
            )
        # the cached coefficients are shared between callers
        assert not simpson_coefficients(64).flags.writeable

    def test_exponential_closed_form(self):
        val = quadrature(np.exp(-0.1 * np.linspace(0.0, 5.0, 65)), 5.0)
        assert type(val) is float
        assert val == pytest.approx(10.0 * (1.0 - math.exp(-0.5)), abs=1e-9)

    def test_degenerate_interval(self):
        assert quadrature(np.full(65, math.e**2), 0.0) == 0.0

    def test_simpson_fourth_order_convergence(self):
        exact = 10.0 * (1.0 - math.exp(-0.5))
        errs = []
        for n in (4, 8):
            values = np.exp(-0.1 * np.linspace(0.0, 5.0, n + 1))
            errs.append(abs(quadrature(values, 5.0) - exact))
        assert errs[0] / errs[1] >= 8.0

    def test_simpson_requires_even_panels(self):
        with pytest.raises(ValueError, match="even"):
            quadrature(np.ones(4), 1.0)
        with pytest.raises(ValueError, match="even"):
            quadrature(np.ones(1), 1.0)

    def test_nonfinite_integrand(self):
        with pytest.raises(NonFiniteError), np.errstate(divide="ignore"):
            quadrature(1.0 / np.linspace(0.0, 1.0, 65), 1.0)

    def test_negative_length_gives_the_oriented_integral(self):
        # nodes run from 0 down to -1: the integral of x from 0 to -1 is 1/2
        assert quadrature(np.linspace(0.0, -1.0, 65), -1.0) == pytest.approx(0.5, rel=1e-15)

    @given(
        half=st.integers(1, 40),
        coeffs=st.lists(
            st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4), min_size=1, max_size=5
        ),
        log_lengths=st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5),
        bad=st.sampled_from([math.inf, -math.inf, math.nan]),
        where=st.integers(0, 10**6),
    )
    def test_rows_are_exact_on_cubics_and_guarded(self, half, coeffs, log_lengths, bad, where):
        n = 2 * half
        coeffs = np.array(coeffs)
        lengths = 10.0 ** np.array(log_lengths[: len(coeffs)])
        values, exact, scale = cubic_rows(coeffs, lengths, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # even n: exact on cubics up to rounding, one length per row
            sums = quadrature(values, lengths)
            assert sums.shape == (len(coeffs),)
            assert np.all(np.abs(sums - exact) <= 1e-12 * scale + 1e-300)
            # one row alone gives the same sum as a Python float
            first = quadrature(values[0], float(lengths[0]))
            assert type(first) is float
            assert abs(first - exact[0]) <= 1e-12 * scale[0] + 1e-300
            # a complex dtype is kept, with no cast and no ComplexWarning
            rotated = quadrature(values * (1.0 - 2.0j), lengths)
            assert rotated.dtype == np.complex128
            np.testing.assert_allclose(rotated, exact * (1.0 - 2.0j), rtol=0.0, atol=3e-12 * scale.max())
            assert type(quadrature(values[0] * 1j, float(lengths[0]))) is complex
        # one non-finite node poisons its row's sum
        row, node = divmod(where % values.size, n + 1)
        values[row, node] = bad
        with pytest.raises(NonFiniteError):
            quadrature(values, lengths)
        with pytest.raises(NonFiniteError):
            quadrature(values[row], lengths[row])

    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 1024), half=st.integers(1, 128))
    def test_a_row_of_a_block_sums_bit_for_bit_as_it_does_alone(self, seed, rows, half):
        # a BLAS matrix-vector product may sum a row in another order than a
        # dot product of that row alone, and its order may follow the thread
        # count; the endemic scan's blocks rely on equal bits
        rng = np.random.default_rng(seed)
        values = rng.random((rows, 2 * half + 1)) * 10.0 ** rng.uniform(-3.0, 3.0, (rows, 1))
        lengths = rng.uniform(0.1, 10.0, rows)
        alone = [quadrature(row, float(length)) for row, length in zip(values, lengths)]
        assert quadrature(values, lengths).tolist() == alone


class TestFindRoot:
    def test_sqrt_two(self):
        root = find_root(lambda x: x * x - 2.0, 1.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-10)

    def test_quartic_balance_point(self):
        # rate balance G - G^4 = 0.1 used by the oscillation-onset locus
        root = find_root(lambda G: G - G**4 - 0.1, 0.5, 1.0)
        assert root == pytest.approx(0.9641582450344705, abs=1e-10)

    def test_odd_function_zero(self):
        assert find_root(lambda x: x, -1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_bracket_orientation_validated(self):
        with pytest.raises(ValueError, match="lo < hi"):
            find_root(lambda x: x, 2.0, 1.0)

    @given(
        shift=st.floats(min_value=-0.9, max_value=0.9),
        scale=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_root_stays_inside_bracket(self, shift, scale):
        root = find_root(lambda x: scale * (x - shift), -1.0, 1.0)
        assert -1.0 <= root <= 1.0
        assert root == pytest.approx(shift, abs=1e-9)

    @given(
        shift=st.floats(min_value=-0.95, max_value=0.95),
        scale=st.floats(min_value=1e-3, max_value=1e3),
        curve=st.floats(min_value=0.0, max_value=5.0),
        power=st.sampled_from([1, 3, 5]),
        tol=st.sampled_from([1e-12, 1e-14, 1e-6, 5e-324]),
    )
    def test_matches_scipy_brentq_bit_for_bit(self, shift, scale, curve, power, tol):
        optimize = pytest.importorskip("scipy.optimize")

        def f(x):
            return scale * (x - shift) ** power + curve * math.sin(x - shift)

        want, info = optimize.brentq(
            f, -1.0, 1.0, xtol=tol, maxiter=200, full_output=True, disp=False
        )
        if not info.converged:
            # a subnormal tol on a flat root can outlast the budget in both
            with pytest.raises(ConvergenceError, match="200 iterations"):
                find_root(f, -1.0, 1.0, tol)
            return
        root = find_root(f, -1.0, 1.0, tol)
        assert root.hex() == float(want).hex()

    def test_endpoint_values_are_not_evaluated_again(self):
        seen = []

        def f(x):
            seen.append(x)
            return x * x - 2.0

        find_root(f, 1.0, 2.0)
        assert seen[:2] == [1.0, 2.0]
        assert 1.0 not in seen[2:] and 2.0 not in seen[2:]

    def test_nan_mid_solve_raises_convergence_error(self):
        def f(x):
            return x - 0.3 if x in (0.0, 1.0) else math.nan

        with pytest.raises(ConvergenceError, match="NaN"):
            find_root(f, 0.0, 1.0)

    def test_exhausted_iteration_budget_raises_convergence_error(self):
        # a jump at 0 with a subnormal width tolerance: every step halves
        # the bracket towards 0, far beyond the 200-iteration budget
        with pytest.raises(ConvergenceError, match="200 iterations"):
            find_root(lambda x: 1.0 if x > 0.0 else -1.0, -1.0, 1.0, 5e-324)

    def test_underflowing_sign_product_is_still_a_bracket_error(self):
        # f(lo)*f(hi) underflows to 0 although both values are positive
        with pytest.raises(BracketError):
            find_root(lambda x: 1e-200, 0.0, 1.0)
