import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from immunoepi.numerics import (
    BracketError,
    IntegratorSpec,
    NonFiniteError,
    QuadratureSpec,
    RootBracket,
    StepLimitError,
    find_root,
    integrate_ode,
    quadrature,
)
from immunoepi.numerics import _dp45_step
from immunoepi.within_host import WithinHostParams, vector_field

from conftest import random_within


def decay(t, y):
    return -y


class TestIntegrateOde:
    def test_linear_decay_closed_form(self):
        run = integrate_ode(decay, [1.0], (0.0, 1.0))
        assert run.final_state[0] == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_constant_field_is_identity(self):
        run = integrate_ode(lambda t, y: 0.0 * y, [7.0], (0.0, 3.0))
        assert np.all(run.y == 7.0)

    def test_fixed_step_fourth_order_convergence(self):
        errors = []
        for h in (0.1, 0.05):
            spec = IntegratorSpec(method="rk4", step=h)
            run = integrate_ode(decay, [1.0], (0.0, 1.0), spec)
            errors.append(abs(run.final_state[0] - math.exp(-1.0)))
        assert errors[0] / errors[1] >= 8.0

    def test_event_time_bisection(self):
        # y = e^{-t} crosses 1/2 at t = ln 2
        run = integrate_ode(decay, [1.0], (0.0, 5.0), event=lambda t, y: y[0] - 0.5)
        assert run.event_time == pytest.approx(math.log(2.0), abs=1e-8)
        assert run.event_state[0] == pytest.approx(0.5, abs=1e-8)
        assert run.t[-1] == pytest.approx(run.event_time)

    def test_no_event_crossing_returns_none(self):
        run = integrate_ode(decay, [1.0], (0.0, 1.0), event=lambda t, y: y[0] + 2.0)
        assert run.event_time is None

    def test_step_budget_exhaustion(self):
        spec = IntegratorSpec(method="rk4", step=1e-4, max_steps=10)
        with pytest.raises(StepLimitError):
            integrate_ode(decay, [1.0], (0.0, 1.0), spec)

    def test_nonfinite_state_detected(self):
        with pytest.raises(NonFiniteError):
            integrate_ode(
                lambda t, y: y * y,
                [10.0],
                (0.0, 10.0),
                IntegratorSpec(method="rk4", step=0.5),
            )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            IntegratorSpec(method="rk4")
        with pytest.raises(ValueError):
            IntegratorSpec(method="leapfrog")


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


class TestDormandPrinceStep:
    def test_explicit_stages_match_the_tableau_loop_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            rhs = vector_field(random_within(rng))
            y = rng.uniform(0.0, 3.0, size=3)
            t = float(rng.uniform(0.0, 100.0))
            h = float(10.0 ** rng.uniform(-4.0, 1.0))
            k1 = rhs(t, y) if rng.random() < 0.5 else None
            got = _dp45_step(rhs, t, y, h, k1)
            want = reference_dp45_step(rhs, t, y, h, k1)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()

    def test_overflowing_trial_step_matches_the_tableau_loop(self):
        # a huge step overflows the stages; inf and nan must land alike
        rhs = vector_field(WithinHostParams(Lambda=1.0, mu=0.1, alpha=1.0, gamma=0.5, delta=0.3))
        y = np.array([5.0, 40.0, 0.0])
        got = _dp45_step(rhs, 0.0, y, 50.0)
        want = reference_dp45_step(rhs, 0.0, y, 50.0)
        assert not np.all(np.isfinite(got[0]))
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


class TestQuadrature:
    def test_trapezoid_exact_on_linear(self):
        for n in (1, 2, 7, 64):
            spec = QuadratureSpec(rule="trapezoid", n=n)
            assert quadrature(lambda x: x, 0.0, 1.0, spec) == pytest.approx(0.5, abs=1e-14)

    def test_exponential_closed_form(self):
        val = quadrature(lambda x: np.exp(-0.1 * x), 0.0, 5.0)
        assert val == pytest.approx(10.0 * (1.0 - math.exp(-0.5)), abs=1e-9)

    def test_degenerate_interval(self):
        assert quadrature(lambda x: np.exp(x), 2.0, 2.0) == 0.0

    def test_simpson_fourth_order_convergence(self):
        exact = 10.0 * (1.0 - math.exp(-0.5))
        errs = []
        for n in (4, 8):
            spec = QuadratureSpec(rule="simpson", n=n)
            errs.append(abs(quadrature(lambda x: np.exp(-0.1 * x), 0.0, 5.0, spec) - exact))
        assert errs[0] / errs[1] >= 8.0

    def test_simpson_requires_even_panels(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rule="simpson", n=3)

    def test_nonfinite_integrand(self):
        with pytest.raises(NonFiniteError), np.errstate(divide="ignore"):
            quadrature(lambda x: 1.0 / x, 0.0, 1.0)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            quadrature(lambda x: x, 1.0, 0.0)


class TestFindRoot:
    def test_sqrt_two(self):
        root = find_root(lambda x: x * x - 2.0, RootBracket(1.0, 2.0))
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-10)

    def test_quartic_balance_point(self):
        # rate balance G - G^4 = 0.1 used by the oscillation-onset locus
        root = find_root(lambda G: G - G**4 - 0.1, RootBracket(0.5, 1.0))
        assert root == pytest.approx(0.9641582450344705, abs=1e-10)

    def test_odd_function_zero(self):
        assert find_root(lambda x: x, RootBracket(-1.0, 1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, RootBracket(-1.0, 1.0))

    def test_bracket_orientation_validated(self):
        with pytest.raises(ValueError):
            RootBracket(2.0, 1.0)

    @given(
        shift=st.floats(min_value=-0.9, max_value=0.9),
        scale=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_root_stays_inside_bracket(self, shift, scale):
        root = find_root(lambda x: scale * (x - shift), RootBracket(-1.0, 1.0))
        assert -1.0 <= root <= 1.0
        assert root == pytest.approx(shift, abs=1e-9)
