import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from immunoepi import numerics
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
    quadrature_nodes,
    rk4_step,
    simpson_coefficients,
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
        for n in (10, 20):
            h = 1.0 / n
            y = np.array([1.0])
            for k in range(n):
                y = rk4_step(decay, k * h, y, h)
            errors.append(abs(y[0] - math.exp(-1.0)))
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

    def test_step_budget_exhaustion(self, monkeypatch):
        # the first step is a hundredth of the span, so ten steps fall short
        monkeypatch.setattr(numerics, "MAX_STEPS", 10)
        with pytest.raises(StepLimitError, match="exceeded 10 steps"):
            integrate_ode(decay, [1.0], (0.0, 1.0))

    def test_nonfinite_state_detected(self):
        def breaks_down(t, y):
            return np.full_like(y, np.nan) if t > 0.5 else -y

        with pytest.raises(NonFiniteError):
            integrate_ode(breaks_down, [1.0], (0.0, 1.0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            IntegratorSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            IntegratorSpec(max_step=-1.0)

    def test_specs_expose_only_the_accuracy_knobs(self):
        assert [f.name for f in dataclasses.fields(IntegratorSpec)] == [
            "rel_tol", "abs_tol", "max_step"
        ]
        assert [f.name for f in dataclasses.fields(QuadratureSpec)] == ["n"]


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


def reference_simpson_weights(a, b, n):
    """Simpson weights as they were built before the shared coefficients."""
    h = (b - a) / n
    w = np.empty(n + 1)
    w[0] = w[-1] = h / 3.0
    w[1:-1:2] = 4.0 * h / 3.0
    w[2:-1:2] = 2.0 * h / 3.0
    return w


class TestQuadrature:
    def test_shared_coefficients_give_the_explicit_weights_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for n in [2, 4, 6, 8, 64, 256, *(2 * int(k) for k in rng.integers(1, 600, 40))]:
            for _ in range(10):
                a = float(rng.uniform(-50.0, 50.0))
                b = a + float(10.0 ** rng.uniform(-6.0, 3.0))
                nodes, w = quadrature_nodes(a, b, QuadratureSpec(n=n))
                assert w.tobytes() == reference_simpson_weights(a, b, n).tobytes()
                assert np.array_equal(nodes, np.linspace(a, b, n + 1))
        # the cached coefficients are shared between callers
        assert not simpson_coefficients(64).flags.writeable

    def test_exponential_closed_form(self):
        val = quadrature(lambda x: np.exp(-0.1 * x), 0.0, 5.0)
        assert val == pytest.approx(10.0 * (1.0 - math.exp(-0.5)), abs=1e-9)

    def test_degenerate_interval(self):
        assert quadrature(lambda x: np.exp(x), 2.0, 2.0) == 0.0

    def test_simpson_fourth_order_convergence(self):
        exact = 10.0 * (1.0 - math.exp(-0.5))
        errs = []
        for n in (4, 8):
            spec = QuadratureSpec(n=n)
            errs.append(abs(quadrature(lambda x: np.exp(-0.1 * x), 0.0, 5.0, spec) - exact))
        assert errs[0] / errs[1] >= 8.0

    def test_simpson_requires_even_panels(self):
        with pytest.raises(ValueError):
            QuadratureSpec(n=3)
        with pytest.raises(ValueError):
            QuadratureSpec(n=0)

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
