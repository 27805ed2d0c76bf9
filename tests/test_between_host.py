"""Structured epidemic model: thresholds, equilibria, transport, renewal form.

Closed-form oracles use the constant-coefficient sets from conftest, where
every status integral collapses to elementary functions:

    J = int_0^5 e^{-0.1 w} dw = (1 - e^{-0.5}) / 0.1
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from immunoepi import between_host as bh
from immunoepi import coefficients as coef
from immunoepi.errors import BracketError, NonFiniteError, NumericsError, TransportBlowupError
from immunoepi.numerics import find_root, quadrature

from conftest import linked_params, make_between
from oracles import (
    boundary_history,
    characteristics_eval,
    dfe_char_G,
    infected_mass,
    reduced_endemic_residual,
)
from reference_loops import (
    simulate_epidemic_array,
    simulate_epidemic_flux_form,
    simulate_renewal_array,
)

EPS = float(np.finfo(float).eps)
J_REF = (1.0 - np.exp(-0.5)) / 0.1  # 3.9346934028736658
R0_DIRECT_REF = 7.8693868057473315  # (r beta_h / mu1) * J
R0_ENV_REF = 9.443264166896798  # adds (r beta_e / (mu1 sigma)) * xi * J
PI_END_REF = 0.6065306597126334  # e^{-0.5}
I0_DIRECT_REF = 0.8729252958731601  # r (1 - 1/R0) / g(0)
I0_ENV_REF = 0.8941044132276335
S_STAR_ENV_REF = 1.058955867723666  # r / (mu1 R0)
B_STAR_ENV_REF = 2.8144213889655996  # I0 g0 (xi J) / sigma
A_AT_2_REF = 0.16374615061559637  # beta_h e^{-0.2}
LAMBDA_DIRECT_REF = 1.8999157640175564
LAMBDA_ENV_REF = 1.9805714871787894
K_DIRECT_REF = 0.6869386805747332  # beta_h int P I* = beta_h I0 g0 J = mu1 (R0 - 1)


# the initial infected density of the renewal runs
DECAYING = coef.exponential(0.5, -1.0)


def zero_history(s):
    return np.zeros_like(np.asarray(s, dtype=float))


def counting(coefficient, calls):
    """The same coefficient, recording the node count of each call."""

    def fn(w):
        calls.append(np.size(w))
        return coefficient.fn(w)

    return coef.Coefficient(coefficient.family, coefficient.describe, fn)


def random_between(rng):
    """Admissible constant-coefficient parameter set from a seeded Random."""
    return make_between(
        beta_h=rng.uniform(0.01, 0.4),
        beta_e=rng.uniform(0.0, 0.1),
        sigma=rng.uniform(0.2, 1.0),
        rho=rng.uniform(0.0, 0.4),
        omega0=rng.uniform(2.0, 8.0),
        mu2=coef.constant(rng.uniform(0.02, 0.3)),
        g=coef.constant(rng.uniform(0.5, 2.0)),
    )


class TestParamsValidation:
    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError, match="r must be positive"):
            make_between(0.2, 0.0, r=0.0)
        with pytest.raises(ValueError, match="sigma"):
            make_between(0.2, 0.0, sigma=-0.5)

    def test_rejects_negative_transmission(self):
        with pytest.raises(ValueError, match="beta_h"):
            make_between(-0.2, 0.0)

    def test_zero_transmission_is_admissible(self):
        p = make_between(0.0, 0.0)
        assert bh.r0(p) == 0.0

    def test_rejects_nonpositive_growth_speed(self):
        with pytest.raises(ValueError, match="strictly positive"):
            make_between(0.2, 0.0, g=coef.linear(1.0, -0.3))

    def test_rejects_a_table_speed_that_vanishes_between_probe_nodes(self):
        # the knot at omega = 2 is not one of the 65 uniform probe nodes
        g = coef.table([0.0, 2.0, 5.0], [1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="strictly positive"):
            make_between(0.2, 0.0, g=g)

    def test_rejects_a_speed_that_vanishes_between_table_nodes(self):
        # positive on the 65 table nodes; negative on clock node 128 only,
        # midway between the first two
        def fn(w):
            return np.where(np.abs(w - 5.0 / 128) < 5.0 / bh.CLOCK_NODES, -1.0, 1.0)

        g = coef.Coefficient("custom", {}, fn)
        assert (g(np.linspace(0.0, 5.0, bh.TABLE_PANELS + 1)) > 0).all()
        with pytest.raises(ValueError, match="strictly positive"):
            make_between(0.2, 0.0, g=g)

    def test_rejects_negative_coefficient_values(self):
        with pytest.raises(ValueError, match="xi"):
            make_between(0.2, 0.0, xi=coef.linear(0.1, -0.1))

    def test_rejects_non_coefficient_entries(self):
        with pytest.raises(TypeError, match="Coefficient"):
            make_between(0.2, 0.0, mu2=0.1)


class TestStructuredState:
    def test_infected_mass_is_the_trapezoid_integral(self):
        state = bh.StructuredState(S=1.0, I=np.ones(101), V=0.0, B=0.0)
        assert infected_mass(state, 5.0) == pytest.approx(5.0, abs=1e-14)

    def test_rejects_negative_density(self):
        bad = np.ones(11)
        bad[3] = -0.1
        with pytest.raises(ValueError, match="nonnegative"):
            bh.StructuredState(S=1.0, I=bad, V=0.0, B=0.0)

    def test_rejects_scalar_density(self):
        with pytest.raises(ValueError, match="1-d"):
            bh.StructuredState(S=1.0, I=np.ones((3, 3)), V=0.0, B=0.0)


class TestStatusClock:
    def test_constant_speed_clock_is_linear(self):
        p = make_between(0.2, 0.0, g=coef.constant(2.0))
        clock = bh.build_clock(p)
        assert clock.total_time == pytest.approx(2.5, abs=1e-12)
        assert np.interp(1.0, clock.omega, clock.elapsed) == pytest.approx(0.5, abs=1e-12)
        assert clock.decay_at(2.0) == pytest.approx(0.1, abs=1e-12)  # mu2/g = 0.05

    def test_time_and_status_invert_each_other(self):
        p = make_between(0.2, 0.0, g=coef.linear(0.5, 0.3))
        clock = bh.build_clock(p)
        w = np.linspace(0.0, 5.0, 11)
        np.testing.assert_allclose(clock.status_at(np.interp(w, clock.omega, clock.elapsed)), w, atol=1e-9)

    def test_nonconstant_speed_matches_the_log_formula(self):
        # g = 1 + 0.2 w gives G(w) = 5 ln(1 + 0.2 w)
        p = make_between(0.2, 0.0, mu2=coef.constant(0.0), g=coef.linear(1.0, 0.2))
        clock = bh.build_clock(p)
        assert np.interp(3.0, clock.omega, clock.elapsed) == pytest.approx(5.0 * np.log(1.6), rel=1e-8)

    def test_one_clock_per_parameter_set(self, monkeypatch):
        calls = []
        build = bh.build_clock

        def counting(params):
            calls.append(params)
            return build(params)

        monkeypatch.setattr(bh, "build_clock", counting)
        p = make_between(0.2, 0.0)
        bh.r0(p)
        bh.endemic_equilibrium(p)
        monkeypatch.setattr(bh, "SPECTRUM_SCAN_MAX", 1.0)
        monkeypatch.setattr(bh, "SPECTRUM_SCAN_STEP", 0.25)
        bh.endemic_spectrum_scan(p)
        # memory window a_bar + travel time = 35 is 70 steps of 0.5
        bh.simulate_renewal(p, DECAYING, 10.0, 1.0, 0.5)
        assert calls == [p]
        assert p.clock is p.clock

    @given(omega0=st.floats(min_value=1e-300, max_value=1e300))
    def test_table_nodes_are_every_stride_th_clock_node(self, omega0):
        assert bh.CLOCK_NODES % bh.TABLE_PANELS == 0
        clock = make_between(0.2, 0.05, omega0=omega0).clock
        table = np.linspace(0.0, omega0, bh.TABLE_PANELS + 1)
        assert clock.omega[:: bh.TABLE_STRIDE].tobytes() == table.tobytes()

    def test_threshold_quantities_evaluate_no_coefficient(self):
        calls = []
        functions = dict(mu2=coef.constant(0.1), xi=coef.constant(0.4),
                         P=coef.constant(1.0), g=coef.constant(1.0))
        counted = {name: counting(fn, calls) for name, fn in functions.items()}
        above = make_between(0.2, 0.05, **counted)
        below = make_between(0.01, 0.005, **counted)
        # mu2 and g on the clock nodes, xi and P on the table nodes, once per set
        clock, table = bh.CLOCK_NODES + 1, bh.TABLE_PANELS + 1
        assert calls == [clock, table, table, clock] * 2
        calls.clear()
        assert bh.r0(above) > 1.0 > bh.r0(below)
        assert bh.dfe_lambda_hat(above) > 0.0 > bh.dfe_lambda_hat(below)
        bh.endemic_char_residual(above)(0.5)
        bh.endemic_spectrum_scan(above)
        assert calls == []

    def test_renewal_quantities_read_the_clock_nodes(self):
        calls = []
        functions = dict(mu2=coef.constant(0.1), xi=coef.constant(0.4),
                         P=coef.constant(1.0), g=coef.constant(1.0))
        counted = {name: counting(fn, calls) for name, fn in functions.items()}
        shedding = make_between(0.2, 0.05, **counted)
        environmental = make_between(0.0, 0.05, **counted)
        # P, g and xi once each per call, on the clock's own nodes
        nodes = [bh.CLOCK_NODES + 1] * 3
        calls.clear()
        bh.kernel_total_integral(shedding)
        assert calls == nodes
        calls.clear()
        bh.renewal_kernel_A(np.linspace(0.0, 40.0, 81), environmental)
        assert calls == nodes

    def test_parameter_sets_are_frozen(self, direct_params):
        with pytest.raises(AttributeError):
            direct_params.beta_h = 0.3


class TestSurvival:
    def test_weighted_survival_closed_form(self, direct_params):
        assert bh.survival_pi(0.0, direct_params) == pytest.approx(1.0, abs=1e-12)
        assert bh.survival_pi(5.0, direct_params) == pytest.approx(PI_END_REF, abs=1e-12)

    def test_speed_rescales_the_density(self):
        p = make_between(0.2, 0.0, mu2=coef.constant(0.0), g=coef.constant(2.0))
        w = np.linspace(0.0, 5.0, 6)
        np.testing.assert_allclose(bh.survival_pi(w, p), 0.5, atol=1e-13)

    def test_survival_is_read_off_the_clock(self):
        p = make_between(0.2, 0.0, mu2=coef.linear(0.1, 0.05), g=coef.linear(1.0, 0.2))
        w = np.linspace(0.0, 5.0, 37)
        expected = np.exp(-p.clock.decay_at(w)) / p.g(w)
        assert np.array_equal(bh.survival_pi(w, p), expected)

    def test_rejects_status_outside_the_domain(self, direct_params):
        with pytest.raises(ValueError, match="omega"):
            bh.survival_pi(5.5, direct_params)
        with pytest.raises(ValueError, match="omega"):
            bh.survival_pi(-0.1, direct_params)


class TestReproductionNumber:
    def test_direct_route_closed_form(self, direct_params):
        assert bh.r0(direct_params) == pytest.approx(R0_DIRECT_REF, abs=1e-8)

    def test_both_routes_closed_form(self, env_params):
        assert bh.r0(env_params) == pytest.approx(R0_ENV_REF, abs=1e-8)

    def test_terms_split_and_sum(self, env_params, direct_params):
        direct, environmental = bh.r0_terms(env_params)
        assert direct + environmental == pytest.approx(bh.r0(env_params), abs=1e-13)
        assert direct == pytest.approx(R0_DIRECT_REF, abs=1e-8)
        assert environmental == pytest.approx(R0_ENV_REF - R0_DIRECT_REF, abs=1e-8)
        assert bh.r0_terms(direct_params)[1] == 0.0

    def test_characteristic_function_at_zero_is_the_reproduction_number(self, env_params):
        assert dfe_char_G(0.0, env_params) == pytest.approx(bh.r0(env_params), abs=1e-10)

    def test_characteristic_function_is_strictly_decreasing(self, env_params):
        grid = [-0.4, -0.1, 0.0, 0.5, 1.0, 2.0, 5.0]
        vals = [dfe_char_G(x, env_params) for x in grid]
        assert all(a > b for a, b in zip(vals[:-1], vals[1:]))

    def test_characteristic_function_respects_the_pole(self, env_params):
        with pytest.raises(ValueError, match="-sigma"):
            dfe_char_G(-0.5, env_params)

    @given(st.randoms(use_true_random=False))
    def test_zero_evaluation_identity_on_random_sets(self, rng):
        p = random_between(rng)
        assert dfe_char_G(0.0, p) == pytest.approx(bh.r0(p), abs=1e-10)
        assert dfe_char_G(0.5, p) < dfe_char_G(0.2, p) < bh.r0(p)


class TestGrowthRate:
    def test_supercritical_root_values(self, direct_params, env_params):
        assert bh.dfe_lambda_hat(direct_params) == pytest.approx(LAMBDA_DIRECT_REF, abs=1e-9)
        assert bh.dfe_lambda_hat(env_params) == pytest.approx(LAMBDA_ENV_REF, abs=1e-9)

    def test_root_satisfies_the_characteristic_equation(self, env_params):
        lam = bh.dfe_lambda_hat(env_params)
        assert dfe_char_G(lam, env_params) == pytest.approx(1.0, abs=1e-10)

    def test_sign_matches_the_threshold(self, direct_params):
        assert bh.dfe_lambda_hat(direct_params) > 0
        sub = make_between(0.5 * 0.1 / J_REF, 0.0)
        assert bh.r0(sub) == pytest.approx(0.5, abs=1e-9)
        assert bh.dfe_lambda_hat(sub) < 0

    def test_no_transmission_has_no_root(self):
        with pytest.raises(BracketError):
            bh.dfe_lambda_hat(make_between(0.0, 0.0))

    @pytest.mark.parametrize(
        "params",
        [
            make_between(0.005, 0.0),
            make_between(0.005, 0.05, xi=coef.constant(0.0)),
            make_between(0.005, 0.05, xi=coef.constant(0.0), sigma=1.0),
        ],
        ids=["beta_e=0", "xi=0", "xi=0,sigma=1"],
    )
    def test_root_below_minus_sigma_without_an_environmental_route(self, params):
        # no environmental route, so no pole at -sigma: the direct route's
        # G(lam) = (r beta_h/mu1) (1 - e^{-5(0.1+lam)})/(0.1+lam) crosses 1
        # near -0.5673, below sigma = 0.5's pole; at sigma = 1 the search
        # evaluates G at lam = -sigma itself
        def closed_form(lam):
            return 10.0 * 0.005 * -np.expm1(-5.0 * (0.1 + lam)) / (0.1 + lam) - 1.0

        exact = find_root(closed_form, -2.0, 0.0)
        assert bh.dfe_lambda_hat(params) == pytest.approx(exact, abs=1e-7)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=15)
    def test_root_sign_tracks_the_reproduction_number(self, rng):
        p = random_between(rng)
        basic = bh.r0(p)
        assume(abs(basic - 1.0) > 0.05)
        try:
            lam = bh.dfe_lambda_hat(p)
        except BracketError:
            # admissible only below threshold, where the root may fall
            # beyond the -sigma pole
            assert basic < 1.0
            return
        assert (lam > 0) == (basic > 1.0)


class TestEndemicEquilibrium:
    def test_absent_at_or_below_threshold(self):
        assert bh.endemic_equilibrium(make_between(0.5 * 0.1 / J_REF, 0.0)) is None

    def test_direct_route_closed_forms(self, direct_params):
        eq = bh.endemic_equilibrium(direct_params)
        assert eq is not None
        assert bh.r0(direct_params) == pytest.approx(R0_DIRECT_REF, abs=1e-8)
        assert eq.I0 == pytest.approx(I0_DIRECT_REF, abs=1e-8)
        assert eq.S * bh.r0(direct_params) == pytest.approx(10.0, abs=1e-10)
        assert eq.V == pytest.approx(eq.I0 * PI_END_REF / 0.2, abs=1e-8)

    def test_both_routes_closed_forms(self, env_params):
        eq = bh.endemic_equilibrium(env_params)
        assert eq.I0 == pytest.approx(I0_ENV_REF, abs=1e-8)
        assert eq.S == pytest.approx(S_STAR_ENV_REF, abs=1e-8)
        assert eq.B == pytest.approx(B_STAR_ENV_REF, abs=1e-8)

    def test_profile_is_the_scaled_survival_density(self, env_params):
        eq = bh.endemic_equilibrium(env_params, n_omega=100)
        np.testing.assert_allclose(
            eq.I, eq.I0 * bh.survival_pi(eq.omega, env_params), rtol=1e-12
        )
        assert eq.I[0] == pytest.approx(eq.I0, abs=1e-12)
        assert np.all(np.diff(eq.I) < 0)

    def test_stationarity_residuals_are_grid_small(self, env_params):
        eq = bh.endemic_equilibrium(env_params)
        res = bh.endemic_residuals(eq, env_params)
        assert set(res) == {"susceptible", "transport", "boundary", "recovered", "environment"}
        assert max(abs(v) for v in res.values()) < 5e-7

    def test_immunity_loss_feeds_back_consistently(self):
        p = make_between(0.2, 0.05, rho=0.3)
        eq = bh.endemic_equilibrium(p)
        res = bh.endemic_residuals(eq, p)
        assert max(abs(v) for v in res.values()) < 5e-7
        # recycling shrinks S* drain, so the boundary inflow exceeds the
        # rho = 0 value at the same transmission rates
        eq0 = bh.endemic_equilibrium(make_between(0.2, 0.05))
        assert eq.I0 > eq0.I0


class TestCharacteristics:
    def test_time_zero_returns_the_initial_density(self, matched_params):
        phi = lambda x: 0.1 * np.exp(-0.5 * np.asarray(x, dtype=float))
        w = np.linspace(0.0, 5.0, 7)
        got = characteristics_eval(0.0, w, matched_params, phi, zero_history)
        np.testing.assert_allclose(got, phi(w), rtol=1e-12)

    def test_initial_branch_translates_and_decays(self, direct_params):
        # constant speed 1 and removal 0.1: I(t,w) = phi(w-t) e^{-0.1 t}
        phi = lambda x: 0.1 * np.exp(-0.5 * np.asarray(x, dtype=float))
        got = characteristics_eval(1.0, 3.0, direct_params, phi, zero_history)
        assert got == pytest.approx(0.1 * np.exp(-1.0) * np.exp(-0.1), rel=1e-10)

    def test_boundary_branch_carries_the_history(self, direct_params):
        history = lambda s: 0.3 + 0.1 * np.asarray(s, dtype=float)
        got = characteristics_eval(1.0, 0.5, direct_params, zero_history, history)
        assert got == pytest.approx((0.3 + 0.1 * 0.5) * np.exp(-0.05), rel=1e-10)

    def test_nonconstant_speed_matches_the_exact_pullback(self):
        # g = 1 + 0.2 w, no removal: the backward status has a log closed form
        p = make_between(0.2, 0.0, mu2=coef.constant(0.0), g=coef.linear(1.0, 0.2))
        phi = lambda x: 0.1 * np.exp(-0.5 * np.asarray(x, dtype=float))
        t, w = 1.0, 3.0
        w_back = ((1.0 + 0.2 * w) * np.exp(-0.2 * t) - 1.0) / 0.2
        exact = phi(w_back) * (1.0 + 0.2 * w_back) / (1.0 + 0.2 * w)
        got = characteristics_eval(t, w, p, phi, zero_history)
        assert got == pytest.approx(exact, rel=1e-8)

    def test_scalar_and_array_evaluation_agree(self, direct_params):
        phi = lambda x: 0.1 * np.exp(-0.5 * np.asarray(x, dtype=float))
        history = lambda s: 0.2 * np.ones_like(np.asarray(s, dtype=float))
        w = np.array([0.3, 2.0, 4.5])
        arr = characteristics_eval(1.0, w, direct_params, phi, history)
        for i, x in enumerate(w):
            assert characteristics_eval(1.0, float(x), direct_params, phi, history) == arr[i]


class TestSimulateEpidemic:
    def test_infection_free_state_is_invariant(self, direct_params):
        n = 100
        dfe = bh.StructuredState(S=10.0, I=np.zeros(n + 1), V=0.0, B=0.0)
        run = bh.simulate_epidemic(direct_params, dfe, t_max=5.0, n_omega=n, dt=0.025)
        assert run.final.S == 10.0
        assert run.final.I.max() == 0.0
        assert run.final.V == 0.0 and run.final.B == 0.0

    def test_subthreshold_infection_dies_out(self):
        sub = make_between(0.5 * 0.1 / J_REF, 0.0)
        w = np.linspace(0.0, 5.0, 201)
        init = bh.StructuredState(S=10.0, I=0.1 * np.exp(-w), V=0.0, B=0.01)
        run = bh.simulate_epidemic(sub, init, t_max=200.0, n_omega=200, dt=0.02)
        assert infected_mass(run.final, 5.0) + run.final.B < 1e-12
        assert run.final.S == pytest.approx(10.0, rel=1e-3)

    def test_population_balance_with_equal_removal_rates(self):
        # mu1 = mu2 = mu3 and rho = 0 close the head count:
        # N' = r - mu1 N for N = S + int I + V
        p = make_between(0.2, 0.05, mu3=0.1)
        w = np.linspace(0.0, 5.0, 201)
        init = bh.StructuredState(S=8.0, I=0.5 * np.exp(-w), V=0.2, B=0.1)
        run = bh.simulate_epidemic(p, init, t_max=10.0, n_omega=200, dt=0.02)
        n0 = 8.0 + infected_mass(init, 5.0) + 0.2
        n_end = run.final.S + infected_mass(run.final, 5.0) + run.final.V
        analytic = 10.0 + (n0 - 10.0) * np.exp(-1.0)
        assert n_end == pytest.approx(analytic, rel=1e-2)

    def test_matches_the_characteristics_oracle(self, matched_params):
        phi = lambda x: 0.1 * np.exp(-0.5 * np.asarray(x, dtype=float))
        w = np.linspace(0.0, 5.0, 201)
        init = bh.StructuredState(S=10.71638821965096, I=phi(w), V=0.0, B=0.0)
        run = bh.simulate_epidemic(
            matched_params, init, t_max=2.0, n_omega=200, dt=0.0125, snapshot_stride=1
        )
        history = boundary_history(run, matched_params.g(0.0))
        pred = characteristics_eval(2.0, w, matched_params, phi, history)
        assert np.max(np.abs(run.final.I - pred)) < 1e-3

    def test_rejects_courant_violation(self, direct_params):
        init = bh.StructuredState(S=10.0, I=np.zeros(101), V=0.0, B=0.0)
        with pytest.raises(ValueError, match="CFL"):
            bh.simulate_epidemic(direct_params, init, t_max=1.0, n_omega=100, dt=0.1)

    def test_rejects_mismatched_grid(self, direct_params):
        init = bh.StructuredState(S=10.0, I=np.zeros(101), V=0.0, B=0.0)
        with pytest.raises(ValueError, match="n_omega"):
            bh.simulate_epidemic(direct_params, init, t_max=1.0, n_omega=200, dt=0.01)

    def test_state_stays_nonnegative(self, env_params):
        w = np.linspace(0.0, 5.0, 201)
        init = bh.StructuredState(S=10.0, I=0.5 * np.exp(-2.0 * w), V=0.0, B=0.0)
        run = bh.simulate_epidemic(env_params, init, t_max=30.0, n_omega=200, dt=0.02)
        assert run.final.I.min() >= 0.0
        assert min(run.final.S, run.final.V, run.final.B) >= 0.0
        assert np.all(run.I_total >= 0.0)

    @pytest.mark.parametrize(
        "r, t_max", [(1.7e308, 0.05), (1.7e308, 0.5)], ids=["last_step", "mid_run"]
    )
    def test_overflow_is_a_blowup(self, r, t_max):
        # a recruitment rate near the float maximum overflows S: the final
        # state (one step) or the step check (later NaN) refuses the run
        params = make_between(0.2, 0.05, r=r)
        init = bh.StructuredState(S=1.0, I=np.exp(-0.5 * np.linspace(0.0, 5.0, 51)), V=0.0, B=0.0)
        with pytest.raises(TransportBlowupError, match="non-finite"), np.errstate(all="ignore"):
            bh.simulate_epidemic(params, init, t_max=t_max, n_omega=50, dt=0.05)

    def test_records_follow_the_output_stride(self, direct_params):
        init = bh.StructuredState(S=10.0, I=np.zeros(51), V=0.0, B=0.0)
        run = bh.simulate_epidemic(
            direct_params, init, t_max=1.0, n_omega=50, dt=0.05,
            output_stride=4, snapshot_stride=10,
        )
        assert len(run.t) == 6  # 0, 0.2, ..., 1.0
        assert run.t[-1] == pytest.approx(1.0)
        assert run.snapshots.shape == (3, 51)  # steps 0, 10, 20

    @pytest.mark.parametrize("strides", [(0, 0), (-1, 0), (1, -1)])
    def test_rejects_invalid_strides(self, direct_params, strides):
        output_stride, snapshot_stride = strides
        init = bh.StructuredState(S=10.0, I=np.zeros(51), V=0.0, B=0.0)
        with pytest.raises(ValueError, match="stride"):
            bh.simulate_epidemic(
                direct_params, init, t_max=1.0, n_omega=50, dt=0.05,
                output_stride=output_stride, snapshot_stride=snapshot_stride,
            )


def reference_cases():
    """bh_env, table-valued g and P, and the linked set with P and g from the
    within-host branch up to the fold, each with an initial state."""
    table = make_between(
        0.2, 0.05, rho=0.1,
        g=coef.table([0.0, 2.0, 5.0], [1.0, 0.6, 1.3]),
        P=coef.table([0.0, 2.5, 5.0], [0.5, 1.5, 1.0]),
        mu2=coef.linear(0.1, 0.02),
    )
    cases = {}
    for name, params, v0, b0 in [
        ("bh_env", make_between(0.2, 0.05), 0.0, 0.0),
        ("table", table, 0.3, 0.2),
        ("linked", linked_params(), 0.1, 0.05),
    ]:
        n_omega = 100
        w = np.linspace(0.0, params.omega0, n_omega + 1)
        dt = 0.8 * (params.omega0 / n_omega) / float(np.max(params.g(w)))
        init = bh.StructuredState(S=10.0, I=0.5 * np.exp(-w), V=v0, B=b0)
        cases[name] = (params, init, n_omega, dt)
    return cases


class TestArrayReference:
    """The float-pool RK4, the buffered bidiagonal upwind map and the one
    product for the coupling integrals reproduce the array-form loop bit
    for bit; a reordered product would show on table and linked
    coefficients, where P and g vary with status."""

    # 400 steps: stride 7 leaves a trailing record of the last step
    @pytest.mark.parametrize("stride", [1, 7, 80])
    @pytest.mark.parametrize("case", ["bh_env", "table", "linked"])
    def test_runs_match_the_array_loop_bit_for_bit(self, case, stride):
        params, init, n_omega, dt = reference_cases()[case]
        t_max = 400 * dt
        kwargs = dict(output_stride=stride, snapshot_stride=stride)
        run = bh.simulate_epidemic(params, init, t_max, n_omega, dt, **kwargs)
        ref = simulate_epidemic_array(params, init, t_max, n_omega, dt, **kwargs)
        for name in ("t", "S", "I_total", "V", "B", "F", "snapshot_t", "snapshots"):
            got, want = getattr(run, name), getattr(ref, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        assert run.final.I.tobytes() == ref.final.I.tobytes()
        for pool in ("S", "V", "B"):
            got, want = getattr(run.final, pool), getattr(ref.final, pool)
            assert float(got).hex() == float(want).hex(), pool
        assert run.I_total[-1] > 0.0


class TestFluxFormReference:
    """The bidiagonal map with the one-product integrals stays within
    rounding of the earlier flux-form loop, which sums each integral as a
    trapezoid dot over all nodes. Each step rounds every node and integral
    a few times, in a different order, so after n steps the two may drift
    apart by about n*2^-52 of each series' maximum. That is the bound; the
    largest drift measured is 0.085 of it (V on bh_env, 7.5e-15 of its
    maximum after 400 steps)."""

    @pytest.mark.parametrize("stride", [1, 7, 80])
    @pytest.mark.parametrize("case", ["bh_env", "table", "linked"])
    def test_runs_stay_within_rounding_of_the_flux_form_loop(self, case, stride):
        params, init, n_omega, dt = reference_cases()[case]
        n_steps = 400
        kwargs = dict(output_stride=stride, snapshot_stride=stride)
        run = bh.simulate_epidemic(params, init, n_steps * dt, n_omega, dt, **kwargs)
        ref = simulate_epidemic_flux_form(params, init, n_steps * dt, n_omega, dt, **kwargs)
        bound = n_steps * 2.0**-52
        assert run.t.tobytes() == ref.t.tobytes()
        assert run.snapshot_t.tobytes() == ref.snapshot_t.tobytes()
        for name in ("S", "I_total", "V", "B", "F", "snapshots"):
            got, want = getattr(run, name), getattr(ref, name)
            assert got.shape == want.shape, name
            assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want)), name
        got, want = run.final.I, ref.final.I
        assert np.max(np.abs(got - want)) <= bound * np.max(want)
        for pool in ("S", "V", "B"):
            got, want = getattr(run.final, pool), getattr(ref.final, pool)
            assert abs(got - want) <= bound * np.max(getattr(ref, pool)), pool


def matched_history(params, initial_I, s0):
    """F history that encodes an initial density: entrants at -theta that
    survived to status w(theta), with S held at s0, zero before the travel
    time. The reference loop reads it; the package builds its own."""
    clock = params.clock
    total = clock.total_time

    def history(s):
        theta = np.clip(-np.asarray(s, dtype=float), 0.0, None)
        w = clock.status_at(np.minimum(theta, total))
        vals = initial_I(w) / (bh.survival_pi(w, params) * s0)
        return np.where(theta <= total, vals, 0.0)

    return history


class TestRenewalReference:
    """The float-state renewal loop, from an initial density, reproduces the
    numpy-scalar loop with its per-step closure, from the history matched to
    that density, bit for bit, and fails on the same inputs."""

    @pytest.mark.parametrize("route", ["direct", "env"])
    @pytest.mark.parametrize("s0", [3.0, 10.0])
    def test_runs_match_the_array_loop_bit_for_bit(self, route, s0, direct_params, env_params):
        params = direct_params if route == "direct" else env_params
        history = matched_history(params, DECAYING, s0)
        assert history(np.array([-1.0]))[0] > 0.0
        run = bh.simulate_renewal(params, DECAYING, S0=s0, t_max=20.0, dt=0.05)
        ref = simulate_renewal_array(params, history, S0=s0, t_max=20.0, dt=0.05)
        for name in ("t", "S", "F"):
            got, want = getattr(run, name), getattr(ref, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        assert run.F.max() > 0.0

    def test_negative_history_fails_in_both_loops(self, direct_params):
        # a negative density gives a negative history, and the first step's
        # F falls below the negativity tolerance: the loops' own guard
        negative = coef.exponential(-0.5, -1.0)
        history = matched_history(direct_params, negative, 10.0)
        with pytest.raises(TransportBlowupError, match="non-finite"):
            bh.simulate_renewal(direct_params, negative, S0=10.0, t_max=1.0, dt=0.5)
        nan_history = lambda s: np.full_like(np.asarray(s, dtype=float), np.nan)
        for past in (history, nan_history):
            with pytest.raises(TransportBlowupError, match="non-finite"):
                simulate_renewal_array(direct_params, past, S0=10.0, t_max=1.0, dt=0.5)

    def test_lost_diagonal_dominance_fails_in_both_loops(self, direct_params):
        # anchor = 0.5*dt*A(0) = 0.05: S near 100 makes 1 - anchor*S negative
        history = matched_history(direct_params, DECAYING, 100.0)
        with pytest.raises(TransportBlowupError, match="diagonal dominance"):
            bh.simulate_renewal(direct_params, DECAYING, S0=100.0, t_max=1.0, dt=0.5)
        with pytest.raises(TransportBlowupError, match="diagonal dominance"):
            simulate_renewal_array(direct_params, history, S0=100.0, t_max=1.0, dt=0.5)


class TestRenewalForm:
    def test_kernel_value_closed_form(self, direct_params):
        assert bh.renewal_kernel_A(2.0, direct_params) == pytest.approx(A_AT_2_REF, abs=1e-12)

    def test_direct_kernel_stops_at_recovery(self, direct_params, env_params):
        assert bh.renewal_kernel_A(6.0, direct_params) == 0.0
        # bacteria shed before recovery keep the kernel alive afterwards
        assert bh.renewal_kernel_A(6.0, env_params) > 0.0
        assert bh.renewal_kernel_A(34.999, env_params) < 1e-9

    def test_kernel_support_is_bounded(self, direct_params, env_params):
        # a_bar + travel time = 35: the kernel is exactly 0 at and past it
        past = np.array([35.0, 35.0 + 1e-12, 35.1, 1e300, np.inf])
        for p in (direct_params, env_params):
            assert bh.renewal_kernel_A(past, p).tolist() == [0.0] * past.size
            assert bh.renewal_kernel_A(35.0, p) == 0.0
            with pytest.raises(ValueError, match="nonnegative"):
                bh.renewal_kernel_A(-1e-12, p)
        assert bh.renewal_kernel_A(34.9, env_params) > 0.0

    def test_total_integral_matches_its_closed_form(self, env_params):
        # each route integrates P e^{-M} = e^{-0.1 theta} over the travel
        # time to J; bacteria add their age factor (1 - e^{-sigma a_bar})/sigma
        age_factor = (1.0 - np.exp(-0.5 * 30.0)) / 0.5
        exact = 0.2 * J_REF + 0.05 * age_factor * 0.4 * J_REF
        assert bh.kernel_total_integral(env_params) == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_stationary_kernel_identity(self, direct_params, env_params):
        # S* times the lifetime transmission integral is 1, up to the
        # exponential age-cap truncation e^{-sigma a_bar}
        for p in (direct_params, env_params):
            eq = bh.endemic_equilibrium(p)
            assert eq.S * bh.kernel_total_integral(p) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "params", [linked_params(), make_between(0.2, 0.05)], ids=["linked", "bh_env"]
    )
    def test_identity_isolates_the_table_error(self, params):
        # R0 as a Simpson sum on every clock node (at lam = 0 the travel
        # time G drops out of the weight): against it the kernel total, on
        # the same nodes, leaves only the age cap e^{-sigma a_bar} on the
        # environmental share; S* carries the 64-panel table's R0
        clock, s0 = params.clock, params.r / params.mu1
        weight = params.P(clock.omega) / params.g(clock.omega) * np.exp(-clock.decay)
        direct = s0 * params.beta_h * quadrature(weight, params.omega0)
        shed = quadrature(weight * params.xi(clock.omega), params.omega0)
        environmental = s0 * params.beta_e / params.sigma * shed
        basic_clock = direct + environmental
        basic = bh.r0(params)
        identity = params.r / params.mu1 / basic * bh.kernel_total_integral(params)
        expected = 1.0 - environmental / basic_clock * math.exp(-params.sigma * params.a_bar)
        assert identity * basic / basic_clock == pytest.approx(expected, rel=0.0, abs=1e-12)

    def test_zero_history_stays_infection_free(self, direct_params):
        # a zero initial density is a zero history
        run = bh.simulate_renewal(direct_params, coef.constant(0.0), S0=5.0, t_max=20.0, dt=0.25)
        assert run.F.max() == 0.0
        assert run.S[-1] == pytest.approx(10.0 - 5.0 * np.exp(-2.0), abs=1e-3)

    def test_endemic_state_is_stationary(self, direct_params):
        # without the environmental route the kernel is zero past T0, so the
        # history matched to the endemic profile is the constant F* in the
        # window, up to the profile's interpolation
        eq = bh.endemic_equilibrium(direct_params)
        force = K_DIRECT_REF
        profile = coef.table(eq.omega.tolist(), eq.I.tolist())
        history = matched_history(direct_params, profile, eq.S)
        theta = np.linspace(0.0, direct_params.clock.total_time, 41)
        np.testing.assert_allclose(history(-theta), force, rtol=1e-6)
        run = bh.simulate_renewal(direct_params, profile, S0=eq.S, t_max=30.0, dt=0.025)
        assert abs(run.F[-1] - force) / force < 5e-3
        assert abs(run.S[-1] - eq.S) / eq.S < 5e-3

    def test_non_finite_history_is_refused(self, direct_params):
        # a non-finite density, or one over a survival factor that has
        # underflowed to zero, gives a history that is not finite: refused
        # before the loop, without a warning
        underflowed = replace(direct_params, mu2=coef.constant(1e300))
        for params, density in ((direct_params, coef.constant(np.nan)), (underflowed, DECAYING)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteError, match="run.initial.I is not finite"):
                    bh.simulate_renewal(params, density, S0=10.0, t_max=1.0, dt=0.5)

    def test_recovered_return_is_refused(self, direct_params):
        # the renewal pair has no return flow from the recovered pool
        recycling = replace(direct_params, rho=0.1)
        with pytest.raises(ValueError, match="rho = 0.1"):
            bh.simulate_renewal(recycling, DECAYING, S0=10.0, t_max=1.0, dt=0.5)

    @pytest.mark.parametrize("route", ["direct", "env"])
    def test_misaligned_memory_window_is_padded(self, route, direct_params, env_params):
        # window = a_bar + travel time = 35 is 116.67 steps of 0.3: padded to
        # 117, where the kernel is 0, in both loops
        params = direct_params if route == "direct" else env_params
        history = matched_history(params, DECAYING, 10.0)
        run = bh.simulate_renewal(params, DECAYING, S0=10.0, t_max=30.0, dt=0.3)
        ref = simulate_renewal_array(params, history, S0=10.0, t_max=30.0, dt=0.3)
        assert run.t.size == 101
        for name in ("t", "S", "F"):
            got, want = getattr(run, name), getattr(ref, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        assert run.F.min() > 0.0


class TestEndemicSpectrum:
    def test_residual_at_zero_is_the_force_ratio(self, direct_params):
        got = bh.endemic_char_residual(direct_params)(0.0)
        assert got == pytest.approx(-K_DIRECT_REF / 0.1, abs=1e-8)

    @pytest.mark.parametrize("beta_h", [0.2, 0.050829881649683994], ids=["direct", "matched"])
    def test_residual_is_minus_the_reduced_form(self, beta_h):
        # rho = 0, beta_e = 0, g = 1: the paper's reduced equation, LHS - RHS
        params = make_between(beta_h, 0.0)
        eq = bh.endemic_equilibrium(params)
        residual = bh.endemic_char_residual(params)
        for lam in np.linspace(0.0, 50.0, 201):
            general = residual(lam)
            reduced = reduced_endemic_residual(lam, params, eq)
            assert general == pytest.approx(-reduced, rel=1e-13, abs=1e-15)

    @given(st.randoms(use_true_random=False), st.booleans())
    def test_residual_at_zero_is_the_force_through_the_recovered_pool(self, rng, recycling):
        # G(0)/R0 is exactly 1, so residual(0) = F*(R(0) - 1)/mu1 with F* =
        # g(0)I*(0)/S* from the endemic state and R(0) = rho e^{-M}/(rho +
        # mu3): -F*/mu1 at rho = 0. The two forms of F* differ by about 12
        # roundings, and by the cancellation in I*(0)'s 1 - 1/R0, which
        # grows like 1/(R0 - 1); the residual adds one rounding of 1 + x
        p = random_between(rng)
        if not recycling:
            p = replace(p, rho=0.0)
        eq = bh.endemic_equilibrium(p)
        assume(eq is not None)
        force = p.g(0.0) * eq.I0 / eq.S
        returned = p.rho * float(np.exp(-p.clock.decay[-1])) / (p.rho + p.mu3)
        expected = force * (returned - 1.0) / p.mu1
        if not recycling:
            assert expected == -force / p.mu1
        bound = EPS * (2.0 + abs(expected) * (16.0 + 1.0 / (bh.r0(p) - 1.0)))
        assert abs(bh.endemic_char_residual(p)(0.0) - expected) <= bound

    def test_residual_settles_at_minus_one_for_fast_rates(self, env_params):
        residual = bh.endemic_char_residual(env_params)
        assert residual(50.0) == pytest.approx(-1.0, abs=0.05)

    def test_pole_guards(self, env_params):
        residual = bh.endemic_char_residual(env_params)
        for lam in (-0.1, -0.5, -0.2):
            with pytest.raises(ValueError, match="pole"):
                residual(lam)
            # a numerical failure, so the CLI exits 3 if a scan meets a pole
            with pytest.raises(NumericsError, match="pole"):
                residual(lam + 0.5 * bh.POLE_GUARD)

    def test_a_pole_below_the_guard_refuses_no_nonnegative_rate(self, monkeypatch):
        # mu1 < POLE_GUARD: the guard shrinks to mu1/2 around -mu1, so the
        # scan starts at lam = 0 and only rates near the pole are refused
        params = make_between(0.2, 0.0, mu1=1e-9)
        residual = bh.endemic_char_residual(params)
        assert residual(0.0) == pytest.approx(1.0 - bh.r0(params), rel=1e-12)
        assert math.isfinite(residual(-0.4e-9))
        with pytest.raises(NumericsError, match="pole at -mu1"):
            residual(-0.6e-9)
        monkeypatch.setattr(bh, "SPECTRUM_SCAN_MAX", 10.0)
        monkeypatch.setattr(bh, "SPECTRUM_SCAN_STEP", 0.05)
        assert bh.endemic_spectrum_scan(params).roots == []

    def test_residual_accepts_complex_rates(self, env_params):
        # the Simpson sums keep a complex dtype: no cast, no ComplexWarning
        residual = bh.endemic_char_residual(env_params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            upper, lower = residual(0.5 + 0.1j), residual(0.5 - 0.1j)
            on_axis = residual(0.5 + 0.0j)
        assert isinstance(upper, complex) and upper.imag != 0.0
        assert upper == lower.conjugate()
        assert on_axis == pytest.approx(residual(0.5), rel=1e-14)

    def test_needs_a_supercritical_state(self):
        with pytest.raises(ValueError, match="reproduction"):
            bh.endemic_spectrum_scan(make_between(0.5 * 0.1 / J_REF, 0.0))

    def test_no_nonnegative_real_roots_at_the_reference_sets(self, direct_params, env_params, monkeypatch):
        monkeypatch.setattr(bh, "SPECTRUM_SCAN_MAX", 10.0)
        monkeypatch.setattr(bh, "SPECTRUM_SCAN_STEP", 0.05)
        assert bh.endemic_spectrum_scan(direct_params).roots == []
        assert bh.endemic_spectrum_scan(env_params).roots == []

    @given(st.randoms(use_true_random=False), st.booleans())
    def test_real_axis_residual_is_negative(self, rng, recycling):
        # for real lam >= 0 every weight of G falls as lam grows, so G/R0 <= 1,
        # and R(lam) <= rho/(rho + mu3) < 1: the residual is at most
        # F*(R(lam) - 1)/(lam + mu1) < 0, so no real rate lam >= 0 is a root
        p = random_between(rng)
        if not recycling:
            p = replace(p, rho=0.0)
        basic = bh.r0(p)
        assume(basic > 1.0)
        lam = np.linspace(0.0, 50.0, 201)
        survived = float(np.exp(-p.clock.decay[-1]))
        force = p.mu1 * (basic - 1.0) / (1.0 - p.rho * survived / (p.rho + p.mu3))
        returned = p.rho * survived * np.exp(-lam * p.clock.total_time) / (lam + p.rho + p.mu3)
        bound = force * (returned - 1.0) / (lam + p.mu1)
        assert (bound < 0.0).all()
        residual = bh.endemic_char_residual(p)(lam)
        assert (residual <= bound + 64.0 * EPS * (1.0 + np.abs(bound))).all()


def unhoisted_residual(lam, params):
    """The endemic residual G(lam)/R0 + F*(R(lam) - 1)/(lam + mu1) - 1 with
    every factor, R0 and F* included, evaluated at lam, in the same
    operation order as the scan's hoisted form."""
    clock = bh.build_clock(params)
    nodes = np.linspace(0.0, params.omega0, bh.TABLE_PANELS + 1)
    s0 = params.r / params.mu1

    def characteristic(rate):
        weight = params.P(nodes) / params.g(nodes) * np.exp(
            -clock.decay_at(nodes) - rate * np.interp(nodes, clock.omega, clock.elapsed)
        )
        direct = s0 * params.beta_h * quadrature(weight, params.omega0)
        if params.beta_e == 0:
            return direct
        j_xi = quadrature(weight * params.xi(nodes), params.omega0)
        return direct + s0 * params.beta_e / (rate + params.sigma) * j_xi

    basic = characteristic(0.0)
    lost = params.mu3 + params.rho * -math.expm1(-float(clock.decay[-1]))
    force = params.mu1 * (basic - 1.0) / (lost / (params.rho + params.mu3))
    pi_end = bh.survival_pi(params.omega0, params)
    returned = (
        params.rho * params.g(params.omega0) * pi_end
        * np.exp(-lam * clock.total_time) / (lam + params.rho + params.mu3)
    )
    return characteristic(lam) / basic + force * (returned - 1.0) / (lam + params.mu1) - 1.0


class TestHoistedResidual:
    @pytest.mark.parametrize(
        "params",
        [
            make_between(0.2, 0.0),
            make_between(0.2, 0.05),
            make_between(0.2, 0.05, rho=0.1, g=coef.linear(1.0, 0.1)),
            linked_params(),
            linked_params(rho=0.07),
        ],
        ids=["reduced", "environmental", "recycling", "linked", "linked-recycling"],
    )
    def test_scan_equals_pointwise_residuals_exactly(self, params, monkeypatch):
        monkeypatch.setattr(bh, "SPECTRUM_SCAN_MAX", 5.0)
        monkeypatch.setattr(bh, "SPECTRUM_SCAN_STEP", 0.125)
        scan = bh.endemic_spectrum_scan(params)
        assert scan.lam.size == 41
        residual = bh.endemic_char_residual(params)
        for lam, value in zip(scan.lam, scan.residual):
            assert value == residual(lam)
            assert value == unhoisted_residual(lam, params)


def per_delay_kernel_env(theta, params, panels):
    """The environmental kernel at one delay, one Simpson row of `panels`
    panels in the bacterial age, the clock read by interpolation: a
    reference for _kernel_env's shedding load on the clock's nodes."""
    clock = params.clock
    lo = max(0.0, theta - clock.total_time)
    hi = min(params.a_bar, theta)
    if hi <= lo:
        return 0.0
    ages = np.linspace(lo, hi, panels + 1)
    w = clock.status_at(theta - ages)
    values = (
        params.beta_e
        * np.exp(-params.sigma * ages)
        * params.xi(w)
        * params.P(w)
        * np.exp(-clock.decay_at(w))
    )
    return quadrature(values, hi - lo)


def kernel_delays(params):
    """Delays in every regime of the environmental kernel, the corners 0,
    T0, a_bar, a_bar + T0 first, then past the support, then a sweep."""
    total = params.clock.total_time
    end = params.a_bar + total
    corners = [0.0, total, params.a_bar, end, end + 1e-12, 1e300, np.inf]
    return np.concatenate([corners, np.linspace(0.0, end + 1.0, 401)])


class TestEnvironmentalKernel:
    @pytest.mark.parametrize(
        "params, bound",
        [
            (make_between(0.2, 0.05), 1e-8),
            (make_between(0.2, 0.05, a_bar=1.0), 1e-8),
            (make_between(0.2, 0.05, sigma=50.0), 1e-4),
        ],
        ids=["bh_env", "short_memory", "fast_decay"],
    )
    def test_closed_form(self, params, bound):
        # constant coefficients, g = 1: K_e(theta) = beta_e*xi*P/(sigma - mu2)
        # * [e^{-sigma*(theta-u) - mu2*u}] from u_lo to u_hi
        total, sigma = params.clock.total_time, params.sigma
        delays = kernel_delays(params)
        inside = delays < params.a_bar + total
        theta = delays[inside]
        edge = [np.exp(-sigma * (theta - u) - 0.1 * u) for u in
                (np.minimum(theta, total), np.clip(theta - params.a_bar, 0.0, total))]
        exact = np.zeros_like(delays)
        exact[inside] = 0.05 * 0.4 / (sigma - 0.1) * (edge[0] - edge[1])
        kernel = bh._kernel_env(delays, params)
        assert np.max(np.abs(kernel - exact)) <= bound * exact.max()
        assert kernel[0] == 0.0 and (kernel[delays >= params.a_bar + total] == 0.0).all()

    def test_linked_matches_the_per_delay_quadrature(self):
        # the fold tip: the load on the clock against 8 192 age panels per delay
        params = linked_params()
        delays = kernel_delays(params)
        kernel = bh._kernel_env(delays, params)
        reference = np.array([per_delay_kernel_env(x, params, 8192) for x in delays])
        assert np.max(np.abs(kernel - reference)) <= 1e-6 * reference.max()

    @pytest.mark.parametrize(
        "params", [make_between(0.2, 0.05), linked_params()], ids=["bh_env", "linked"]
    )
    def test_support_and_routes(self, params):
        delays = kernel_delays(params)
        env = bh._kernel_env(delays, params)
        assert env[0] == 0.0 and (env[3:7] == 0.0).all()
        assert env[1] > 0.0 and env[2] > 0.0
        direct = bh.renewal_kernel_A(delays, replace(params, beta_e=0.0))
        kernel = bh.renewal_kernel_A(delays, params)
        assert kernel.tolist() == (direct + env).tolist()
        assert bh.renewal_kernel_A(float(delays[9]), params) == kernel[9]


class TestLinkedEndemicProfile:
    def test_transport_residual_falls_under_refinement(self):
        # the profile reads M off the clock, so only the central differences
        # depend on n_omega and the residual shrinks as they refine
        params = linked_params()
        coarse, fine = (
            bh.endemic_residuals(bh.endemic_equilibrium(params, n_omega=n), params)["transport"]
            for n in (400, 3200)
        )
        assert fine < coarse
