import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import immunoepi.within_host as wh
from immunoepi import cli, numerics
from immunoepi.coefficients import from_within_host
from immunoepi.numerics import find_root, integrate_ode

from conftest import REFERENCE_WITHIN, random_within
from oracles import fast_rhs, integrate_slow_reduced, trace_roots_np
from reference_loops import (
    equilibria_fast_array,
    immune_growth_g_array,
    nontrivial_pair_array,
    upper_branch_P_array,
)

GAMMA_FOLD_REF = 1.5811388300841898
GAMMA_HOPF_REF = 0.9641582450344705
W_FOLD_REF = 3.6037961002806327  # (Gamma_fold - gamma) / delta at delta = 0.3

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


class TestRhsFull:
    def test_infection_free_state_is_stationary(self, paper_within):
        p = paper_within
        out = wh.rhs_full((p.Lambda / p.mu, 0.0, 0.0), p)
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_hand_evaluated_point(self, paper_within):
        # Lambda - mu T - alpha P^2 T = 1 - 0.05 - 0.405        = 0.545
        # alpha P^2 T - gamma P - delta P W = 0.405-0.45-0.243  = -0.288
        # epsilon (kappa P - c W) = 0.01 (0.9 - 0.45)           = +0.0045
        out = wh.rhs_full((0.5, 0.9, 0.9), paper_within)
        assert out == pytest.approx([0.545, -0.288, 0.0045], abs=1e-12)

    @given(T=positive, W=positive)
    def test_zero_load_is_invariant(self, paper_within, T, W):
        out = wh.rhs_full((T, 0.0, W), paper_within)
        assert out[1] == 0.0


class TestFastEquilibria:
    def test_reference_pair_at_frozen_status(self, paper_within):
        eq = wh.equilibria_fast(paper_within, paper_within.gamma_eff(0.9))
        assert eq.exists
        T_hi, P_hi = eq.upper
        _, P_lo = eq.lower
        assert P_hi == pytest.approx(1.216498130886193, abs=1e-12)
        assert P_lo == pytest.approx(0.08220316781510556, abs=1e-12)
        assert T_hi == pytest.approx(0.632964392176313, abs=1e-12)

    def test_pair_disappears_at_high_status(self, paper_within):
        eq = wh.equilibria_fast(paper_within, paper_within.gamma_eff(50.0))
        assert not eq.exists
        assert eq.lower is None and eq.upper is None
        assert eq.trivial == (10.0, 0.0)

    def test_double_root_at_exact_threshold(self, paper_within):
        # Lambda = 2*Gamma*sqrt(mu/alpha) makes the discriminant vanish
        W_star = (GAMMA_FOLD_REF - paper_within.gamma) / paper_within.delta
        eq = wh.equilibria_fast(paper_within, paper_within.gamma_eff(W_star))
        assert eq.exists
        assert eq.lower[1] == pytest.approx(eq.upper[1], abs=1e-7)

    @given(W=st.floats(min_value=0.0, max_value=10.0))
    def test_returned_equilibria_are_stationary(self, paper_within, W):
        Gamma = paper_within.gamma_eff(W)
        eq = wh.equilibria_fast(paper_within, Gamma)
        assert np.allclose(fast_rhs(eq.trivial, paper_within, Gamma), 0.0, atol=1e-10)
        if eq.exists:
            for point in (eq.lower, eq.upper):
                res = fast_rhs(point, paper_within, Gamma)
                assert np.max(np.abs(res)) < 1e-10


class TestJacobianFast:
    def test_diagonal_at_infection_free_state(self, paper_within):
        p = paper_within
        J = np.asarray(wh.jacobian_fast((p.Lambda / p.mu, 0.0), p, p.gamma_eff(0.9)))
        assert J[0, 1] == 0.0 and J[1, 0] == 0.0
        assert J[0, 0] == pytest.approx(-p.mu)
        assert J[1, 1] == pytest.approx(-(p.gamma + p.delta * 0.9))
        assert np.all(np.linalg.eigvals(J) < 0.0)

    def test_zero_load_column_structure(self, paper_within):
        J = wh.jacobian_fast((1.0, 0.0), paper_within, paper_within.gamma_eff(0.0))
        assert np.allclose(J, np.diag([-0.1, -0.5]))

    def test_matches_finite_differences(self, paper_within):
        rng = np.random.default_rng(7)
        for _ in range(50):
            T, P = rng.uniform(0.05, 3.0, size=2)
            W = rng.uniform(0.0, 3.0)
            Gamma = paper_within.gamma_eff(W)
            J = wh.jacobian_fast((T, P), paper_within, Gamma)
            h = 1e-6
            fd = np.empty((2, 2))
            for j, dv in enumerate(((h, 0.0), (0.0, h))):
                up = fast_rhs((T + dv[0], P + dv[1]), paper_within, Gamma)
                dn = fast_rhs((T - dv[0], P - dv[1]), paper_within, Gamma)
                fd[:, j] = (up - dn) / (2 * h)
            assert np.allclose(J, fd, rtol=1e-5, atol=1e-7)


class TestCriticalLoci:
    def test_fold_rate_closed_form(self, paper_within):
        loci = wh.critical_loci(paper_within)
        assert loci.Gamma_fold == pytest.approx(GAMMA_FOLD_REF, abs=1e-12)
        span = loci.Gamma_fold - paper_within.gamma
        assert span / 0.9 == pytest.approx(1.201265366760211, abs=1e-9)
        assert span / 0.3 == pytest.approx(W_FOLD_REF, abs=1e-9)

    def test_oscillation_onset_roots(self, paper_within):
        (Gamma,) = wh.critical_loci(paper_within).hopf
        assert Gamma == pytest.approx(GAMMA_HOPF_REF, abs=1e-9)
        span = Gamma - paper_within.gamma
        assert span / 0.9 == pytest.approx(0.5157313833716338, abs=1e-9)
        assert span / 0.3 == pytest.approx(1.5471941501149016, abs=1e-9)

    def test_trace_vanishes_at_onset_roots(self, paper_within):
        p = paper_within
        loci = wh.critical_loci(p)
        for Gamma in loci.hopf:
            P_star = Gamma**2 / (p.alpha * p.Lambda)
            T_star = Gamma / (p.alpha * P_star)
            W = (Gamma - p.gamma) / p.delta
            if W <= 0:
                continue
            J = wh.jacobian_fast((T_star, P_star), p, p.gamma_eff(W))
            assert abs(np.trace(J)) < 1e-8
            assert np.linalg.det(J) > 0.0

    def test_gate_flags_are_consistent(self, paper_within):
        # the trace condition has two positive roots; only the one above
        # 2*mu, where the determinant is positive, is a Hopf point
        low, high = trace_roots_np(paper_within)
        assert low < 2.0 * paper_within.mu < high
        assert wh.critical_loci(paper_within).hopf == (pytest.approx(high, rel=1e-12),)

    @given(st.randoms(use_true_random=False))
    def test_bracketed_roots_match_the_polynomial_roots(self, rng):
        p = random_within(rng)
        roots = trace_roots_np(p)
        k3 = np.cbrt(p.alpha * p.Lambda**2)
        peak = k3 / np.cbrt(4.0)
        # near a double root or the gate the roots are ill-conditioned
        assume(abs(0.75 * peak - p.mu) > 1e-6 * p.mu)
        assume(all(abs(G - 2.0 * p.mu) > 1e-9 * p.mu for G in roots))
        # the root below the peak never passes the gate
        assert all(G < 2.0 * p.mu for G in roots if G < peak)
        expected = [G for G in roots if G > 2.0 * p.mu]
        got = wh.critical_loci(p).hopf
        assert all(isinstance(G, float) for G in got)
        assert got == pytest.approx(tuple(expected), rel=1e-12)


class TestSlowManifold:
    def test_curve_values(self, paper_within):
        assert wh.slow_manifold_W(1.0, paper_within) == pytest.approx(
            1.3636363636363635, abs=1e-12
        )
        assert wh.slow_manifold_W(0.0, paper_within) == pytest.approx(
            -paper_within.gamma / paper_within.delta
        )

    def test_tip_location_and_height(self, paper_within):
        P_tip, W_max = wh.manifold_tip(paper_within)
        assert P_tip == pytest.approx(0.31622776601683794, abs=1e-12)
        assert W_max == pytest.approx(W_FOLD_REF, abs=1e-12)

    def test_tip_height_equals_fold_status(self, paper_within):
        # the manifold maximum and the fold locus are the same number
        loci = wh.critical_loci(paper_within)
        _, W_max = wh.manifold_tip(paper_within)
        assert abs(W_max - (loci.Gamma_fold - paper_within.gamma) / paper_within.delta) < 1e-10

    def test_nullcline(self, paper_within):
        assert wh.w_nullcline(0.0, paper_within) == 0.0
        assert wh.w_nullcline(0.5, paper_within) == pytest.approx(1.0)

    def test_nullcline_meets_upper_branch(self, paper_within):
        p = paper_within

        def gap(P):
            return wh.w_nullcline(P, p) - wh.slow_manifold_W(P, p)

        P_cross = find_root(gap, 0.5, 2.0)
        assert abs(gap(P_cross)) < 1e-8
        assert P_cross > wh.manifold_tip(p)[0]  # crossing on the infected branch


class TestImmuneGrowth:
    def test_entry_rate_positive(self, paper_within):
        P0 = wh.upper_branch_P(0.0, paper_within)
        assert P0 == pytest.approx(1.9486832980505138, abs=1e-12)
        g0 = wh.immune_growth_g(0.0, paper_within)
        assert g0 == pytest.approx(paper_within.kappa * P0)
        assert g0 > 0.0

    def test_value_at_fold_status(self, paper_within):
        g_tip = wh.immune_growth_g(W_FOLD_REF, paper_within)
        expected = 1.0 * 0.31622776601683794 - 0.5 * W_FOLD_REF
        assert g_tip == pytest.approx(expected, abs=1e-9)

    def test_branch_load_decreases_with_status(self, paper_within):
        grid = np.linspace(0.0, W_FOLD_REF, 200)
        loads = [wh.upper_branch_P(w, paper_within) for w in grid]
        assert np.all(np.diff(loads) < 0.0)

    def test_status_beyond_fold_rejected(self, paper_within):
        with pytest.raises(ValueError):
            wh.upper_branch_P(W_FOLD_REF * 1.01, paper_within)

    def test_vector_evaluation(self, paper_within):
        omega = np.array([0.0, 1.0, 2.0])
        vals = from_within_host("immune_growth", paper_within)(omega)
        assert vals.shape == omega.shape
        assert vals[0] == pytest.approx(wh.immune_growth_g(0.0, paper_within))


def branch_coefficients(params):
    """The branch load and growth as coefficients, which map an array of
    statuses through the float closed forms."""
    return from_within_host("pathogen_load", params), from_within_host("immune_growth", params)


def scalar_branch_load(params, W):
    """The branch load node by node: the upper fast equilibrium, or the
    tip load where the pair is lost to rounding at the fold."""
    eq = wh.equilibria_fast(params, params.gamma_eff(W))
    return eq.upper[1] if eq.exists else float(np.sqrt(params.mu / params.alpha))


def recovery_state(run):
    """The state of a run at its recovery time, which is one of its samples."""
    (k,) = np.flatnonzero(np.asarray(run.t) == run.recovery_time)
    return run.states[k]


class TestVectorizedBranch:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40),
    )
    def test_array_matches_the_scalar_closed_form_bit_for_bit(self, seed, fractions):
        p = random_within(np.random.default_rng(seed))
        w_fold = wh.manifold_tip(p)[1]
        assume(w_fold > 0.0)
        W = np.array([*(f * w_fold for f in fractions), 0.0, w_fold, w_fold * (1.0 + 1e-13)])
        expected = np.array([scalar_branch_load(p, float(w)) for w in W])
        load, speed = branch_coefficients(p)
        assert np.array_equal(load(W), expected)
        assert np.array_equal(speed(W), p.kappa * expected - p.c * W)
        assert wh.upper_branch_P(float(W[0]), p) == expected[0]

    def test_scalar_in_gives_float_out(self, paper_within):
        assert type(wh.upper_branch_P(0.5, paper_within)) is float
        assert type(wh.immune_growth_g(0.5, paper_within)) is float

    def test_shape_follows_the_input(self, paper_within):
        W = np.linspace(0.0, 3.0, 6).reshape(2, 3)
        for fn in branch_coefficients(paper_within):
            assert fn(W).shape == (2, 3)

    def test_negative_node_rejected(self, paper_within):
        W = np.array([0.0, 1.0, -0.25, -0.5])
        for fn in branch_coefficients(paper_within):
            with pytest.raises(ValueError, match="nonnegative, got -0.25"):
                fn(W)

    def test_node_past_the_fold_rejected(self, paper_within):
        W = np.array([0.0, 1.0, 4.0, 5.0])
        for fn in branch_coefficients(paper_within):
            with pytest.raises(ValueError, match="no infected branch at W=4.0"):
                fn(W)

    def test_first_offending_node_is_reported(self, paper_within):
        load, _ = branch_coefficients(paper_within)
        with pytest.raises(ValueError, match="no infected branch at W=4.0"):
            load(np.array([0.5, 4.0, -1.0]))
        with pytest.raises(ValueError, match="nonnegative, got -1.0"):
            load(np.array([0.5, -1.0, 4.0]))


def hexes(values):
    """float.hex of every value, NaN included."""
    return [float(v).hex() for v in np.ravel(values)]


class TestFloatClosedForms:
    """Each closed form is written once over Python floats, and a
    coefficient maps the branch load and growth over an array; both return
    the earlier array forms' values (reference_loops) bit for bit."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40),
    )
    def test_branch_load_and_growth_match_the_array_forms(self, seed, fractions):
        p = random_within(np.random.default_rng(seed))
        w_fold = wh.manifold_tip(p)[1]
        assume(w_fold > 0.0)
        # up to the end of the tip's rounding slack, where the lost
        # discriminant is clamped to the tip load
        top = w_fold * (1.0 + 1e-12) + 1e-12
        W = np.array([*(f * top for f in fractions), 0.0, w_fold, np.nextafter(w_fold, np.inf), top])
        loads, growth = upper_branch_P_array(W, p), immune_growth_g_array(W, p)
        assert hexes([wh.upper_branch_P(w, p) for w in W.tolist()]) == hexes(loads)
        assert hexes([wh.immune_growth_g(w, p) for w in W.tolist()]) == hexes(growth)
        load, speed = branch_coefficients(p)
        assert hexes(load(W)) == hexes(loads)
        assert hexes(speed(W)) == hexes(growth)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        fractions=st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=40),
    )
    def test_pair_and_equilibria_match_the_array_forms(self, seed, fractions):
        # rates up to twice the fold's: the pair, its double root and the
        # columns without a pair, whose loads are NaN
        p = random_within(np.random.default_rng(seed))
        fold = wh.critical_loci(p).Gamma_fold
        Gamma = np.array([*(f * fold for f in fractions), fold, np.nextafter(fold, 0.0)])
        # its callers' scope: at Gamma = 0, or nearly, the loads divide by
        # zero or overflow
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            disc, P_lo, P_hi = nontrivial_pair_array(p, Gamma)
        pairs = [wh._nontrivial_pair(p, G) for G in Gamma.tolist()]
        assert [hexes(column) for column in zip(*pairs)] == [hexes(disc), hexes(P_lo), hexes(P_hi)]
        exists, lower, upper = equilibria_fast_array(p, Gamma)
        eqs = [wh.equilibria_fast(p, G) for G in Gamma.tolist()]
        assert [eq.exists for eq in eqs] == exists.tolist()
        # where no pair exists, the array form's columns are NaN
        nan = (math.nan, math.nan)
        columns = zip(*((*(eq.lower or nan), *(eq.upper or nan)) for eq in eqs))
        assert [hexes(x) for x in columns] == [hexes(x) for x in (*lower, *upper)]

    @pytest.mark.parametrize(
        "W",
        [[0.0, 1.0, -0.25, -0.5], [0.0, 1.0, 4.0, 5.0], [0.5, 4.0, -1.0], [0.5, -1.0, 4.0],
         [[0.5, 1.0], [4.5, -2.0]], -0.25, 4.0],
    )
    def test_refusals_name_the_node_the_array_form_names(self, paper_within, W):
        with pytest.raises(ValueError) as want:
            upper_branch_P_array(np.array(W), paper_within)
        for fn in branch_coefficients(paper_within):
            with pytest.raises(ValueError) as got:
                fn(np.array(W))
            assert str(got.value) == str(want.value)


class TestSimulateInfection:
    def test_high_initial_immunity_clears_fast(self, paper_within):
        # above the fold no infected equilibrium exists, so clearance is forced
        run = wh.simulate_infection(
            paper_within, wh.WithinHostState(1.0, 0.5, W_FOLD_REF + 0.5), 200.0
        )
        assert run.recovery_time is not None
        assert run.fold_crossed
        assert run.recovery_time < 200.0

    def test_reference_course_clears_through_a_cycle_trough(self, paper_within):
        # At these rates the infected state is oscillatory for low immunity;
        # the loops deepen until a trough undershoots the clearance level,
        # so the run ends well before the fold status is reached.
        run = wh.simulate_infection(
            paper_within, wh.WithinHostState(0.5, 0.9, 0.0), 5000.0
        )
        assert run.recovery_time is not None
        assert not run.fold_crossed
        assert recovery_state(run)[2] < run.w_fold
        # after clearance the immune status decays on the recovered branch
        assert np.asarray(run.states)[-1, 2] < recovery_state(run)[2]

    def test_branch_riding_course_reaches_the_fold(self):
        # No oscillation onset exists for this set (the trace balance has no
        # positive root), so the infected branch is attracting all the way
        # up and immunity must climb to the fold before clearance.
        params = wh.WithinHostParams(
            Lambda=4.0, mu=2.0, alpha=4.0, gamma=1.2, delta=1.2,
            epsilon=0.01, kappa=1.0, c=0.3,
        )
        assert wh.critical_loci(params).hopf == ()
        run = wh.simulate_infection(params, wh.WithinHostState(1.0, 1.0, 0.0), 400.0)
        assert run.recovery_time is not None
        assert run.fold_crossed
        assert recovery_state(run)[2] == pytest.approx(run.w_fold, rel=0.05)
        # clearance follows within a few fast time units of crossing the fold
        near_fold = np.asarray(run.t)[np.asarray(run.states)[:, 2] >= 0.99 * run.w_fold]
        assert run.recovery_time - near_fold[0] < 50.0

    def test_numpy_scalar_rates_run_as_python_floats(self):
        # rejected trial steps overflow; as numpy scalars they would warn
        rates = dict(Lambda=4.0, mu=2.0, alpha=4.0, gamma=1.2, delta=1.2,
                     epsilon=1e-2, kappa=1.0, c=0.3)
        numpy_params = wh.WithinHostParams(**{k: np.float64(v) for k, v in rates.items()})
        assert all(type(getattr(numpy_params, k)) is float for k in rates)
        start = wh.WithinHostState(1.0, 1.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run = wh.simulate_infection(numpy_params, start, 300.0)
        reference = wh.simulate_infection(wh.WithinHostParams(**rates), start, 300.0)
        assert np.array_equal(run.t, reference.t)
        assert np.array_equal(run.states, reference.states)
        assert (run.recovery_time, run.fold_crossed, run.w_fold) == (
            reference.recovery_time, reference.fold_crossed, reference.w_fold)

    def test_zero_load_never_infects(self, paper_within):
        run = wh.simulate_infection(
            paper_within, wh.WithinHostState(2.0, 0.0, 1.0), 400.0
        )
        assert run.recovery_time is None
        assert np.all(np.asarray(run.states)[:, 1] == 0.0)
        assert np.asarray(run.states)[-1, 2] < 1.0
        assert np.asarray(run.states)[-1, 0] == pytest.approx(10.0, rel=1e-3)

    def test_a_start_at_the_fold_has_crossed_it(self, paper_within):
        # fold_crossed is max W >= w_fold, for a cleared start as for an
        # infected one; one ulp below, a cleared start (its W only decays)
        # stays short of the fold
        w_fold = wh.manifold_tip(paper_within)[1]
        for P in (0.0, 0.5):
            run = wh.simulate_infection(paper_within, wh.WithinHostState(1.0, P, w_fold), 50.0)
            assert run.fold_crossed
        below = np.nextafter(w_fold, 0.0)
        run = wh.simulate_infection(paper_within, wh.WithinHostState(1.0, 0.0, below), 50.0)
        assert not run.fold_crossed
        assert np.asarray(run.states)[:, 2].max() == below

    def test_trajectories_stay_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            params = random_within(rng)
            initial = wh.WithinHostState(*rng.uniform(0.0, 3.0, size=3))
            run = wh.simulate_infection(params, initial, 150.0)
            assert np.min(run.states) >= -1e-10

    def test_trajectory_csv_round_trip(self, paper_within):
        # the run's summary keys are checked on the CLI's summary.json
        run = wh.simulate_infection(
            paper_within, wh.WithinHostState(0.5, 0.9, 0.0), 50.0
        )
        lines = "".join(cli._csv_lines("t,T,P,W", run.t, *zip(*run.states))).splitlines()
        assert lines[0] == "t,T,P,W"
        first = [float(x) for x in lines[1].split(",")]
        assert first == [0.0, 0.5, 0.9, 0.0]


class TestClearedBranch:
    SLOW = dict(Lambda=4.0, mu=2.0, alpha=4.0, gamma=1.2, delta=1.2,
                epsilon=0.001, kappa=1.0, c=0.3)

    @pytest.mark.parametrize("rates", [REFERENCE_WITHIN, SLOW])
    def test_closed_form_matches_integration_of_the_zero_load_system(self, rates):
        params = wh.WithinHostParams(**rates)
        state0 = np.array([0.7, 0.0, 2.5])
        t0, t_end = 3.0, 1503.0
        t, states = wh._cleared_branch(params, t0, state0, t_end)
        y, t_prev = state0, t0
        for t_k, expected in zip(t, states):
            with mock.patch.multiple(numerics, RTOL=1e-12, ATOL=1e-14):
                y = integrate_ode(lambda t, y: wh.rhs_full(y, params), y, (t_prev, t_k)).y[-1]
            t_prev = t_k
            assert y[1] == 0.0
            assert np.allclose(expected, y, rtol=1e-9, atol=0.0)

    def test_tail_ends_at_t_max_with_no_pathogen(self, paper_within):
        t_max = 200.0
        run = wh.simulate_infection(
            paper_within, wh.WithinHostState(1.0, 0.5, W_FOLD_REF + 0.5), t_max
        )
        tail = np.asarray(run.t) > run.recovery_time
        assert np.count_nonzero(tail) == wh.CLEARED_BRANCH_SAMPLES
        assert run.t[-1] == t_max
        assert np.all(np.diff(run.t) > 0.0)
        assert np.all(np.asarray(run.states)[tail, 1] == 0.0)
        # the infected phase ends on the event sample itself
        assert np.asarray(run.t)[~tail][-1] == run.recovery_time

    def test_clearing_run_integrates_the_infected_phase_only(self, paper_within, monkeypatch):
        calls = []
        integrate = wh.integrate_ode

        def counting(*a, **kw):
            calls.append(a[2])
            return integrate(*a, **kw)

        monkeypatch.setattr(wh, "integrate_ode", counting)
        run = wh.simulate_infection(
            paper_within, wh.WithinHostState(1.0, 0.5, W_FOLD_REF + 0.5), 200.0
        )
        assert run.recovery_time is not None
        assert calls == [(0.0, 200.0)]

    def test_zero_load_runs_on_the_same_closed_form(self, paper_within, monkeypatch):
        calls = []
        branch = wh._cleared_branch

        def spy(params, t0, state0, t_end):
            calls.append((t0, tuple(state0), t_end))
            return branch(params, t0, state0, t_end)

        def no_integration(*a, **kw):
            raise AssertionError("the P = 0 branch is not integrated")

        monkeypatch.setattr(wh, "_cleared_branch", spy)
        monkeypatch.setattr(wh, "integrate_ode", no_integration)
        run = wh.simulate_infection(paper_within, wh.WithinHostState(2.0, 0.0, 1.0), 400.0)
        assert calls == [(0.0, (2.0, 0.0, 1.0), 400.0)]
        assert np.asarray(run.t).size == wh.CLEARED_BRANCH_SAMPLES + 1
        assert run.t[0] == 0.0 and run.t[-1] == 400.0
        assert list(run.states[0]) == [2.0, 0.0, 1.0]


class TestSlowFastConsistency:
    def slow_time_error(self, eps):
        params = wh.WithinHostParams(**{**REFERENCE_WITHIN, "epsilon": eps})
        W0 = 0.5
        P0 = wh.upper_branch_P(W0, params)
        T0 = params.Lambda / (params.mu + params.alpha * P0 * P0)
        tau_end = 1.5
        with mock.patch.multiple(numerics, RTOL=1e-10, ATOL=1e-12):
            full = wh.simulate_infection(params, wh.WithinHostState(T0, P0, W0), tau_end / eps)
        reduced = integrate_slow_reduced(params, W0, (0.0, tau_end))
        w_red = np.interp(np.asarray(full.t) * eps, reduced.t, reduced.y[:, 0])
        mask = np.asarray(full.t) * eps <= reduced.t[-1]
        return float(np.max(np.abs(np.asarray(full.states)[mask, 2] - w_red[mask])))

    def test_reduced_flow_error_scales_with_epsilon(self):
        err_01 = self.slow_time_error(0.01)
        err_001 = self.slow_time_error(0.001)
        assert err_01 < 0.05
        ratio = err_01 / err_001
        assert 4.0 < ratio < 30.0
