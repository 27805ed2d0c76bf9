"""Branch sweeps, event detection, and the cycles of the frozen-W fast flow."""

import dataclasses
import functools
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from immunoepi import bifurcation as bif
from immunoepi import cli
from immunoepi import within_host as wh
from immunoepi.config import load_scenario
from immunoepi import numerics
from immunoepi.errors import ConvergenceError, NonFiniteError
from immunoepi.numerics import integrate_ode

from conftest import random_within
from oracles import (
    fast_rhs,
    hopf_amplitude_slope,
    hopf_point,
    leading_eigenvalue,
    lyapunov_coefficient,
)
from reference_loops import rk4_step_array, sweep_array, sweep_branch_loop

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Frozen closed-form loci for the reference parameter set, W frozen at 0.9
# for the delta sweep and delta = 0.3 for the W sweep.
DELTA_HOPF_REF = 0.5157313833716338
DELTA_FOLD_REF = 1.201265366760211
W_HOPF_REF = 1.5471941501149016
W_FOLD_REF = 3.6037961002806327
P_FOLD_REF = 0.31622776601683794  # sqrt(mu / alpha)
T_FOLD_REF = 5.0  # Lambda / (2 mu)


def delta_sweep(n=200, lo=0.05, hi=1.4, W=0.9):
    return bif.SweepSpec(which="delta", lo=lo, hi=hi, n=n, W=W)


def analytic_events(params, spec):
    """The fold and the one valid Hopf locus, mapped to the sweep parameter."""
    loci = wh.critical_loci(params)
    (hopf,) = loci.hopf
    return spec.from_gamma(params, loci.Gamma_fold), spec.from_gamma(params, hopf)


class TestSweepSpec:
    def test_rejects_unknown_parameter_name(self):
        with pytest.raises(ValueError, match="delta"):
            bif.SweepSpec(which="epsilon", lo=0.0, hi=1.0)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError, match="lo < hi"):
            bif.SweepSpec(which="W", lo=1.0, hi=1.0)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError, match="2 points"):
            bif.SweepSpec(which="W", lo=0.0, hi=1.0, n=1)

    def test_delta_sweep_requires_frozen_status(self):
        with pytest.raises(ValueError, match="W"):
            bif.SweepSpec(which="delta", lo=0.1, hi=1.0)

    def test_values_span_the_range(self):
        spec = bif.SweepSpec(which="W", lo=0.5, hi=2.5, n=21)
        v = spec.values()
        assert len(v) == 21
        assert v[0] == 0.5 and v[-1] == 2.5

    def test_clearance_rate_substitutes_the_swept_quantity(self, paper_within):
        p = paper_within
        dspec = delta_sweep()
        assert dspec.to_gamma(p, 0.7) == p.gamma + 0.7 * 0.9
        assert dspec.from_gamma(p, p.gamma + 0.7 * 0.9) == pytest.approx(0.7, abs=1e-15)
        wspec = bif.SweepSpec(which="W", lo=0.0, hi=4.0)
        assert wspec.to_gamma(p, 1.3) == p.gamma + p.delta * 1.3
        assert wspec.from_gamma(p, p.gamma + p.delta * 1.3) == pytest.approx(1.3, abs=1e-15)
        values = np.asarray(dspec.values())
        scalars = [dspec.to_gamma(p, v) for v in values.tolist()]
        assert np.array_equal(dspec.to_gamma(p, values), scalars)


class TestSweepBranch:
    def test_branch_counts_and_extent(self, paper_within):
        spec = delta_sweep()
        res = bif.sweep_branch(paper_within, spec)
        assert np.asarray(res.trivial.param).size == spec.n
        assert np.asarray(res.upper.param).size == np.asarray(res.lower.param).size < spec.n
        step = (spec.hi - spec.lo) / (spec.n - 1)
        # the pair exists up to the fold and no further
        assert res.upper.param[-1] <= DELTA_FOLD_REF < res.upper.param[-1] + step

    def test_points_match_the_equilibrium_solver(self, paper_within):
        spec = delta_sweep(n=10, lo=0.2, hi=0.4)
        res = bif.sweep_branch(paper_within, spec)
        eq = wh.equilibria_fast(paper_within, spec.to_gamma(paper_within, res.upper.param[4]))
        assert res.upper.T[4] == pytest.approx(eq.upper[0], rel=1e-12)
        assert res.upper.P[4] == pytest.approx(eq.upper[1], rel=1e-12)
        assert res.lower.P[4] == pytest.approx(eq.lower[1], rel=1e-12)
        assert res.trivial.T[4] == pytest.approx(paper_within.Lambda / paper_within.mu)

    def test_trivial_branch_is_a_stable_node_throughout(self, paper_within):
        res = bif.sweep_branch(paper_within, delta_sweep())
        assert all(stability == "stable-node" for stability in res.trivial.stability)

    def test_lower_branch_is_a_saddle_throughout(self, paper_within):
        res = bif.sweep_branch(paper_within, delta_sweep())
        assert all(stability == "saddle" for stability in res.lower.stability)
        # real eigenvalues of opposite sign: a negative determinant
        assert all((e1 * e2).real < 0 for e1, e2 in res.lower.eigenvalues)

    def test_upper_branch_loses_stability_at_the_trace_root(self, paper_within):
        res = bif.sweep_branch(paper_within, delta_sweep())
        for param, stability in zip(res.upper.param, res.upper.stability):
            if param < DELTA_HOPF_REF - 0.01:
                assert stability.startswith("stable")
            elif param > DELTA_HOPF_REF + 0.01:
                assert stability.startswith("unstable")

    def test_eigenvalues_reproduce_trace_and_det(self, paper_within):
        spec = delta_sweep(n=40)
        res = bif.sweep_branch(paper_within, spec)
        up = res.upper
        for j in range(0, np.asarray(up.param).size, 7):
            Gamma = spec.to_gamma(paper_within, up.param[j])
            J = wh.jacobian_fast((up.T[j], up.P[j]), paper_within, Gamma)
            e1, e2 = up.eigenvalues[j]
            assert (e1 + e2).real == pytest.approx(np.trace(J), abs=1e-10)
            assert (e1 * e2).real == pytest.approx(np.linalg.det(J), abs=1e-10)
            assert abs((e1 + e2).imag) < 1e-12

    def test_range_without_a_pair_raises(self, paper_within):
        # gamma + delta*W stays above the saddle-node threshold everywhere
        with pytest.raises(ValueError, match="no nontrivial equilibrium"):
            bif.sweep_branch(paper_within, delta_sweep(n=5, lo=1.3, hi=1.4))

    def test_fold_path_walks_up_then_back(self, paper_within):
        res = bif.sweep_branch(paper_within, delta_sweep())
        path = res.fold_path
        assert np.asarray(path.param).size == (
            np.asarray(res.upper.param).size + np.asarray(res.lower.param).size
        )
        params = np.asarray(path.param).tolist()
        k = np.asarray(res.upper.param).size
        assert params[:k] == sorted(params[:k])
        assert params[k:] == sorted(params[k:], reverse=True)
        # P decreases monotonically along the whole path through the fold
        ps = np.asarray(path.P).tolist()
        assert all(a > b for a, b in zip(ps[:-1], ps[1:]))


def hexed_rows(rows):
    """Branch rows (param, T, P, ev1, ev2, stability) with every float as
    float.hex and each complex eigenvalue split into real and imaginary
    parts."""
    return [
        tuple(
            part.hex()
            for value in row[:5]
            for part in ((value.real, value.imag) if isinstance(value, complex) else (value,))
        )
        + (row[5],)
        for row in rows
    ]


def branch_rows(branch):
    """The rows of a branch's columns, in hexed_rows form."""
    return hexed_rows(
        zip(
            np.asarray(branch.param).tolist(),
            np.asarray(branch.T).tolist(),
            np.asarray(branch.P).tolist(),
            np.asarray(branch.eigenvalues)[:, 0].tolist(),
            np.asarray(branch.eigenvalues)[:, 1].tolist(),
            np.asarray(branch.stability).tolist(),
        )
    )


class TestBranchColumns:
    """sweep_branch evaluates a sweep in one vectorized pass; its columns
    are the scalar closed forms at one Python-float clearance rate at a
    time (reference_loops.sweep_branch_loop), bit for bit."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        which=st.sampled_from(["delta", "W"]),
        lo=st.sampled_from([0.0, 0.3]),
        span=st.floats(min_value=0.5, max_value=3.0),
        n=st.integers(min_value=2, max_value=80),
    )
    def test_columns_equal_the_scalar_closed_forms_bit_for_bit(self, seed, which, lo, span, n):
        rng = np.random.default_rng(seed)
        params = random_within(rng)
        W = float(rng.uniform(0.2, 2.0)) if which == "delta" else None
        spec = bif.SweepSpec(which=which, lo=0.0, hi=1.0, n=2, W=W)
        fold_at = spec.from_gamma(params, wh.critical_loci(params).Gamma_fold)
        assume(fold_at > 0.05)
        # a range from lo, or lo times the fold, to span times the fold
        spec = bif.SweepSpec(which=which, lo=lo * fold_at, hi=span * fold_at, n=n, W=W)
        assume(spec.values()[0] < fold_at)
        res = bif.sweep_branch(params, spec)
        ref = sweep_branch_loop(params, spec)
        for name in ("upper", "lower", "trivial"):
            assert branch_rows(getattr(res, name)) == hexed_rows(ref[name])
        assert branch_rows(res.fold_path) == hexed_rows(ref["upper"] + ref["lower"][::-1])

    def test_delta_sweep_from_zero_starts_at_the_bare_clearance_rate(self, paper_within):
        spec = delta_sweep(n=9, lo=0.0)
        assert spec.to_gamma(paper_within, np.asarray(spec.values()))[0] == paper_within.gamma
        res = bif.sweep_branch(paper_within, spec)
        eq = wh.equilibria_fast(paper_within, paper_within.gamma)
        assert (res.upper.T[0], res.upper.P[0]) == eq.upper
        assert (res.lower.T[0], res.lower.P[0]) == eq.lower
        reference = sweep_branch_loop(paper_within, spec)
        assert branch_rows(res.trivial) == hexed_rows(reference["trivial"])


class TestFigureSweepColumns:
    """Every column of the figure sweeps, at refinement 1 and 2, equals the
    earlier array sweep over np.linspace (reference_loops.sweep_array) bit
    for bit."""

    @pytest.mark.parametrize("refine", [1, 2])
    @pytest.mark.parametrize("config", ["within_fig1.json", "within_fig2.json"])
    def test_columns_equal_the_array_sweep(self, config, refine):
        cfg = load_scenario(CONFIGS / config)
        for n in (cfg.sweep.n * refine, cfg.cycle_n * refine):
            spec = dataclasses.replace(cfg.sweep, n=n)
            values, Gamma, exists, trivial, upper, lower = sweep_array(cfg.within, spec)
            assert [v.hex() for v in spec.values()] == [v.hex() for v in values.tolist()]
            columns = bif._sweep(cfg.within, spec)
            assert [c.Gamma.hex() for c in columns] == [G.hex() for G in Gamma.tolist()]
            assert [c.upper is not None for c in columns] == exists.tolist()
            res = bif.sweep_branch(cfg.within, spec)
            assert branch_rows(res.trivial) == branch_rows(trivial)
            for got, want in ((res.upper, upper), (res.lower, lower)):
                kept = bif.Branch(*(
                    getattr(want, f.name)[exists] for f in dataclasses.fields(bif.Branch)
                ))
                assert branch_rows(got) == branch_rows(kept)


class TestDetectEvents:
    def test_delta_sweep_finds_both_events(self, paper_within):
        spec = delta_sweep()
        events = bif.detect_all_events(paper_within, spec)
        kinds = sorted(e.kind for e in events)
        assert kinds == ["fold", "hopf"]
        fold_at, hopf_at = analytic_events(paper_within, spec)
        fold = next(e for e in events if e.kind == "fold")
        hopf = next(e for e in events if e.kind == "hopf")
        assert fold.param == pytest.approx(fold_at, abs=1e-6)
        assert hopf.param == pytest.approx(hopf_at, abs=1e-6)
        assert fold.param == pytest.approx(DELTA_FOLD_REF, abs=1e-6)
        assert hopf.param == pytest.approx(DELTA_HOPF_REF, abs=1e-6)

    def test_fold_event_carries_the_double_root_state(self, paper_within):
        fold = next(e for e in bif.detect_all_events(paper_within, delta_sweep()) if e.kind == "fold")
        assert fold.P == pytest.approx(P_FOLD_REF, abs=1e-12)
        assert fold.T == pytest.approx(T_FOLD_REF, abs=1e-12)

    def test_hopf_event_state_sits_on_the_upper_branch(self, paper_within):
        spec = delta_sweep()
        hopf = next(e for e in bif.detect_all_events(paper_within, spec) if e.kind == "hopf")
        eq = wh.equilibria_fast(paper_within, spec.to_gamma(paper_within, hopf.param))
        assert hopf.T == pytest.approx(eq.upper[0], rel=1e-9)
        assert hopf.P == pytest.approx(eq.upper[1], rel=1e-9)

    def test_immune_status_sweep_finds_both_events(self, paper_within):
        spec = bif.SweepSpec(which="W", lo=0.0, hi=4.0, n=200)
        events = bif.detect_all_events(paper_within, spec)
        fold_at, hopf_at = analytic_events(paper_within, spec)
        fold = next(e for e in events if e.kind == "fold")
        hopf = next(e for e in events if e.kind == "hopf")
        assert fold.param == pytest.approx(fold_at, abs=1e-6)
        assert hopf.param == pytest.approx(hopf_at, abs=1e-6)
        assert fold.param == pytest.approx(W_FOLD_REF, abs=1e-6)
        assert hopf.param == pytest.approx(W_HOPF_REF, abs=1e-6)

    def test_hopf_event_is_the_polished_critical_locus_root(self, paper_within):
        # no second root solve: the event parameter is the locus root mapped
        # to the sweep parameter
        for spec in (delta_sweep(), bif.SweepSpec(which="W", lo=0.0, hi=4.0, n=200)):
            _, expected = analytic_events(paper_within, spec)
            events = bif.detect_all_events(paper_within, spec)
            assert [e.param for e in events if e.kind == "hopf"] == [expected]

    def test_quiet_range_reports_no_events(self, paper_within):
        assert bif.detect_all_events(paper_within, delta_sweep(n=60, lo=0.1, hi=0.4)) == []

    def test_events_agree_across_grid_resolutions(self, paper_within):
        # the events are the loci inside [lo, hi], whatever the grid
        for spec in (delta_sweep(), bif.SweepSpec(which="W", lo=0.0, hi=4.0)):
            events = [
                bif.detect_all_events(paper_within, dataclasses.replace(spec, n=n))
                for n in (2, 3, 80, 400)
            ]
            assert [e.kind for e in events[0]] == ["hopf", "fold"]
            assert all(other == events[0] for other in events[1:])

    def test_hopf_within_one_grid_step_of_the_fold_is_reported(self, paper_within):
        # one sampled infected point lies below the Hopf point and the next
        # sample is already past the fold, so no sampled pair brackets the
        # trace sign change
        fold_at, hopf_at = analytic_events(paper_within, bif.SweepSpec("W", 0.0, 4.0))
        step = 2.0 * (fold_at - hopf_at)
        lo = hopf_at - step / 3.0
        spec = bif.SweepSpec(which="W", lo=lo, hi=lo + 2.0 * step, n=3)
        res = bif.sweep_branch(paper_within, spec)
        assert np.asarray(res.upper.param).tolist() == [lo]
        events = bif.detect_all_events(paper_within, spec)
        assert [(e.kind, e.param) for e in events] == [("hopf", hopf_at), ("fold", fold_at)]

    @given(st.randoms(use_true_random=False))
    def test_fold_event_matches_the_closed_form_locus(self, rng):
        params = random_within(rng)
        loci = wh.critical_loci(params)
        w_fold = (loci.Gamma_fold - params.gamma) / params.delta
        assume(w_fold > 0.05)
        spec = bif.SweepSpec(which="W", lo=0.0, hi=1.2 * w_fold, n=60)
        events = bif.detect_all_events(params, spec)
        folds = [e for e in events if e.kind == "fold"]
        assert len(folds) == 1
        assert folds[0].param == pytest.approx(w_fold, abs=1e-6)


class TestStabilityAgainstFlow:
    """Linearization tags must predict the nonlinear response to a small kick."""

    def test_tags_predict_perturbation_fate(self, paper_within):
        spec = delta_sweep()
        res = bif.sweep_branch(paper_within, spec)
        picks = [(res.upper, j) for j in range(0, np.asarray(res.upper.param).size, 24)]
        picks += [(res.lower, 40), (res.lower, 120), (res.trivial, 100)]
        assert len(picks) >= 10
        for branch, j in picks:
            pt = (branch.param[j], branch.stability[j])
            Gamma = spec.to_gamma(paper_within, branch.param[j])
            eq = np.array([branch.T[j], branch.P[j]])
            traj = integrate_ode(
                lambda t, y: fast_rhs(y, paper_within, Gamma).tolist(),
                eq + 1e-3,
                (0.0, 300.0),
            )
            dist = np.linalg.norm(traj.y - eq, axis=1)
            if branch.stability[j].startswith("stable"):
                assert dist[-1] < 1e-8, pt
            else:
                assert dist.max() > 0.1, pt


class TestCycleAmplitude:
    def test_quiet_below_the_oscillation_threshold(self, paper_within):
        spec = delta_sweep(n=4, lo=0.1, hi=0.45)
        s = bif.cycle_amplitude(paper_within, spec)
        assert not np.asarray(s.oscillatory).any()
        assert not np.asarray(s.collapsed).any()
        # the column's attractor is the upper equilibrium, its load written
        # for both extremes
        upper_P = [
            wh.equilibria_fast(paper_within, spec.to_gamma(paper_within, param)).upper[1]
            for param in s.param
        ]
        assert np.asarray(s.p_max).tolist() == np.asarray(s.p_min).tolist() == upper_P
        assert np.asarray(s.returns).tolist() == [1, 1, 1, 1]

    def test_oscillation_window_has_growing_amplitude(self, paper_within):
        spec = delta_sweep(n=4, lo=0.52, hi=0.55)
        samples = bif.cycle_amplitude(paper_within, spec)
        amps = (np.asarray(samples.p_max) - np.asarray(samples.p_min)).tolist()
        periods = np.asarray(samples.period).tolist()
        assert np.asarray(samples.oscillatory).all()
        assert not np.asarray(samples.collapsed).any()
        assert all(a > 0.1 for a in amps)
        assert amps == sorted(amps)
        assert all(not math.isnan(p) and 5.0 < p < 20.0 for p in periods)
        assert periods == sorted(periods)

    def test_overflowing_orbit_stops_within_its_first_return_attempt(self, paper_within,
                                                                      monkeypatch):
        # at Lambda 1e100 the first column's orbit overflows on its first
        # step; the solve stops there, in its first map evaluation
        orbits = []
        first_return = bif._first_return

        def recorded(*args):
            orbits.append(first_return(*args))
            return orbits[-1]

        monkeypatch.setattr(bif, "_first_return", recorded)
        params = dataclasses.replace(paper_within, Lambda=1e100)
        with pytest.raises(NonFiniteError, match=r"^cycle orbit at delta=0.1 is not finite$"):
            bif.cycle_amplitude(params, delta_sweep(n=2, lo=0.1, hi=0.45))
        assert [(orbit.kind, orbit.steps) for orbit in orbits] == [("not finite", 1)]

    def test_collapse_beyond_the_cycle_window(self, paper_within):
        spec = delta_sweep(n=4, lo=0.7, hi=1.35)
        s = bif.cycle_amplitude(paper_within, spec)
        assert np.asarray(s.collapsed).all()
        assert not np.asarray(s.oscillatory).any()
        assert np.asarray(s.p_max).tolist() == np.asarray(s.p_min).tolist() == [0.0] * 4
        # delta = 1.35 lies past the fold: no pair, so no orbit is followed
        assert s.returns[-1] == 0 and (np.asarray(s.returns)[:-1] > 0).all()

    def test_zero_status_sample_sits_on_the_branch(self, paper_within):
        spec = bif.SweepSpec(which="W", lo=0.0, hi=1.0, n=3)
        s = bif.cycle_amplitude(paper_within, spec)
        assert s.param[0] == 0.0
        assert not s.oscillatory[0] and not s.collapsed[0]
        assert s.p_max[0] == wh.upper_branch_P(0.0, paper_within)

    def test_a_stable_node_settles_without_a_return(self, paper_within, monkeypatch):
        # the upper equilibrium is a stable node for delta below 0.063 at
        # W = 0.9: the orbit from 1.05*P_eq settles there in its first
        # evaluation, with no return to the section
        orbits = []
        first_return = bif._first_return

        def recorded(*args):
            orbits.append(first_return(*args))
            return orbits[-1]

        monkeypatch.setattr(bif, "_first_return", recorded)
        spec = delta_sweep(n=2, lo=0.01, hi=0.02)
        stability = bif.sweep_branch(paper_within, spec).upper.stability
        assert (np.asarray(stability) == "stable-node").all()
        s = bif.cycle_amplitude(paper_within, spec)
        assert [orbit.kind for orbit in orbits] == ["settled", "settled"]
        upper_P = [
            wh.equilibria_fast(paper_within, spec.to_gamma(paper_within, param)).upper[1]
            for param in s.param
        ]
        assert np.asarray(s.p_max).tolist() == np.asarray(s.p_min).tolist() == upper_P
        assert np.asarray(s.returns).tolist() == [1, 1] and not (
            np.asarray(s.oscillatory).any() or np.asarray(s.collapsed).any()
        )

    def test_a_small_cycle_inside_the_start_is_bracketed_from_the_equilibrium(
        self, paper_within, monkeypatch
    ):
        # 1e-4 past the Hopf point the cycle crosses the section below the
        # start 1.05*P_eq: the bracket is [P_eq*(1 + offset), 1.05*P_eq],
        # and every later evaluation lies inside it
        starts = []
        first_return = bif._first_return

        def recorded(field, T, P, *args):
            starts.append(P)
            return first_return(field, T, P, *args)

        monkeypatch.setattr(bif, "_first_return", recorded)
        hopf_at = hopf_point(paper_within, delta_sweep())
        spec = delta_sweep(n=2, lo=hopf_at + 1e-4, hi=hopf_at + 2e-4)
        s = bif.cycle_amplitude(paper_within, spec)
        P_eq = wh.equilibria_fast(paper_within, spec.to_gamma(paper_within, spec.lo)).upper[1]
        lo, x0 = P_eq * (1.0 + bif.CYCLE_BRACKET_OFFSET), 1.05 * P_eq
        first = starts[:s.returns[0]]
        assert first[:2] == [x0, lo] and all(lo < x < x0 for x in first[2:])
        assert s.oscillatory[0]

    def test_returns_count_the_map_evaluations(self, paper_within, monkeypatch):
        calls = []
        first_return = bif._first_return

        def counted(*args):
            calls.append(args[2])
            return first_return(*args)

        monkeypatch.setattr(bif, "_first_return", counted)
        s = bif.cycle_amplitude(paper_within, delta_sweep(n=12, lo=0.05, hi=1.4))
        assert np.asarray(s.returns).sum() == len(calls)
        assert np.asarray(s.oscillatory).any() and np.asarray(s.collapsed).any()

    def test_a_return_longer_than_the_window_flags_the_column(self, paper_within):
        # the cycles here have periods near 8 > window = 5
        s = bif.cycle_amplitude(paper_within, delta_sweep(n=2, lo=0.52, hi=0.55), window=5.0)
        assert np.asarray(s.homoclinic_flag).all() and np.asarray(s.returns).tolist() == [1, 1]
        assert not (np.asarray(s.oscillatory).any() or np.asarray(s.collapsed).any())
        assert (np.asarray(s.p_max) - np.asarray(s.p_min) > 0.1).all()

    def test_an_exhausted_step_budget_names_the_column(self, paper_within):
        # 1000 steps: two returns of about 370 steps, then the budget ends
        with pytest.raises(
            ConvergenceError, match=r"^cycle solve at delta=0.52 ran out of its 1000 steps$"
        ):
            bif.cycle_amplitude(
                paper_within, delta_sweep(n=2, lo=0.52, hi=0.55), transient=10.0, window=10.0
            )


def fast_field(params, Gamma):
    """The (Lambda, mu, alpha, Gamma) tuple a cycle orbit is stepped with."""
    return (params.Lambda, params.mu, params.alpha, Gamma)


class TestCycleOrbit:
    """The written-out RK4 of a cycle orbit and the return map it gives."""

    @given(
        coeffs=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=4, max_size=4),
        s=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_hermite_interpolant_reproduces_a_cubic(self, coeffs, s):
        # a cubic is its own cubic Hermite interpolant, and so is its slope
        c0, c1, c2, c3 = coeffs
        ends = (c0, c0 + c1 + c2 + c3, c1, c1 + 2.0 * c2 + 3.0 * c3)
        scale = 20.0 * max(1.0, *map(abs, coeffs))
        value = c0 + s * (c1 + s * (c2 + s * c3))
        slope = c1 + s * (2.0 * c2 + s * 3.0 * c3)
        assert bif._hermite(*ends, s) == pytest.approx(value, abs=1e-13 * scale)
        assert bif._hermite(*ends, s, slope=True) == pytest.approx(slope, abs=1e-13 * scale)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        h=st.floats(min_value=1e-3, max_value=0.02),
        n=st.integers(min_value=1, max_value=8),
    )
    def test_float_steps_match_the_array_step_bit_for_bit(self, seed, h, n):
        # states and steps where the orbit stays finite and above collapse
        rng = np.random.default_rng(seed)
        params = random_within(rng)
        Gamma = float(rng.uniform(0.1, 2.0))
        y = rng.uniform(0.2, 2.0, size=2)
        # a section at T = inf is never crossed: the orbit stops after n steps
        orbit = bif._first_return(fast_field(params, Gamma), *y.tolist(), h, n, math.inf, 1.0)
        want = y
        for _ in range(n):
            want = rk4_step_array(lambda t, x: fast_rhs(x, params, Gamma), 0.0, want, h)
        assert (orbit.kind, orbit.steps) == ("stopped", n)
        assert (orbit.T.hex(), orbit.P.hex()) == (float(want[0]).hex(), float(want[1]).hex())

    @pytest.fixture(scope="class")
    def figure_cycles(self):
        """(field, T_eq, P_eq, step, column) of every oscillatory column of
        the two figure configs at their shipped cycle_n; a column is
        (p_min, p_max, period, returns, oscillatory, collapsed,
        homoclinic_flag, section load x*)."""
        found = []
        solve = bif._cycle_column

        def recorded(field, T_eq, P_eq, stable, h, *args):
            column = solve(field, T_eq, P_eq, stable, h, *args)
            if column[4]:
                found.append((field, T_eq, P_eq, h, column))
            return column

        with mock.patch.object(bif, "_cycle_column", recorded):
            for config in ("within_fig1.json", "within_fig2.json"):
                cfg = load_scenario(CONFIGS / config)
                bif.cycle_amplitude(cfg.within, dataclasses.replace(cfg.sweep, n=cfg.cycle_n))
        assert len(found) == 2
        return found

    def test_cycles_are_fixed_points_of_the_return_map(self, figure_cycles):
        # find_root stops once x* is within CYCLE_ROOT_TOL*P_eq + 4*eps*x*
        # of the root, and |R'(x) - 1| < 1 about a stable cycle
        eps = np.finfo(float).eps
        for field, T_eq, P_eq, h, (p_min, p_max, period, *_, x) in figure_cycles:
            orbit = bif._first_return(field, T_eq, x, h, 40000, T_eq, P_eq)
            assert orbit.kind == "returned"
            assert abs(orbit.load - x) <= bif.CYCLE_ROOT_TOL * P_eq + 4.0 * eps * x
            assert (orbit.time, orbit.p_min, orbit.p_max) == (period, p_min, p_max)

    def test_cycles_close_under_dormand_prince(self, figure_cycles):
        # an independent integrator at tolerances 1e-12/1e-14 returns to the
        # section within the RK4 error at h = 0.02, 1e-6 of the load
        for field, T_eq, _, _, (_, _, period, *_, x) in figure_cycles:
            lam, mu, a, G = field

            def rhs(t, y):
                infection = a * y[1] * y[1] * y[0]
                return (lam - mu * y[0] - infection, infection - G * y[1])

            with mock.patch.multiple(numerics, RTOL=1e-12, ATOL=1e-14):
                run = integrate_ode(
                    rhs, [T_eq, x], (0.0, 2.0 * period), event=lambda t, y: y[0] - T_eq
                )
            assert np.asarray(run.y)[-1, 1] == pytest.approx(x, rel=1e-6)
            assert run.event_time == pytest.approx(period, rel=1e-6)

    def test_the_return_map_converges_at_fourth_order(self, figure_cycles):
        # R_h(x) at h = 0.08, 0.04, 0.02 and 0.01: successive differences
        # fall by 2^4 = 16 at fourth order; by 8 to 32 here
        for field, T_eq, P_eq, _, (*_, x) in figure_cycles:
            loads = [
                bif._first_return(field, T_eq, x, 0.08 / k, 10**5, T_eq, P_eq).load
                for k in (1, 2, 4, 8)
            ]
            diffs = np.diff(loads)
            ratios = diffs[:-1] / diffs[1:]
            assert ((8.0 <= ratios) & (ratios <= 32.0)).all(), ratios


class TestHopfOracle:
    """The cycle solve against the linearisation at the closed-form Hopf
    point, computed from within_host.jacobian_fast and not from any orbit."""

    # the distance d of the first column past the Hopf point: the same step
    # 0.0018 in Gamma = gamma + delta*W on both sweeps (W = 0.9 on fig1,
    # delta = 0.3 on fig2)
    HOPF_OFFSET = {"within_fig1.json": 0.002, "within_fig2.json": 0.006}

    @classmethod
    @functools.cache
    def past_hopf(cls, config):
        """The sweep of a figure config and its cycles at d, 2d, 3d and 4d
        past the Hopf point."""
        cfg = load_scenario(CONFIGS / config)
        hopf_at, d = hopf_point(cfg.within, cfg.sweep), cls.HOPF_OFFSET[config]
        spec = dataclasses.replace(cfg.sweep, lo=hopf_at + d, hi=hopf_at + 4.0 * d, n=4)
        return cfg.within, spec, bif.cycle_amplitude(cfg.within, spec)

    @pytest.mark.parametrize("config", ["within_fig1.json", "within_fig2.json"])
    def test_cycles_appear_only_on_the_unstable_side(self, config):
        cfg = load_scenario(CONFIGS / config)
        spec = dataclasses.replace(cfg.sweep, n=cfg.cycle_n)
        samples = bif.cycle_amplitude(cfg.within, spec)
        hopf_at = hopf_point(cfg.within, spec)
        # a negative first Lyapunov coefficient: a supercritical Hopf point,
        # whose small cycles lie on its unstable side; both sweeps cross the
        # same point Gamma_H of the same rates
        l1, _ = lyapunov_coefficient(cfg.within, spec)
        assert l1 == pytest.approx(-0.133, abs=5e-4)
        stable_checked = past_hopf = 0
        for param, oscillatory in zip(
            np.asarray(samples.param).tolist(), np.asarray(samples.oscillatory).tolist()
        ):
            s = (param, oscillatory)
            if not wh.equilibria_fast(cfg.within, spec.to_gamma(cfg.within, param)).exists:
                assert not oscillatory, s
                continue
            growth = leading_eigenvalue(cfg.within, spec, param).real
            assert (growth > 0.0) == (param > hopf_at), s
            # every column with a pair: a cycle only where the upper
            # equilibrium is unstable
            assert not oscillatory or growth > 0.0, s
            stable_checked += growth < 0.0
            past_hopf += oscillatory
        assert stable_checked > 0 and past_hopf > 0
        if config == "within_fig2.json":
            # a decaying spiral just below W_H = 1.5472
            j = int(np.argmin(np.abs(np.asarray(samples.param) - 1.5385)))
            assert samples.param[j] < hopf_at and not samples.oscillatory[j]

    def test_periods_tend_to_the_linear_period_at_the_hopf_point(self):
        params, spec, samples = self.past_hopf("within_fig1.json")
        hopf_at = hopf_point(params, spec)
        period_h = 2.0 * math.pi / leading_eigenvalue(params, spec, hopf_at).imag
        assert period_h == pytest.approx(7.32, abs=5e-3)
        assert np.asarray(samples.oscillatory).all()
        t1, t2, _, t4 = np.asarray(samples.period).tolist()
        # the period grows smoothly with the distance past the Hopf point
        assert period_h < t1 < t2 < t4
        # T(D) = period_h + c1*D + c2*D^2 + O(D^3): the quadratic Richardson
        # extrapolation of T(d), T(2d), T(4d) to D = 0 removes the c1 and c2
        # terms, and its step past the linear one, 2 T(d) - T(2d), bounds
        # what is left while the terms fall. Each period is a located
        # return time, off by the RK4 error alone (within 1e-6 relative, see
        # test_cycles_close_under_dormand_prince), carried through the
        # weights 8/3, 6/3 and 1/3
        linear = 2.0 * t1 - t2
        extrapolated = (8.0 * t1 - 6.0 * t2 + t4) / 3.0
        located = 1e-6 * (8.0 * t1 + 6.0 * t2 + t4) / 3.0
        assert abs(extrapolated - period_h) <= abs(extrapolated - linear) + located

    @pytest.mark.parametrize("config", ["within_fig1.json", "within_fig2.json"])
    def test_amplitudes_grow_at_the_normal_form_slope(self, config):
        params, spec, samples = self.past_hopf(config)
        h = bif.CYCLE_STEP
        hopf_at = hopf_point(params, spec)
        omega = leading_eigenvalue(params, spec, hopf_at).imag
        slope = hopf_amplitude_slope(params, spec)
        assert np.asarray(samples.oscillatory).all()
        # s(D) = (p_max - p_min)^2 / D = slope + c1*D + c2*D^2 + O(D^3) at the
        # distance D past the Hopf point. The quadratic Richardson
        # extrapolation of s(d), s(2d), s(4d) to D = 0 removes the c1 and c2
        # terms; its step past the linear one, 2 s(d) - s(2d), is the c2 term
        # that the linear one leaves, and bounds what is left while the
        # terms fall
        s1, s2, _, s4 = (
            (np.asarray(samples.p_max) - np.asarray(samples.p_min)) ** 2
            / (np.asarray(samples.param) - hopf_at)
        ).tolist()
        linear = 2.0 * s1 - s2
        extrapolated = (8.0 * s1 - 6.0 * s2 + s4) / 3.0
        # each extremum is read on the cubic Hermite interpolant of its
        # step, off by at most h^4/384 max|P^(4)| = a*omega^4*h^4/384 on a
        # near-harmonic orbit of half amplitude a: each s is off by a
        # relative omega^4*h^4/192 at most, carried through the weights
        located = omega**4 * h**4 / 192.0 * (8.0 * s1 + 6.0 * s2 + s4) / 3.0
        assert abs(extrapolated - slope) <= abs(extrapolated - linear) + located


# a delta sweep holding the fold and the Hopf point; its four cycle columns
# are a stable focus, an oscillation (delta = 0.5346) and two collapses
EXPORT_SWEEP = {"which": "delta", "lo": 0.1519, "hi": 1.3, "n": 12, "W": 0.9, "cycle_n": 4}


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """The outputs of one `bifurcate` run on EXPORT_SWEEP, with the sweep it
    traced and the cycles it sampled, computed here directly, and its
    config."""
    root = tmp_path_factory.mktemp("exports")
    doc = json.loads((CONFIGS / "within_fig1.json").read_text())
    doc["sweep"] = EXPORT_SWEEP
    (root / "scenario.json").write_text(json.dumps(doc))
    out = root / "out"
    assert cli.main(["bifurcate", "--config", str(root / "scenario.json"), "--out", str(out)]) == 0
    cfg = load_scenario(root / "scenario.json")
    result = bif.sweep_branch(cfg.within, cfg.sweep)
    cycles = bif.cycle_amplitude(cfg.within, dataclasses.replace(cfg.sweep, n=cfg.cycle_n))
    return out, result, cycles, cfg


class TestExports:
    """The branch, cycle and event files a `bifurcate` run writes."""

    def test_branch_csv_shape_and_round_trip(self, exported):
        out, result, _, _ = exported
        for name, branch in (("branches.csv", result.fold_path), ("trivial.csv", result.trivial)):
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "param,T,P,re_ev1,im_ev1,re_ev2,im_ev2,stability"
            assert len(lines) == 1 + np.asarray(branch.param).size
            for j, line in enumerate(lines[1:]):
                cells = line.split(",")
                e1, e2 = branch.eigenvalues[j]
                expected = [branch.param[j], branch.T[j], branch.P[j]]
                expected += [e1.real, e1.imag, e2.real, e2.imag]
                assert [float(c) for c in cells[:7]] == expected
                assert cells[7] == branch.stability[j]
                assert "np.float64" not in line

    def test_cycles_csv_uses_integer_flags(self, exported):
        out, _, samples, _ = exported
        lines = (out / "cycles.csv").read_text().splitlines()
        assert lines[0] == (
            "param,p_min,p_max,period,returns,oscillatory,collapsed,homoclinic_flag"
        )
        assert len(lines) == 1 + np.asarray(samples.param).size
        for j, line in enumerate(lines[1:]):
            row = line.split(",")
            expected = [samples.param[j], samples.p_min[j], samples.p_max[j]]
            assert [float(c) for c in row[:3]] == expected
            period = float(samples.period[j])
            assert row[3] == ("" if math.isnan(period) else repr(period))
            assert int(row[4]) == samples.returns[j]
            flags = (samples.oscillatory[j], samples.collapsed[j], samples.homoclinic_flag[j])
            assert row[5:] == [str(int(flag)) for flag in flags]
        # both forms of the period cell and both values of each flag occur
        assert np.isnan(samples.period).tolist() == [True, False, True, True]
        assert np.asarray(samples.collapsed).tolist() == [False, False, True, True]

    def test_events_serialize_to_plain_dicts(self, exported):
        out, _, _, cfg = exported
        events = json.loads((out / "events.json").read_text())
        assert [sorted(d) for d in events] == [["P", "T", "kind", "param"]] * 2
        assert [d["kind"] for d in events] == ["hopf", "fold"]
        assert all(isinstance(d["param"], float) for d in events)
        assert events == [dataclasses.asdict(e) for e in bif.detect_all_events(cfg.within, cfg.sweep)]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["events"] == events
