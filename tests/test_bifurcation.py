"""Branch sweeps, event detection, and cycle sampling of the frozen-W fast flow."""

import dataclasses
import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from immunoepi import bifurcation as bif
from immunoepi import cli
from immunoepi import within_host as wh
from immunoepi.config import load_scenario
from immunoepi.errors import NonFiniteError
from immunoepi.numerics import integrate_ode

from conftest import random_within
from oracles import (
    fast_rhs,
    hopf_amplitude_slope,
    hopf_point,
    leading_eigenvalue,
    lyapunov_coefficient,
)
from reference_loops import cycle_amplitude_loop, sweep_branch_loop

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
        values = dspec.values()
        scalars = [dspec.to_gamma(p, v) for v in values.tolist()]
        assert np.array_equal(dspec.to_gamma(p, values), scalars)


class TestSweepBranch:
    def test_branch_counts_and_extent(self, paper_within):
        spec = delta_sweep()
        res = bif.sweep_branch(paper_within, spec)
        assert res.trivial.param.size == spec.n
        assert res.upper.param.size == res.lower.param.size < spec.n
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
        for j in range(0, up.param.size, 7):
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
        assert path.param.size == res.upper.param.size + res.lower.param.size
        params = path.param.tolist()
        k = res.upper.param.size
        assert params[:k] == sorted(params[:k])
        assert params[k:] == sorted(params[k:], reverse=True)
        # P decreases monotonically along the whole path through the fold
        ps = path.P.tolist()
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
            branch.param.tolist(),
            branch.T.tolist(),
            branch.P.tolist(),
            branch.eigenvalues[:, 0].tolist(),
            branch.eigenvalues[:, 1].tolist(),
            branch.stability.tolist(),
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
        assert spec.to_gamma(paper_within, spec.values())[0] == paper_within.gamma
        res = bif.sweep_branch(paper_within, spec)
        eq = wh.equilibria_fast(paper_within, paper_within.gamma)
        assert (res.upper.T[0], res.upper.P[0]) == eq.upper
        assert (res.lower.T[0], res.lower.P[0]) == eq.lower
        reference = sweep_branch_loop(paper_within, spec)
        assert branch_rows(res.trivial) == hexed_rows(reference["trivial"])


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
        assert res.upper.param.tolist() == [lo]
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
        picks = [(res.upper, j) for j in range(0, res.upper.param.size, 24)]
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
        assert not s.oscillatory.any()
        assert not s.collapsed.any()
        # the orbit has settled back onto the upper equilibrium
        upper_P = wh.equilibria_fast(paper_within, spec.to_gamma(paper_within, s.param)).upper[1]
        assert s.p_max == pytest.approx(upper_P, abs=1e-3)
        assert (s.p_max - s.p_min < 1e-6).all()

    def test_oscillation_window_has_growing_amplitude(self, paper_within):
        spec = delta_sweep(n=4, lo=0.52, hi=0.55)
        samples = bif.cycle_amplitude(paper_within, spec)
        amps = (samples.p_max - samples.p_min).tolist()
        periods = samples.period.tolist()
        assert samples.oscillatory.all()
        assert not samples.collapsed.any()
        assert all(a > 0.1 for a in amps)
        assert amps == sorted(amps)
        assert all(not math.isnan(p) and 5.0 < p < 20.0 for p in periods)
        assert periods == sorted(periods)

    def test_overflowing_orbit_ends_at_the_first_check(self, paper_within, monkeypatch):
        # at Lambda 1e100 the orbits overflow within the first steps; the
        # sampler stops at the first finiteness check, not after the transient
        steps = []
        stepper = bif.rk4_stepper

        def counting(rhs_into, y, h):
            step = stepper(rhs_into, y, h)

            def counted():
                steps.append(h)
                step()

            return counted

        monkeypatch.setattr(bif, "rk4_stepper", counting)
        params = dataclasses.replace(paper_within, Lambda=1e100)
        with pytest.raises(NonFiniteError, match="delta=0.1"):
            bif.cycle_amplitude(params, delta_sweep(n=2, lo=0.1, hi=0.45))
        assert len(steps) == bif.CYCLE_CHECK_STEPS

    def test_collapse_beyond_the_cycle_window(self, paper_within):
        spec = delta_sweep(n=4, lo=0.7, hi=1.35)
        s = bif.cycle_amplitude(paper_within, spec)
        assert s.collapsed.all()
        assert not s.oscillatory.any()
        assert (s.p_max < 1e-6).all()

    def test_zero_status_sample_sits_on_the_branch(self, paper_within):
        spec = bif.SweepSpec(which="W", lo=0.0, hi=1.0, n=3)
        s = bif.cycle_amplitude(paper_within, spec)
        assert s.param[0] == 0.0
        assert not s.oscillatory[0] and not s.collapsed[0]
        assert s.p_max[0] == pytest.approx(wh.upper_branch_P(0.0, paper_within), abs=1e-3)


def reference_orbit_extremes(params, spec, transient, window, step):
    """Cycle sampling as it was with a stacked (T, P) state: P extremes,
    maximum counts and first/last maximum times per sweep value."""
    rows = []
    for value in spec.values():
        Gamma = spec.to_gamma(params, float(value))
        eq = wh.equilibria_fast(params, Gamma)
        if eq.exists:
            T0, P0 = eq.upper[0], eq.upper[1] * 1.05
        else:
            T0, P0 = 0.5 * params.Lambda / params.mu, 2.0 * np.sqrt(params.mu / params.alpha)
        rows.append((Gamma, T0, P0))
    Gam = np.array([r[0] for r in rows])
    y = np.array([[r[1], r[2]] for r in rows])
    lam, mu, a = params.Lambda, params.mu, params.alpha

    def rhs(state):
        T, P = state[:, 0], state[:, 1]
        infection = a * P * P * T
        return np.stack([lam - mu * T - infection, infection - Gam * P], axis=1)

    def rk4(y):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * step * k1)
        k3 = rhs(y + 0.5 * step * k2)
        k4 = rhs(y + step * k3)
        return y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    for _ in range(int(round(transient / step))):
        y = rk4(y)
    m = len(rows)
    p_min, p_max = y[:, 1].copy(), y[:, 1].copy()
    count = np.zeros(m, dtype=int)
    first, last = np.full(m, np.nan), np.full(m, np.nan)
    prev2, prev1 = y[:, 1].copy(), y[:, 1].copy()
    for i in range(int(round(window / step))):
        y = rk4(y)
        P = y[:, 1]
        p_min, p_max = np.minimum(p_min, P), np.maximum(p_max, P)
        if i >= 2:
            is_max = (prev1 > prev2) & (prev1 > P)
            first[is_max & np.isnan(first)] = (i - 1) * step
            last[is_max] = (i - 1) * step
            count += is_max.astype(int)
        prev2, prev1 = prev1, P.copy()
    return p_min, p_max, count, first, last


class TestCycleStepper:
    @pytest.mark.parametrize(
        "spec",
        [delta_sweep(n=9, lo=0.3, hi=1.3), bif.SweepSpec(which="W", lo=0.0, hi=3.5, n=8)],
    )
    def test_split_state_matches_the_stacked_state_bit_for_bit(self, paper_within, spec):
        kwargs = dict(transient=60.0, window=120.0, step=0.04)
        s = bif.cycle_amplitude(paper_within, spec, **kwargs)
        p_min, p_max, count, first, last = reference_orbit_extremes(paper_within, spec, **kwargs)
        assert s.oscillatory.any()
        for j in range(s.param.size):
            assert (s.p_min[j], s.p_max[j], s.n_maxima[j]) == (p_min[j], p_max[j], count[j])
            if not np.isnan(s.period[j]):
                assert s.period[j] == (last[j] - first[j]) / (count[j] - 1)


def hexed(table):
    """Every CycleTable column, each float as float.hex."""
    return {
        field.name: [
            v.hex() if isinstance(v, float) else v for v in getattr(table, field.name).tolist()
        ]
        for field in dataclasses.fields(table)
    }


class TestCycleReference:
    """The block-reduced sampler returns the per-step loop's samples bit for
    bit (reference_loops.cycle_amplitude_loop)."""

    @pytest.mark.parametrize("cycle_n", [4, 40])
    @pytest.mark.parametrize("config", ["within_fig1.json", "within_fig2.json"])
    def test_figure_sweeps_match_the_loop(self, config, cycle_n):
        cfg = load_scenario(CONFIGS / config)
        spec = dataclasses.replace(cfg.sweep, n=cycle_n)
        samples = bif.cycle_amplitude(cfg.within, spec)
        assert hexed(samples) == hexed(cycle_amplitude_loop(cfg.within, spec))
        if cycle_n == 40:
            assert samples.oscillatory.any() and samples.collapsed.any()

    # the window's last strict maximum sits at load CYCLE_CHECK_STEPS - 1 +
    # edge: the first block's last candidate, whose right neighbour ends the
    # block; the second block's first candidate, itself a carried load; or
    # the next, whose left neighbour is carried. Windows of 1000, 1001 and
    # 1002 steps make it the window's last candidate.
    @pytest.mark.parametrize("edge", [-1, 0, 1])
    def test_maximum_on_a_block_edge(self, paper_within, edge):
        spec = delta_sweep(n=3, lo=0.52, hi=0.55)
        step = bif.CYCLE_STEP
        n_transient = 3000
        kwargs = dict(transient=n_transient * step, window=2000 * step, step=step)
        first = reference_orbit_extremes(paper_within, spec, **kwargs)[3]
        target = bif.CYCLE_CHECK_STEPS - 1 + edge
        # the flow is autonomous: a transient shorter by first - target steps
        # moves column 0's first maximum to load index target
        n_transient += round(first[0] / step) - target
        kwargs = dict(transient=n_transient * step, window=(target + 2) * step, step=step)
        last = reference_orbit_extremes(paper_within, spec, **kwargs)[4]
        assert last[0] == target * step
        samples = bif.cycle_amplitude(paper_within, spec, **kwargs)
        assert hexed(samples) == hexed(cycle_amplitude_loop(paper_within, spec, **kwargs))

    # a partial last block of 525 loads, and a window shorter than one block
    @pytest.mark.parametrize("n_window", [1525, 999])
    def test_partial_blocks_match_the_loop(self, paper_within, n_window):
        spec = delta_sweep(n=5, lo=0.45, hi=1.3)
        step = bif.CYCLE_STEP
        kwargs = dict(transient=2000 * step, window=n_window * step, step=step)
        samples = bif.cycle_amplitude(paper_within, spec, **kwargs)
        assert (samples.n_maxima >= 2).any()
        assert hexed(samples) == hexed(cycle_amplitude_loop(paper_within, spec, **kwargs))


class TestHopfOracle:
    """The sampler against the linearisation at the closed-form Hopf point,
    computed from within_host.jacobian_fast and not from any orbit."""

    # relaxation times 1/|Re lambda| a transient must cover before a column's
    # fate is read: the distance to the equilibrium or to the cycle then
    # falls by e^-5 or more
    RELAXATION_TIMES = 5.0
    # the distance d of the first column past the Hopf point: the same step
    # 0.0018 in Gamma = gamma + delta*W on both sweeps (W = 0.9 on fig1,
    # delta = 0.3 on fig2)
    HOPF_OFFSET = {"within_fig1.json": 0.002, "within_fig2.json": 0.006}

    @classmethod
    @functools.cache
    def past_hopf(cls, config):
        """The sweep of a figure config and its cycle samples at d, 2d, 3d
        and 4d past the Hopf point, with a transient of RELAXATION_TIMES
        growth times of the slowest column."""
        cfg = load_scenario(CONFIGS / config)
        hopf_at, d = hopf_point(cfg.within, cfg.sweep), cls.HOPF_OFFSET[config]
        spec = dataclasses.replace(cfg.sweep, lo=hopf_at + d, hi=hopf_at + 4.0 * d, n=4)
        growth = leading_eigenvalue(cfg.within, spec, hopf_at + d).real
        h = bif.CYCLE_STEP
        transient = math.ceil(cls.RELAXATION_TIMES / growth / h) * h
        return cfg.within, spec, bif.cycle_amplitude(cfg.within, spec, transient=transient)

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
        # a stable column whose transient spans RELAXATION_TIMES decay times
        # has settled on its equilibrium; closer to the Hopf point a
        # decaying spiral may still oscillate in the window (fig2 has one
        # at W = 1.5385, just below W_H = 1.5472)
        settled = -self.RELAXATION_TIMES / bif.CYCLE_TRANSIENT
        stable_checked = past_hopf = 0
        for param, oscillatory in zip(samples.param.tolist(), samples.oscillatory.tolist()):
            s = (param, oscillatory)
            if not wh.equilibria_fast(cfg.within, spec.to_gamma(cfg.within, param)).exists:
                assert not oscillatory, s
                continue
            growth = leading_eigenvalue(cfg.within, spec, param).real
            assert (growth > 0.0) == (param > hopf_at), s
            if growth <= settled:
                assert not oscillatory, s
                stable_checked += 1
            # a supercritical Hopf point: cycles lie past it, where the
            # upper equilibrium is unstable
            past_hopf += oscillatory and growth > 0.0
        assert stable_checked > 0 and past_hopf > 0

    def test_periods_tend_to_the_linear_period_at_the_hopf_point(self):
        params, spec, samples = self.past_hopf("within_fig1.json")
        h = bif.CYCLE_STEP
        hopf_at = hopf_point(params, spec)
        period_h = 2.0 * math.pi / leading_eigenvalue(params, spec, hopf_at).imag
        assert period_h == pytest.approx(7.32, abs=5e-3)
        assert samples.oscillatory.all()
        t1, t2, _, t4 = samples.period.tolist()
        # the period grows smoothly with the distance past the Hopf point
        assert period_h < t1 < t2 < t4
        # each maximum of the sampled load sits on the step grid, within h/2
        # of the orbit's own, so a period averaged over n - 1 cycles is off
        # by at most h/(n - 1); the quadratic Richardson extrapolation to
        # d = 0 weighs the three periods by 8/3, -6/3 and 1/3, so its bound
        # is 5h/(n - 1), with the O(d^3) remainder left out
        quantum = h / (samples.n_maxima.min() - 1)
        extrapolated = (8.0 * t1 - 6.0 * t2 + t4) / 3.0
        assert abs(extrapolated - period_h) <= 5.0 * quantum

    @pytest.mark.parametrize("config", ["within_fig1.json", "within_fig2.json"])
    def test_amplitudes_grow_at_the_normal_form_slope(self, config):
        params, spec, samples = self.past_hopf(config)
        h = bif.CYCLE_STEP
        hopf_at = hopf_point(params, spec)
        omega = leading_eigenvalue(params, spec, hopf_at).imag
        slope = hopf_amplitude_slope(params, spec)
        assert samples.oscillatory.all()
        # s(D) = (p_max - p_min)^2 / D = slope + c1*D + c2*D^2 + O(D^3) at the
        # distance D past the Hopf point. The quadratic Richardson
        # extrapolation of s(d), s(2d), s(4d) to D = 0 removes the c1 and c2
        # terms; its step past the linear one, 2 s(d) - s(2d), is the c2 term
        # that the linear one leaves, and bounds what is left while the
        # terms fall
        s1, s2, _, s4 = ((samples.p_max - samples.p_min) ** 2 / (samples.param - hopf_at)).tolist()
        linear = 2.0 * s1 - s2
        extrapolated = (8.0 * s1 - 6.0 * s2 + s4) / 3.0
        # each extremum on the step grid lies within h/2 of the orbit's own,
        # low by at most omega^2*a*h^2/8 on a near-harmonic orbit of half
        # amplitude a, so each s is low by a relative omega^2*h^2/4 at most,
        # carried through the weights 8/3, 6/3 and 1/3
        sampling = omega**2 * h**2 / 4.0 * (8.0 * s1 + 6.0 * s2 + s4) / 3.0
        assert abs(extrapolated - slope) <= abs(extrapolated - linear) + sampling


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
            assert len(lines) == 1 + branch.param.size
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
            "param,p_min,p_max,period,n_maxima,oscillatory,collapsed,homoclinic_flag"
        )
        assert len(lines) == 1 + samples.param.size
        for j, line in enumerate(lines[1:]):
            row = line.split(",")
            expected = [samples.param[j], samples.p_min[j], samples.p_max[j]]
            assert [float(c) for c in row[:3]] == expected
            period = float(samples.period[j])
            assert row[3] == ("" if math.isnan(period) else repr(period))
            assert int(row[4]) == samples.n_maxima[j]
            flags = (samples.oscillatory[j], samples.collapsed[j], samples.homoclinic_flag[j])
            assert row[5:] == [str(int(flag)) for flag in flags]
        # both forms of the period cell and both values of each flag occur
        assert np.isnan(samples.period).tolist() == [True, False, True, True]
        assert samples.collapsed.tolist() == [False, False, True, True]

    def test_events_serialize_to_plain_dicts(self, exported):
        out, _, _, cfg = exported
        events = json.loads((out / "events.json").read_text())
        assert [sorted(d) for d in events] == [["P", "T", "kind", "param"]] * 2
        assert [d["kind"] for d in events] == ["hopf", "fold"]
        assert all(isinstance(d["param"], float) for d in events)
        assert events == [dataclasses.asdict(e) for e in bif.detect_all_events(cfg.within, cfg.sweep)]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["events"] == events
