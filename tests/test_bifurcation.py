"""Branch sweeps, event detection, and cycle sampling of the frozen-W fast flow."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from immunoepi import bifurcation as bif
from immunoepi import within_host as wh
from immunoepi.config import load_scenario
from immunoepi.numerics import IntegratorSpec, integrate_ode

from conftest import random_within
from oracles import fast_rhs
from reference_loops import cycle_amplitude_loop

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
    return (
        bif._param_from_gamma(params, spec, loci.Gamma_fold),
        bif._param_from_gamma(params, spec, hopf),
    )


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

    def test_resolve_substitutes_the_swept_quantity(self, paper_within):
        dspec = delta_sweep()
        p, W = dspec.resolve(paper_within, 0.7)
        assert p.delta == 0.7 and W == 0.9
        wspec = bif.SweepSpec(which="W", lo=0.0, hi=4.0)
        p, W = wspec.resolve(paper_within, 1.3)
        assert p.delta == paper_within.delta and W == 1.3


class TestSweepBranch:
    def test_branch_counts_and_extent(self, paper_within):
        spec = delta_sweep()
        res = bif.sweep_branch(paper_within, spec)
        assert len(res.trivial) == spec.n
        assert len(res.upper) == len(res.lower) < spec.n
        step = (spec.hi - spec.lo) / (spec.n - 1)
        # the pair exists up to the fold and no further
        assert res.upper[-1].param <= DELTA_FOLD_REF < res.upper[-1].param + step

    def test_points_match_the_equilibrium_solver(self, paper_within):
        spec = delta_sweep(n=10, lo=0.2, hi=0.4)
        res = bif.sweep_branch(paper_within, spec)
        pt = res.upper[4]
        p, W = spec.resolve(paper_within, pt.param)
        eq = wh.equilibria_fast(p, W)
        assert pt.T == pytest.approx(eq.upper[0], rel=1e-12)
        assert pt.P == pytest.approx(eq.upper[1], rel=1e-12)
        assert res.lower[4].P == pytest.approx(eq.lower[1], rel=1e-12)
        assert res.trivial[4].T == pytest.approx(paper_within.Lambda / paper_within.mu)

    def test_trivial_branch_is_a_stable_node_throughout(self, paper_within):
        res = bif.sweep_branch(paper_within, delta_sweep())
        assert all(pt.stability == "stable-node" for pt in res.trivial)

    def test_lower_branch_is_a_saddle_throughout(self, paper_within):
        res = bif.sweep_branch(paper_within, delta_sweep())
        assert all(pt.stability == "saddle" for pt in res.lower)
        # real eigenvalues of opposite sign: a negative determinant
        assert all((pt.eigenvalues[0] * pt.eigenvalues[1]).real < 0 for pt in res.lower)

    def test_upper_branch_loses_stability_at_the_trace_root(self, paper_within):
        res = bif.sweep_branch(paper_within, delta_sweep())
        for pt in res.upper:
            if pt.param < DELTA_HOPF_REF - 0.01:
                assert pt.stability.startswith("stable")
            elif pt.param > DELTA_HOPF_REF + 0.01:
                assert pt.stability.startswith("unstable")

    def test_eigenvalues_reproduce_trace_and_det(self, paper_within):
        spec = delta_sweep(n=40)
        res = bif.sweep_branch(paper_within, spec)
        for pt in res.upper[::7]:
            J = wh.jacobian_fast((pt.T, pt.P), *spec.resolve(paper_within, pt.param))
            e1, e2 = pt.eigenvalues
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
        assert len(path) == len(res.upper) + len(res.lower)
        params = [pt.param for pt in path]
        k = len(res.upper)
        assert params[:k] == sorted(params[:k])
        assert params[k:] == sorted(params[k:], reverse=True)
        # P decreases monotonically along the whole path through the fold
        ps = [pt.P for pt in path]
        assert all(a > b for a, b in zip(ps[:-1], ps[1:]))


class TestDetectEvents:
    def test_delta_sweep_finds_both_events(self, paper_within):
        res = bif.sweep_branch(paper_within, delta_sweep())
        events = bif.detect_all_events(res)
        kinds = sorted(e.kind for e in events)
        assert kinds == ["fold", "hopf"]
        fold_at, hopf_at = analytic_events(paper_within, res.spec)
        fold = next(e for e in events if e.kind == "fold")
        hopf = next(e for e in events if e.kind == "hopf")
        assert fold.param == pytest.approx(fold_at, abs=1e-6)
        assert hopf.param == pytest.approx(hopf_at, abs=1e-6)
        assert fold.param == pytest.approx(DELTA_FOLD_REF, abs=1e-6)
        assert hopf.param == pytest.approx(DELTA_HOPF_REF, abs=1e-6)

    def test_fold_event_carries_the_double_root_state(self, paper_within):
        res = bif.sweep_branch(paper_within, delta_sweep())
        fold = next(e for e in bif.detect_all_events(res) if e.kind == "fold")
        assert fold.P == pytest.approx(P_FOLD_REF, abs=1e-12)
        assert fold.T == pytest.approx(T_FOLD_REF, abs=1e-12)

    def test_hopf_event_state_sits_on_the_upper_branch(self, paper_within):
        res = bif.sweep_branch(paper_within, delta_sweep())
        hopf = next(e for e in bif.detect_all_events(res) if e.kind == "hopf")
        p, W = res.spec.resolve(paper_within, hopf.param)
        eq = wh.equilibria_fast(p, W)
        assert hopf.T == pytest.approx(eq.upper[0], rel=1e-9)
        assert hopf.P == pytest.approx(eq.upper[1], rel=1e-9)

    def test_immune_status_sweep_finds_both_events(self, paper_within):
        spec = bif.SweepSpec(which="W", lo=0.0, hi=4.0, n=200)
        res = bif.sweep_branch(paper_within, spec)
        events = bif.detect_all_events(res)
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
            events = bif.detect_all_events(bif.sweep_branch(paper_within, spec))
            assert [e.param for e in events if e.kind == "hopf"] == [expected]

    def test_quiet_range_reports_no_events(self, paper_within):
        spec = delta_sweep(n=60, lo=0.1, hi=0.4)
        res = bif.sweep_branch(paper_within, spec)
        assert bif.detect_all_events(res) == []

    def test_events_agree_across_grid_resolutions(self, paper_within):
        # the events are the loci inside [lo, hi], whatever the grid
        for spec in (delta_sweep(), bif.SweepSpec(which="W", lo=0.0, hi=4.0)):
            events = [
                bif.detect_all_events(
                    bif.sweep_branch(paper_within, dataclasses.replace(spec, n=n))
                )
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
        assert [pt.param for pt in res.upper] == [lo]
        events = bif.detect_all_events(res)
        assert [(e.kind, e.param) for e in events] == [("hopf", hopf_at), ("fold", fold_at)]

    @given(st.randoms(use_true_random=False))
    def test_fold_event_matches_the_closed_form_locus(self, rng):
        params = random_within(rng)
        loci = wh.critical_loci(params)
        w_fold = (loci.Gamma_fold - params.gamma) / params.delta
        assume(w_fold > 0.05)
        spec = bif.SweepSpec(which="W", lo=0.0, hi=1.2 * w_fold, n=60)
        events = bif.detect_all_events(bif.sweep_branch(params, spec))
        folds = [e for e in events if e.kind == "fold"]
        assert len(folds) == 1
        assert folds[0].param == pytest.approx(w_fold, abs=1e-6)


class TestStabilityAgainstFlow:
    """Linearization tags must predict the nonlinear response to a small kick."""

    def test_tags_predict_perturbation_fate(self, paper_within):
        spec = delta_sweep()
        res = bif.sweep_branch(paper_within, spec)
        picks = res.upper[::24] + [res.lower[40], res.lower[120], res.trivial[100]]
        assert len(picks) >= 10
        for pt in picks:
            p, W = spec.resolve(paper_within, pt.param)
            eq = np.array([pt.T, pt.P])
            traj = integrate_ode(
                lambda t, y: fast_rhs(y, p, W),
                eq + 1e-3,
                (0.0, 300.0),
                IntegratorSpec(max_step=0.5),
            )
            dist = np.linalg.norm(traj.y - eq, axis=1)
            if pt.stability.startswith("stable"):
                assert dist[-1] < 1e-8, pt
            else:
                assert dist.max() > 0.1, pt


class TestCycleAmplitude:
    def test_quiet_below_the_oscillation_threshold(self, paper_within):
        spec = delta_sweep(n=4, lo=0.1, hi=0.45)
        for s in bif.cycle_amplitude(paper_within, spec):
            assert not s.oscillatory
            assert not s.collapsed
            # the orbit has settled back onto the upper equilibrium
            p, W = spec.resolve(paper_within, s.param)
            assert s.p_max == pytest.approx(wh.upper_branch_P(W, p), abs=1e-3)
            assert s.p_max - s.p_min < 1e-6

    def test_oscillation_window_has_growing_amplitude(self, paper_within):
        spec = delta_sweep(n=4, lo=0.52, hi=0.55)
        samples = bif.cycle_amplitude(paper_within, spec)
        amps = [s.p_max - s.p_min for s in samples]
        periods = [s.period for s in samples]
        assert all(s.oscillatory for s in samples)
        assert all(not s.collapsed for s in samples)
        assert all(a > 0.1 for a in amps)
        assert amps == sorted(amps)
        assert all(p is not None and 5.0 < p < 20.0 for p in periods)
        assert periods == sorted(periods)

    def test_overflowing_orbit_ends_at_the_first_check(self, paper_within, monkeypatch):
        # at Lambda 1e100 the orbits overflow within the first steps; the
        # sampler stops at the first finiteness check, not after the transient
        steps = []
        stepper = bif.rk4_step

        def counting(rhs, t, y, h):
            steps.append(t)
            return stepper(rhs, t, y, h)

        monkeypatch.setattr(bif, "rk4_step", counting)
        params = dataclasses.replace(paper_within, Lambda=1e100)
        with pytest.raises(bif.NonFiniteError, match="delta=0.1"):
            bif.cycle_amplitude(params, delta_sweep(n=2, lo=0.1, hi=0.45))
        assert len(steps) == bif.CYCLE_CHECK_STEPS

    def test_collapse_beyond_the_cycle_window(self, paper_within):
        spec = delta_sweep(n=4, lo=0.7, hi=1.35)
        for s in bif.cycle_amplitude(paper_within, spec):
            assert s.collapsed
            assert not s.oscillatory
            assert s.p_max < 1e-6

    def test_zero_status_sample_sits_on_the_branch(self, paper_within):
        spec = bif.SweepSpec(which="W", lo=0.0, hi=1.0, n=3)
        s0 = bif.cycle_amplitude(paper_within, spec)[0]
        assert s0.param == 0.0
        assert not s0.oscillatory and not s0.collapsed
        assert s0.p_max == pytest.approx(wh.upper_branch_P(0.0, paper_within), abs=1e-3)


def reference_orbit_extremes(params, spec, transient, window, step):
    """Cycle sampling as it was with a stacked (T, P) state: P extremes,
    maximum counts and first/last maximum times per sweep value."""
    rows = []
    for value in spec.values():
        p, W = spec.resolve(params, max(value, 1e-12) if spec.which == "delta" else value)
        eq = wh.equilibria_fast(p, W)
        if eq.exists:
            T0, P0 = eq.upper[0], eq.upper[1] * 1.05
        else:
            T0, P0 = 0.5 * params.Lambda / params.mu, 2.0 * np.sqrt(params.mu / params.alpha)
        rows.append((p.gamma_eff(W), T0, P0))
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
        samples = bif.cycle_amplitude(paper_within, spec, **kwargs)
        p_min, p_max, count, first, last = reference_orbit_extremes(paper_within, spec, **kwargs)
        assert any(s.oscillatory for s in samples)
        for j, s in enumerate(samples):
            assert (s.p_min, s.p_max, s.n_maxima) == (p_min[j], p_max[j], count[j])
            if s.period is not None:
                assert s.period == (last[j] - first[j]) / (count[j] - 1)


def hexed(samples):
    """Every CycleSample field, each float as float.hex."""
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(s))
        for s in samples
    ]


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
            assert any(s.oscillatory for s in samples) and any(s.collapsed for s in samples)

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
        assert any(s.n_maxima >= 2 for s in samples)
        assert hexed(samples) == hexed(cycle_amplitude_loop(paper_within, spec, **kwargs))


class TestExports:
    def test_branch_csv_shape_and_round_trip(self, paper_within, tmp_path):
        res = bif.sweep_branch(paper_within, delta_sweep(n=12, lo=0.2, hi=0.4))
        path = tmp_path / "branch.csv"
        bif.branch_to_csv(res.upper, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "param,T,P,re_ev1,im_ev1,re_ev2,im_ev2,stability"
        assert len(lines) == 1 + len(res.upper)
        first = lines[1].split(",")
        assert float(first[0]) == res.upper[0].param
        assert float(first[1]) == res.upper[0].T
        assert first[7] == res.upper[0].stability
        assert "np.float64" not in lines[1]

    def test_cycles_csv_uses_integer_flags(self, paper_within, tmp_path):
        spec = delta_sweep(n=3, lo=0.52, hi=0.55)
        samples = bif.cycle_amplitude(paper_within, spec)
        path = tmp_path / "cycles.csv"
        bif.cycles_to_csv(samples, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "param,p_min,p_max,period,n_maxima,oscillatory,collapsed,homoclinic_flag"
        )
        row = lines[1].split(",")
        assert row[5] in ("0", "1") and row[6] in ("0", "1") and row[7] in ("0", "1")
        assert int(row[4]) == samples[0].n_maxima

    def test_events_serialize_to_plain_dicts(self, paper_within):
        res = bif.sweep_branch(paper_within, delta_sweep())
        out = bif.events_to_json(bif.detect_all_events(res))
        assert [sorted(d) for d in out] == [["P", "T", "kind", "param"]] * 2
        assert all(isinstance(d["param"], float) for d in out)
