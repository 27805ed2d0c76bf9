"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the toolkit at its stated
tolerance and prints the measured values on a single [PASS] line; run with
``pytest -v`` to get one verdict line per guarantee. Budgeted tests also
assert their wall-clock ceiling.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from immunoepi import between_host as bh
from immunoepi import cli
from immunoepi import coefficients as coef
from immunoepi import within_host as wh

from conftest import make_between
from oracles import boundary_history, characteristics_eval, dfe_char_G, fast_rhs, infected_mass

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

J_EXACT = (1.0 - np.exp(-0.5)) / 0.1
R0_DIRECT_CLOSED = 2.0 * J_EXACT
R0_ENV_CLOSED = 2.0 * J_EXACT + 0.4 * J_EXACT
BETA_MATCHED = 0.050829881649683994
S0_MATCHED = 10.71638821965096


def _cli_json(subcommand, config_name, out_dir, *extra):
    t0 = time.perf_counter()
    code = cli.main([
        subcommand, "--config", str(CONFIG_DIR / config_name), "--out", str(out_dir),
        *extra,
    ])
    elapsed = time.perf_counter() - t0
    assert code == 0
    return json.loads((out_dir / "summary.json").read_text()), elapsed


@pytest.fixture(scope="module")
def fig1_events(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1")
    summary, elapsed = _cli_json("bifurcate", "within_fig1.json", out)
    return summary["events"], elapsed


def test_fold_locus_from_a_full_cli_sweep(fig1_events):
    events, elapsed = fig1_events
    fold = next(e for e in events if e["kind"] == "fold")
    assert abs(fold["param"] - 1.2013) < 6e-3
    assert elapsed < 5.0
    print(f"[PASS] fold at delta = {fold['param']:.6f} "
          f"(target 1.2013 +- 0.006), sweep took {elapsed:.2f}s")


def test_oscillation_onset_loci_from_cli_sweeps(fig1_events, tmp_path):
    events, _ = fig1_events
    hopf_d = next(e for e in events if e["kind"] == "hopf")
    assert abs(hopf_d["param"] - 0.5157) < 3e-3

    summary, elapsed = _cli_json("bifurcate", "within_fig2.json", tmp_path / "fig2")
    hopf_w = next(e for e in summary["events"] if e["kind"] == "hopf")
    assert abs(hopf_w["param"] - 1.547) < 8e-3
    assert elapsed < 5.0
    print(f"[PASS] oscillation onset at delta = {hopf_d['param']:.6f} "
          f"(target 0.5157 +- 0.003) and W = {hopf_w['param']:.6f} "
          f"(target 1.547 +- 0.008), W sweep took {elapsed:.2f}s")


def test_critical_loci_satisfy_their_analytic_identities():
    rng = np.random.default_rng(91)
    worst_tip = worst_trace = worst_resid = 0.0
    hopf_checked = eq_checked = 0
    for _ in range(20):
        p = wh.WithinHostParams(
            Lambda=rng.uniform(0.5, 3.0), mu=rng.uniform(0.05, 1.0),
            alpha=rng.uniform(0.3, 3.0), gamma=rng.uniform(0.1, 1.0),
            delta=rng.uniform(0.1, 1.0), epsilon=rng.uniform(0.005, 0.05),
            kappa=rng.uniform(0.3, 2.0), c=rng.uniform(0.2, 1.0),
        )
        loci = wh.critical_loci(p)
        # the fold status equals the slow-manifold maximum
        tip_w = wh.manifold_tip(p)[1]
        worst_tip = max(worst_tip, abs(tip_w - (loci.Gamma_fold - p.gamma) / p.delta))
        for Gamma in loci.hopf:
            p_star = Gamma**2 / (p.alpha * p.Lambda)
            t_star = Gamma / (p.alpha * p_star)
            jac = wh.jacobian_fast((t_star, p_star), p, Gamma)
            worst_trace = max(worst_trace, abs(jac[0, 0] + jac[1, 1]))
            assert jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0] > 0
            hopf_checked += 1
        w_fold = (loci.Gamma_fold - p.gamma) / p.delta
        if w_fold > 0:
            Gamma = p.gamma_eff(0.5 * w_fold)
            eq = wh.equilibria_fast(p, Gamma)
            if eq.exists:
                for state in (eq.upper, eq.lower):
                    worst_resid = max(
                        worst_resid, float(np.max(np.abs(fast_rhs(state, p, Gamma))))
                    )
                eq_checked += 1
    assert worst_tip < 1e-10
    assert worst_trace < 1e-8
    assert worst_resid < 1e-10
    print(f"[PASS] 20 random sets: fold/manifold-tip identity off by {worst_tip:.2e}, "
          f"|trace| at {hopf_checked} oscillation-onset points {worst_trace:.2e}, "
          f"equilibrium residuals at {eq_checked} sets {worst_resid:.2e}")


def test_infection_courses_stay_bounded_and_nonnegative():
    # absorbing set: T + P <= Lambda/min(mu, gamma) + 1 and
    # W <= (kappa/c) (Lambda/min(mu, gamma) + 1) + 1, entered in finite time
    rng = np.random.default_rng(20260817)
    worst_excess = -np.inf
    worst_component = np.inf
    for _ in range(20):
        p = wh.WithinHostParams(
            Lambda=rng.uniform(0.5, 3.0), mu=rng.uniform(0.05, 1.0),
            alpha=rng.uniform(0.3, 3.0), gamma=rng.uniform(0.1, 1.0),
            delta=rng.uniform(0.1, 1.0), epsilon=rng.uniform(0.005, 0.05),
            kappa=rng.uniform(0.3, 2.0), c=rng.uniform(0.2, 1.0),
        )
        initial = wh.WithinHostState(
            T=rng.uniform(0.0, 2.0 * p.Lambda / p.mu),
            P=rng.uniform(0.0, 3.0),
            W=rng.uniform(0.0, 3.0),
        )
        run = wh.simulate_infection(p, initial, t_max=200.0)
        n_bound = p.Lambda / min(p.mu, p.gamma) + 1.0
        w_bound = (p.kappa / p.c) * n_bound + 1.0
        tail = run.states[3 * len(run.t) // 4:]
        worst_excess = max(
            worst_excess,
            float((tail[:, 0] + tail[:, 1] - n_bound).max()),
            float((tail[:, 2] - w_bound).max()),
        )
        worst_component = min(worst_component, float(run.states.min()))
    assert worst_excess <= 0.0
    assert worst_component >= -1e-10
    print(f"[PASS] 20 random courses: absorbing-set excess {worst_excess:.2e} "
          f"(<= 0), smallest component {worst_component:.2e} (>= -1e-10)")


def test_clearance_is_finite_and_scales_with_the_slow_rate():
    # parameter set with a reachable fold and no oscillation window
    base = dict(Lambda=4.0, mu=2.0, alpha=4.0, gamma=1.2, delta=1.2,
                kappa=1.0, c=0.3)
    free = wh.WithinHostParams(epsilon=0.01, **base)
    assert wh.critical_loci(free).hopf == ()
    w_fold = wh.manifold_tip(free)[1]

    above = wh.simulate_infection(
        free, wh.WithinHostState(T=1.0, P=1.0, W=1.1 * w_fold), t_max=400.0
    )
    assert above.recovery_time is not None

    scaled = {}
    for eps in (0.01, 0.001):
        p = wh.WithinHostParams(epsilon=eps, **base)
        run = wh.simulate_infection(
            p, wh.WithinHostState(T=1.0, P=1.0, W=0.0), t_max=80.0 / eps
        )
        assert run.recovery_time is not None
        assert run.fold_crossed
        scaled[eps] = eps * run.recovery_time
    deviation = abs(scaled[0.01] - scaled[0.001]) / scaled[0.001]
    assert deviation < 0.15
    print(f"[PASS] clearance above the fold at t = {above.recovery_time:.2f}; "
          f"slow-time clearance epsilon*t = {scaled[0.01]:.4f} vs {scaled[0.001]:.4f} "
          f"(deviation {deviation:.1%} < 15%)")


def test_reproduction_number_matches_closed_forms():
    direct = make_between(0.2, 0.0)
    env = make_between(0.2, 0.05)
    err_direct = abs(bh.r0(direct) - R0_DIRECT_CLOSED)
    err_env = abs(bh.r0(env) - R0_ENV_CLOSED)
    assert err_direct < 1e-8
    assert err_env < 1e-8
    id_direct = abs(dfe_char_G(0.0, direct) - bh.r0(direct))
    id_env = abs(dfe_char_G(0.0, env) - bh.r0(env))
    assert max(id_direct, id_env) < 1e-10
    print(f"[PASS] reproduction number vs closed forms: direct off {err_direct:.2e}, "
          f"with environment off {err_env:.2e}; zero-rate evaluation identity "
          f"off {max(id_direct, id_env):.2e}")


def test_growth_rate_sign_tracks_the_threshold():
    rng = np.random.default_rng(7)
    targets = np.linspace(0.2, 5.0, 10)
    results = []
    for target in targets:
        p = make_between(
            beta_h=rng.uniform(0.05, 0.3),
            beta_e=rng.uniform(0.01, 0.1),
            sigma=rng.uniform(0.3, 1.0),
            rho=rng.uniform(0.0, 0.3),
            omega0=rng.uniform(3.0, 6.0),
            mu2=coef.constant(rng.uniform(0.05, 0.2)),
            g=coef.constant(rng.uniform(0.7, 1.5)),
        )
        scale = target / bh.r0(p)
        p = make_between(
            beta_h=p.beta_h * scale, beta_e=p.beta_e * scale,
            sigma=p.sigma, rho=p.rho, omega0=p.omega0, mu2=p.mu2, g=p.g,
        )
        assert bh.r0(p) == pytest.approx(target, rel=1e-9)
        lam = bh.dfe_lambda_hat(p)
        assert (lam > 0) == (target > 1.0), (target, lam)
        results.append((target, lam))
    shown = ", ".join(f"R0={t:.2f}: {l:+.3f}" for t, l in results[:3])
    print(f"[PASS] growth-rate sign matches the threshold on 10 scaled random "
          f"sets ({shown}, ...)")


def test_transport_converges_to_the_characteristics_oracle():
    t0 = time.perf_counter()
    matched = make_between(BETA_MATCHED, 0.0)
    phi = lambda x: 0.1 * np.exp(-0.5 * np.asarray(x, dtype=float))
    errors = {}
    for n in (200, 400, 800):
        w = np.linspace(0.0, 5.0, n + 1)
        init = bh.StructuredState(S=S0_MATCHED, I=phi(w), V=0.0, B=0.0)
        run = bh.simulate_epidemic(
            matched, init, t_max=4.0, n_omega=n, dt=0.5 * (5.0 / n), snapshot_stride=1
        )
        history = boundary_history(run, matched.g(0.0))
        pred = characteristics_eval(4.0, w, matched, phi, history)
        errors[n] = float(np.max(np.abs(run.final.I - pred)))
    elapsed = time.perf_counter() - t0
    r1 = errors[200] / errors[400]
    r2 = errors[400] / errors[800]
    assert 1.6 < r1 < 2.4 and 1.6 < r2 < 2.4
    assert errors[800] < 1e-3
    assert elapsed < 60.0
    print(f"[PASS] max transport error vs characteristics: "
          f"{errors[200]:.3e} / {errors[400]:.3e} / {errors[800]:.3e} "
          f"at n = 200/400/800 (ratios {r1:.2f}, {r2:.2f}), {elapsed:.1f}s")


def test_long_runs_approach_the_endemic_or_infection_free_state():
    env = make_between(0.2, 0.05)
    eq = bh.endemic_equilibrium(env)
    w = np.linspace(0.0, 5.0, 401)
    init = bh.StructuredState(S=10.0, I=0.5 * np.exp(-w), V=0.0, B=0.0)
    run = bh.simulate_epidemic(env, init, t_max=1000.0, n_omega=400, dt=0.0125)
    rel = {
        "S": abs(run.final.S - eq.S) / eq.S,
        "I0": abs(run.final.I[0] - eq.I0) / eq.I0,
        "V": abs(run.final.V - eq.V) / eq.V,
        "B": abs(run.final.B - eq.B) / eq.B,
    }
    assert max(rel.values()) < 1e-2

    sub = make_between(0.2 * 0.5 / R0_DIRECT_CLOSED, 0.0)
    w2 = np.linspace(0.0, 5.0, 201)
    init2 = bh.StructuredState(S=10.0, I=0.1 * np.exp(-w2), V=0.0, B=0.01)
    run2 = bh.simulate_epidemic(sub, init2, t_max=500.0, n_omega=200, dt=0.025)
    residual = infected_mass(run2.final, 5.0) + run2.final.B
    assert residual < 1e-6
    print(f"[PASS] endemic approach rel errors "
          f"S {rel['S']:.1e}, I(0) {rel['I0']:.1e}, V {rel['V']:.1e}, B {rel['B']:.1e} "
          f"(< 1e-2); subthreshold residual infection {residual:.1e} (< 1e-6)")


def test_renewal_reformulation_matches_the_transport_solver(tmp_path):
    base, _ = _cli_json("renewal-check", "bh_matched.json", tmp_path / "r1")
    fine, _ = _cli_json(
        "renewal-check", "bh_matched.json", tmp_path / "r2", "--grid-refine", "2"
    )
    df_base, df_fine = base["max_abs_dF"], fine["max_abs_dF"]
    ratio = df_base / df_fine
    assert df_base < 5e-4
    assert 1.5 < ratio < 2.6
    kernel_identity = base["stationary_kernel_identity"]
    assert abs(kernel_identity - 1.0) < 1e-6
    print(f"[PASS] force-of-infection gap {df_base:.3e} (< 5e-4), halving the grid "
          f"shrinks it by {ratio:.2f}x; stationary kernel identity "
          f"S* int A = {kernel_identity:.12f} (off by {abs(kernel_identity-1):.1e})")


def test_no_unstable_real_modes_at_the_endemic_state():
    direct = make_between(0.2, 0.0)
    roots = bh.endemic_spectrum_scan(direct).roots
    assert roots == []
    print("[PASS] endemic characteristic residual has no real roots on [0, 50] "
          "at scan step 0.01 (5001 sign checks)")
