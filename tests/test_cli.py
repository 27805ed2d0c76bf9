"""Command-line behavior: exit codes, determinism, and output formats."""

import dataclasses
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from immunoepi import between_host, bifurcation, cli, numerics, within_host
from immunoepi.config import load_scenario
from immunoepi.errors import ConfigError, NumericsError

from reference_loops import write_rows_table

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# the direct set's closed form (r beta_h/mu1) P/mu2 (1 - e^{-mu2 omega0/g})
R0_DIRECT = 20.0 * -math.expm1(-0.5)


def bh_doc(**grid_run):
    doc = {
        "between_host": {
            "r": 1.0, "mu1": 0.1, "mu3": 0.2, "beta_h": 0.2, "beta_e": 0.0,
            "rho": 0.0, "sigma": 0.5, "omega0": 5.0,
        },
        "functions": {
            "mu2": {"family": "constant", "value": 0.1},
            "xi": {"family": "constant", "value": 0.4},
            "P": {"family": "constant", "value": 1.0},
            "g": {"family": "constant", "value": 1.0},
        },
    }
    doc.update(grid_run)
    return doc


def sim_doc():
    return bh_doc(
        grid={"n_omega": 50, "dt": 0.04},
        run={
            "t_max": 2.0,
            "output_stride": 5,
            "snapshot_stride": 25,
            "initial": {
                "S": 10.0,
                "I": {"family": "exponential", "amplitude": 0.5, "rate": -1.0},
            },
        },
    )


BETWEEN_HOST_COMMANDS = ("r0", "equilibria", "spectral", "epi-sim", "renewal-check")


def linked_doc():
    """The benchmark's linked document, shipped as configs/bh_linked.json:
    within_sim.json's rates with kappa 10, and bh_env.json with the fold as
    recovery status, beta_h 0.4, and P and g derived from the within-host
    model, on a 60-node grid at dt 0.0025."""
    return json.loads((CONFIGS / "bh_linked.json").read_text())


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


def set_leaf(doc, leaf, value):
    """Set one numeric leaf of a document: a key of a section, or the value
    of a constant function."""
    section, key = leaf
    if section == "functions":
        doc["functions"][key]["value"] = value
    else:
        doc[section][key] = value


class TestExitCodes:
    def test_successful_run_returns_zero(self, tmp_path, capsys):
        config = write_config(tmp_path, bh_doc())
        out = tmp_path / "out"
        assert cli.main(["r0", "--config", config, "--out", str(out)]) == 0
        assert (out / "summary.json").exists()
        assert (out / "manifest.json").exists()

    def test_invalid_config_returns_two(self, tmp_path, capsys):
        doc = bh_doc()
        doc["between_host"]["betah"] = 0.2
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["r0", "--config", config, "--out", str(out)]) == 2
        assert "'betah'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_section_returns_two(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {"within_host": {"Lambda": 1.0, "mu": 0.1, "alpha": 1.0,
                             "gamma": 0.5, "delta": 0.3}},
        )
        code = cli.main(["r0", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "between_host" in capsys.readouterr().err

    def test_missing_config_argument_returns_two(self, tmp_path, capsys):
        assert cli.main(["r0", "--out", str(tmp_path / "out")]) == 2
        assert "--config" in capsys.readouterr().err

    def test_nonpositive_grid_refine_returns_two(self, tmp_path, capsys):
        config = write_config(tmp_path, bh_doc())
        code = cli.main(
            ["r0", "--config", config, "--out", str(tmp_path / "out"),
             "--grid-refine", "0"]
        )
        assert code == 2
        assert "grid-refine" in capsys.readouterr().err

    def test_numerical_failure_returns_three(self, tmp_path, capsys, monkeypatch):
        def blow_up(*a, **kw):
            raise NumericsError("synthetic failure")

        monkeypatch.setattr(between_host, "r0_terms", blow_up)
        config = write_config(tmp_path, bh_doc())
        code = cli.main(["r0", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 3
        assert "synthetic failure" in capsys.readouterr().err

    def test_bifurcate_sweep_past_the_fold_returns_two(self, tmp_path, capsys):
        doc = json.loads((CONFIGS / "within_fig2.json").read_text())
        doc["sweep"].update(lo=10.0, hi=20.0)
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main(["bifurcate", "--config", config, "--out", str(out)]) == 2
        assert "no nontrivial equilibrium" in capsys.readouterr().err
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize(
        ("command", "config", "section", "key", "value"),
        [
            ("bifurcate", "within_fig1.json", "sweep", "n", 10**17),
            ("epi-sim", "bh_env.json", "run", "t_max", 1e15),
            ("renewal-check", "bh_env.json", "run", "t_max", 1e15),
            ("epi-sim", "bh_env.json", "grid", "n_omega", 10**17),
            ("renewal-check", "bh_env.json", "grid", "n_omega", 10**17),
        ],
    )
    def test_a_run_too_large_for_memory_returns_two(
        self, tmp_path, capsys, command, config, section, key, value
    ):
        # each request is above 2**57 bytes: refused before any page is mapped
        doc = json.loads((CONFIGS / config).read_text())
        doc[section][key] = value
        if section == "run":
            doc["run"]["output_stride"] = 1
        out = tmp_path / "out"
        assert cli.main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "too large for memory" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["epi-sim", "renewal-check"])
    def test_horizon_shorter_than_one_step_returns_two(self, tmp_path, capsys, command):
        doc = sim_doc()
        doc["run"]["t_max"] = 0.01  # dt is 0.04: the run would take no steps
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main([command, "--config", config, "--out", str(out)]) == 2
        assert "run.t_max" in capsys.readouterr().err
        assert not (tmp_path / "nested").exists()

    def test_renewal_check_with_recovered_return_returns_two(self, tmp_path, capsys):
        doc = sim_doc()
        doc["between_host"]["rho"] = 0.1
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main(["renewal-check", "--config", config, "--out", str(out)]) == 2
        assert "requires rho = 0" in capsys.readouterr().err
        assert not (tmp_path / "nested").exists()

    def test_renewal_check_without_susceptibles_returns_two(self, tmp_path, capsys):
        # the matched history divides by S0; at S0 = 0 it would be inf/nan
        doc = json.loads((CONFIGS / "bh_matched.json").read_text())
        doc["run"]["initial"]["S"] = 0.0
        doc["run"]["t_max"] = 2.0
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main(["renewal-check", "--config", config, "--out", str(out)]) == 2
        assert "error: run.initial.S: " in capsys.readouterr().err
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize("command", ["epi-sim", "renewal-check"])
    @pytest.mark.parametrize(
        "density",
        [
            # negative on (1, omega0]
            {"family": "linear", "intercept": 1, "slope": -1},
            # the infected branch ends at the fold, W = 3.60 < omega0 = 5
            {"family": "within_host", "kind": "pathogen_load"},
        ],
        ids=["negative", "past_the_fold"],
    )
    def test_bad_initial_density_returns_two(self, tmp_path, capsys, command, density):
        doc = json.loads((CONFIGS / "bh_env.json").read_text())
        doc["within_host"] = {"Lambda": 1.0, "mu": 0.1, "alpha": 1.0, "gamma": 0.5, "delta": 0.3}
        doc["run"]["initial"]["I"] = density
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main([command, "--config", config, "--out", str(out)]) == 2
        assert "error: run.initial: " in capsys.readouterr().err
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize("command", ["r0", "spectral"])
    def test_table_speed_vanishing_at_a_knot_returns_two(self, tmp_path, capsys, command):
        doc = bh_doc()
        doc["functions"]["g"] = {"family": "table", "omega": [0.0, 2.0, 5.0], "value": [1.0, 0.0, 1.0]}
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main([command, "--config", config, "--out", str(out)]) == 2
        assert "strictly positive" in capsys.readouterr().err
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize("command", ["r0", "equilibria", "spectral", "epi-sim", "renewal-check"])
    def test_overflowing_shedding_returns_three(self, tmp_path, capsys, command):
        # a finite xi knot of 1e308 overflows the shedding integral: the
        # guarded Simpson sum and the transport run refuse the result
        doc = json.loads((CONFIGS / "bh_env.json").read_text())
        doc["functions"]["xi"] = {"family": "table", "omega": [0.0, 2.5, 5.0], "value": [0.4, 1e308, 0.4]}
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert cli.main([command, "--config", config, "--out", str(out)]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["epi-sim", "renewal-check"])
    @pytest.mark.parametrize(
        "leaves",
        [
            (("between_host", "omega0"), ("functions", "xi")),
            (("between_host", "omega0"), ("functions", "P")),
            (("functions", "xi"), ("functions", "P")),
        ],
        ids=["omega0-xi", "omega0-P", "xi-P"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_transport_weights_return_three(self, tmp_path, capsys, command,
                                                         leaves):
        # the trapezoid weights domega*P*xi overflow: the transport run
        # used to warn at xi*P or at its integrals, then exit 3 on a NaN
        # state; the weights are refused before the run, and xi*P/g = 1e600
        # by the status clock before that
        doc = json.loads((CONFIGS / "bh_env.json").read_text())
        doc["run"]["t_max"] = 1.0
        for leaf in leaves:
            set_leaf(doc, leaf, 1e300)
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main([command, "--config", config, "--out", str(out)]) == 3
        failure = "transport: the trapezoid weights of P and xi*P are not finite"
        if ("between_host", "omega0") not in leaves:
            failure = "status clock: the xi*P/g table is not finite on [0, omega0]"
        assert capsys.readouterr().err == f"numerical failure: {failure}\n"
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize(
        "leaf, value",
        [(("functions", "xi"), 1e300), (("functions", "P"), 1e300)],
        ids=["xi", "P"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_endemic_scan_returns_three(self, tmp_path, capsys, leaf, value):
        # with beta_e at 1e300 R0's environmental term is not finite: the
        # scan used to warn in numpy-scalar arithmetic on the environmental
        # route term it never read, then refused its residual; R0 is now
        # refused first, naming the term
        doc = json.loads((CONFIGS / "bh_direct.json").read_text())
        doc["between_host"]["beta_e"] = 1e300
        set_leaf(doc, leaf, value)
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main(["spectral", "--config", config, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: reproduction number: the environmental term is not finite\n"
        )
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize(
        "leaf, value", [(("between_host", "omega0"), 1e300), (("functions", "g"), 1e-300)], ids=["omega0", "g"]
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_environmental_route_scan_returns_zero(self, tmp_path, leaf, value):
        # beta_e = 1e300 with M = mu2*omega/g past 1e298 at omega0: the rule
        # integrates e^{-M} exactly, so R0 takes its closed form (r/mu1)
        # (beta_h + beta_e xi/sigma) P/mu2 (1 - e^{-mu2 omega0/g}) = 8e301;
        # the Simpson table read inf and the scan exited 3
        doc = json.loads((CONFIGS / "bh_direct.json").read_text())
        doc["between_host"]["beta_e"] = 1e300
        set_leaf(doc, leaf, value)
        out = tmp_path / "out"
        assert cli.main(["spectral", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        summary = read_summary(out)
        assert summary["r0"] == pytest.approx(10.0 * (0.2 + 1e300 * 0.4 / 0.5) / 0.1, rel=1e-12)
        assert summary["endemic_scan_roots"] == []

    @pytest.mark.parametrize("command", ["r0", "spectral", "equilibria"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_linked_load_past_an_underflowed_clearance_returns_two(self, tmp_path, capsys, command):
        # alpha = gamma = 1e-300 underflows 2*Gamma*alpha to zero in the
        # upper-branch load: an infinite P, refused by the coefficient check
        # instead of a division warning
        doc = linked_doc()
        doc["within_host"].update(alpha=1e-300, gamma=1e-300)
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main([command, "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: between_host: P(omega) is not finite on [0, omega0]\n"
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize("command", ["epi-sim", "renewal-check"])
    def test_state_overflow_during_the_run_returns_three(self, tmp_path, capsys, command):
        # the grid is valid; the state overflows during the run
        doc = json.loads((CONFIGS / "bh_matched.json").read_text())
        doc["run"]["initial"]["S"] = 1e308
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert cli.main([command, "--config", config, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "grid:" not in err
        assert not out.exists()

    def test_manifold_without_an_infected_branch_returns_two(self, tmp_path, capsys):
        # gamma = 1e308 puts the fold at W = -inf: no infected branch at W = 0
        doc = json.loads((CONFIGS / "within_sim.json").read_text())
        doc["within_host"]["gamma"] = 1e308
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        with np.errstate(all="ignore"):
            assert cli.main(["manifold", "--config", config, "--out", str(out)]) == 2
        assert "error: within_host: no infected branch" in capsys.readouterr().err
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize("Lambda", [1e100, 1e150, 1e200])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_within_host_rates_return_three(self, tmp_path, capsys, Lambda):
        # 1e150 used to overflow Gamma**4 in the Hopf condition (exit 1), and
        # 1e100 and 1e200 wrote NaN cycle orbits (exit 0); the orbits are
        # refused after the transient without a numpy warning, and the failed
        # run writes nothing, so the fresh nested --out is never created
        doc = json.loads((CONFIGS / "within_fig1.json").read_text())
        doc["within_host"]["Lambda"] = Lambda
        doc["sweep"].update(n=4, cycle_n=2)
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main(["bifurcate", "--config", config, "--out", str(out)]) == 3
        assert "numerical failure: cycle orbit at delta=0.05" in capsys.readouterr().err
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_summary_is_refused_before_writing(self, tmp_path, capsys, monkeypatch,
                                                          value):
        monkeypatch.setattr(between_host, "r0_terms", lambda params: (value, 0.0))
        config = write_config(tmp_path, bh_doc())
        out = tmp_path / "nested" / "out"
        assert cli.main(["r0", "--config", config, "--out", str(out)]) == 3
        assert "numerical failure: summary.json: " in capsys.readouterr().err
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize("index", [0, 1, 2])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_initial_state_returns_two(self, tmp_path, capsys, index, value):
        # used to exit 1 from the integrator's own check of the state
        doc = json.loads((CONFIGS / "within_sim.json").read_text())
        doc["within_host"]["initial"][index] = value
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main(["within-sim", "--config", config, "--out", str(out)]) == 2
        assert f"error: within_host.initial[{index}]: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize("command", BETWEEN_HOST_COMMANDS)
    @pytest.mark.parametrize("section, key", [
        ("within_host", "Lambda"), ("within_host", "alpha"), ("between_host", "omega0"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_derived_coefficient_returns_two(self, tmp_path, capsys, command,
                                                          section, key):
        # the fast equilibria behind P and g overflowed with a numpy warning,
        # a traceback under -W error::RuntimeWarning
        doc = linked_doc()
        doc["run"]["t_max"] = CONTRACT_LINKED_T_MAX_CAP
        doc[section][key] = 1e300
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main([command, "--config", config, "--out", str(out)]) == 2
        message = "P(omega) is not finite on [0, omega0]"
        if key == "omega0":
            # graded clock node 1, omega0*(1 - (1 - 1/CLOCK_NODES)^2)
            message = "no infected branch at W=4.882216453552246e+296 (fold at W=3.6037961002806327)"
        assert capsys.readouterr().err == f"error: between_host: {message}\n"
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize("command", BETWEEN_HOST_COMMANDS)
    @pytest.mark.parametrize("small, large", [("mu", "c"), ("gamma", "kappa"), ("delta", "c")])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_derived_growth_returns_two(self, tmp_path, capsys, command, small, large):
        # kappa*P_plus - c*omega past the float range: an array product
        # warned in immune_growth_g; the float form gives inf, which the
        # status clock's coefficient check refuses
        doc = linked_doc()
        doc["run"]["t_max"] = CONTRACT_LINKED_T_MAX_CAP
        doc["within_host"].update({small: 1e-300, large: 1e300})
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main([command, "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: between_host: g(omega) is not finite on [0, omega0]\n"
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize("command", BETWEEN_HOST_COMMANDS)
    @pytest.mark.parametrize("leaves, table", [
        ((("functions", "mu2"), ("functions", "g")), "M = int mu2/g"),
        ((("between_host", "omega0"), ("functions", "mu2")), "M = int mu2/g"),
        ((("between_host", "omega0"), ("functions", "g")), "G = int 1/g"),
        ((("functions", "P"), ("functions", "g")), "P/g"),
        ((("functions", "xi"), ("functions", "P")), "xi*P/g"),
        ((("functions", "xi"), ("functions", "g")), "xi*P/g"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_status_clock_past_the_float_range_returns_three(self, tmp_path, capsys, command,
                                                              leaves, table):
        # a large leaf set to 1e300 and g to 1e-300: the clock's table
        # overflowed with a numpy warning, and (mu2, g) and (omega0, mu2)
        # gave an R0 far off its closed form with exit 0; xi*P/g past the
        # float range warned in the characteristic
        doc = json.loads((CONFIGS / "bh_env.json").read_text())
        doc["run"]["t_max"] = CONTRACT_BH_T_MAX_CAP
        for leaf in leaves:
            set_leaf(doc, leaf, 1e-300 if leaf[1] == "g" else 1e300)
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main([command, "--config", config, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"numerical failure: status clock: the {table} table is not finite on [0, omega0]\n"
        )
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize("command, leaves, quantity", [
        ("equilibria", {"r": 1e300, "omega0": 1e300}, "endemic residuals: the direct force int P*I*"),
        ("equilibria", {"r": 1e300, "omega0": 1e-300}, "endemic residuals: the transport residual"),
        ("equilibria", {"r": 1e300, "mu2": 1e300}, "endemic residuals: the transport residual"),
        # an R0 term past the float range: refused before the state, and by
        # r0 itself, which used to reach the summary writer and fail there
        # as "summary.json: Out of range float values"
        *(
            (command, leaves, f"reproduction number: the {term} term")
            for leaves, term in [({"r": 1e300, "xi": 1e300}, "environmental"), ({"r": 1e300, "P": 1e300}, "direct")]
            for command in ("equilibria", "r0")
        ),
        ("equilibria", {"r": 1e300, "g": 1e-300}, "endemic equilibrium: the profile I*(0)*g(0)*pi"),
        ("equilibria", {"omega0": 1e300, "xi": 1e300}, "endemic residuals: the shedding int xi*P*I*"),
        ("equilibria", {"omega0": 1e300, "P": 1e300}, "endemic residuals: the direct force int P*I*"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_endemic_state_past_the_float_range_returns_three(self, tmp_path, capsys, command, leaves, quantity):
        # a finite R0 with an endemic profile or residual term past the float
        # range: the trapezoids, the gradient or the profile's product warned
        doc = json.loads((CONFIGS / "bh_env.json").read_text())
        for key, value in leaves.items():
            set_leaf(doc, ("functions" if key in doc["functions"] else "between_host", key), value)
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main([command, "--config", config, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"numerical failure: {quantity} is not finite\n"
        assert not (tmp_path / "nested").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_linked_load_with_the_fold_at_minus_infinity_returns_two(self, tmp_path, capsys):
        # gamma = 1e308 puts the fold at W = -inf; the discriminant of the
        # fast equilibria overflowed with a numpy warning before that
        doc = json.loads((CONFIGS / "bh_env.json").read_text())
        doc["within_host"] = json.loads((CONFIGS / "within_sim.json").read_text())["within_host"]
        doc["within_host"]["gamma"] = 1e308
        doc["between_host"]["omega0"] = 1.0
        doc["functions"]["P"] = {"family": "within_host", "kind": "pathogen_load"}
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main(["r0", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: between_host: no infected branch at W=0.0 (fold at W=-inf)\n"
        )
        assert not (tmp_path / "nested").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cycle_start_past_the_float_range_returns_three(self, tmp_path, capsys):
        # gamma = 1e-300 gives the upper load 1e300 at W = 0, whose target
        # cells T = Lambda/(mu + alpha*P^2) overflowed with a numpy warning
        doc = json.loads((CONFIGS / "within_fig2.json").read_text())
        doc["within_host"]["gamma"] = 1e-300
        doc["sweep"].update(n=20, cycle_n=2)
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main(["bifurcate", "--config", config, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "numerical failure: cycle orbit at W=0.0 is not finite\n"
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize("rates, message", [
        ({"Lambda": 1e300, "mu": 1e-300}, "fold clearance rate Gamma_fold = inf is not finite"),
        ({"Lambda": 1e300, "alpha": 1e300}, "fold clearance rate Gamma_fold = inf is not finite"),
        ({"alpha": 1e-300, "gamma": 1e-300}, "cycle orbit at W=0.0 is not finite"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_two_extreme_rates_return_three(self, tmp_path, capsys, rates, message):
        # these pairs exited 1 on a numpy warning: an overflow in the fold
        # locus, and a division by Gamma*alpha underflowed to zero in the
        # fast equilibria at W = 0
        doc = json.loads((CONFIGS / "within_fig2.json").read_text())
        doc["within_host"].update(rates)
        doc["sweep"].update(n=20, cycle_n=2)
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main(["bifurcate", "--config", config, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"numerical failure: {message}\n"
        assert not (tmp_path / "nested").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_branch_past_the_float_range_returns_three(self, tmp_path, capsys):
        # W up to 1e300 gives clearance rates near 3e299 and no pair there:
        # those cycle columns collapse without an orbit, and the trivial
        # branch's eigenvalues overflow; refused before anything is written
        doc = json.loads((CONFIGS / "within_fig2.json").read_text())
        doc["sweep"].update(hi=1e300, n=20, cycle_n=2)
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main(["bifurcate", "--config", config, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: trivial.csv: the equilibrium at W=5.263157894736842e+298 "
            "is not finite\n"
        )
        assert not (tmp_path / "nested").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_default_start_past_the_float_range_returns_two(self, tmp_path, capsys):
        # without within_host.initial the run starts at T = Lambda/mu, which
        # overflowed to inf and exited 1 from the state's own check
        doc = json.loads((CONFIGS / "within_sim.json").read_text())
        del doc["within_host"]["initial"]
        doc["within_host"].update(Lambda=1e300, mu=1e-300)
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main(["within-sim", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: within_host.initial is required: the default start "
            "T = Lambda/mu = inf is not finite\n"
        )
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize("command", ["equilibria", "spectral"])
    @pytest.mark.parametrize("mu2", [0.0, 1e-300])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_return_flow_far_above_the_recovered_loss_keeps_the_contract(self, tmp_path,
                                                                         command, mu2):
        # at rho = 1e300 the returning share rho*g*pi/(rho + mu3) rounded to
        # 1, and the endemic boundary density divided by 1 - 1 (exit 1)
        doc = json.loads((CONFIGS / "bh_env.json").read_text())
        doc["between_host"]["rho"] = 1e300
        doc["functions"]["mu2"]["value"] = mu2
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        code = cli.main([command, "--config", config, "--out", str(out)])
        assert code in (0, 2, 3)
        if code != 0:
            assert not (tmp_path / "nested").exists()

    def test_transport_without_an_initial_state_returns_two(self, tmp_path, capsys):
        doc = sim_doc()
        doc["run"] = {"t_max": 2.0}
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main(["epi-sim", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: run.initial with S and I is required for this subcommand\n"
        )
        assert not (tmp_path / "nested").exists()

    def test_renewal_window_too_long_to_allocate_returns_two(self, tmp_path, capsys):
        # a_bar = 1e300 asks for more memory-window nodes than an array can
        # index: refused in the renewal set-up before anything is allocated
        doc = json.loads((CONFIGS / "bh_matched.json").read_text())
        doc["between_host"]["a_bar"] = 1e300
        doc["run"]["t_max"] = 1.0
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main(["renewal-check", "--config", config, "--out", str(out)]) == 2
        assert "error: renewal: memory window 1e+300: " in capsys.readouterr().err
        assert not (tmp_path / "nested").exists()

    def test_renewal_window_past_float_range_returns_two(self, tmp_path, capsys):
        # a_bar / dt = 1e310 overflows to inf: the window's step count is
        # refused as too long to allocate, not raised as an OverflowError;
        # the one transport step meets the Courant bound
        doc = json.loads((CONFIGS / "bh_matched.json").read_text())
        doc["between_host"]["a_bar"] = 1e300
        doc["grid"]["dt"] = doc["run"]["t_max"] = 1e-10
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main(["renewal-check", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: renewal: memory window 1e+300: inf steps of dt = 1e-10 are more than "
            "an array can hold\n"
        )
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize("rates, root", [
        ({"beta_h": 0.0}, True),
        ({"beta_h": 1e-300}, True),
        ({"beta_h": 0.0, "beta_e": 1e-10}, False),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_pole_approach_stops_at_the_overflow_floor(self, tmp_path, rates, root):
        # sigma = 1e300 puts the pole far below the overflow floor: the
        # approach used to start at -sigma/2 and overflow e^{-lam*G}; it now
        # stops at the floor, above which G crosses 1 or stays below it
        doc = linked_doc()
        doc["between_host"].update(rates, sigma=1e300)
        out = tmp_path / "out"
        assert cli.main(["spectral", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        summary = read_summary(out)
        if root:
            assert -1200.0 < summary["lambda_hat"] < -1100.0
            assert "lambda_hat_note" not in summary
        else:
            assert summary["lambda_hat"] is None
            assert summary["lambda_hat_note"].startswith("characteristic function stays below 1 on [-1")

    @pytest.mark.parametrize("rate", ["Lambda", "alpha"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_manifold_returns_three(self, tmp_path, capsys, rate):
        # the upper branch overflows to P = inf: refused without a numpy
        # warning, and no manifold.csv of nan/inf rows is written
        doc = json.loads((CONFIGS / "within_sim.json").read_text())
        doc["within_host"][rate] = 1e300
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main(["manifold", "--config", config, "--out", str(out)]) == 3
        assert "numerical failure: manifold: " in capsys.readouterr().err
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize("rate", ["Lambda", "alpha"])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_infection_run_returns_three(self, tmp_path, capsys, rate):
        # the float-state integrator overflows to inf without raising or
        # warning, halves its step to nothing and refuses the run
        doc = json.loads((CONFIGS / "within_sim.json").read_text())
        doc["within_host"][rate] = 1e300
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main(["within-sim", "--config", config, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "numerical failure: state blew up near t=0\n"
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize("command, rates, tip", [
        ("within-sim", {"Lambda": 1e300, "mu": 1e-300}, "(1e-150, inf)"),
        ("within-sim", {"mu": 1e300, "alpha": 1e-300}, "(inf, nan)"),
        ("manifold", {"mu": 1e300, "alpha": 1e-300}, "(inf, nan)"),
        # the tip's denominator underflows to zero
        ("manifold", {"mu": 1e-300, "delta": 1e-300}, "(1e-150, inf)"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_manifold_tip_out_of_range_returns_three(self, tmp_path, capsys, command, rates, tip):
        # the tip used to be computed with numpy scalars, which warned; the
        # manifold case exited 2 with "fold at W=nan"
        doc = json.loads((CONFIGS / "within_sim.json").read_text())
        doc["within_host"].update(rates)
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main([command, "--config", config, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"numerical failure: manifold tip (P, W) = {tip} is not finite\n"
        assert not (tmp_path / "nested").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_manifold_with_a_finite_tip_of_huge_rates_returns_zero(self, tmp_path):
        # mu = delta = 1e300 overflows an intermediate product of the tip
        # to inf, but the tip itself is finite
        doc = json.loads((CONFIGS / "within_sim.json").read_text())
        doc["within_host"].update(mu=1e300, delta=1e300)
        out = tmp_path / "out"
        assert cli.main(["manifold", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        tip = read_summary(out)["tip"]
        assert math.isfinite(tip["P"]) and math.isfinite(tip["W"])

    @pytest.mark.parametrize("leaf, value", [(("between_host", "r"), 1e300), (("functions", "g"), 1e-300)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_spectral_scan_of_huge_residuals_returns_zero(self, tmp_path, leaf, value):
        # residuals near -1e300 used to overflow the product of neighbours
        # in the scan's sign test; only their signs are multiplied now. At
        # g = 1e-300, M = 0.1*omega/g: R0 is exactly 24, which the Simpson
        # table read as 6.25e298
        doc = json.loads((CONFIGS / "bh_env.json").read_text())
        set_leaf(doc, leaf, value)
        out = tmp_path / "out"
        assert cli.main(["spectral", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        summary = read_summary(out)
        assert summary["endemic_scan_roots"] == []
        s0, g = doc["between_host"]["r"] / 0.1, doc["functions"]["g"]["value"]

        def characteristic(lam):
            # (r/mu1)(beta_h + beta_e xi/(lam + sigma)) int_0^5 e^{-(mu2 + lam) omega/g} domega/g
            return s0 * (0.2 + 0.05 * 0.4 / (lam + 0.5)) * -math.expm1(-(0.1 + lam) * 5.0 / g) / (0.1 + lam)

        basic = characteristic(0.0)
        assert summary["r0"] == pytest.approx(basic, rel=1e-12)
        # G/R0 + F*(R - 1)/(lam + mu1) - 1 with rho = 0: F* = mu1 (R0 - 1), R = 0
        residual = characteristic(0.01) / basic - 0.1 * (basic - 1.0) / 0.11 - 1.0
        assert summary["endemic_residual_at_zero_plus"] == pytest.approx(residual, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_renewal_history_past_an_underflowed_survival_returns_three(self, tmp_path, capsys):
        # mu2 = 1e300 underflows the survival factor that the matched history
        # divides by: refused before the renewal loop, without a warning
        doc = json.loads((CONFIGS / "bh_env.json").read_text())
        doc["functions"]["mu2"]["value"] = 1e300
        doc["run"]["t_max"] = 1.0
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main(["renewal-check", "--config", config, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: renewal: the history matched to run.initial.I is not finite\n"
        )
        assert not (tmp_path / "nested").exists()

    def test_failed_run_leaves_a_populated_out_as_it_was(self, tmp_path):
        out = tmp_path / "out"
        shipped = str(CONFIGS / "within_sim.json")
        assert cli.main(["within-sim", "--config", shipped, "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        doc = json.loads((CONFIGS / "within_sim.json").read_text())
        doc["within_host"]["Lambda"] = 1e300
        config = write_config(tmp_path, doc)
        assert cli.main(["manifold", "--config", config, "--out", str(out)]) == 3
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_out_that_cannot_be_created_returns_two(self, tmp_path, capsys):
        # reported once the run has computed, before anything is written
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        config = write_config(tmp_path, bh_doc())
        assert cli.main(["r0", "--config", config, "--out", str(blocker / "out")]) == 2
        assert "error: cannot create output directory" in capsys.readouterr().err
        assert blocker.read_text() == "kept\n"

    def test_unknown_subcommand_is_a_parser_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2

    def test_plot_data_on_a_summary_that_is_not_json_returns_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        shipped = str(CONFIGS / "within_sim.json")
        for command in ("within-sim", "manifold"):
            assert cli.main([command, "--config", shipped, "--out", str(out)]) == 0
        for text, message in [
            ('{"subcommand": "manifold", ', "summary.json is not JSON"),
            ("[1, 2]", "summary.json is not a JSON object"),
            ('{"plot_data": 5}', "plot_data in "),
        ]:
            (out / "summary.json").write_text(text)
            before = {p.name: p.read_bytes() for p in out.iterdir()}
            assert cli.main(["plot-data", "--out", str(out), "--figure", "fig3"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: plot-data: ") and message in err
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_plot_data_on_a_short_csv_row_returns_two(self, tmp_path, capsys):
        doc = json.loads((CONFIGS / "within_fig1.json").read_text())
        doc["sweep"].update(n=10, cycle_n=2)
        out = tmp_path / "out"
        assert cli.main(["bifurcate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        branches = out / "branches.csv"
        lines = branches.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:7])
        branches.write_text("\n".join(lines) + "\n")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert cli.main(["plot-data", "--out", str(out), "--figure", "fig1"]) == 2
        err = capsys.readouterr().err
        assert "branches.csv line 4 has 7 cells, 8 are read" in err
        assert "Traceback" not in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "immunoepi" in capsys.readouterr().out


def peaked_speed_doc():
    """Speed 1 except a peak of 1.5 at omega = 0.0125: the CFL bound holds on
    the base grid (domega 0.1, dt 0.096) and 4x refinement, whose nodes step
    over the peak, and breaks at 8x refinement, which lands a node on it."""
    doc = sim_doc()
    doc["between_host"]["omega0"] = 1.0
    doc["functions"]["g"] = {
        "family": "table", "omega": [0.0, 0.0125, 0.025, 1.0], "value": [1.0, 1.5, 1.0, 1.0],
    }
    doc["grid"] = {"n_omega": 10, "dt": 0.096}
    doc["run"].update(t_max=0.192, output_stride=1, snapshot_stride=0)
    return doc


CONFIG_COMMANDS = [name for name, (_, sections) in cli._COMMANDS.items() if sections is not None]


def shipped_config_for(command):
    """The shipped config with the fewest sections, the first by name among
    equals, that holds every section the subcommand requires; a linked
    document's between_host section needs its within_host section."""
    for path in sorted(CONFIGS.glob("*.json"), key=lambda p: (len(json.loads(p.read_text())), p.name)):
        try:
            load_scenario(path).require(*cli._COMMANDS[command][1])
        except ConfigError:
            continue
        return path
    raise AssertionError(f"no shipped config serves {command}")


class TestCommandTable:
    """Every subcommand in the table gets the shared run: its required
    sections are checked before anything is written, and a config
    subcommand's summary carries the run envelope."""

    @pytest.mark.parametrize(
        "command, section",
        [(name, section) for name in CONFIG_COMMANDS for section in cli._COMMANDS[name][1]],
    )
    def test_each_missing_section_returns_two(self, tmp_path, capsys, command, section):
        doc = json.loads(shipped_config_for(command).read_text())
        # the coefficient functions belong to the between-host section
        for key in ("between_host", "functions") if section == "between_host" else (section,):
            del doc[key]
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main([command, "--config", config, "--out", str(out)]) == 2
        assert f"section {section!r} is required" in capsys.readouterr().err
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    def test_summary_carries_the_run_envelope(self, tmp_path, command):
        config = shipped_config_for(command)
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(config), "--out", str(out), "--seed", "5"]) == 0
        summary = read_summary(out)
        assert (summary["subcommand"], summary["seed"], summary["grid_refine"]) == (command, 5, 1)
        cfg = load_scenario(config)
        if "between_host" in cli._COMMANDS[command][1]:
            assert summary["parameters"]["beta_h"] == cfg.between.beta_h
            assert set(summary["parameters"]["functions"]) == set(between_host.COEFFICIENT_FIELDS)
        else:
            assert summary["parameters"] == dataclasses.asdict(cfg.within)


def quick_doc(command):
    """A small document serving the config subcommand."""
    if command in ("within-sim", "manifold"):
        return json.loads((CONFIGS / "within_sim.json").read_text())
    if command == "bifurcate":
        doc = json.loads((CONFIGS / "within_fig1.json").read_text())
        doc["sweep"].update(n=4, cycle_n=2)
        return doc
    return sim_doc()


class TestNothingWrittenOnFailure:
    """Handlers return their files and `run` writes them only once every
    check has passed, so a failure leaves --out as it was."""

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    def test_failure_after_the_computation_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                          command):
        handler, sections = cli._COMMANDS[command]

        def fail_after(*args):
            handler(*args)
            raise NumericsError("synthetic failure after the computation")

        config = write_config(tmp_path, quick_doc(command))
        out = tmp_path / "nested" / "out"
        monkeypatch.setitem(cli._COMMANDS, command, (fail_after, sections))
        assert cli.main([command, "--config", config, "--out", str(out)]) == 3
        assert "synthetic failure" in capsys.readouterr().err
        assert not (tmp_path / "nested").exists()


WITHIN_RATES = ("Lambda", "mu", "alpha", "gamma", "delta", "epsilon", "kappa", "c")
BETWEEN_RATES = ("r", "mu1", "mu3", "beta_h", "beta_e", "rho", "sigma", "omega0", "a_bar")
# The numeric leaves of configs/within_sim.json, with p_clear added at its
# default, and the values the contract test sets one of them to.
WITHIN_SIM_LEAVES = (
    *(("within_host", key) for key in (*WITHIN_RATES, "p_clear")),
    *(("initial", index) for index in range(3)),
    ("run", "t_max"),
)
EXTREME_VALUES = (0.0, -1.0, 1e-300, 1e300, math.nan, math.inf, -math.inf)
# The horizon of every case but those that set t_max itself. A run that never
# clears stops there after a few thousand steps, far inside the integrator's
# 10^6-step budget. t_max = 1e300 keeps the shipped rates, which clear at
# t = 674.8 and then follow the closed-form cleared branch.
CONTRACT_T_MAX_CAP = 300.0
# The numeric leaves of configs/bh_env.json: its between_host rates and the
# values of its four constant functions.
BH_ENV_LEAVES = (
    *(("between_host", key) for key in BETWEEN_RATES),
    *(("functions", key) for key in ("mu2", "xi", "P", "g")),
)
# The between-host horizon: 80 transport steps of epi-sim and renewal-check
# (r0, equilibria and spectral read no horizon). Neither break this test
# found (a scan sign test that overflowed, a matched history past an
# underflowed survival factor) depends on the horizon, so the cap hides
# neither; at the shipped t_max = 1000 the transport cases keep the
# contract too.
CONTRACT_BH_T_MAX_CAP = 1.0
# The numeric leaves of configs/within_fig2.json under bifurcate, at sweep n
# 20 and cycle_n 2: its rates and the sweep's range and sizes.
FIG2_LEAVES = (
    *(("within_host", key) for key in WITHIN_RATES),
    *(("sweep", key) for key in ("lo", "hi", "n", "cycle_n")),
)
# The numeric leaves of linked_doc(): its within-host rates, its between_host
# entries (omega0 "fold" among them) and the values of its two constant
# functions; P and g are derived.
LINKED_LEAVES = (
    *(("within_host", key) for key in WITHIN_RATES),
    *(("between_host", key) for key in BETWEEN_RATES),
    ("functions", "mu2"),
    ("functions", "xi"),
)
# The linked horizon: 4 transport steps of epi-sim and renewal-check. Every
# break this test found (P or g overflowing on the fast equilibria) is
# raised while the document loads, before the first step, so the cap hides
# none; at t_max = 2 (800 steps) the transport cases give the same exit
# codes.
CONTRACT_LINKED_T_MAX_CAP = 0.01


# Two leaves at once take these values. The between-host documents keep
# their capped horizons; manifold reads only the within-host rates.
# within-sim is left out until a run that cannot finish ends early: ten of
# its two-leaf cases (a stiff pair of rates at 1e-300, or t_max at 1e300
# beside a tiny rate) spend the integrator's 10^6-step budget, 16-20 s
# each, before they exit 3.
TWO_LEAF_VALUES = (0.0, 1e-300, 1e300)
TWO_LEAF_CASES = {
    "bh_env": (BETWEEN_HOST_COMMANDS, BH_ENV_LEAVES),
    "linked": (BETWEEN_HOST_COMMANDS, LINKED_LEAVES),
    "within_sim": (("manifold",), tuple(("within_host", key) for key in WITHIN_RATES)),
}


def two_leaf_doc(document):
    if document == "bh_env":
        doc = json.loads((CONFIGS / "bh_env.json").read_text())
        doc["run"]["t_max"] = CONTRACT_BH_T_MAX_CAP
    elif document == "linked":
        doc = linked_doc()
        doc["run"]["t_max"] = CONTRACT_LINKED_T_MAX_CAP
    else:
        doc = json.loads((CONFIGS / "within_sim.json").read_text())
    return doc


def not_strict_json(constant):
    raise ValueError(f"{constant} is not strict JSON")


class TestContractProperty:
    """The CLI contract for any one extreme leaf: of within_sim.json under
    within-sim and manifold, of within_fig2.json under bifurcate, or of
    bh_env.json or the linked document under the between-host
    subcommands: exit 0, 2 or 3 with no numpy RuntimeWarning; nothing
    written on 2 or 3; on 0, a strict-JSON summary that its manifest lists
    with the right digest."""

    @settings(max_examples=400)
    @given(
        command=st.sampled_from(["within-sim", "manifold"]),
        leaf=st.sampled_from(WITHIN_SIM_LEAVES),
        value=st.sampled_from(EXTREME_VALUES),
    )
    def test_one_extreme_leaf_keeps_the_contract(self, tmp_path, command, leaf, value):
        doc = json.loads((CONFIGS / "within_sim.json").read_text())
        doc["within_host"]["p_clear"] = within_host.P_CLEAR_DEFAULT
        doc["run"]["t_max"] = CONTRACT_T_MAX_CAP
        section, key = leaf
        (doc["within_host"]["initial"] if section == "initial" else doc[section])[key] = value
        self.assert_contract(tmp_path, command, doc)

    @settings(max_examples=1000)
    @given(
        command=st.sampled_from(BETWEEN_HOST_COMMANDS),
        leaf=st.sampled_from(BH_ENV_LEAVES),
        value=st.sampled_from(EXTREME_VALUES),
    )
    def test_one_extreme_between_host_leaf_keeps_the_contract(self, tmp_path, command, leaf, value):
        doc = json.loads((CONFIGS / "bh_env.json").read_text())
        doc["run"]["t_max"] = CONTRACT_BH_T_MAX_CAP
        set_leaf(doc, leaf, value)
        self.assert_contract(tmp_path, command, doc)

    @settings(max_examples=300)
    @given(leaf=st.sampled_from(FIG2_LEAVES), value=st.sampled_from(EXTREME_VALUES))
    def test_one_extreme_bifurcate_leaf_keeps_the_contract(self, tmp_path, leaf, value):
        doc = json.loads((CONFIGS / "within_fig2.json").read_text())
        doc["sweep"].update(n=20, cycle_n=2)
        set_leaf(doc, leaf, value)
        self.assert_contract(tmp_path, "bifurcate", doc)

    @settings(max_examples=1500)
    @given(
        command=st.sampled_from(BETWEEN_HOST_COMMANDS),
        leaf=st.sampled_from(LINKED_LEAVES),
        value=st.sampled_from(EXTREME_VALUES),
    )
    def test_one_extreme_linked_leaf_keeps_the_contract(self, tmp_path, command, leaf, value):
        doc = linked_doc()
        doc["run"]["t_max"] = CONTRACT_LINKED_T_MAX_CAP
        set_leaf(doc, leaf, value)
        self.assert_contract(tmp_path, command, doc)

    @settings(max_examples=1500)
    @given(document=st.sampled_from(sorted(TWO_LEAF_CASES)), data=st.data())
    def test_two_extreme_leaves_keep_the_contract(self, tmp_path, document, data):
        commands, leaves = TWO_LEAF_CASES[document]
        command = data.draw(st.sampled_from(commands), label="command")
        pair = data.draw(st.lists(st.sampled_from(leaves), min_size=2, max_size=2, unique=True), label="leaves")
        doc = two_leaf_doc(document)
        for leaf in pair:
            set_leaf(doc, leaf, data.draw(st.sampled_from(TWO_LEAF_VALUES), label=f"{leaf[1]} value"))
        self.assert_contract(tmp_path, command, doc)

    @staticmethod
    def assert_contract(tmp_path, command, doc):
        case = Path(tempfile.mkdtemp(dir=tmp_path))
        out = case / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main([command, "--config", write_config(case, doc), "--out", str(out)])
        assert code in (0, 2, 3)
        if code != 0:
            assert not out.exists()
            return
        json.loads((out / "summary.json").read_text(), parse_constant=not_strict_json)
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {entry["name"]: entry for entry in manifest["files"]}
        assert set(listed) == {p.name for p in out.iterdir()} - {"manifest.json"}
        assert "summary.json" in listed
        for name, entry in listed.items():
            data = (out / name).read_bytes()
            assert entry["sha256"] == hashlib.sha256(data).hexdigest()
            assert entry["bytes"] == len(data)


class TestCourantBound:
    """The transport solver checks the CFL bound on its own (refined) grid;
    subcommands that never build that grid ignore it."""

    @pytest.mark.parametrize("command", ["r0", "equilibria", "spectral"])
    def test_gridless_subcommands_ignore_the_transport_grid(self, tmp_path, command):
        doc = sim_doc()
        doc["grid"]["dt"] = 0.2  # domega = 0.1 with speed 1
        config = write_config(tmp_path, doc)
        assert cli.main([command, "--config", config, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("command", ["epi-sim", "renewal-check"])
    def test_violation_returns_two_and_writes_nothing(self, tmp_path, capsys, command):
        doc = sim_doc()
        doc["grid"]["dt"] = 0.2
        config = write_config(tmp_path, doc)
        out = tmp_path / "nested" / "out"
        assert cli.main([command, "--config", config, "--out", str(out)]) == 2
        assert "CFL violation" in capsys.readouterr().err
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize("command", ["epi-sim", "renewal-check"])
    def test_violation_on_the_refined_grid_returns_two(self, tmp_path, capsys, command):
        config = write_config(tmp_path, peaked_speed_doc())
        for k in ("1", "4"):
            out = tmp_path / f"refine{k}"
            assert cli.main([command, "--config", config, "--out", str(out), "--grid-refine", k]) == 0
        out = tmp_path / "nested" / "out"
        assert cli.main([command, "--config", config, "--out", str(out), "--grid-refine", "8"]) == 2
        assert "CFL violation" in capsys.readouterr().err
        assert not (tmp_path / "nested").exists()


class TestSummaryAndManifest:
    def test_reproduction_number_summary(self, tmp_path):
        config = write_config(tmp_path, bh_doc())
        out = tmp_path / "out"
        cli.main(["r0", "--config", config, "--out", str(out)])
        summary = read_summary(out)
        assert summary["subcommand"] == "r0"
        assert summary["r0"] == pytest.approx(R0_DIRECT, abs=1e-12)
        assert summary["environmental_term"] == 0.0
        assert summary["r0"] == summary["direct_term"] + summary["environmental_term"]
        assert summary["parameters"]["beta_h"] == 0.2
        assert summary["parameters"]["functions"]["g"]["family"] == "constant"
        assert summary["parameters"]["quadrature"] == {"rule": "filon_simpson", "n": 64}

    def test_cycle_defaults_echo_the_sampler_constants(self, tmp_path):
        doc = json.loads((CONFIGS / "within_fig1.json").read_text())
        doc["sweep"].update(n=20, cycle_n=2)
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["bifurcate", "--config", config, "--out", str(out)]) == 0
        defaults = read_summary(out)["defaults"]
        echoed = (defaults["cycle_transient"], defaults["cycle_window"], defaults["cycle_step"])
        constants = (bifurcation.CYCLE_TRANSIENT, bifurcation.CYCLE_WINDOW, bifurcation.CYCLE_STEP)
        assert echoed == constants == (400.0, 400.0, 0.02)
        signature = inspect.signature(bifurcation.cycle_amplitude).parameters
        assert tuple(signature[k].default for k in ("transient", "window", "step")) == constants

    def test_grid_refine_refines_the_cycle_columns(self, tmp_path):
        # K times the cycle columns at a K times finer step, as the sweep
        doc = json.loads((CONFIGS / "within_fig1.json").read_text())
        doc["sweep"].update(n=17, cycle_n=3)
        config = write_config(tmp_path, doc)
        for k in (1, 2):
            out = tmp_path / f"refine{k}"
            assert cli.main(["bifurcate", "--config", config, "--out", str(out),
                             "--grid-refine", str(k)]) == 0
            summary = read_summary(out)
            assert summary["sweep"]["n"] == 17 * k
            assert (summary["defaults"]["cycle_n"], summary["defaults"]["cycle_step"]) == (
                3 * k, 0.02 / k
            )
            rows = (out / "cycles.csv").read_text().splitlines()[1:]
            assert len(rows) == 3 * k
            assert [float(row.split(",")[0]) for row in rows] == np.linspace(
                0.05, 1.4, 3 * k
            ).tolist()

    def test_arguments_are_echoed(self, tmp_path):
        config = write_config(tmp_path, bh_doc())
        out = tmp_path / "out"
        cli.main(["r0", "--config", config, "--out", str(out), "--seed", "7"])
        summary = read_summary(out)
        assert summary["seed"] == 7
        assert summary["grid_refine"] == 1

    def test_manifest_checksums_are_real(self, tmp_path):
        config = write_config(tmp_path, sim_doc())
        out = tmp_path / "out"
        cli.main(["epi-sim", "--config", config, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        names = {entry["name"] for entry in manifest["files"]}
        assert "summary.json" in names and "timeseries.csv" in names
        assert "manifest.json" not in names
        for entry in manifest["files"]:
            digest = hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()
            assert entry["sha256"] == digest
            assert entry["bytes"] == (out / entry["name"]).stat().st_size

    def test_summary_floats_round_trip(self, tmp_path):
        config = write_config(tmp_path, bh_doc())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["spectral", "--config", config, "--out", str(out_a)])
        cli.main(["spectral", "--config", config, "--out", str(out_b)])
        lam = read_summary(out_a)["lambda_hat"]
        assert isinstance(lam, float)
        assert read_summary(out_b)["lambda_hat"] == lam


class TestSpectralScan:
    def test_scan_csv_holds_the_values_the_root_search_brackets_on(self, tmp_path):
        config = write_config(tmp_path, bh_doc())
        out = tmp_path / "out"
        assert cli.main(["spectral", "--config", config, "--out", str(out)]) == 0
        rows = (out / "scan.csv").read_text().splitlines()
        assert rows[0] == "lambda,residual"
        lam, residual = np.array([[float(x) for x in row.split(",")] for row in rows[1:]]).T
        scan = between_host.endemic_spectrum_scan(load_scenario(config).between)
        assert np.array_equal(lam, scan.lam)
        assert np.array_equal(residual, scan.residual)
        summary = read_summary(out)
        assert summary["endemic_scan_roots"] == scan.roots == []
        assert summary["endemic_residual_at_zero_plus"] == residual[1]
        assert np.all(residual[:-1] * residual[1:] > 0.0)

    def test_scan_defaults_echo_the_scan_constants(self, tmp_path):
        config = write_config(tmp_path, bh_doc())
        out = tmp_path / "out"
        assert cli.main(["spectral", "--config", config, "--out", str(out)]) == 0
        defaults = read_summary(out)["defaults"]
        constants = (between_host.SPECTRUM_SCAN_MAX, between_host.SPECTRUM_SCAN_STEP)
        assert (defaults["scan_max"], defaults["scan_step"]) == constants == (50.0, 1e-2)
        # the scan runs on exactly that grid
        rows = (out / "scan.csv").read_text().splitlines()[1:]
        lam = [float(row.split(",")[0]) for row in rows]
        assert len(lam) == 5001 and lam[0] == 0.0 and lam[-1] == constants[0]

    @pytest.mark.parametrize("command", ["equilibria", "spectral", "renewal-check"])
    def test_status_clock_is_built_once_per_run(self, tmp_path, monkeypatch, command):
        calls = []
        build = between_host.build_clock

        def counting(*a, **kw):
            calls.append(1)
            return build(*a, **kw)

        monkeypatch.setattr(between_host, "build_clock", counting)
        doc = bh_doc(
            grid={"n_omega": 50, "dt": 0.05},
            run={"t_max": 1.0, "output_stride": 1, "snapshot_stride": 0,
                 "initial": {"S": 10.0, "I": {"family": "constant", "value": 0.1}}},
        )
        config = write_config(tmp_path, doc)
        assert cli.main([command, "--config", config, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1


class TestImportCost:
    def test_cli_import_leaves_root_finding_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, immunoepi.cli; print('scipy.optimize' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_config_loads_leave_hashlib_unloaded(self):
        # hashlib, with the OpenSSL it loads, is imported when the manifest
        # is hashed, after a handler's arrays are released
        script = (
            "import sys\n"
            "from immunoepi import cli\n"
            f"for path in {sorted(map(str, CONFIGS.glob('*.json')))!r}:\n"
            "    cli.load_scenario(path)\n"
            "print('_hashlib' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_root_solving_runs_never_load_scipy(self, tmp_path):
        # spectral solves lambda-hat; bifurcate solves the Hopf loci
        script = (
            "import sys\n"
            "from immunoepi import cli\n"
            f"codes = [cli.main(['spectral', '--config', {str(CONFIGS / 'bh_env.json')!r},"
            f" '--out', {str(tmp_path / 'spectral')!r}]),"
            f" cli.main(['bifurcate', '--config', {str(CONFIGS / 'within_fig1.json')!r},"
            f" '--out', {str(tmp_path / 'bifurcate')!r}])]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0] []"
        assert read_summary(tmp_path / "spectral")["lambda_hat"] is not None
        assert read_summary(tmp_path / "bifurcate")["analytic_hopf_clearance"]

    def test_within_host_runs_never_load_numpy(self, tmp_path):
        # the within-host subcommands, r0 and equilibria on every shipped
        # between-host document, and the load of every shipped document run
        # on Python floats
        doc = json.loads((CONFIGS / "within_fig1.json").read_text())
        doc["sweep"].update(n=20, cycle_n=4)
        runs = [
            ["within-sim", "--config", str(CONFIGS / "within_sim.json")],
            ["manifold", "--config", str(CONFIGS / "within_sim.json")],
            ["bifurcate", "--config", write_config(tmp_path, doc)],
            *(
                [command, "--config", str(CONFIGS / f"{name}.json")]
                for name in ("bh_env", "bh_direct", "bh_matched", "bh_linked")
                for command in ("r0", "equilibria")
            ),
        ]
        runs = [[*argv, "--out", str(tmp_path / f"{argv[0]}-{Path(argv[2]).stem}")] for argv in runs]
        script = (
            "import sys\n"
            "from immunoepi import cli\n"
            f"codes = [cli.main(argv) for argv in {runs!r}]\n"
            f"for path in {sorted(map(str, CONFIGS.glob('*.json')))!r}:\n"
            "    cli.load_scenario(path)\n"
            "print(codes, 'numpy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"{[0] * len(runs)} False"
        assert read_summary(tmp_path / "equilibria-bh_linked")["endemic_exists"]

    def test_unconverged_root_solve_exits_three(self, tmp_path, monkeypatch, capsys):
        doc = json.loads((CONFIGS / "within_fig1.json").read_text())
        doc["sweep"].update(n=10, cycle_n=2)
        config = write_config(tmp_path, doc)
        monkeypatch.setattr(numerics, "BRENT_MAXITER", 1)
        assert cli.main(["bifurcate", "--config", config, "--out", str(tmp_path / "out")]) == 3
        assert "failed to converge after 1 iterations" in capsys.readouterr().err


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        config = write_config(tmp_path, sim_doc())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["epi-sim", "--config", config, "--out", str(out_a)]) == 0
        assert cli.main(["epi-sim", "--config", config, "--out", str(out_b)]) == 0
        for name in ("summary.json", "manifest.json", "timeseries.csv", "snapshots.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_transport_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the transport's one product per step multiplies a (3, n_omega)
        # table; at n_omega 3 200 it has 9 600 entries, above OpenBLAS's
        # 9 216-entry threshold for splitting a matrix-vector product
        # across threads
        doc = sim_doc()
        doc["grid"] = {"n_omega": 3200, "dt": 0.00125}
        doc["run"].update(t_max=0.25, output_stride=20, snapshot_stride=100)
        outs = outputs_at_each_thread_count(tmp_path, "epi-sim", write_config(tmp_path, doc))
        assert sorted(outs[0]) == [
            "manifest.json", "snapshots.csv", "summary.json", "timeseries.csv",
        ]
        assert outs[0] == outs[1]

    def test_linked_scan_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the scan sums blocks of Simpson rows, which a BLAS matrix-vector
        # product could order by thread count; quadrature uses none
        outs = outputs_at_each_thread_count(tmp_path, "spectral", str(CONFIGS / "bh_linked.json"))
        assert sorted(outs[0]) == ["manifest.json", "scan.csv", "summary.json"]
        assert outs[0] == outs[1]


def outputs_at_each_thread_count(tmp_path, command, config):
    """The output files of one run in a child process per OpenBLAS thread
    count, 1 and 2, by name."""
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "immunoepi", command, "--config", config, "--out", str(out)],
            capture_output=True, text=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    return outs


class TestEpiSimOutputs:
    def test_timeseries_format(self, tmp_path):
        config = write_config(tmp_path, sim_doc())
        out = tmp_path / "out"
        cli.main(["epi-sim", "--config", config, "--out", str(out)])
        lines = (out / "timeseries.csv").read_text().splitlines()
        assert lines[0] == "t,S,I_total,V,B,F"
        rows = [line.split(",") for line in lines[1:]]
        assert all(len(r) == 6 for r in rows)
        # stride 5 at dt 0.04 over t_max 2 gives 11 records
        assert len(rows) == 11
        assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 2.0

    def test_csv_and_summary_agree_exactly(self, tmp_path):
        config = write_config(tmp_path, sim_doc())
        out = tmp_path / "out"
        cli.main(["epi-sim", "--config", config, "--out", str(out)])
        lines = (out / "timeseries.csv").read_text().splitlines()
        final_S = float(lines[-1].split(",")[1])
        assert read_summary(out)["final"]["S"] == final_S

    def test_snapshot_grid_header(self, tmp_path):
        config = write_config(tmp_path, sim_doc())
        out = tmp_path / "out"
        cli.main(["epi-sim", "--config", config, "--out", str(out)])
        lines = (out / "snapshots.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t"
        assert len(header) == 52  # t plus 51 status nodes
        assert float(header[1]) == 0.0 and float(header[-1]) == 5.0
        # snapshot stride 25 at 50 steps: rows at t = 0, 1, 2
        assert len(lines) == 4

    def test_first_records_are_the_configured_initial_state(self, tmp_path):
        config = write_config(tmp_path, sim_doc())
        out = tmp_path / "out"
        assert cli.main(["epi-sim", "--config", config, "--out", str(out)]) == 0
        snapshots = np.loadtxt(out / "snapshots.csv", delimiter=",", skiprows=1)
        assert snapshots[0, 0] == 0.0
        omega = np.linspace(0.0, 5.0, 51)
        np.testing.assert_allclose(snapshots[0, 1:], 0.5 * np.exp(-omega), rtol=1e-13)
        t, S, _, V, B, _ = np.loadtxt(out / "timeseries.csv", delimiter=",", skiprows=1)[0]
        assert (t, S, V, B) == (0.0, 10.0, 0.0, 0.0)

    def test_grid_refine_scales_the_grid(self, tmp_path):
        config = write_config(tmp_path, sim_doc())
        out = tmp_path / "out"
        cli.main(["epi-sim", "--config", config, "--out", str(out), "--grid-refine", "2"])
        summary = read_summary(out)
        assert summary["grid"]["n_omega"] == 100
        assert summary["grid"]["dt"] == 0.02


class TestRenewalCheckOutputs:
    def test_transport_columns_are_the_epi_sim_rows(self, tmp_path):
        # one clock for both solvers: at output_stride 1 the renewal check's
        # transport columns are epi-sim's S and F, value for value, on the
        # linked document, where the window is not a whole number of steps
        doc = linked_doc()
        doc["run"].update(t_max=0.05, output_stride=1)
        config = write_config(tmp_path, doc)
        for command, out in (("epi-sim", "sim"), ("renewal-check", "renewal")):
            assert cli.main([command, "--config", config, "--out", str(tmp_path / out)]) == 0
        sim = [line.split(",") for line in (tmp_path / "sim" / "timeseries.csv").read_text().splitlines()]
        renewal = [line.split(",") for line in (tmp_path / "renewal" / "renewal.csv").read_text().splitlines()]
        assert renewal[0] == ["t", "S_pde", "F_pde", "S_renewal", "F_renewal"]
        assert len(renewal) == len(sim) == 22
        assert [row[:3] for row in renewal[1:]] == [[t, s, f] for t, s, _, _, _, f in sim[1:]]
        summary = read_summary(tmp_path / "renewal")
        assert summary["grid"] == {"n_omega": 60, "dt": 0.0025}


    @pytest.mark.parametrize("stride", [80, 7])
    def test_rows_are_every_output_stride_th_step_and_the_last(self, tmp_path, stride):
        # n = 800 steps of bh_env.json; 7 does not divide n. The rows are
        # those of a stride-1 run at steps 0, stride, 2*stride, ... and n,
        # as epi-sim records them, and the summary does not change
        doc = json.loads((CONFIGS / "bh_env.json").read_text())
        doc["run"]["t_max"] = 10.0
        runs = {
            "full": ("renewal-check", 1),
            "strided": ("renewal-check", stride),
            "sim": ("epi-sim", stride),
        }
        files = {}
        for name, (command, k) in runs.items():
            doc["run"]["output_stride"] = k
            config = write_config(tmp_path, doc, f"{name}.json")
            assert cli.main([command, "--config", config, "--out", str(tmp_path / name)]) == 0
            csv = "timeseries.csv" if command == "epi-sim" else "renewal.csv"
            files[name] = (tmp_path / name / csv).read_text().splitlines()
        n = 800
        full, strided = files["full"], files["strided"]
        assert len(full) == n + 2
        assert len(strided) == math.ceil(n / stride) + 2
        assert strided == [full[0], *(full[1 + k] for k in (*range(0, n, stride), n))]
        sim = [line.split(",") for line in files["sim"][1:]]
        transport = [[t, s, f] for t, s, _, _, _, f in sim]
        assert [row.split(",")[:3] for row in strided[1:]] == transport
        assert read_summary(tmp_path / "full") == read_summary(tmp_path / "strided")


class TestWithinSimClearance:
    def test_summary_carries_the_clearance_record(self, tmp_path):
        # the shipped rates clear at t = 674.8, after the shipped t_max = 300
        doc = json.loads((CONFIGS / "within_sim.json").read_text())
        doc["run"]["t_max"] = 1000.0
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["within-sim", "--config", config, "--out", str(out)]) == 0
        summary = read_summary(out)
        assert set(summary) == {
            "p_clear", "w_fold", "recovery_time", "recovery_time_slow",
            "fold_crossed", "t_end", "n_samples",
            "defaults", "subcommand", "seed", "grid_refine", "parameters",
        }
        assert summary["p_clear"] == summary["defaults"]["p_clear"] == within_host.P_CLEAR_DEFAULT
        assert summary["recovery_time"] == pytest.approx(674.8, abs=0.05)
        assert summary["recovery_time_slow"] == summary["recovery_time"] * 0.01
        assert summary["w_fold"] == within_host.manifold_tip(load_scenario(config).within)[1]
        assert summary["t_end"] == 1000.0
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert summary["n_samples"] == len(rows) - 1
    def test_a_load_rising_through_p_clear_is_not_a_clearance(self, tmp_path):
        # from P = 0.08 the load rises through p_clear = 0.1 toward a peak
        # near 9.6 and stays infected to t_max; only a fall through p_clear
        # ends the infected phase
        doc = json.loads((CONFIGS / "within_sim.json").read_text())
        doc["within_host"].update(p_clear=0.1, initial=[10.0, 0.08, 0.0])
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["within-sim", "--config", config, "--out", str(out)]) == 0
        assert read_summary(out)["recovery_time"] is None
        P = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)[:, 2]
        assert P.max() > 9.0


class TestCsvWriter:
    """The block-streamed writer reproduces the whole-table writer byte for
    byte, on both sides of every block boundary. A block holds
    CSV_BLOCK // width rows, at least one."""

    SPECIAL = np.array([-0.0, 5e-324, 1e308, 3.0, -2.0, 0.0, 0.1, 1.0 / 3.0, -1e-300, 1e16])

    def check(self, tmp_path, n_rows, width):
        """A 1-D column, a 2-D block and a 1-D column, width values a row."""
        rng = np.random.default_rng(n_rows)
        first = np.resize(self.SPECIAL, n_rows)
        shape = (n_rows, width - 2)
        block = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        block[::5, 1] = np.round(block[::5, 1] % 1000.0)  # integral floats
        last = np.resize(self.SPECIAL[::-1], n_rows)
        header = ",".join(f"c{i}" for i in range(width))
        cli._write(tmp_path / "streamed.csv", cli._csv_lines(header, first, block, last))
        write_rows_table(tmp_path / "whole.csv", header, np.column_stack((first, block, last)))
        streamed = (tmp_path / "streamed.csv").read_bytes()
        assert streamed == (tmp_path / "whole.csv").read_bytes()
        assert streamed.count(b"\n") == n_rows + 1
        # a text tail stays with its row across the block edges
        tail = [f"r{i},{i % 2}" for i in range(n_rows)]
        tailed = "".join(cli._csv_lines(header + ",r,flag", first, block, last, tail=tail))
        expected = [f"{row},{text}" for row, text in zip(streamed.decode().splitlines()[1:], tail)]
        assert tailed.splitlines() == [header + ",r,flag", *expected]

    # row counts spanning up to three blocks of the five-column table
    @pytest.mark.parametrize("n_rows", [0, 1, 4095, 4096, 4097, 8193])
    def test_matches_the_whole_table_writer(self, tmp_path, n_rows):
        self.check(tmp_path, n_rows, 5)

    # five columns (3 276 rows a block), the epi-sim snapshot table (t and
    # 401 nodes, 40 rows a block) and a row wider than a whole block
    @pytest.mark.parametrize("width", [5, 402, cli.CSV_BLOCK + 1])
    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
    def test_block_edges_match_the_whole_table_writer(self, tmp_path, width, blocks, extra):
        rows = max(1, cli.CSV_BLOCK // width)
        self.check(tmp_path, blocks * rows + extra, width)


class TestPlotData:
    def test_missing_upstream_run_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "fresh"
        out.mkdir()
        code = cli.main(["plot-data", "--out", str(out), "--figure", "fig1"])
        assert code == 2
        assert not (out / "fig1.dat").exists()

    def test_wrong_upstream_kind_fails_cleanly(self, tmp_path, capsys):
        config = write_config(tmp_path, bh_doc())
        out = tmp_path / "out"
        cli.main(["r0", "--config", config, "--out", str(out)])
        code = cli.main(["plot-data", "--out", str(out), "--figure", "fig1"])
        assert code == 2
        assert not (out / "fig1.dat").exists()

    @pytest.mark.parametrize(
        "figure, upstream",
        [
            ("fig1", [("bifurcate", "within_fig1.json")]),
            ("fig3", [("within-sim", "within_sim.json"), ("manifold", "within_sim.json")]),
        ],
    )
    def test_runs_without_numpy(self, tmp_path, figure, upstream):
        # plot-data reads upstream text files only, so a fresh interpreter
        # runs it without importing numpy, or dataclasses and the inspect
        # it pulls in: the handlers that use dataclasses import it
        out = tmp_path / figure
        for command, config in upstream:
            assert cli.main([command, "--config", str(CONFIGS / config), "--out", str(out)]) == 0
        script = (
            "import sys\n"
            "from immunoepi import cli\n"
            f"code = cli.main(['plot-data', '--out', {str(out)!r}, '--figure', {figure!r}])\n"
            "print(code, [m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules])\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 []"
        assert f"{figure}.dat" in read_summary(out)["plot_data"]


class TestBenchmarkBindings:
    def test_traced_benchmark_finds_every_layer(self):
        # the benchmark's tracer rebinds named functions in every module and
        # calls cli.load_scenario; removing one of them breaks traced runs
        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
            "import tracer\n"
            "tracer.install(tracer.Tracer())\n"
            "from immunoepi import cli\n"
            "print(callable(cli.load_scenario))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        config = write_config(tmp_path, bh_doc())
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "immunoepi",
             "r0", "--config", config, "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert read_summary(out)["r0"] == pytest.approx(R0_DIRECT, abs=1e-12)
