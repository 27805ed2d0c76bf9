"""Scenario document parsing: strictness, defaults, and resolution order."""

import json

import pytest

from immunoepi import config
from immunoepi import within_host as wh
from immunoepi.errors import ConfigError


def base_doc():
    return {
        "within_host": {
            "Lambda": 1.0, "mu": 0.1, "alpha": 1.0, "gamma": 0.5, "delta": 0.3,
        },
        "sweep": {"which": "delta", "lo": 0.05, "hi": 1.4, "W": 0.9},
        "between_host": {
            "r": 1.0, "mu1": 0.1, "mu3": 0.2, "beta_h": 0.2, "beta_e": 0.05,
            "rho": 0.0, "sigma": 0.5, "omega0": 5.0,
        },
        "functions": {
            "mu2": {"family": "constant", "value": 0.1},
            "xi": {"family": "constant", "value": 0.4},
            "P": {"family": "constant", "value": 1.0},
            "g": {"family": "constant", "value": 1.0},
        },
        "grid": {"n_omega": 100, "dt": 0.025},
        "run": {
            "t_max": 10.0,
            "initial": {
                "S": 10.0,
                "I": {"family": "exponential", "amplitude": 0.5, "rate": -1.0},
            },
        },
    }


def load(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return config.load_scenario(path)


class TestFullDocument:
    def test_all_sections_resolve(self, tmp_path):
        cfg = load(tmp_path, base_doc())
        assert cfg.within.Lambda == 1.0 and cfg.within.delta == 0.3
        assert cfg.sweep.which == "delta" and cfg.sweep.W == 0.9
        assert cfg.between.beta_e == 0.05 and cfg.between.omega0 == 5.0
        assert cfg.between.g.family == "constant" and cfg.between.g.describe == {"value": 1.0}
        assert cfg.n_omega == 100 and cfg.dt == 0.025
        assert cfg.t_max == 10.0

    def test_optional_fields_take_defaults(self, tmp_path):
        cfg = load(tmp_path, base_doc())
        assert cfg.within.epsilon == 0.01
        assert cfg.within.kappa == 1.0 and cfg.within.c == 0.5
        assert cfg.p_clear == wh.P_CLEAR_DEFAULT
        assert cfg.sweep.n == 200 and cfg.cycle_n == 40
        assert cfg.between.a_bar == 30.0
        assert cfg.output_stride == 1 and cfg.snapshot_stride == 0
        assert cfg.initial_V == 0.0 and cfg.initial_B == 0.0

    def test_partial_documents_are_valid(self, tmp_path):
        doc = {"within_host": base_doc()["within_host"]}
        cfg = load(tmp_path, doc)
        assert cfg.within is not None
        assert cfg.sweep is None and cfg.between is None
        assert cfg.t_max is None

    def test_table_family_resolves(self, tmp_path):
        doc = base_doc()
        doc["functions"]["xi"] = {
            "family": "table", "omega": [0.0, 2.5, 5.0], "value": [0.4, 0.2, 0.0],
        }
        cfg = load(tmp_path, doc)
        assert cfg.between.xi(2.5) == 0.2
        assert cfg.between.xi(1.25) == pytest.approx(0.3)


class TestStrictness:
    def test_unknown_section_is_rejected(self, tmp_path):
        doc = base_doc()
        doc["extras"] = {}
        with pytest.raises(ConfigError, match="'extras'"):
            load(tmp_path, doc)

    @pytest.mark.parametrize(
        "section,key",
        [
            ("within_host", "lambda_"),
            ("sweep", "step"),
            ("between_host", "beta"),
            ("functions", "h"),
            ("grid", "cfl"),
            ("run", "horizon"),
        ],
    )
    def test_unknown_key_names_the_field(self, tmp_path, section, key):
        doc = base_doc()
        doc[section][key] = 1.0
        with pytest.raises(ConfigError, match=f"{section}.*{key!r}"):
            load(tmp_path, doc)

    def test_unknown_initial_key_is_rejected(self, tmp_path):
        doc = base_doc()
        doc["run"]["initial"]["R"] = 0.0
        with pytest.raises(ConfigError, match="run.initial.*'R'"):
            load(tmp_path, doc)

    def test_unknown_family_key_is_rejected(self, tmp_path):
        doc = base_doc()
        doc["functions"]["mu2"] = {"family": "constant", "value": 0.1, "slope": 1.0}
        with pytest.raises(ConfigError, match="functions.mu2.*'slope'"):
            load(tmp_path, doc)

    def test_unknown_family_name_is_rejected(self, tmp_path):
        doc = base_doc()
        doc["functions"]["g"] = {"family": "quadratic", "value": 1.0}
        with pytest.raises(ConfigError, match="functions.g.family"):
            load(tmp_path, doc)


class TestTypeErrors:
    def test_string_where_number_expected(self, tmp_path):
        doc = base_doc()
        doc["within_host"]["Lambda"] = "1.0"
        with pytest.raises(ConfigError, match="within_host.Lambda"):
            load(tmp_path, doc)

    def test_bool_is_not_a_number(self, tmp_path):
        doc = base_doc()
        doc["between_host"]["rho"] = True
        with pytest.raises(ConfigError, match="between_host.rho"):
            load(tmp_path, doc)

    def test_float_where_integer_expected(self, tmp_path):
        doc = base_doc()
        doc["grid"]["n_omega"] = 100.5
        with pytest.raises(ConfigError, match="grid.n_omega"):
            load(tmp_path, doc)

    def test_section_must_be_an_object(self, tmp_path):
        doc = base_doc()
        doc["grid"] = [100, 0.025]
        with pytest.raises(ConfigError, match="grid.*object"):
            load(tmp_path, doc)

    def test_nonfinite_number_is_rejected(self, tmp_path):
        doc = base_doc()
        doc["run"]["t_max"] = float("inf")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc, allow_nan=True).replace("Infinity", "1e999"))
        with pytest.raises(ConfigError, match="t_max"):
            config.load_scenario(path)


class TestValidationMessages:
    def test_model_rejections_name_the_section(self, tmp_path):
        doc = base_doc()
        doc["within_host"]["mu"] = -0.1
        with pytest.raises(ConfigError, match="within_host:"):
            load(tmp_path, doc)

    def test_sweep_rejections_name_the_section(self, tmp_path):
        doc = base_doc()
        doc["sweep"]["which"] = "alpha"
        with pytest.raises(ConfigError, match="sweep.which"):
            load(tmp_path, doc)

    def test_initial_triple_shape(self, tmp_path):
        doc = base_doc()
        doc["within_host"]["initial"] = [1.0, 0.5]
        with pytest.raises(ConfigError, match=r"\[T, P, W\]"):
            load(tmp_path, doc)

    def test_initial_triple_sign(self, tmp_path):
        doc = base_doc()
        doc["within_host"]["initial"] = [1.0, -0.5, 0.0]
        with pytest.raises(ConfigError, match="nonnegative"):
            load(tmp_path, doc)

    def test_negative_growth_speed_named(self, tmp_path):
        doc = base_doc()
        doc["functions"]["g"] = {"family": "linear", "intercept": 1.0, "slope": -0.5}
        with pytest.raises(ConfigError, match="between_host.*strictly positive"):
            load(tmp_path, doc)


class TestSectionCoupling:
    def test_functions_without_between_host(self, tmp_path):
        doc = base_doc()
        del doc["between_host"]
        with pytest.raises(ConfigError, match="between_host: section is missing"):
            load(tmp_path, doc)

    def test_between_host_without_functions(self, tmp_path):
        doc = base_doc()
        del doc["functions"]
        with pytest.raises(ConfigError, match="functions: section is missing"):
            load(tmp_path, doc)

    def test_missing_function_descriptor(self, tmp_path):
        doc = base_doc()
        del doc["functions"]["P"]
        with pytest.raises(ConfigError, match="functions.P"):
            load(tmp_path, doc)

    def test_fold_recovery_status_resolves_from_within(self, tmp_path):
        doc = base_doc()
        doc["between_host"]["omega0"] = "fold"
        del doc["grid"]  # the wider domain would need a finer grid
        cfg = load(tmp_path, doc)
        assert cfg.between.omega0 == pytest.approx(
            wh.manifold_tip(cfg.within)[1], abs=1e-12
        )
        assert cfg.between.omega0 == pytest.approx(3.6037961002806327, abs=1e-12)

    def test_fold_recovery_status_needs_within(self, tmp_path):
        doc = base_doc()
        del doc["within_host"]
        doc["between_host"]["omega0"] = "fold"
        with pytest.raises(ConfigError, match="omega0.*within_host"):
            load(tmp_path, doc)

    def test_derived_family_needs_within(self, tmp_path):
        doc = base_doc()
        del doc["within_host"]
        doc["functions"]["g"] = {"family": "within_host", "kind": "immune_growth"}
        with pytest.raises(ConfigError, match="functions.g.*within_host section"):
            load(tmp_path, doc)

    def test_derived_family_resolves_with_within(self, tmp_path):
        doc = base_doc()
        # the derived speed crosses zero near 1.73, so recovery must come first
        doc["between_host"]["omega0"] = 1.5
        doc["functions"]["g"] = {"family": "within_host", "kind": "immune_growth"}
        del doc["grid"]
        cfg = load(tmp_path, doc)
        assert cfg.between.g(0.0) == pytest.approx(1.9486832980505138, abs=1e-12)


class TestScenarioAccessors:
    def test_require_names_the_missing_section(self, tmp_path):
        cfg = load(tmp_path, {"within_host": base_doc()["within_host"]})
        cfg.require("within_host")
        with pytest.raises(ConfigError, match="'between_host' is required"):
            cfg.require("between_host")
        with pytest.raises(ConfigError, match="'run' is required"):
            cfg.require("run")


class TestFileHandling:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            config.load_scenario(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            config.load_scenario(path)

    def test_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError, match="object"):
            config.load_scenario(path)
