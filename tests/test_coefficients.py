"""Named coefficient families: values, shapes, validation, and metadata."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from immunoepi import coefficients as coef
from immunoepi import within_host as wh
from immunoepi.config import load_scenario

from reference_loops import immune_growth_g_array, upper_branch_P_array

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestScalarAndArrayCalls:
    def test_scalar_in_scalar_out(self):
        f = coef.linear(1.0, 2.0)
        out = f(0.5)
        assert isinstance(out, float)
        assert out == 2.0

    def test_array_in_matching_shape_out(self):
        f = coef.exponential(3.0, -1.0)
        w = np.linspace(0.0, 2.0, 7)
        out = f(w)
        assert isinstance(out, np.ndarray)
        assert out.shape == w.shape
        np.testing.assert_allclose(out, 3.0 * np.exp(-w), rtol=1e-14)

    def test_two_dimensional_input_keeps_shape(self):
        f = coef.constant(0.4)
        w = np.zeros((3, 5))
        out = f(w)
        assert out.shape == (3, 5)
        assert np.all(out == 0.4)

    def test_zero_dimensional_array_comes_back_scalar(self):
        f = coef.linear(1.0, 1.0)
        assert f(np.asarray(2.0)) == 3.0


class TestFamilies:
    def test_constant(self):
        f = coef.constant(0.1)
        assert f(0.0) == 0.1 and f(17.3) == 0.1
        assert f.family == "constant"
        assert f.describe == {"value": 0.1}

    def test_linear(self):
        f = coef.linear(0.2, 0.05)
        assert f(0.0) == 0.2
        assert f(10.0) == pytest.approx(0.7)
        assert f.family == "linear" and f.describe == {"intercept": 0.2, "slope": 0.05}

    def test_exponential(self):
        f = coef.exponential(2.0, 0.3)
        assert f(0.0) == 2.0
        assert f(1.0) == pytest.approx(2.0 * np.e**0.3, rel=1e-14)

    def test_table_interpolates_linearly(self):
        f = coef.table([0.0, 1.0, 3.0], [0.0, 2.0, 0.0])
        assert f(0.5) == 1.0
        assert f(1.0) == 2.0
        assert f(2.0) == 1.0
        # interp holds endpoint values outside the knot range
        assert f(5.0) == 0.0

    def test_table_rejects_mismatched_or_short_lists(self):
        with pytest.raises(ValueError, match="knots"):
            coef.table([0.0, 1.0], [1.0])
        with pytest.raises(ValueError, match="knots"):
            coef.table([0.0], [1.0])

    def test_table_rejects_unsorted_knots(self):
        with pytest.raises(ValueError, match="increasing"):
            coef.table([0.0, 2.0, 1.0], [0.0, 1.0, 2.0])

    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    def test_linear_matches_the_formula_everywhere(self, a, b, w):
        assert coef.linear(a, b)(w) == pytest.approx(a + b * w, abs=1e-12)


class TestWithinHostDerived:
    def test_pathogen_load_matches_the_branch_solver(self, paper_within):
        f = coef.from_within_host("pathogen_load", paper_within)
        w = np.array([0.0, 0.9, 2.0])
        expect = [wh.upper_branch_P(x, paper_within) for x in w]
        np.testing.assert_allclose(f(w), expect, rtol=1e-13)
        assert f(0.9) == pytest.approx(1.216498130886193, abs=1e-12)

    def test_immune_growth_matches_the_slow_field(self, paper_within):
        f = coef.from_within_host("immune_growth", paper_within)
        w = np.linspace(0.0, 3.0, 5)
        np.testing.assert_allclose(
            f(w), wh.immune_growth_g(w, paper_within), rtol=1e-13
        )
        assert f(0.0) == pytest.approx(1.9486832980505138, abs=1e-12)

    def test_derived_shapes_follow_the_input(self, paper_within):
        f = coef.from_within_host("pathogen_load", paper_within)
        assert isinstance(f(1.0), float)
        assert f(np.zeros((2, 3))).shape == (2, 3)

    def test_linked_clock_values_match_the_array_forms(self):
        # P and g of configs/bh_linked.json on its status clock's nodes, up
        # to the fold: the float closed form at each node gives the earlier
        # array forms' values bit for bit
        cfg = load_scenario(CONFIGS / "bh_linked.json")
        nodes = cfg.between.clock.omega
        assert nodes.size == 16_385 and nodes[-1] == wh.manifold_tip(cfg.within)[1]
        for f, reference in (
            (cfg.between.P, upper_branch_P_array), (cfg.between.g, immune_growth_g_array)
        ):
            assert f(nodes).tobytes() == reference(nodes, cfg.within).tobytes()

    def test_unknown_kind_raises(self, paper_within):
        with pytest.raises(ValueError, match="kind"):
            coef.from_within_host("status_speed", paper_within)

    def test_describe_echoes_the_parameter_set(self, paper_within):
        f = coef.from_within_host("immune_growth", paper_within)
        assert f.family == "within_host"
        assert f.describe["kind"] == "immune_growth"
        assert f.describe["within_host"]["Lambda"] == paper_within.Lambda
        assert f.describe["within_host"]["c"] == paper_within.c


class TestDescribeMetadata:
    def test_each_family_reports_its_construction(self):
        assert coef.constant(1.5).describe == {"value": 1.5}
        assert coef.linear(0.1, 0.2).describe == {"intercept": 0.1, "slope": 0.2}
        assert coef.exponential(1.0, -0.5).describe == {"amplitude": 1.0, "rate": -0.5}
        t = coef.table([0.0, 1.0], [2.0, 3.0])
        assert t.describe == {"omega": [0.0, 1.0], "value": [2.0, 3.0]}
