import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rscontrol.measures import (
    ActionGrid,
    RelaxedControl,
    SingularControl,
    combine_singular,
    controls_from_json,
    controls_to_json,
    convex_combine,
    dirac,
    integrate_against,
    stieltjes_integral,
)


class TestActionGrid:
    def test_basic(self):
        g = ActionGrid([0.0, 1.0, 2.0, 3.0])
        assert g.count == 4
        assert g.action_dim == 1

    def test_lexicographic_2d(self):
        ActionGrid([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="strictly increasing"):
            ActionGrid([[0.0, 1.0], [0.0, 0.0]])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            ActionGrid([1.0, 1.0])

    def test_bounding_box(self):
        ActionGrid([0.5, 1.0], box_lo=[0.0], box_hi=[2.0])
        with pytest.raises(ValueError, match="bounding box"):
            ActionGrid([0.5, 3.0], box_lo=[0.0], box_hi=[2.0])

    @pytest.mark.parametrize("points, box_lo", [([0.0, np.nan, 2.0], None),
                                                ([0.0, 1.0], [np.nan])])
    def test_nan_rejected(self, points, box_lo):
        with pytest.raises(ValueError):
            ActionGrid(points, box_lo=box_lo)

    def test_immutable(self):
        g = ActionGrid([0.0, 1.0])
        with pytest.raises(ValueError):
            g.points[0] = 5.0


class TestIntegrateAgainst:
    def test_uniform_mean(self):
        g = ActionGrid([0.0, 1.0, 2.0, 3.0])
        w = np.full(4, 0.25)
        assert integrate_against(g.flat(), w) == pytest.approx(1.5, abs=1e-15)

    def test_dirac_identity(self):
        vals = np.array([3.0, -1.0, 7.5, 0.25])
        for j in range(4):
            assert integrate_against(vals, dirac(4, j)) == vals[j]

    def test_bond_volatility_mean(self):
        # v(u) = -sigma*u with sigma = 0.02 on {1,2,3,4}, uniform weights
        vals = -0.02 * np.array([1.0, 2.0, 3.0, 4.0])
        assert integrate_against(vals, np.full(4, 0.25)) == pytest.approx(-0.05, abs=1e-15)

    def test_vector_values(self):
        vals = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = integrate_against(vals, np.array([0.25, 0.75]))
        assert np.allclose(out, [0.25, 0.75])

    def test_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            integrate_against(np.ones(3), np.full(4, 0.25))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.integers(1, 8)
        f = rng.normal(size=m)
        g = rng.normal(size=m)
        w = rng.dirichlet(np.ones(m))
        a, b = rng.normal(size=2)
        lhs = integrate_against(a * f + b * g, w)
        rhs = a * integrate_against(f, w) + b * integrate_against(g, w)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestDirac:
    def test_one_hot(self):
        assert np.array_equal(dirac(4, 2), [0.0, 0.0, 1.0, 0.0])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            dirac(4, 4)
        with pytest.raises(IndexError):
            dirac(4, -1)

    def test_combination_of_diracs(self):
        g = ActionGrid([0.0, 1.0, 2.0])
        mu = RelaxedControl(dirac(g, 0)[None, :])
        q = RelaxedControl(dirac(g, 1)[None, :])
        out = convex_combine(mu, q, 0.5)
        assert np.allclose(out.weights[0], [0.5, 0.5, 0.0])


class TestRelaxedControl:
    def test_invariants(self):
        with pytest.raises(ValueError, match="nonnegative"):
            RelaxedControl([[1.5, -0.5]])
        with pytest.raises(ValueError, match="sum to 1"):
            RelaxedControl([[0.5, 0.4]])
        with pytest.raises(ValueError, match="finite"):
            RelaxedControl([[0.5, np.nan]])

    def test_uniform(self):
        mu = RelaxedControl.uniform(3, 4)
        assert np.allclose(mu.weights.sum(axis=1), 1.0)

    def test_from_indices(self):
        mu = RelaxedControl.from_indices([2, 0], 3)
        assert np.array_equal(mu.weights, [[0, 0, 1], [1, 0, 0]])
        with pytest.raises(IndexError):
            RelaxedControl.from_indices([3], 3)


class TestConvexCombine:
    def test_endpoints(self):
        mu = RelaxedControl.uniform(2, 3)
        q = RelaxedControl.from_indices([0, 2], 3)
        assert convex_combine(mu, q, 0.0) is mu
        assert convex_combine(mu, q, 1.0) is q

    def test_quarter(self):
        mu = RelaxedControl([[1.0, 0.0]])
        q = RelaxedControl([[0.0, 1.0]])
        out = convex_combine(mu, q, 0.25)
        assert np.allclose(out.weights, [[0.75, 0.25]])

    def test_theta_range(self):
        mu = RelaxedControl.uniform(1, 2)
        with pytest.raises(ValueError):
            convex_combine(mu, mu, 1.5)
        with pytest.raises(ValueError):
            convex_combine(mu, mu, -0.1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            convex_combine(RelaxedControl.uniform(2, 3), RelaxedControl.uniform(2, 4), 0.5)

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_rows_stay_admissible(self, seed, theta):
        rng = np.random.default_rng(seed)
        steps, m = rng.integers(1, 6), rng.integers(2, 6)
        mu = RelaxedControl(rng.dirichlet(np.ones(m), size=steps))
        q = RelaxedControl(rng.dirichlet(np.ones(m), size=steps))
        out = convex_combine(mu, q, theta)
        assert np.all(out.weights >= 0.0)
        assert np.allclose(out.weights.sum(axis=1), 1.0, atol=1e-12)


class TestSingularControl:
    def test_invariants(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SingularControl([[-0.1]])
        with pytest.raises(ValueError, match="exceeds cap"):
            SingularControl([[6.0], [5.0]], tv_cap=10.0)

    def test_combine(self):
        xi = SingularControl([[1.0], [0.0]])
        eta = SingularControl([[0.0], [2.0]])
        assert np.array_equal(combine_singular(xi, eta, 0.0).increments, xi.increments)
        assert np.array_equal(combine_singular(xi, eta, 1.0).increments, eta.increments)
        out = combine_singular(xi, eta, 0.5)
        assert np.array_equal(out.increments, [[0.5], [1.0]])

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_combine_preserves_nondecreasing(self, seed, theta):
        rng = np.random.default_rng(seed)
        steps, d = rng.integers(1, 6), rng.integers(1, 3)
        xi = SingularControl(rng.uniform(0, 0.5, size=(steps, d)))
        eta = SingularControl(rng.uniform(0, 0.5, size=(steps, d)))
        out = combine_singular(xi, eta, theta)
        assert np.all(out.increments >= 0.0)


class TestStieltjesIntegral:
    def test_single_jump(self):
        xi = SingularControl([[0.0], [2.0], [0.0]])
        assert stieltjes_integral(np.ones(3), xi) == 2.0

    def test_zero_path(self):
        xi = SingularControl.zero(4, 2)
        assert stieltjes_integral(np.ones((4, 2)), xi) == 0.0

    def test_weighted_jumps(self):
        # f(t_k) = k, unit jumps at k = 1 and k = 3
        xi = SingularControl([[0.0], [1.0], [0.0], [1.0]])
        assert stieltjes_integral(np.arange(4.0), xi) == 4.0

    def test_linear_and_additive(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(6, 2))
        g = rng.normal(size=(6, 2))
        inc = rng.uniform(0, 0.3, size=(6, 2))
        xi = SingularControl(inc)
        lhs = stieltjes_integral(2.0 * f - 3.0 * g, xi)
        rhs = 2.0 * stieltjes_integral(f, xi) - 3.0 * stieltjes_integral(g, xi)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        head = SingularControl(np.vstack([inc[:3], np.zeros((3, 2))]))
        tail = SingularControl(np.vstack([np.zeros((3, 2)), inc[3:]]))
        assert stieltjes_integral(f, head) + stieltjes_integral(f, tail) == pytest.approx(
            stieltjes_integral(f, xi), abs=1e-12
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            stieltjes_integral(np.ones((3, 1)), SingularControl.zero(4, 1))


class TestSerialization:
    def test_round_trip(self):
        grid = ActionGrid([[1.0, 0.0], [1.0, 0.5], [2.0, 0.0]])
        mu = RelaxedControl([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
        xi = SingularControl([[0.1, 0.0], [0.0, 0.25]], tv_cap=5.0)
        doc = json.loads(json.dumps(controls_to_json(grid, mu, xi, horizon=2.0)))
        g2, mu2, xi2, horizon = controls_from_json(doc)
        assert np.array_equal(g2.points, grid.points)
        assert np.array_equal(mu2.weights, mu.weights)
        assert np.array_equal(xi2.increments, xi.increments)
        assert xi2.tv_cap == 5.0
        assert horizon == 2.0

    def test_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            controls_from_json({"schema": "bogus"})
