"""Simplex projection, the probability grid, and the joint coupled domain."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minmaxlab import geometry
from minmaxlab.errors import CapExceededError, ConvergenceError, DimensionError
from minmaxlab.geometry import (
    JointDomain,
    _project_simplex_raw,
    _project_simplex_rows,
    grid_size,
    project_joint,
    project_simplex,
    simplex_grid,
)

coords = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=6
)


@given(coords)
def test_projection_lands_on_the_simplex(point):
    v = np.array(point)
    p = project_simplex(v).probs
    assert p.min() >= 0.0
    assert abs(p.sum() - 1.0) <= 1e-9


@given(coords)
@settings(max_examples=60)
def test_projection_is_idempotent(point):
    p = project_simplex(np.array(point)).probs
    again = project_simplex(p).probs
    assert np.abs(p - again).max() <= 1e-12


def test_row_projection_matches_the_vector_projection_bit_for_bit():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 7, 64):
        rows = rng.normal(0, 2, size=(40, n))
        rows[::3] = np.round(rows[::3])  # ties in the sort
        rows[1] = 1.0 / n  # already on the simplex
        projected = _project_simplex_rows(rows)
        for v, p in zip(rows, projected):
            assert np.array_equal(p, _project_simplex_raw(v))


def test_projection_keeps_interior_points():
    v = np.array([0.2, 0.3, 0.5])
    assert np.allclose(project_simplex(v).probs, v)


def test_projection_known_values():
    assert project_simplex(np.array([2.0, 0.0, 0.0])).probs.tolist() == [1.0, 0.0, 0.0]
    p = project_simplex(np.array([0.8, 0.8])).probs
    assert np.allclose(p, [0.5, 0.5])


@pytest.mark.parametrize("point", [[[0.2, 0.3], [0.1, 0.4]], [[0.5, 0.5]], np.zeros((2, 1, 2))])
def test_projection_rejects_more_than_one_axis(point):
    with pytest.raises(DimensionError, match="one vector"):
        project_simplex(point)


def test_projection_beats_a_nearby_vertex():
    v = np.array([0.9, 0.4, -0.1])
    p = project_simplex(v).probs
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        assert np.linalg.norm(v - p) <= np.linalg.norm(v - e) + 1e-12


def test_grid_counts_match_the_stars_and_bars_formula():
    assert grid_size(2, Fraction(1, 4)) == 5
    assert grid_size(3, Fraction(1, 10)) == 66
    pts = list(simplex_grid(3, Fraction(1, 10)))
    assert len(pts) == 66
    assert all(sum(p) == 1 for p in pts)
    assert len(set(pts)) == 66


def test_grid_cap_is_enforced(monkeypatch):
    monkeypatch.setattr(geometry, "SIMPLEX_GRID_CAP", 1000)
    with pytest.raises(CapExceededError):
        list(simplex_grid(6, Fraction(1, 100)))


def test_joint_domain_membership():
    dom = JointDomain(2, 0.1)
    x = np.array([0.5, 0.5])
    assert dom.contains(x, x)
    assert dom.violation(x, x) <= 1e-15
    far = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert not dom.contains(*far)
    assert dom.violation(*far) > 0.5


def test_joint_domain_width_must_be_finite():
    with pytest.raises(ValueError, match="delta must be finite"):
        JointDomain(2, math.inf)


def test_joint_projection_of_an_equal_pair_is_componentwise():
    dom = JointDomain(3, 0.25)
    v = np.array([1.4, -0.2, 0.1])
    x, y = project_joint(v, v, dom)
    single = project_simplex(v).probs
    assert np.abs(x.probs - single).max() <= 1e-9
    assert np.abs(y.probs - single).max() <= 1e-9


def test_joint_projection_out_of_sweeps_raises_with_its_residual(monkeypatch):
    # one sweep moves (e_0, e_1) onto ((0.55, 0.45), (0.45, 0.55)), a move of
    # norm 0.9, which the sweep cannot yet confirm as settled
    dom = JointDomain(2, 0.1)
    far = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    monkeypatch.setattr(geometry, "PROJECT_JOINT_MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError, match="within 1 sweeps") as exc:
        project_joint(*far, dom)
    assert exc.value.residual == pytest.approx(0.9)
    monkeypatch.undo()
    x, y = project_joint(*far, dom)
    assert np.allclose(x.probs, [0.55, 0.45]) and np.allclose(y.probs, [0.45, 0.55])


def test_joint_projection_residuals_small_on_random_inputs():
    rng = np.random.default_rng(20260816)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        delta = float(rng.uniform(0.05, 0.5))
        dom = JointDomain(n, delta)
        x, y = project_joint(rng.normal(0, 2, n), rng.normal(0, 2, n), dom)
        for v in (x.probs, y.probs):
            assert v.min() >= -1e-10
            assert abs(v.sum() - 1.0) <= 1e-8
        assert dom.violation(x.probs, y.probs) <= 1e-8
