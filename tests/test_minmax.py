"""Quadratic saddle problems: values, gradients, GDA maps, and gap bounds."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minmaxlab import gadgets, minmax, oracle
from minmaxlab.errors import DimensionError, PreconditionError
from minmaxlab.games import MAXIMIZE, MixedStrategy
from minmaxlab.minmax import QuadraticMinMaxProblem
from minmaxlab.rational import fmat, mat_vec, transpose, vec_dot
from prior_forms import to_float_matrix


def skew_problem():
    return gadgets.quadratic_gadget(fmat([[0, -1], [1, 0]]))


def random_problem(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = fmat(
        [
            [Fraction(int(rng.integers(-100, 101)), 100) for _ in range(n)]
            for _ in range(n)
        ]
    )
    return gadgets.quadratic_gadget(m)


def test_value_is_antisymmetric_under_swap():
    prob = random_problem(1)
    rng = np.random.default_rng(2)
    n = len(prob.qx)
    for _ in range(10):
        x = rng.dirichlet(np.ones(n))
        y = rng.dirichlet(np.ones(n))
        assert minmax.f_value(prob, x, y) == pytest.approx(
            -minmax.f_value(prob, y, x), abs=1e-12
        )


def test_gradient_matches_finite_differences():
    prob = random_problem(3)
    n = len(prob.qx)
    rng = np.random.default_rng(4)
    x = rng.dirichlet(np.ones(n))
    y = rng.dirichlet(np.ones(n))
    gx, gy = minmax.gradient(prob, x, y)
    h = 1e-6
    for i in range(n):
        dx = np.zeros(n)
        dx[i] = h
        num = (minmax.f_value(prob, x + dx, y) - minmax.f_value(prob, x - dx, y)) / (2 * h)
        assert gx[i] == pytest.approx(num, abs=1e-5)
        num = (minmax.f_value(prob, x, y + dx) - minmax.f_value(prob, x, y - dx)) / (2 * h)
        assert gy[i] == pytest.approx(num, abs=1e-5)


def test_antisymmetry_check_passes_on_gadget_problems():
    rep = minmax.antisymmetry_check(random_problem(5), samples=40, seed=0)
    assert rep.structural
    assert rep.ok
    assert rep.max_violation <= 1e-12


def test_antisymmetry_ok_is_derived_from_the_measurement():
    rep = minmax.antisymmetry_check(random_problem(3), samples=10, seed=0)
    assert rep.ok
    assert dataclasses.replace(rep, max_violation=5e-13).ok  # checks.within's 1e-12 margin
    assert not dataclasses.replace(rep, max_violation=5e-10).ok
    assert not dataclasses.replace(rep, structural=False).ok


def test_antisymmetry_check_flags_a_biased_problem():
    prob = gadgets.quadratic_gadget(fmat([[1, 0], [0, -1]]))
    biased = QuadraticMinMaxProblem(
        qx=prob.qx,
        qy=tuple(tuple(Fraction(2) * x for x in row) for row in prob.qy),
        m=prob.m,
        domain=prob.domain,
        smoothness_bound=prob.smoothness_bound,
        lipschitz_bound=prob.lipschitz_bound,
    )
    rep = minmax.antisymmetry_check(biased, samples=40, seed=0)
    assert not rep.ok


def prior_antisymmetry_check(problem, samples=100, seed=0):
    """antisymmetry_check as it stood when it sampled random strategy pairs."""
    structural = problem.antisymmetric()
    worst = 0.0
    if problem.n_x == problem.n_y:
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            xv = rng.dirichlet(np.ones(problem.n_x))
            yv = rng.dirichlet(np.ones(problem.n_y))
            swap_sum = minmax.f_value(problem, xv, yv) + minmax.f_value(problem, yv, xv)
            worst = max(worst, abs(swap_sum))
    else:
        structural = False
        worst = math.inf
    return minmax.AntisymmetryReport(structural, worst)


def criterion_09_gadgets():
    """The quadratic gadgets of criterion 09, drawn as it draws them."""
    rng = np.random.default_rng(6180339)
    return [
        gadgets.quadratic_gadget(fmat(
            [[Fraction(int(rng.integers(-100, 101)), 100) for _ in range(n)] for _ in range(n)]
        ))
        for n in (2 + trial % 2 for trial in range(10))
    ]


def test_antisymmetry_is_exact_on_gadgets_and_no_sampled_reading_exceeds_it():
    rng = np.random.default_rng(37)
    dynamics_sizes = [  # the benchmark's dynamics dimensions
        gadgets.quadratic_gadget(fmat(rng.integers(-100, 101, (n, n))) / 100)
        for n in (2, 3, 8, 16, 32, 64)
    ]
    for problem in criterion_09_gadgets() + dynamics_sizes:
        assert minmax.antisymmetry_check(problem) == minmax.AntisymmetryReport(True, 0.0)
        for seed in (0, 5):
            assert prior_antisymmetry_check(problem, 20, seed).max_violation <= 1e-12


def exact_swap_sum(problem, x, y):
    """f(x, y) + f(y, x) in Fractions, from the problem's exact data."""
    def f(x, y):
        quad = vec_dot(y, mat_vec(problem.qy, y)) - vec_dot(x, mat_vec(problem.qx, x))
        return quad / 2 + vec_dot(y, mat_vec(problem.m, x))

    return f(x, y) + f(y, x)


def witness_points(n):
    """The vertex pairs (e_i, e_j) and the midpoints x = y = (e_i + e_j)/2."""
    e = [tuple(Fraction(int(i == k)) for k in range(n)) for i in range(n)]
    mids = [tuple((a + b) / 2 for a, b in zip(e[i], e[j])) for i in range(n) for j in range(n)]
    return [(e[i], e[j]) for i in range(n) for j in range(n)] + [(m, m) for m in mids]


def random_rational_point(rng, n):
    w = [int(v) for v in rng.integers(0, 10, n)]
    w[0] += 1
    return tuple(Fraction(v, sum(w)) for v in w)


def prior_antisymmetric(problem):
    """antisymmetric() as it compared the Fraction cells (reference only)."""
    return (
        problem.n_x == problem.n_y
        and problem.qx.tolist() == problem.qy.tolist()
        and problem.m.T.tolist() == (-problem.m).tolist()
    )


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def antisymmetry_cases(draw):
    """A public-constructor problem: skew M, M skew but for one entry, Qx = Qy
    as two distinct arrays, Qx != Qy (Qy = Qx / 2 has Qx's cells over twice
    its denominator), or n_x != n_y."""
    kind = draw(st.sampled_from(["skew", "one entry off", "distinct Qx != Qy", "Qy = Qx / 2", "n_x != n_y"]))
    n = draw(st.integers(1, 5))
    ny = n + 1 if kind == "n_x != n_y" else n
    cells = st.lists(small_fractions, min_size=n * n, max_size=n * n)
    g, s = (fmat(np.array(draw(cells), dtype=object).reshape(n, n)) for _ in range(2))
    qx = g + g.T
    qy = fmat(qx.copy())  # equal to Qx, a distinct array
    if kind == "distinct Qx != Qy":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        bump = np.zeros((n, n), dtype=object)
        bump[i, j] = bump[j, i] = draw(small_fractions.filter(bool))
        qy = fmat(qx + bump)
    if kind == "Qy = Qx / 2":
        qy = fmat(qx / 2)
    m = s - s.T
    if kind == "one entry off":
        m[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] += draw(small_fractions.filter(bool))
    if ny != n:
        qy = fmat(np.identity(ny, dtype=object))
        m = fmat(np.ones((ny, n), dtype=object))
    return QuadraticMinMaxProblem(qx=qx, qy=qy, m=m)


@settings(max_examples=150, deadline=None)
@given(antisymmetry_cases())
def test_the_integer_antisymmetry_test_keeps_the_fraction_verdict(problem):
    assert problem.antisymmetric() == prior_antisymmetric(problem)


def test_a_problem_can_cancel_everywhere_without_being_structurally_antisymmetric():
    """Qy = Qx + C and M = S - C/2, with C = c1^T + 1c^T and S skew: f(x, y) +
    f(y, x) = c^T x + c^T y - (c^T x + c^T y) = 0 on every strategy pair."""
    rng = np.random.default_rng(41)
    for trial in range(100):
        n = 1 + trial % 5
        a, skew = rng.integers(-9, 10, (2, n, n))
        c = rng.integers(-9, 10, n)
        c[0] = c[0] or 1
        cc = c[:, None] + c[None, :]
        qx = fmat(a + a.T) / 4
        m = fmat(skew - skew.T) - fmat(cc) / 2
        problem = QuadraticMinMaxProblem(qx=qx, qy=qx + fmat(cc), m=m)
        rep = minmax.antisymmetry_check(problem)
        assert rep.max_violation == 0.0 and not rep.structural and not rep.ok
        for _ in range(3):
            x, y = random_rational_point(rng, n), random_rational_point(rng, n)
            assert exact_swap_sum(problem, x, y) == 0


def generic_problem(seed, n):
    rng = np.random.default_rng(seed)
    a, b, m = rng.integers(-9, 10, (3, n, n))
    return QuadraticMinMaxProblem(qx=fmat(a + a.T) / 3, qy=fmat(b + b.T) / 5, m=fmat(m) / 7)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_the_reading_is_the_largest_swap_sum_at_the_witness_points(n):
    problem = generic_problem(43 + n, n)
    rep = minmax.antisymmetry_check(problem)
    expected = max(abs(exact_swap_sum(problem, x, y)) for x, y in witness_points(n))
    assert rep.max_violation == float(expected) > 0.0
    assert not rep.structural and not rep.ok


def test_a_problem_that_cancels_at_every_vertex_pair_reads_its_midpoint():
    # D = Qy - Qx has D_11 + D_22 - 2 D_12 = -2 and N = M + M^T = 0
    zero = fmat([[0, 0], [0, 0]])
    problem = QuadraticMinMaxProblem(qx=zero, qy=fmat([[0, 1], [1, 0]]), m=zero)
    half = (Fraction(1, 2),) * 2
    assert [exact_swap_sum(problem, x, y) for x, y in witness_points(2)[:4]] == [0] * 4
    assert exact_swap_sum(problem, half, half) == Fraction(1, 2)
    assert minmax.antisymmetry_check(problem).max_violation == 0.5


def test_antisymmetry_check_ignores_samples_and_seed():
    problem = generic_problem(47, 3)
    assert minmax.antisymmetry_check(problem, 1, 0) == minmax.antisymmetry_check(problem, 500, 9)


def test_antisymmetry_check_refuses_unequal_dimensions():
    problem = QuadraticMinMaxProblem(
        qx=fmat([[1, 0], [0, 1]]), qy=fmat([[0, 0, 0]] * 3), m=fmat([[1, 0], [0, 1], [1, 1]])
    )
    rep = minmax.antisymmetry_check(problem)
    assert rep == minmax.AntisymmetryReport(False, math.inf) and not rep.ok


def test_gda_gap_vanishes_at_the_enumerated_equilibrium():
    m = fmat([[0, -1], [1, 0]])
    prob = gadgets.quadratic_gadget(m)
    eqs = oracle.symmetric_support_enumeration(m, orientation=MAXIMIZE)
    s = MixedStrategy.from_exact(eqs[0].probs).probs
    report = minmax.gda_gap(prob, s, s)
    assert report.gap <= 1e-12
    assert report.vi_bound <= 1e-9


def test_gda_gap_positive_away_from_equilibrium():
    prob = skew_problem()
    e1 = np.array([1.0, 0.0])
    report = minmax.gda_gap(prob, e1, e1)
    assert report.gap > 0.1


def test_gda_map_stepsize_scales_the_update():
    prob = skew_problem()
    x = np.array([0.5, 0.5])
    y = np.array([0.9, 0.1])
    x_full, y_full = minmax.gda_map(prob, x, y, stepsize=1.0)
    x_half, y_half = minmax.gda_map(prob, x, y, stepsize=0.5)
    # smaller steps stay closer to the starting point
    assert np.abs(x_half.probs - x).max() <= np.abs(x_full.probs - x).max() + 1e-12
    assert np.abs(y_half.probs - y).max() <= np.abs(y_full.probs - y).max() + 1e-12


def test_check_fone_zero_at_equilibrium():
    m = fmat([[0, -1], [1, 0]])
    prob = gadgets.quadratic_gadget(m)
    eqs = oracle.symmetric_support_enumeration(m, orientation=MAXIMIZE)
    s = MixedStrategy.from_exact(eqs[0].probs).probs
    rx, ry = minmax.check_fone(prob, s, s)
    assert rx <= 1e-9 and ry <= 1e-9


def test_vi_bound_formulas():
    assert minmax.gap_to_vi_bound(0.5, 3.0) == pytest.approx(0.5 * 4.0)
    k = 4.0 * np.sqrt(3.0 + 4.0 * np.sqrt(2.0))
    assert minmax.safe_gap_to_vi_bound(0.25, 3.0, 3.0) == pytest.approx(
        k * np.sqrt(0.25)
    )
    assert minmax.gap_to_vi_bound(0.0, 7.0) == 0.0


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE + [-0.1])
@pytest.mark.parametrize("name", ["gap", "smoothness"])
def test_gap_to_vi_bound_refuses_a_negative_or_non_finite_value(name, value):
    args = {"gap": 1e-4, "smoothness": 1.0, name: value}
    with pytest.raises(PreconditionError, match=name):
        minmax.gap_to_vi_bound(**args)


@pytest.mark.parametrize("value", NON_FINITE + [-0.1])
@pytest.mark.parametrize("name", ["gap", "smoothness", "lipschitz"])
def test_safe_gap_to_vi_bound_refuses_a_negative_or_non_finite_value(name, value):
    args = {"gap": 1e-4, "smoothness": 1.0, "lipschitz": 1.0, name: value}
    with pytest.raises(PreconditionError, match=name):
        minmax.safe_gap_to_vi_bound(**args)


@pytest.mark.parametrize("value", NON_FINITE + [0.0, -0.5])
@pytest.mark.parametrize("step", [minmax.gda_map, minmax.gda_gap])
def test_gda_steps_refuse_a_non_positive_or_non_finite_stepsize(step, value):
    s = np.array([0.5, 0.5])
    with pytest.raises(PreconditionError, match="stepsize"):
        step(skew_problem(), s, s, stepsize=value)


@st.composite
def quadratic_data(draw):
    """Qx, Qy and M with huge and small denominators; Qx is symmetric or not."""
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.fractions(min_value=-10, max_value=10, max_denominator=10**15)

    def matrix(rows, cols):
        return fmat(draw(st.lists(
            st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows
        )))

    qx = matrix(nx, nx)
    if draw(st.booleans()):
        qx = tuple(tuple(qx[min(i, j)][max(i, j)] for j in range(nx)) for i in range(nx))
    qy = matrix(ny, ny)
    qy = tuple(tuple(qy[min(i, j)][max(i, j)] for j in range(ny)) for i in range(ny))
    return qx, qy, matrix(ny, nx)


@settings(max_examples=100, deadline=None)
@given(quadratic_data())
def test_symmetry_check_and_float_mirrors_match_the_fraction_formula(data):
    qx, qy, m = data
    if not np.array_equal(qx, transpose(qx)):
        with pytest.raises(DimensionError):
            QuadraticMinMaxProblem(qx=qx, qy=qy, m=m)
        return
    problem = QuadraticMinMaxProblem(qx=qx, qy=qy, m=m)
    for mirror, exact in ((problem.qx_float, qx), (problem.qy_float, qy), (problem.m_float, m)):
        assert mirror.tobytes() == to_float_matrix(exact).tobytes()


@pytest.mark.parametrize("field", ["smoothness_bound", "lipschitz_bound"])
@pytest.mark.parametrize("value", [math.inf, -1.0, math.nan], ids=["inf", "negative", "nan"])
def test_problem_bounds_must_be_finite_and_nonnegative(field, value):
    # such a bound used to be saved as the non-JSON token Infinity (or NaN),
    # which load_game refuses, or to fail only inside gda_gap
    prob = skew_problem()
    with pytest.raises(ValueError, match=f"{field} must be finite and nonnegative"):
        QuadraticMinMaxProblem(qx=prob.qx, qy=prob.qy, m=prob.m, **{field: value})
    assert QuadraticMinMaxProblem(qx=prob.qx, qy=prob.qy, m=prob.m, **{field: 0.0})


def test_gda_map_at_a_symmetric_point_returns_strategies_that_share_no_memory():
    """Both players' targets hold the same bytes and are projected once."""
    prob = gadgets.quadratic_gadget(fmat([[0, 1, -1], [-1, 0, 1], [1, -1, 0]]))
    s = MixedStrategy([0.5, 0.3, 0.2])
    x, y = minmax.gda_map(prob, s, s)
    assert x.probs.tobytes() == y.probs.tobytes()
    assert not np.shares_memory(x.probs, y.probs)
