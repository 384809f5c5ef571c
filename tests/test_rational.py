"""Exact matrix helpers: parsing, algebra, integer scaling and linear solves."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from minmaxlab import cliques, oracle, rational
from minmaxlab.checks import _wsne_slack
from minmaxlab.cliques import Graph, ParameterRegime
from minmaxlab.games import MAXIMIZE, MINIMIZE, BimatrixGame
from minmaxlab.geometry import grid_size
from minmaxlab.rational import (
    FractionTable,
    carrier,
    fmat,
    fvec,
    mat_vec,
    scale_to_integers,
    scaled_to_exact,
    scaled_to_float,
    solve_linear,
    solve_stacked,
    to_fraction,
    transpose,
    vec_dot,
)
from prior_forms import to_float_matrix

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=64)


def square(side):
    return st.lists(
        st.lists(fractions, min_size=side, max_size=side),
        min_size=side,
        max_size=side,
    )


def test_fmat_accepts_strings_ints_and_fractions():
    m = fmat([["1/2", 2], [0, Fraction(-3, 4)]])
    assert m.tolist() == [[Fraction(1, 2), Fraction(2)], [Fraction(0), Fraction(-3, 4)]]
    assert m.shape == (2, 2)


def test_to_fraction_rejects_junk():
    assert to_fraction("7/3") == Fraction(7, 3)
    with pytest.raises(ValueError):
        to_fraction("seven thirds")


def test_to_fraction_keeps_a_fraction_and_makes_a_subclass_plain():
    class Half(Fraction):
        pass

    plain = Fraction(-3, 7)
    assert to_fraction(plain) is plain
    out = to_fraction(Half(1, 2))
    assert type(out) is Fraction and out == Fraction(1, 2)


@given(square(3))
def test_transpose_is_an_involution(rows):
    m = fmat(rows)
    assert transpose(transpose(m)).tolist() == m.tolist()


@given(square(3), st.lists(st.fractions(0, 1, max_denominator=64), min_size=3, max_size=3))
def test_integer_product_matches_the_fraction_reference(rows, weights):
    assume(any(weights))
    m, x = fmat(rows), fvec(weights)
    (cells, d), (xs, dx) = scale_to_integers(m), scale_to_integers(x)
    _, product, slack = _wsne_slack(cells, xs[None])
    slack = Fraction(slack[0], d * dx)
    value = Fraction((xs * product[0]).sum(), d * dx * dx)
    payoffs = mat_vec(m, x)
    assert value == vec_dot(x, payoffs)
    assert slack == max(payoffs) - min(p for p, w in zip(payoffs, x) if w > 0)


def test_solve_linear_exact_solution():
    a = [[2, 1], [1, 3]]
    b = [1, 0]
    num, det = solve_linear(a, b)
    assert det > 0
    assert [Fraction(v, det) for v in num] == [Fraction(3, 5), Fraction(-1, 5)]
    assert [sum(x * v for x, v in zip(row, num)) for row in a] == [r * det for r in b]
    # the same system over Fractions, through the Fraction reference product
    x = fvec(Fraction(v, det) for v in num)
    assert mat_vec(fmat(a), x) == fvec(b)


def test_solve_linear_singular_returns_none():
    assert solve_linear([[1, 2], [2, 4]], [1, 1]) is None


def test_solve_linear_of_the_empty_system_and_an_empty_stack():
    # the empty product is the determinant of the 0 x 0 system
    assert solve_linear([], []) == ((), 1)
    num, det = solve_stacked(np.zeros((0, 3, 4), dtype=np.int64))  # a stack of no systems
    assert num.shape == (0, 3) and det.shape == (0,)


def test_solve_linear_refuses_fractions():
    with pytest.raises(TypeError):
        solve_linear(fmat([[Fraction(1, 2)]]), [1])


def test_scale_to_integers_uses_the_lcm():
    cells, d = scale_to_integers([Fraction(1, 4), Fraction(-5, 6), 3])
    assert cells.tolist() == [3, -10, 36] and d == 12
    cells, d = scale_to_integers(fmat([["1/2", 1], [0, "-1/3"]]))
    assert cells.tolist() == [[3, 6], [0, -2]] and d == 6
    assert all(type(c) is int for c in cells.flat)


def test_to_float_matrix_values():
    out = to_float_matrix(fmat([["1/2", "1/4"]]))
    assert out.shape == (1, 2)
    assert out[0, 0] == 0.5 and out[0, 1] == 0.25


@given(st.lists(
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**18), min_size=1, max_size=12
))
def test_scaled_to_float_rounds_as_to_float_matrix(row):
    m = fmat([row])
    assert scaled_to_float(*scale_to_integers(m)).tobytes() == to_float_matrix(m).tobytes()


# ---------------------------------------------------------------------------
# the carrier rule and the Fraction table


@pytest.mark.parametrize("bound, blas, dtype", [
    (2**63 - 1, False, np.int64),
    (2**63, False, object),
    (2**53 - 1, True, np.float64),
    (2**53, True, object),  # a BLAS kernel never runs on int64
    (2**53, False, np.int64),
])
def test_the_carrier_changes_at_each_limit(bound, blas, dtype):
    assert carrier(bound, blas) is dtype


def spy_on_carrier(monkeypatch, module) -> list:
    """(bound, blas, dtype) of every call `module` makes to the carrier rule."""
    calls = []

    def spy(bound, blas=False):
        dtype = carrier(bound, blas)
        calls.append((bound, blas, dtype))
        return dtype

    monkeypatch.setattr(module, "carrier", spy)
    return calls


def test_a_stack_takes_its_carrier_from_the_rule(monkeypatch):
    calls = spy_on_carrier(monkeypatch, rational)
    # one system of one unknown: H^2 = peak^2 and the bound is 2 peak^2
    for peak, dtype in ((2**31 - 1, np.int64), (2**31, object)):
        calls.clear()
        num, det = solve_stacked(np.array([[[peak, 0]], [[-1, 0]]]))
        assert calls == [(2 * peak**2, False, dtype)] and det.dtype == dtype
    rng = np.random.default_rng(9)
    for systems, dtype in ((rng.integers(-3, 4, (5, 6, 7)), np.int64),
                           (rng.integers(-2**20, 2**20, (5, 6, 7)), object)):
        calls.clear()
        assert solve_stacked(systems)[1].dtype == dtype
        assert [(blas, d) for _, blas, d in calls] == [(False, dtype)]


@pytest.mark.parametrize("peak, dtype", [
    (2**63 - 1, np.int64), (2**63, object), (2**70 + 5, object)
])
def test_the_census_takes_its_carrier_from_the_rule(monkeypatch, peak, dtype):
    calls = spy_on_carrier(monkeypatch, oracle)
    monkeypatch.setattr(oracle, "_last_census", None)
    # no constant border, gcd 1 and smallest entry 0: the core is the matrix
    # itself, and the census bound is its largest entry
    matrix = fmat([[0, 1, 2], [2, 0, 1], [1, 2, peak]])
    assert oracle.symmetric_support_enumeration(matrix, MAXIMIZE)
    assert calls == [(peak, False, dtype)]


def bimatrix_over(k: int) -> BimatrixGame:
    """Payoffs over D = k with max|T * D| = k: at resolution 1/2 the grid's
    bound is 2 * k * 2^2."""
    def cell(v):
        return Fraction(v, k)

    row = fmat([[1, cell(-(k - 2))], [cell(1), cell(k // 3)]])
    col = fmat([[cell(k // 5 - 1), cell(7)], [-1, cell(-(k // 7))]])
    return BimatrixGame(row, col, (MAXIMIZE, MINIMIZE))


def test_the_grid_takes_its_carrier_from_the_rule(monkeypatch):
    calls = spy_on_carrier(monkeypatch, oracle)
    for k, dtype in ((2**50 - 1, np.float64), (2**50, object)):
        calls.clear()
        oracle.grid_ne_search(bimatrix_over(k), Fraction(1, 2), Fraction(3, 2))
        assert calls[0] == (8 * k, True, dtype)
    # payoffs over q > 2^53 whose numerators stay small: float64, with D past 2^53
    q = 2**53 + 5
    game = BimatrixGame([[Fraction(3, q), Fraction(1, q)], [Fraction(-2, q), Fraction(2, q)]],
                        [[Fraction(2, q), Fraction(2, q)], [Fraction(-1, q), Fraction(-3, q)]])
    calls.clear()
    assert oracle.grid_ne_search(game, Fraction(1, 7), 1)
    assert calls[0] == (2 * 3 * 7 * 7, True, np.float64)


PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize("delta, dtype", [
    (Fraction(1, 2), np.int64),
    (Fraction(2**31 - 1, 2**32), object),  # D = 2^32: x^T M x leaves int64
])
def test_the_wsne_audit_takes_its_carrier_from_the_rule(monkeypatch, delta, dtype):
    calls = spy_on_carrier(monkeypatch, cliques)
    regime = ParameterRegime(n=3, k=2, delta=delta, epsilon=Fraction(1, 10**9))
    cliques.measure_wsne_value(PATH3, regime)
    assert [(blas, d) for _, blas, d in calls] == [(False, dtype)]


def test_a_fraction_table_builds_each_plain_fraction_once():
    table = FractionTable(6)
    half = table[3]
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert table[3] is half and table[-4] == Fraction(-2, 3)
    cells = np.array([[1, 2], [1, 2]], dtype=object)
    out = scaled_to_exact(cells, 4)
    assert {type(x) for x in out.flat} == {Fraction}
    assert out[0, 0] is out[1, 0] and out[0, 1] is out[1, 1]


def test_the_wsne_records_share_each_fraction_of_one_denominator():
    regime = ParameterRegime(n=3, k=2, delta=Fraction(1, 2), epsilon=Fraction(1, 10**9))
    records = cliques.measure_wsne_value(PATH3, regime).records
    grid = records[:grid_size(3, Fraction(1, 6))]  # every grid point is over 6
    coordinates = [p for r in grid for p in r.probs]
    assert len({id(p) for p in coordinates}) == len(set(coordinates)) == 7
