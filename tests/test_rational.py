"""Exact matrix helpers: parsing, algebra, integer scaling and linear solves."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from minmaxlab.checks import _wsne_slack
from minmaxlab.rational import (
    fmat,
    fvec,
    mat_vec,
    scale_to_integers,
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
