"""Exact arithmetic in Q(sqrt(3)) and the closed-form solvers built on it."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from minmaxlab.analytic import (
    QuadSurd,
    induced_matrix,
    irrational_equilibrium,
    irrational_game,
    solve_2x2,
    team_value_curve,
    verify_irrational_equilibrium,
)
from minmaxlab.errors import DegenerateGameError, PreconditionError

fractions = st.fractions(min_value=-8, max_value=8, max_denominator=32)
surds = st.builds(QuadSurd, fractions, fractions)

SQRT3 = QuadSurd(0, 1)


# ---------------------------------------------------------------------------
# field arithmetic


@given(surds, surds, surds)
def test_surd_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a - a == QuadSurd(0)


@given(surds)
def test_surd_division_inverts_multiplication(a):
    if a == QuadSurd(0):
        return
    assert (a * a) / a == a
    assert a / a == QuadSurd(1)


@given(surds, surds)
def test_surd_order_matches_floats(a, b):
    if a == b:
        return
    # entries are far enough apart in this range for floats to agree
    if abs(float(a) - float(b)) < 1e-9:
        return
    assert (a < b) == (float(a) < float(b))


def test_surd_basics():
    s = SQRT3
    assert s * s == QuadSurd(3)
    assert (1 + s) * (1 - s) == QuadSurd(-2)
    assert QuadSurd(Fraction(1, 2)).q == 0
    assert s.q != 0
    assert float(s) == pytest.approx(3 ** 0.5)
    assert QuadSurd.of(Fraction(2, 3)) == QuadSurd(Fraction(2, 3))
    # mixed arithmetic with plain rationals stays exact
    assert Fraction(1, 3) + s - s == QuadSurd(Fraction(1, 3))


# ---------------------------------------------------------------------------
# 2x2 closed form


def exact_equilibrium_check(a, value, x, z):
    """Independent certificate: indifference plus no pure deviation."""
    (a11, a12), (a21, a22) = a
    assert x[0] + x[1] == 1 and z[0] + z[1] == 1
    zero = value - value
    assert x[0] >= zero and x[1] >= zero and z[0] >= zero and z[1] >= zero
    row = (a11 * z[0] + a12 * z[1], a21 * z[0] + a22 * z[1])
    col = (a11 * x[0] + a21 * x[1], a12 * x[0] + a22 * x[1])
    # row minimizes: no row action beats the value; col maximizes likewise
    assert min(row) == value and max(col) == value
    assert x[0] * row[0] + x[1] * row[1] == value


def test_solve_2x2_on_random_crossing_matrices():
    rng = random.Random(99173)
    checked = 0
    while checked < 200:
        a = tuple(
            tuple(
                Fraction(rng.randint(-40, 40), rng.randint(1, 20)) for _ in range(2)
            )
            for _ in range(2)
        )
        (a11, a12), (a21, a22) = a
        if not ((a11 - a12) * (a22 - a21) > 0 and (a11 - a21) * (a22 - a12) > 0):
            continue
        value, x, z = solve_2x2(a)
        exact_equilibrium_check(a, value, x, z)
        checked += 1


def test_solve_2x2_matching_pennies():
    value, x, z = solve_2x2(((1, -1), (-1, 1)))
    assert value == 0
    assert x == (Fraction(1, 2), Fraction(1, 2))
    assert z == (Fraction(1, 2), Fraction(1, 2))


def test_solve_2x2_accepts_surd_entries():
    s = SQRT3
    a = ((1 + s, 0), (0, 1 + s))
    value, x, z = solve_2x2(a)
    assert x == (QuadSurd(Fraction(1, 2)),) * 2
    assert value == (1 + s) / 2


def test_solve_2x2_rejects_dominated_matrices():
    # row 1 strictly dominates row 2: no interior equilibrium
    with pytest.raises(DegenerateGameError):
        solve_2x2(((0, 0), (1, 1)))


# ---------------------------------------------------------------------------
# the irrational team equilibrium


def test_irrational_profile_exact_coordinates():
    s = SQRT3
    x, y, z = irrational_equilibrium()
    assert x == ((3 - s) / 6, (3 + s) / 6)
    assert z == ((3 + s) / 6, (3 - s) / 6)
    assert y == ((611 - 9 * s) / 600, (9 * s - 11) / 600)
    for strategy in (x, y, z):
        assert strategy[0] + strategy[1] == QuadSurd(1)
        assert strategy[0] > QuadSurd(0) and strategy[1] > QuadSurd(0)


def test_verify_irrational_equilibrium_is_exact():
    rep = verify_irrational_equilibrium()
    assert rep.exact
    assert rep.certificate.satisfied
    assert max(rep.certificate.regrets) <= 1e-9
    assert rep.game_value == (578 + 9 * SQRT3) / 600
    # the maximizing adversary is exactly indifferent between its actions
    va, vb = rep.action_values[2]
    assert va == vb == rep.game_value


def test_team_deviations_are_exactly_worse():
    rep = verify_irrational_equilibrium()
    for player in (0, 1):
        va, vb = rep.action_values[player]
        assert va == vb == rep.game_value


def prior_action_values(player):
    """A player's two action values, by the loop over action profiles the
    certificate ran before it called the oracle's contraction."""
    tensor = irrational_game().payoffs[0]
    profile = irrational_equilibrium()
    others = [i for i in range(3) if i != player]
    out = []
    for action in range(2):
        total = QuadSurd(Fraction(0))
        for j in range(2):
            for k in range(2):
                idx = [0, 0, 0]
                idx[player] = action
                idx[others[0]] = j
                idx[others[1]] = k
                weight = profile[others[0]][j] * profile[others[1]][k]
                total = total + weight * QuadSurd.of(tensor[tuple(idx)])
        out.append(total)
    return tuple(out)


def test_action_values_match_the_prior_loop():
    values = verify_irrational_equilibrium().action_values
    assert values == tuple(prior_action_values(p) for p in range(3))
    assert all(type(v) is QuadSurd for pair in values for v in pair)


def test_game_tensor_is_rational():
    game = irrational_game()
    assert game.n_players == 3
    assert all(isinstance(v, Fraction) for v in game.payoffs[0][0][0:1][0])


def test_value_curve_endpoints_and_minimum():
    assert team_value_curve(0) == Fraction(109, 110)
    assert team_value_curve(1) == Fraction(8999, 6110)
    y2 = (9 * SQRT3 - 11) / 600
    vmin = team_value_curve(y2)
    assert vmin == (578 + 9 * SQRT3) / 600
    for probe in (Fraction(0), Fraction(1, 100), Fraction(1, 10), Fraction(1)):
        assert team_value_curve(probe) > vmin


def test_value_curve_matches_induced_game():
    for y2 in (Fraction(0), Fraction(3, 100), Fraction(1, 4), Fraction(1)):
        value, _, _ = solve_2x2(induced_matrix(y2))
        assert value == team_value_curve(y2)


def test_curve_domain_is_the_unit_interval():
    with pytest.raises(PreconditionError):
        team_value_curve(Fraction(-1, 10))
    with pytest.raises(PreconditionError):
        induced_matrix(Fraction(11, 10))
