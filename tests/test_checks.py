"""Equilibrium certificates, well-supported reports, and the WSNE construction."""

import math
from fractions import Fraction

import numpy as np
import pytest

from minmaxlab import analytic, checks, oracle
from minmaxlab.cliques import Graph, payoff_from_graph_delta
from minmaxlab.errors import BoundViolationError, PreconditionError
from minmaxlab.games import (
    MAXIMIZE,
    MINIMIZE,
    BimatrixGame,
    MixedProfile,
    MixedStrategy,
)
from minmaxlab.rational import fmat


def matching_pennies():
    return BimatrixGame(
        fmat([[1, -1], [-1, 1]]), fmat([[-1, 1], [1, -1]]), (MAXIMIZE, MAXIMIZE)
    )


def uniform_profile(counts):
    return MixedProfile(tuple(MixedStrategy.uniform(c) for c in counts))


def test_certificate_on_exact_equilibrium():
    cert = checks.epsilon_ne_report(matching_pennies(), uniform_profile((2, 2)))
    assert max(cert.regrets) <= 1e-12
    assert cert.satisfied
    cert = checks.epsilon_ne_report(matching_pennies(), uniform_profile((2, 2)), epsilon=0.1)
    assert cert.satisfied


def test_certificate_flags_pure_profile():
    prof = MixedProfile((MixedStrategy.pure(2, 0), MixedStrategy.pure(2, 0)))
    cert = checks.epsilon_ne_report(matching_pennies(), prof, epsilon=0.5)
    assert not cert.satisfied
    assert max(cert.regrets) == pytest.approx(2.0)


def test_enumerated_equilibria_all_certify():
    rng = np.random.default_rng(99)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        rows = [
            [Fraction(int(rng.integers(-20, 21)), 10) for _ in range(n)]
            for _ in range(n)
        ]
        m = fmat([[rows[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)])
        game = BimatrixGame(m, m, (MAXIMIZE, MAXIMIZE))
        for eq in oracle.symmetric_support_enumeration(m, orientation=MAXIMIZE):
            s = MixedStrategy.from_exact(eq.probs)
            cert = checks.epsilon_ne_report(game, MixedProfile((s, s)))
            assert max(cert.regrets) <= 1e-9


def test_wsne_report_on_robust_triangle_game():
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    a = payoff_from_graph_delta(g, Fraction(1, 2))
    game = BimatrixGame(a, a, (MAXIMIZE, MAXIMIZE))
    assert checks.wsne_report(game, MixedStrategy.uniform(3)) == pytest.approx(0.0)
    # a pure vertex earns its self-loop payoff 1/2 while neighbours pay 1
    assert checks.wsne_report(game, MixedStrategy.pure(3, 0)) == pytest.approx(0.5)


def test_wsne_report_needs_identical_symmetric_payoffs():
    with pytest.raises(PreconditionError):
        checks.wsne_report(matching_pennies(), MixedStrategy.uniform(2))


@pytest.mark.parametrize("x", [[2, -1], [Fraction(1, 3), Fraction(1, 3)], [0, 0]])
def test_wsne_eps_exact_refuses_a_strategy_off_the_simplex(x):
    with pytest.raises(ValueError, match="not a probability vector"):
        checks.wsne_eps_exact([[1, 0], [0, 1]], x)


@pytest.mark.parametrize("x", [[1.5, -0.5, 0.0], [0.2, 0.2, 0.2], [0.0, 0.0, 0.0]])
def test_wsne_report_refuses_a_raw_vector_off_the_simplex(x):
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    a = payoff_from_graph_delta(g, Fraction(1, 2))
    game = BimatrixGame(a, a, (MAXIMIZE, MAXIMIZE))
    with pytest.raises(ValueError) as exc:
        checks.wsne_report(game, x)
    with pytest.raises(ValueError) as same:
        MixedStrategy(x)  # the test the strategy constructor applies
    assert str(exc.value) == str(same.value)


@pytest.mark.parametrize("orientation", ["max", "sideways"])
def test_wsne_eps_exact_refuses_an_orientation_other_than_the_two_constants(orientation):
    # "max" is a wire alias that fileio maps to MAXIMIZE; read as a minimizer it gave 1
    assert checks.wsne_eps_exact([[1, 0], [0, 0]], [1, 0], MAXIMIZE) == 0
    with pytest.raises(ValueError) as exc:
        checks.wsne_eps_exact([[1, 0], [0, 0]], [1, 0], orientation)
    with pytest.raises(ValueError) as same:
        oracle.symmetric_support_enumeration([[1, 0], [0, 0]], orientation)
    assert str(exc.value) == str(same.value) == f"bad orientation {orientation!r}"


def test_wsne_eps_exact_agrees_with_float_report():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    a = payoff_from_graph_delta(g, Fraction(1, 2))
    game = BimatrixGame(a, a, (MAXIMIZE, MAXIMIZE))
    x = MixedStrategy.from_exact(
        (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8))
    )
    exact = checks.wsne_eps_exact(a, x.exact, orientation=MAXIMIZE)
    assert float(exact) == pytest.approx(checks.wsne_report(game, x), abs=1e-12)


def test_wsne_report_refuses_a_strategy_of_the_wrong_length():
    game = BimatrixGame(fmat([[1, 0], [0, 1]]), fmat([[1, 0], [0, 1]]), (MAXIMIZE, MAXIMIZE))
    for x in ([1 / 3] * 3, MixedStrategy.uniform(3)):
        with pytest.raises(PreconditionError, match="^strategy length does not match the game$"):
            checks.wsne_report(game, x)
    # the exact path says "matrix": it is handed a matrix, not a game
    with pytest.raises(PreconditionError, match="^strategy length does not match the matrix$"):
        checks.wsne_eps_exact([[1, 0], [0, 1]], [Fraction(1, 3)] * 3)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_ne_to_wsne_refuses_a_non_positive_or_non_finite_epsilon(value):
    with pytest.raises(PreconditionError, match="epsilon"):
        checks.ne_to_wsne(matching_pennies(), uniform_profile((2, 2)), value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.1])
def test_mass_bound_audit_refuses_a_negative_or_non_finite_epsilon(value):
    with pytest.raises(PreconditionError, match="epsilon"):
        checks.mass_bound_audit(matching_pennies(), uniform_profile((2, 2)), value)


def test_ne_to_wsne_keeps_exact_equilibrium():
    game = matching_pennies()
    prof = uniform_profile((2, 2))
    out = checks.ne_to_wsne(game, prof, 0.3)
    for p in range(2):
        assert np.allclose(out[p].probs, prof[p].probs)


def test_ne_to_wsne_drops_the_slightly_played_bad_action():
    # row action 0 pays 1 and row action 1 pays 0 regardless of the opponent;
    # the column player sees no gap, so only the row strategy is cleaned up
    m = fmat([[1, 1], [0, 0]])
    game = BimatrixGame(m, m, (MAXIMIZE, MAXIMIZE))
    x = MixedStrategy(np.array([0.99, 0.01]))
    prof = MixedProfile((x, x))
    out = checks.ne_to_wsne(game, prof, 0.283)
    assert out[0].probs.tolist() == [1.0, 0.0]
    assert out[1].probs.tolist() == [0.99, 0.01]
    drift = np.abs(out[0].probs - x.probs).max()
    assert drift == pytest.approx(0.01)
    assert drift <= 0.283 / 4


def test_ne_to_wsne_refuses_games_with_more_than_two_players():
    # the lemma and its drift check are two-player; the 3-player team game's
    # exact equilibrium passes the certificate, so only the player count refuses
    game = analytic.irrational_game()
    profile = analytic.verify_irrational_equilibrium().float_profile
    checks.certify(game, profile, 0.5**2 / 8)
    with pytest.raises(PreconditionError, match="two-player game, got 3"):
        checks.ne_to_wsne(game, profile, 0.5)


def test_ne_to_wsne_rejects_profiles_with_large_regret():
    game = matching_pennies()
    prof = MixedProfile((MixedStrategy.pure(2, 0), MixedStrategy.pure(2, 0)))
    with pytest.raises(PreconditionError):
        checks.ne_to_wsne(game, prof, 0.1)


def test_ne_to_wsne_detects_knife_edge_failure():
    """Removal at suboptimality exactly eps can overshoot after renormalizing.

    Keeping an action whose payoff gap sits just below eps while another
    action is dropped shifts the kept gap above eps; the a-posteriori
    verification must refuse to return such a profile.
    """
    m = fmat([[1, 1, 0], [1, "1/2", 0], [0, 0, "1/4"]])
    game = BimatrixGame(m, m, (MAXIMIZE, MAXIMIZE))
    x = MixedStrategy.from_exact(
        (Fraction(1, 300), Fraction(1, 300), Fraction(149, 150))
    )
    prof = MixedProfile((x, x))
    eps = 0.243309
    cert = checks.epsilon_ne_report(game, prof)
    assert max(cert.regrets) <= eps * eps / 8  # the input itself is valid
    with pytest.raises(BoundViolationError):
        checks.ne_to_wsne(game, prof, eps)


def margin_profile(mass, gap):
    """A 2x2 game whose row player puts `mass` on an action `gap` worse than
    its best response, so its regret is mass * gap; the column player is
    indifferent.  Both players maximize."""
    game = BimatrixGame(fmat([[0, 0], [-gap, -gap]]), fmat([[0, 0], [0, 0]]),
                        (MAXIMIZE, MAXIMIZE))
    x = MixedStrategy([1 - float(mass), float(mass)])
    return game, MixedProfile((x, MixedStrategy.uniform(2)))


def test_ne_to_wsne_moves_too_much_mass_only_inside_the_certify_margin():
    # dropping actions more than eps below the best response moves at most
    # regret / eps <= eps / 8 of mass, so the eps/4 check fails only at a
    # regret in the margin (eps^2/8, eps^2/8 + VERDICT_SLACK]: here 1e-12
    game, prof = margin_profile(Fraction(5, 10**7), Fraction(2, 10**6))
    eps = 1e-6
    regret = max(checks.epsilon_ne_report(game, prof).regrets)
    assert eps * eps / 8 < regret <= eps * eps / 8 + checks.VERDICT_SLACK
    with pytest.raises(BoundViolationError, match=r"construction moved mass by 5e-07 > eps/4"):
        checks.ne_to_wsne(game, prof, eps)


def test_mass_bound_audit_finds_an_entry_only_inside_the_certify_margin():
    # mass * gap <= regret, so mass <= eps^2 / gap fails only at a regret in
    # the margin (eps^2, eps^2 + VERDICT_SLACK]: at eps = 0 any regret in it
    game, prof = margin_profile(Fraction(1, 10**9), Fraction(1, 2000))
    regret = max(checks.epsilon_ne_report(game, prof).regrets)
    assert 0 < regret <= checks.VERDICT_SLACK
    [entry] = checks.mass_bound_audit(game, prof, 0.0)
    assert (entry.player, entry.action, entry.bound) == (0, 1, 0.0)
    assert (entry.mass, entry.gap) == (prof[0].probs[1], 1 / 2000)


def test_mass_bound_audit_empty_on_equilibrium():
    entries = checks.mass_bound_audit(matching_pennies(), uniform_profile((2, 2)), 0.1)
    assert entries == []


def test_mass_bound_audit_rejects_bad_precondition():
    game = matching_pennies()
    prof = MixedProfile((MixedStrategy.pure(2, 0), MixedStrategy.pure(2, 0)))
    with pytest.raises(PreconditionError):
        checks.mass_bound_audit(game, prof, 0.1)
    # eps enters squared, so a negative eps used to pass as its absolute value
    uniform = MixedProfile((MixedStrategy.uniform(2), MixedStrategy.uniform(2)))
    assert checks.mass_bound_audit(game, uniform, 0.1) == []
    with pytest.raises(PreconditionError):
        checks.mass_bound_audit(game, uniform, -0.1)


@pytest.mark.parametrize(
    "epsilon, threshold", [(Fraction(1, 20), "0.0025"), (0.05, repr(0.05 * 0.05))]
)
def test_mass_bound_audit_squares_an_exact_epsilon_exactly(epsilon, threshold):
    game, prof = matching_pennies(), MixedProfile((MixedStrategy.pure(2, 0),) * 2)
    with pytest.raises(PreconditionError, match=rf"certified {threshold}-equilibrium:"):
        checks.mass_bound_audit(game, prof, epsilon)


def test_mass_bound_entries_respect_the_ratio():
    # slightly perturbed equilibrium: every suboptimal action obeys mass <= eps^2/gap
    m = fmat([[1, 1], [0, 0]])
    game = BimatrixGame(m, m, (MAXIMIZE, MAXIMIZE))
    x = MixedStrategy(np.array([0.996, 0.004]))
    prof = MixedProfile((x, x))
    eps = 0.08
    entries = checks.mass_bound_audit(game, prof, eps)
    assert entries == []
