"""The all-player deviation kernel and the raw-array refinement loop.

Both are checked bit for bit against the implementation they replaced,
kept below as a test-only reference: per-player `deviation_payoffs` on
validated profiles, the certificate built from it, and a refinement loop
that rebuilt a validated profile on every iteration.
"""

import math
import string
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minmaxlab import analytic, checks, gadgets, oracle
from minmaxlab.games import (
    MAXIMIZE,
    MINIMIZE,
    BimatrixGame,
    MixedProfile,
    MixedStrategy,
    NormalFormGame,
    PolymatrixGame,
    _check_player,
    _check_profile,
    as_profile,
    deviation_payoffs,
    deviation_vectors,
)
from minmaxlab.rational import fmat

# ---------------------------------------------------------------------------
# the prior implementation (reference only)


def prior_deviation_payoffs(game, profile, player):
    profile = as_profile(profile)
    _check_profile(game, profile)
    _check_player(game, player)
    if isinstance(game, BimatrixGame):
        if player == 0:
            return game.row_float @ profile[1].probs
        return game.col_float.T @ profile[0].probs
    if isinstance(game, PolymatrixGame):
        vec = np.zeros(game.action_counts[player])
        const = 0.0
        for (i, j), m in game.pair_floats.items():
            if i == player:
                vec += m @ profile[j].probs
            elif j == player:
                vec += m.T @ profile[i].probs
            else:
                const += float(profile[i].probs @ m @ profile[j].probs)
        return vec + const
    letters = string.ascii_lowercase[: game.n_players]
    others = [q for q in range(game.n_players) if q != player]
    sub = letters + "," + ",".join(letters[q] for q in others) + "->" + letters[player]
    return np.einsum(sub, game.float_payoffs[player], *[profile[q].probs for q in others])


def prior_epsilon_ne_report(game, profile, epsilon=0.0):
    profile = as_profile(profile)
    n_players = 2 if isinstance(game, BimatrixGame) else game.n_players
    regrets = []
    witnesses = []
    for p in range(n_players):
        dev = prior_deviation_payoffs(game, profile, p)
        current = float(dev @ profile[p].probs)
        if game.orientation[p] == MAXIMIZE:
            action = int(np.argmax(dev))
            gain = float(dev[action] - current)
        else:
            action = int(np.argmin(dev))
            gain = float(current - dev[action])
        regrets.append(gain)
        witnesses.append((p, action, gain))
    satisfied = all(r <= epsilon + checks.CERT_SLACK for r in regrets)
    cert = checks.Certificate(epsilon=float(epsilon), witnesses=tuple(witnesses))
    assert (cert.regrets, cert.satisfied) == (tuple(regrets), satisfied)
    return cert


def prior_local_ne_refine(game, start, target_regret, max_iters=100_000, damping=0.1):
    profile = as_profile(start)
    n_players = len(profile)
    strategies = [profile[p].probs.copy() for p in range(n_players)]
    best_profile = profile
    best_regret = math.inf
    iterations = 0
    for t in range(max_iters):
        iterations = t + 1
        worst = 0.0
        brs = []
        for p in range(n_players):
            dev = prior_deviation_payoffs(game, profile, p)
            cur = float(dev @ strategies[p])
            if game.orientation[p] == MAXIMIZE:
                br = int(np.argmax(dev))
                worst = max(worst, float(dev[br] - cur))
            else:
                br = int(np.argmin(dev))
                worst = max(worst, float(cur - dev[br]))
            brs.append(br)
        if worst < best_regret:
            best_regret = worst
            best_profile = profile
        if worst <= target_regret:
            cert = prior_epsilon_ne_report(game, profile, target_regret)
            return oracle.RefineResult(profile, worst, iterations, True, cert)
        eta = damping / (1.0 + damping * t)
        for p in range(n_players):
            strategies[p] *= 1.0 - eta
            strategies[p][brs[p]] += eta
        profile = MixedProfile(tuple(MixedStrategy(s) for s in strategies))
    return oracle.RefineResult(best_profile, best_regret, iterations, False, None)


# ---------------------------------------------------------------------------
# fixtures


def _rand_sym_matrix(rng, n, lo, hi, den):
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(int(rng.integers(lo, hi + 1)), den)
            m[i][j] = v
            m[j][i] = v
    return fmat(m)


def _criterion_05_gadgets(count):
    """The first `count` team gadgets criterion 05 draws from its seed."""
    rng = np.random.default_rng(6180339)
    out = []
    for trial in range(count):
        n = 2 + trial % 2
        inst = gadgets.team_gadget(_rand_sym_matrix(rng, n, 100, 200, -100), Fraction(1, 20))
        for _ in range(5):  # the criterion's Dirichlet starts, drawn before refining
            for c in inst.game.action_counts:
                rng.dirichlet(np.ones(c))
        out.append(inst)
    return out


def _warm_start(inst, weight):
    canonical = gadgets.canonical_team_ne(inst)
    return MixedProfile(tuple(
        MixedStrategy(weight * canonical[p].probs + (1 - weight) * np.ones(c) / c)
        for p, c in enumerate(inst.game.action_counts)
    ))


def _uniform(game):
    return MixedProfile(tuple(MixedStrategy.uniform(c) for c in game.action_counts))


PENNIES = BimatrixGame(
    fmat([[1, -1], [-1, 1]]), fmat([[-1, 1], [1, -1]]), (MAXIMIZE, MAXIMIZE)
)
TEAM_2 = gadgets.team_gadget(fmat([[-2, -1], [-1, -3]]), Fraction(1, 20))
TEAM_3V3 = gadgets.team3v3_gadget(
    fmat([[Fraction(3, 10), -1], [Fraction(1, 2), Fraction(-7, 10)]]), Fraction(1, 20)
)
TEAM_3V3_SYM = gadgets.team3v3_gadget(
    fmat([[Fraction(3, 10), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(-7, 10)]]),
    Fraction(1, 20),
)
IRRATIONAL = analytic.irrational_game()
TENSOR_3 = NormalFormGame(
    payoffs=tuple(
        np.array([[[Fraction((7 * a + 5 * b + 3 * c + q) % 11 - 5, 4) for c in range(2)]
                   for b in range(3)] for a in range(2)], dtype=object)
        for q in range(3)
    ),
    orientation=(MAXIMIZE, MINIMIZE, MAXIMIZE),
)
SKEW_BIMATRIX = BimatrixGame(
    fmat([[3, -1, 0, 2], [Fraction(1, 3), 4, -2, 1], [0, 1, 1, Fraction(-5, 2)]]),
    fmat([[-1, 2, 0, 1], [2, Fraction(-1, 7), 3, 0], [1, 1, -4, 2]]),
    (MINIMIZE, MAXIMIZE),
)


def assert_same_result(new, old):
    assert new.iterations == old.iterations
    assert new.converged == old.converged
    assert new.max_regret == old.max_regret
    assert len(new.profile) == len(old.profile)
    for a, b in zip(new.profile.strategies, old.profile.strategies):
        assert np.array_equal(a.probs, b.probs)
    assert (new.certificate is None) == (old.certificate is None)
    if new.certificate is not None:
        assert new.certificate.regrets == old.certificate.regrets
        assert new.certificate.witnesses == old.certificate.witnesses
        assert new.certificate.satisfied == old.certificate.satisfied


# ---------------------------------------------------------------------------
# refinement: bit-identical to the prior loop


def test_refinement_matches_the_prior_loop_on_criterion_05_gadgets():
    converged = []
    for inst in _criterion_05_gadgets(6):
        for weight in (0.0, 0.7):
            start = _warm_start(inst, weight)
            new = oracle.local_ne_refine(inst.game, start, 0.05**2, max_iters=6_500)
            old = prior_local_ne_refine(inst.game, start, 0.05**2, max_iters=6_500)
            assert_same_result(new, old)
            converged.append(new.converged)
    # the cap leaves some starts short, so both exits of the loop are compared
    assert any(converged) and not all(converged)


# (1, 4, 1)/6 is not a fixed point of renormalisation, so returning the start
# as given and returning it rebuilt differ in the last bit
_OFF_FIXED_POINT = MixedStrategy(np.array([1.0, 4.0, 1.0]) / 6.0)


@pytest.mark.parametrize(
    "game, start, target, max_iters",
    [
        (PENNIES, MixedProfile((MixedStrategy(np.array([0.9, 0.1])), MixedStrategy.uniform(2))), 5e-3, 100_000),
        (PENNIES, MixedProfile((MixedStrategy.pure(2, 0), MixedStrategy.pure(2, 0))), 1e-12, 1),
        (PENNIES, MixedProfile((MixedStrategy.pure(2, 0), MixedStrategy.pure(2, 0))), 1e-12, 700),
        (SKEW_BIMATRIX, MixedProfile((_OFF_FIXED_POINT, MixedStrategy.uniform(4))), 1e-12, 1),
        (SKEW_BIMATRIX, MixedProfile((_OFF_FIXED_POINT, MixedStrategy.uniform(4))), 1e-12, 400),
        (SKEW_BIMATRIX, MixedProfile((_OFF_FIXED_POINT, MixedStrategy.uniform(4))), 1e3, 10),
    ],
)
def test_refinement_matches_the_prior_loop_on_bimatrix_games(game, start, target, max_iters):
    new = oracle.local_ne_refine(game, start, target, max_iters=max_iters)
    old = prior_local_ne_refine(game, start, target, max_iters=max_iters)
    assert_same_result(new, old)


@pytest.mark.parametrize("target, max_iters, damping", [(1e-3, 20_000, 0.1), (1e-9, 400, 1.0)])
def test_refinement_matches_the_prior_loop_on_the_irrational_game(target, max_iters, damping):
    start = _uniform(IRRATIONAL)
    new = oracle.local_ne_refine(IRRATIONAL, start, target, max_iters=max_iters, damping=damping)
    old = prior_local_ne_refine(IRRATIONAL, start, target, max_iters=max_iters, damping=damping)
    assert_same_result(new, old)


def _3v3_warm_start(inst, weight):
    """`weight` on the gadget's exact equilibrium (x, x, anchor) per team, the rest uniform."""
    eq = oracle.symmetric_support_enumeration(inst.a, orientation=MINIMIZE)[0]
    x = MixedStrategy.from_exact(eq.probs).probs
    anchor = MixedStrategy.pure(2 * inst.n + 1, 2 * inst.n).probs
    centre = [x, x, anchor, x, x, anchor]
    return MixedProfile(tuple(
        MixedStrategy(weight * centre[p] + (1 - weight) * np.ones(c) / c)
        for p, c in enumerate(inst.game.action_counts)
    ))


@pytest.mark.parametrize("weight, target, max_iters", [(0.7, 0.05**2, 6_500), (0.0, 1e-2, 1_500)])
def test_refinement_matches_the_prior_loop_on_a_3v3_gadget(weight, target, max_iters):
    game = TEAM_3V3_SYM.game
    start = _3v3_warm_start(TEAM_3V3_SYM, weight)
    new = oracle.local_ne_refine(game, start, target, max_iters=max_iters)
    old = prior_local_ne_refine(game, start, target, max_iters=max_iters)
    assert_same_result(new, old)
    assert new.converged == (weight > 0)


# ---------------------------------------------------------------------------
# the kernel: bit-identical to per-player deviation payoffs


KERNEL_GAMES = [
    PENNIES, SKEW_BIMATRIX, TEAM_2.game, TEAM_3V3.game, TEAM_3V3_SYM.game, IRRATIONAL, TENSOR_3,
]


@st.composite
def game_and_profile(draw):
    game = draw(st.sampled_from(KERNEL_GAMES))
    strategies = []
    for c in game.action_counts:
        weights = draw(
            st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=c, max_size=c)
            .filter(lambda w: sum(w) > 1e-3)
        )
        w = np.array(weights)
        strategies.append(MixedStrategy(w / w.sum()))
    return game, MixedProfile(tuple(strategies))


@settings(max_examples=300, deadline=None)
@given(game_and_profile())
def test_kernel_matches_per_player_deviation_payoffs(case):
    game, profile = case
    vectors = deviation_vectors(game, [s.probs for s in profile.strategies])
    assert len(vectors) == game.n_players
    for p in range(game.n_players):
        prior = prior_deviation_payoffs(game, profile, p)
        assert np.array_equal(vectors[p], prior)
        assert np.array_equal(deviation_payoffs(game, profile, p), prior)


@settings(max_examples=200, deadline=None)
@given(game_and_profile(), st.sampled_from([0.0, 1e-6, 0.05]))
def test_certificates_are_unchanged(case, epsilon):
    game, profile = case
    new = checks.epsilon_ne_report(game, profile, epsilon)
    old = prior_epsilon_ne_report(game, profile, epsilon)
    assert new.regrets == old.regrets
    assert new.witnesses == old.witnesses
    assert new.satisfied == old.satisfied
