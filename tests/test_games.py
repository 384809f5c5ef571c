"""Game containers, utilities, regrets, and the symmetric/skew split."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from minmaxlab import analytic, games, gadgets
from minmaxlab.errors import DimensionError, PreconditionError
from minmaxlab.games import (
    MAXIMIZE,
    MINIMIZE,
    BimatrixGame,
    MixedProfile,
    MixedStrategy,
    NormalFormGame,
    PolymatrixGame,
    SUPPORT_TOL,
    as_profile,
    best_deviation,
    decompose_symmetric_skew,
    deviation_payoffs,
    evaluate_utility,
    max_team_inconsistency,
    oriented,
    regret,
    to_normal_form,
)
from minmaxlab.rational import fmat, transpose

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=32)

MP = fmat([[1, -1], [-1, 1]])  # matching pennies


def matching_pennies():
    return BimatrixGame(MP, fmat([[-1, 1], [1, -1]]), (MAXIMIZE, MAXIMIZE))


def test_mixed_strategy_constructors():
    u = MixedStrategy.uniform(4)
    assert np.allclose(u.probs, 0.25)
    e2 = MixedStrategy.pure(3, 2)
    assert e2.probs.tolist() == [0.0, 0.0, 1.0]
    assert np.flatnonzero(e2.probs > SUPPORT_TOL).tolist() == [2]
    s = MixedStrategy.from_exact((Fraction(1, 3), Fraction(2, 3)))
    assert s.exact == (Fraction(1, 3), Fraction(2, 3))


def test_mixed_strategy_rejects_non_distribution():
    with pytest.raises(ValueError):
        MixedStrategy(np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        MixedStrategy(np.array([-0.2, 1.2]))


def test_matching_pennies_utilities_by_hand():
    game = matching_pennies()
    prof = MixedProfile((MixedStrategy.pure(2, 0), MixedStrategy.pure(2, 0)))
    assert evaluate_utility(game, prof, 0) == 1.0
    assert evaluate_utility(game, prof, 1) == -1.0
    assert best_deviation(deviation_payoffs(game, prof, 1), prof[1].probs, MAXIMIZE)[0] == 1
    assert regret(game, prof, 1) == 2.0
    uniform = MixedProfile((MixedStrategy.uniform(2), MixedStrategy.uniform(2)))
    assert regret(game, uniform, 0) == 0.0
    assert regret(game, uniform, 1) == 0.0


def test_minimize_orientation_flips_regret():
    m = fmat([[0, 1], [2, 3]])
    game = BimatrixGame(m, m, (MINIMIZE, MINIMIZE))
    prof = MixedProfile((MixedStrategy.pure(2, 1), MixedStrategy.pure(2, 0)))
    # row player pays 2 but could pay 0 by switching to the first row
    assert regret(game, prof, 0) == 2.0
    assert oriented(evaluate_utility(game, prof, 0), MINIMIZE) == -2.0


def test_deviation_payoffs_column_player_uses_transpose():
    game = matching_pennies()
    prof = MixedProfile((MixedStrategy.pure(2, 0), MixedStrategy.uniform(2)))
    dev = deviation_payoffs(game, prof, 1)
    assert dev.tolist() == [-1.0, 1.0]


@given(st.lists(st.lists(fractions, min_size=3, max_size=3), min_size=3, max_size=3))
def test_decompose_symmetric_skew_roundtrip(rows):
    m = fmat(rows)
    sym, skew = decompose_symmetric_skew(m)
    assert sym == transpose(sym)
    assert skew == tuple(tuple(-x for x in row) for row in transpose(skew))
    recombined = tuple(
        tuple(sym[i][j] + skew[i][j] for j in range(3)) for i in range(3)
    )
    assert recombined == m


def test_bimatrix_symmetry_predicates():
    a = fmat([[1, 2], [2, 0]])
    game = BimatrixGame(a, a, (MAXIMIZE, MAXIMIZE))
    assert game.col_payoff == transpose(game.row_payoff)
    assert game.identical_payoff()
    other = BimatrixGame(a, fmat([[0, 0], [0, 0]]), (MAXIMIZE, MAXIMIZE))
    assert not other.identical_payoff()


def test_bimatrix_shape_mismatch_raises():
    with pytest.raises(DimensionError):
        BimatrixGame(fmat([[1, 2]]), fmat([[1], [2]]), (MAXIMIZE, MAXIMIZE))


def two_link_chain():
    """Three players in a line; the middle one plays two independent pair games."""
    a = fmat([[1, 0], [0, 1]])
    b = fmat([[0, 2], [2, 0]])
    return PolymatrixGame(
        action_counts=(2, 2, 2),
        pair_matrices={(0, 1): a, (1, 2): b},
        orientation=(MAXIMIZE, MAXIMIZE, MINIMIZE),
    )


def test_polymatrix_matches_its_normal_form():
    game = two_link_chain()
    dense = to_normal_form(game)
    rng = np.random.default_rng(7)
    for _ in range(20):
        strategies = []
        for count in game.action_counts:
            raw = rng.random(count)
            strategies.append(MixedStrategy(raw / raw.sum()))
        prof = MixedProfile(tuple(strategies))
        for player in range(3):
            assert evaluate_utility(game, prof, player) == pytest.approx(
                evaluate_utility(dense, prof, player), abs=1e-12
            )


def test_team_inconsistency_flags_unequal_teammates():
    a = fmat([[1, 0], [0, 1]])
    game = PolymatrixGame(
        action_counts=(2, 2),
        pair_matrices={(0, 1): a},
        orientation=(MAXIMIZE, MINIMIZE),
        team_partition=({0}, {1}),
    )
    assert max_team_inconsistency(game, samples=32, seed=3) <= 1e-12
    # dense payoff tensors that do not cancel across the two teams
    ones = np.ones((2, 2))
    lopsided = NormalFormGame(
        (ones, np.zeros((2, 2))),
        (MAXIMIZE, MINIMIZE),
        team_partition=({0}, {1}),
    )
    assert max_team_inconsistency(lopsided, samples=32, seed=3) > 0.01


def test_partition_with_aligned_orientations_is_rejected():
    a = fmat([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        PolymatrixGame(
            action_counts=(2, 2),
            pair_matrices={(0, 1): a},
            orientation=(MAXIMIZE, MAXIMIZE),
            team_partition=({0}, {1}),
        )


def test_normal_form_partition_with_aligned_orientations_is_rejected():
    # both teams maximizing the same payoff is not a team game; the tensor
    # form used to load it (and max_team_inconsistency read 1.11 on it)
    a = [[1, 0], [0, 1]]
    with pytest.raises(ValueError, match="opposite directions"):
        NormalFormGame((a, a), (MAXIMIZE, MAXIMIZE), team_partition=([0], [1]))
    with pytest.raises(ValueError, match="share an orientation"):
        NormalFormGame(
            (np.zeros((2, 2, 2)),) * 3, (MAXIMIZE, MINIMIZE, MINIMIZE), team_partition=({0, 1}, {2})
        )
    game = NormalFormGame((a, a), (MAXIMIZE, MINIMIZE), team_partition=([0], [1]))
    assert game.team_partition == (frozenset({0}), frozenset({1}))


def test_normal_form_tensor_utilities():
    payoffs = np.zeros((2, 2))
    payoffs[0, 0] = 1.0
    game = NormalFormGame((payoffs, -payoffs), (MAXIMIZE, MAXIMIZE))
    prof = MixedProfile((MixedStrategy.uniform(2), MixedStrategy.uniform(2)))
    assert evaluate_utility(game, prof, 0) == pytest.approx(0.25)
    assert evaluate_utility(game, prof, 1) == pytest.approx(-0.25)


def prior_evaluate_utility(game, profile, player):
    """The three-branch contraction evaluate_utility ran before it read the deviation kernel."""
    profile = as_profile(profile)
    if isinstance(game, BimatrixGame):
        x, y = profile[0].probs, profile[1].probs
        m = game.row_float if player == 0 else game.col_float
        return float(x @ m @ y)
    if isinstance(game, PolymatrixGame):
        total = 0.0
        for (i, j), m in game.pair_floats.items():
            total += float(profile[i].probs @ m @ profile[j].probs)
        return total
    t = game.float_payoffs[player]
    for s in profile.strategies:
        t = np.tensordot(s.probs, t, axes=(0, 0))
    return float(t)


def kernel_corpus():
    """A bimatrix game, team and 3v3 polymatrix gadgets, and the irrational team game."""
    rng = np.random.default_rng(16)
    corpus = [
        BimatrixGame(
            fmat(rng.integers(-9, 10, (3, 4)).tolist()),
            fmat(rng.integers(-9, 10, (3, 4)).tolist()),
            (MAXIMIZE, MINIMIZE),
        ),
        analytic.irrational_game(),
    ]
    for n in (2, 3):
        m = fmat([[Fraction(int(v), 100) for v in row] for row in rng.integers(-100, 101, (n, n))])
        sym = fmat([[(m[i][j] + m[j][i]) / 2 for j in range(n)] for i in range(n)])
        corpus.append(gadgets.team_gadget(gadgets.shift_to_gadget_range(sym)[0], "1/20").game)
        corpus.append(gadgets.team3v3_gadget(m, "1/20").game)
    return corpus


def test_evaluate_utility_matches_the_prior_contraction():
    rng = np.random.default_rng(17)
    for game in kernel_corpus():
        for _ in range(10):
            prof = MixedProfile(
                tuple(MixedStrategy(rng.dirichlet(np.ones(c))) for c in game.action_counts)
            )
            for player in range(game.n_players):
                old = prior_evaluate_utility(game, prof, player)
                new = evaluate_utility(game, prof, player)
                assert abs(new - old) <= 1e-12 * max(1.0, abs(old)), (type(game).__name__, player)


def test_team_consistency_reads_the_kernel_of_each_teammate(monkeypatch):
    real = games.deviation_vectors

    def shifted(game, probs):
        vecs = real(game, probs)
        vecs[teammate] = vecs[teammate] + 1e-6
        return vecs

    for game in kernel_corpus()[2:]:
        assert max_team_inconsistency(game, samples=8, seed=1) <= 1e-12
        teammate = max(max(game.team_partition, key=len))
        monkeypatch.setattr(games, "deviation_vectors", shifted)
        assert max_team_inconsistency(game, samples=8, seed=1) >= 1e-7
        monkeypatch.setattr(games, "deviation_vectors", real)
