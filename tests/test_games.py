"""Game containers, utilities, regrets, and the symmetric/skew split."""

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

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
from minmaxlab.rational import FVec, fmat, fvec, transpose

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
    real = games.deviation_kernel

    def shifted(game):
        kernel = real(game)

        def shifted_kernel(probs):
            vecs = list(kernel(probs))
            vecs[teammate] = vecs[teammate] + 1e-6
            return vecs

        return shifted_kernel

    for game in kernel_corpus()[2:]:
        assert max_team_inconsistency(game, samples=8, seed=1) <= 1e-12
        teammate = max(max(game.team_partition, key=len))
        monkeypatch.setattr(games, "deviation_kernel", shifted)
        assert max_team_inconsistency(game, samples=8, seed=1) >= 1e-7
        monkeypatch.setattr(games, "deviation_kernel", real)


def test_the_constructor_takes_no_exact_view():
    # two views of one strategy could name two different points
    with pytest.raises(TypeError):
        MixedStrategy([1.0, 0.0], exact=(0, 1))
    assert MixedStrategy([0.25, 0.75]).exact is None


@dataclass(frozen=True)
class PriorMixedStrategy:
    """MixedStrategy as it stood when its constructor took an exact view too."""

    probs: np.ndarray
    exact: FVec | None = None

    def __post_init__(self):
        v = np.array(self.probs, dtype=float).reshape(-1)
        games.require_simplex(v)
        v[v < 0.0] = 0.0
        v /= v.sum()
        v.flags.writeable = False
        object.__setattr__(self, "probs", v)
        if self.exact is not None:
            e = fvec(self.exact)
            if len(e) != v.size:
                raise DimensionError("exact and float views disagree on length")
            if any(p < 0 for p in e) or sum(e) != 1:
                raise ValueError("exact strategy must lie on the simplex")
            object.__setattr__(self, "exact", e)

    @classmethod
    def from_exact(cls, values: Iterable) -> "PriorMixedStrategy":
        e = fvec(values)
        return cls(np.array([float(p) for p in e]), exact=e)


@st.composite
def rational_vectors(draw):
    """Vectors on the simplex, nudged off it, or free, with small or huge denominators."""
    n = draw(st.integers(0, 5))
    digits = draw(st.sampled_from([2, 30]))
    kind = draw(st.sampled_from(["simplex", "nudged", "free"]))
    if kind == "free":
        bound = Fraction(2)
        entries = st.fractions(min_value=-bound, max_value=bound, max_denominator=10**digits)
        return draw(st.lists(entries, min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(0, 10**digits), min_size=n, max_size=n))
    total = sum(weights)
    vec = [Fraction(w, total) if total else Fraction(0) for w in weights]
    if kind == "nudged" and n:
        i = draw(st.integers(0, n - 1))
        vec[i] += Fraction(draw(st.integers(-3, 3)), 10 ** draw(st.integers(1, 40)))
    return vec


def built(make, values):
    try:
        s = make(values)
    except Exception as exc:  # noqa: BLE001 - the failure is what is compared
        return type(exc), str(exc)
    return s.probs.tobytes(), s.exact


@given(rational_vectors())
@example([])
@example([Fraction(-1, 10**14), 1 + Fraction(1, 10**14)])
@example([Fraction(1, 3), Fraction(1, 3)])
@example([Fraction(10**400), 1 - Fraction(10**400)])
@example([Fraction(1, 10**400), 1 - Fraction(1, 10**400)])
def test_from_exact_matches_the_prior_constructor(values):
    new, old = built(MixedStrategy.from_exact, values), built(PriorMixedStrategy.from_exact, values)
    assert new == old
    if not isinstance(new[0], type):
        assert all(type(p) is Fraction for p in new[1])


def prior_max_team_inconsistency(game, samples, seed):
    """max_team_inconsistency as it stood with a kernel built per sample."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        probs = [MixedStrategy(rng.dirichlet(np.ones(c))).probs for c in game.action_counts]
        signed = [
            oriented(float(dev.dot(s)), o)
            for dev, s, o in zip(games.deviation_vectors(game, probs), probs, game.orientation)
        ]
        team_values = []
        for team in game.team_partition:
            vals = [signed[p] for p in sorted(team)]
            worst = max(worst, max(vals) - min(vals))
            team_values.append(vals[0])
        worst = max(worst, abs(team_values[0] + team_values[1]))
    return worst


def test_team_consistency_matches_a_kernel_per_sample():
    for game in kernel_corpus()[1:]:
        for seed in (0, 5):
            assert max_team_inconsistency(game, 20, seed) == prior_max_team_inconsistency(
                game, 20, seed
            )


def prior_normal_form_tensor(game):
    """to_normal_form's tensor as the per-profile loop built it."""
    u = np.empty(game.action_counts, dtype=object)
    for idx in np.ndindex(*game.action_counts):
        acc = Fraction(0)
        for (i, j), m in game.pair_matrices.items():
            acc += m[idx[i]][idx[j]]
        u[idx] = acc
    return u


# player 3 is in no pair, and the pairs (1, 0) and (2, 0) are reversed
IDLE_AND_REVERSED = PolymatrixGame(
    action_counts=(2, 3, 2, 3),
    pair_matrices={
        (1, 0): fmat([[1, Fraction(-1, 3)], [0, 2], [Fraction(5, 7), -1]]),
        (0, 2): fmat([[Fraction(-3, 2), 1], [Fraction(1, 4), Fraction(-2, 3)]]),
        (2, 0): fmat([[Fraction(2, 5), -1], [1, Fraction(1, 9)]]),
        (1, 2): fmat([[-1, Fraction(3, 4)], [Fraction(1, 6), 0], [2, Fraction(-7, 5)]]),
    },
    orientation=(MAXIMIZE, MINIMIZE, MAXIMIZE, MINIMIZE),
)


def test_to_normal_form_matches_the_per_profile_loop():
    rng = np.random.default_rng(20)
    corpus = [IDLE_AND_REVERSED, two_link_chain()]
    for n in (1, 2, 3):
        m = fmat([[Fraction(int(v), 100) for v in row] for row in rng.integers(-100, 101, (n, n))])
        sym = fmat([[(m[i][j] + m[j][i]) / 2 for j in range(n)] for i in range(n)])
        corpus.append(gadgets.team_gadget(gadgets.shift_to_gadget_range(sym)[0], "1/20").game)
        corpus.append(gadgets.team3v3_gadget(m, "1/20").game)
    for game in corpus:
        dense = to_normal_form(game)
        expected = prior_normal_form_tensor(game)
        assert dense.orientation == game.orientation
        assert dense.team_partition == game.team_partition
        for tensor in dense.payoffs:
            assert tensor.shape == expected.shape
            assert tensor.tolist() == expected.tolist()
            assert all(type(v) is Fraction for v in tensor.flat)
