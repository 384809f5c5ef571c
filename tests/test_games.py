"""Game containers, utilities, regrets, and the symmetric/skew split."""

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from minmaxlab import analytic, checks, fileio, games, gadgets, oracle
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
    best_deviation,
    decompose_symmetric_skew,
    deviation_payoffs,
    evaluate_utility,
    max_team_inconsistency,
    oriented,
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


def test_strategies_and_profiles_compare_by_identity_and_hash():
    # the generated __eq__ compared probs arrays and raised on two or more actions
    s, twin = MixedStrategy([0.5, 0.5]), MixedStrategy([0.5, 0.5])
    profile = MixedProfile((s, s))
    assert s == s and profile == profile
    assert s != twin and profile != MixedProfile((s, s))
    assert len({s, twin, profile}) == 3


def test_mixed_strategy_rejects_non_distribution():
    with pytest.raises(ValueError):
        MixedStrategy(np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        MixedStrategy(np.array([-0.2, 1.2]))


S = MixedStrategy([0.5, 0.5])


@pytest.mark.parametrize("build, error, message", [
    (lambda: MixedStrategy([np.nan, 1.0]), ValueError, "non-finite"),
    (lambda: MixedStrategy([]), DimensionError, "empty strategy"),
    (lambda: MixedStrategy.from_exact((Fraction(2, 3), Fraction(2, 3))), ValueError, "sum to"),
    # the floats pass the clamp; the exact check does not
    (lambda: MixedStrategy.from_exact((1 + Fraction(1, 10**14), -Fraction(1, 10**14))),
     ValueError, "exact strategy must lie on the simplex"),
    (lambda: MixedProfile(()), DimensionError, "empty profile"),
    (lambda: MixedProfile((S, [0.5, 0.5])), TypeError, "must be MixedStrategy"),
    (lambda: MixedProfile((S, np.array([0.5, 0.5]))), TypeError, "must be MixedStrategy"),
], ids=["nan", "empty", "exact-mass", "exact-negative",
        "empty-profile", "list-entry", "array-entry"])
def test_the_public_constructors_check_what_the_grid_constructors_skip(build, error, message):
    """Only the grid search builds points unchecked (`_grid_point`,
    `_of_strategies`); every public constructor refuses an off-simplex
    vector or a profile entry that is not a strategy, as before (see also
    test_mixed_strategy_rejects_non_distribution)."""
    with pytest.raises(error, match=message):
        build()
    assert type(MixedProfile([S, S]).strategies) is tuple


def test_matching_pennies_utilities_by_hand():
    game = matching_pennies()
    prof = MixedProfile((MixedStrategy.pure(2, 0), MixedStrategy.pure(2, 0)))
    assert evaluate_utility(game, prof, 0) == 1.0
    assert evaluate_utility(game, prof, 1) == -1.0
    assert best_deviation(deviation_payoffs(game, prof, 1), prof[1].probs, MAXIMIZE)[0] == 1
    assert checks.epsilon_ne_report(game, prof).regrets[1] == 2.0
    uniform = MixedProfile((MixedStrategy.uniform(2), MixedStrategy.uniform(2)))
    assert checks.epsilon_ne_report(game, uniform).regrets[0] == 0.0
    assert checks.epsilon_ne_report(game, uniform).regrets[1] == 0.0


def test_minimize_orientation_flips_regret():
    m = fmat([[0, 1], [2, 3]])
    game = BimatrixGame(m, m, (MINIMIZE, MINIMIZE))
    prof = MixedProfile((MixedStrategy.pure(2, 1), MixedStrategy.pure(2, 0)))
    # row player pays 2 but could pay 0 by switching to the first row
    assert checks.epsilon_ne_report(game, prof).regrets[0] == 2.0
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
    assert sym.tolist() == transpose(sym).tolist()
    assert skew.tolist() == (-transpose(skew)).tolist()
    recombined = tuple(
        tuple(sym[i][j] + skew[i][j] for j in range(3)) for i in range(3)
    )
    assert np.array_equal(recombined, m)


def test_bimatrix_symmetry_predicates():
    a = fmat([[1, 2], [2, 0]])
    game = BimatrixGame(a, a, (MAXIMIZE, MAXIMIZE))
    assert game.col_payoff.tolist() == transpose(game.row_payoff).tolist()
    assert game.identical_payoff()
    other = BimatrixGame(a, fmat([[0, 0], [0, 0]]), (MAXIMIZE, MAXIMIZE))
    assert not other.identical_payoff()


@pytest.mark.parametrize("payoffs, symmetry", [
    (([[1, 2], [2, 0]],) * 2, (True, True)),
    (([[1, 2], [2, 0]], [[1, 2], [2, 0]]), (True, True)),  # equal, not shared
    (([[0, 1], [0, 0]],) * 2, (True, False)),
    (([[1, 2], [2, 0]], [[1, 2], [2, 1]]), (False, False)),
    ((np.zeros((2, 2, 2), dtype=int),) * 3, (True, False)),  # three players
], ids=["symmetric", "equal", "shared-lopsided", "distinct", "three-player"])
def test_a_game_decides_its_symmetry_once(payoffs, symmetry):
    game = NormalFormGame(payoffs, (MAXIMIZE,) * len(payoffs))
    assert "payoff_symmetry" not in vars(game)
    assert game.payoff_symmetry == symmetry and game.identical_payoff() is symmetry[0]
    assert vars(game)["payoff_symmetry"] == symmetry  # cached on the game
    if symmetry == (True, True):
        x = MixedStrategy([0.25, 0.75])
        measured = checks.wsne_report(game, x)
        vars(game)["payoff_symmetry"] = (True, False)  # the check reads the cache alone
        with pytest.raises(PreconditionError, match="symmetric payoff matrix"):
            checks.wsne_report(game, x)
        vars(game)["payoff_symmetry"] = symmetry
        assert checks.wsne_report(game, x) == measured


def test_bimatrix_shape_mismatch_raises():
    with pytest.raises(DimensionError):
        BimatrixGame(fmat([[1, 2]]), fmat([[1], [2]]), (MAXIMIZE, MAXIMIZE))


def test_a_bimatrix_game_is_the_two_player_normal_form_with_views():
    r, c = fmat([[1, 2, 0], [3, -1, 4]]), fmat([[0, 1, 1], [2, 2, -3]])
    game = BimatrixGame(r, c, (MAXIMIZE, MINIMIZE))
    assert isinstance(game, NormalFormGame) and game.n_players == 2
    assert game.action_counts == (2, 3)
    assert game.row_payoff is game.payoffs[0] and game.col_payoff is game.payoffs[1]
    assert game.row_float is game.float_payoffs[0] and game.col_float is game.float_payoffs[1]
    assert game.row_payoff.tolist() == r.tolist() and game.col_payoff.tolist() == c.tolist()
    for view in ("row_payoff", "col_payoff", "row_float", "col_float"):
        with pytest.raises(AttributeError):
            setattr(game, view, r)


@pytest.mark.parametrize(
    "build",
    [
        lambda: NormalFormGame((np.zeros((2, 0), dtype=object),) * 2, (MAXIMIZE, MAXIMIZE)),
        lambda: NormalFormGame((np.zeros((0, 3), dtype=object),) * 2, (MAXIMIZE, MINIMIZE)),
        lambda: NormalFormGame(([],), (MAXIMIZE,)),
        lambda: NormalFormGame((np.zeros((2, 0, 2), dtype=object),) * 3, (MAXIMIZE,) * 3),
        lambda: BimatrixGame([[]], [[]]),
        lambda: BimatrixGame([], []),
    ],
)
def test_a_player_without_actions_is_refused(build):
    with pytest.raises(DimensionError, match="^empty payoff matrix$"):
        build()


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


LOPSIDED = NormalFormGame((np.ones((2, 2)), np.zeros((2, 2))), (MAXIMIZE, MINIMIZE), ({0}, {1}))


def test_team_inconsistency_flags_unequal_teammates():
    a = fmat([[1, 0], [0, 1]])
    game = PolymatrixGame(
        action_counts=(2, 2),
        pair_matrices={(0, 1): a},
        orientation=(MAXIMIZE, MINIMIZE),
        team_partition=({0}, {1}),
    )
    assert max_team_inconsistency(game) == 0.0
    # dense payoff tensors that do not cancel across the two teams
    assert max_team_inconsistency(LOPSIDED) == 1.0


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


def team_gaps(game, vectors, probs):
    """The largest gap between teammates' signed utilities, and |sum| of the
    two teams' first players', from one call's deviation vectors."""
    signed = [oriented(float(v.dot(s)), o) for v, s, o in zip(vectors, probs, game.orientation)]
    teams = [[signed[p] for p in sorted(team)] for team in game.team_partition]
    return max(max(t) - min(t) for t in teams), abs(teams[0][0] + teams[1][0])


def test_one_kernel_call_gives_teammates_one_utility_and_the_teams_opposite_ones():
    rng = np.random.default_rng(19)
    for game in kernel_corpus()[1:]:
        kernel = games.deviation_kernel(game)
        teammate = max(max(game.team_partition, key=len))
        for _ in range(8):
            probs = [MixedStrategy(rng.dirichlet(np.ones(c))).probs for c in game.action_counts]
            vectors = list(kernel(probs))
            within_team, across = team_gaps(game, vectors, probs)
            assert within_team <= 1e-12 and across <= 1e-12
            vectors[teammate] = vectors[teammate] + 1e-6
            assert max(team_gaps(game, vectors, probs)) >= 1e-7


def test_the_constructor_takes_no_exact_view():
    # two views of one strategy could name two different points
    with pytest.raises(TypeError):
        MixedStrategy([1.0, 0.0], exact=(0, 1))
    assert MixedStrategy([0.25, 0.75]).exact is None


def profile_readers():
    """Every public reader of a profile, by name: the strategies of a profile
    it accepts, and a call `read(profile)` that reads them."""
    game = BimatrixGame(MP, -MP, (MAXIMIZE, MAXIMIZE))
    uniform = (MixedStrategy.uniform(2),) * 2
    team = gadgets.team_gadget(fmat([["-3/2", -1], [-1, "-2"]]), Fraction(1, 20))
    team_ne = gadgets.canonical_team_ne(team).strategies
    team3 = gadgets.team3v3_gadget(fmat([[0, 0], [0, 0]]), Fraction(1, 10))
    flat = (MixedStrategy.pure(2, 0), MixedStrategy([0.95, 0.05]), MixedStrategy.pure(5, 4)) * 2
    return {
        "epsilon_ne_report": (uniform, lambda p: checks.epsilon_ne_report(game, p)),
        "local_ne_refine": (uniform, lambda p: oracle.local_ne_refine(game, p, 0.0, max_iters=1)),
        "ne_to_wsne": (uniform, lambda p: checks.ne_to_wsne(game, p, 0.1)),
        "mass_bound_audit": (uniform, lambda p: checks.mass_bound_audit(game, p, 0.1)),
        "team_backmap": (team_ne, lambda p: gadgets.team_backmap(team, p, 0.05**2)),
        "measure_gadget_structure": (
            team_ne, lambda p: gadgets.measure_gadget_structure(team, p, 0.05)),
        "measure_team3v3": (flat, lambda p: gadgets.measure_team3v3(team3, p, 0.1)),
        "evaluate_utility": (uniform, lambda p: evaluate_utility(game, p, 0)),
        "deviation_payoffs": (uniform, lambda p: deviation_payoffs(game, p, 0)),
    }


PROFILE_READERS = profile_readers()


@pytest.mark.parametrize("name", PROFILE_READERS)
def test_every_profile_reader_refuses_a_tuple_of_strategies(name):
    # a MixedProfile is the one profile form: no reader coerces another
    strategies, read = PROFILE_READERS[name]
    read(MixedProfile(strategies))
    with pytest.raises(TypeError, match="expected a MixedProfile, got tuple"):
        read(tuple(strategies))


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


def prior_max_team_inconsistency(game, samples=100, seed=0):
    """max_team_inconsistency as it stood when it sampled random profiles."""
    rng = np.random.default_rng(seed)
    deviations = games.deviation_kernel(game)
    worst = 0.0
    for _ in range(samples):
        probs = [MixedStrategy(rng.dirichlet(np.ones(c))).probs for c in game.action_counts]
        signed = [
            oriented(float(dev.dot(s)), o)
            for dev, s, o in zip(deviations(probs), probs, game.orientation)
        ]
        team_values = []
        for team in game.team_partition:
            vals = [signed[p] for p in sorted(team)]
            worst = max(worst, max(vals) - min(vals))
            team_values.append(vals[0])
        worst = max(worst, abs(team_values[0] + team_values[1]))
    return worst


def criterion_10_gadgets():
    """The 3v3 team gadgets of criterion 10, drawn as it draws them."""
    rng = np.random.default_rng(6180339)
    out = []
    for trial in range(10):
        n = int(rng.integers(2, 4))
        m = [[Fraction(int(rng.integers(-100, 101)), 100) for _ in range(n)] for _ in range(n)]
        if trial % 2 == 0:
            for i in range(n):
                for j in range(i, n):
                    m[j][i] = m[i][j]
        out.append(gadgets.team3v3_gadget(fmat(m), 0.05).game)
    return out


def unequal_teammates():
    """Tensor team games that read more than 0: the irrational game with one
    teammate's tensor shifted, and the lopsided 2x2 game; with their readings."""
    tensor = analytic.irrational_game().payoffs[0]
    shift = fmat([[Fraction(1, 7), 0], [0, Fraction(-3, 10)]]).reshape(2, 2, 1)
    shifted = NormalFormGame(
        (tensor, tensor + shift, tensor), (MINIMIZE, MINIMIZE, MAXIMIZE), ({0, 1}, {2})
    )
    return [(shifted, 0.3), (LOPSIDED, 1.0)]


def test_team_consistency_is_exact_and_no_sampled_reading_exceeds_it():
    """Every team gadget reads exactly 0.0, a tensor team game the largest
    entry of |T_p - T_q|, and the sampling loop never reads more."""
    shared = analytic.irrational_game()
    own_tensors = NormalFormGame(  # one tensor per player: the reading subtracts
        tuple(np.array(t) for t in shared.payoffs), shared.orientation, shared.team_partition
    )
    cases = [(g, 0.0) for g in (*kernel_corpus()[1:], *criterion_10_gadgets(), own_tensors)]
    for game, exact in cases + unequal_teammates():
        assert max_team_inconsistency(game) == exact
        for seed in (0, 5):
            assert prior_max_team_inconsistency(game, 20, seed) <= exact + 1e-12


def test_team_consistency_ignores_samples_and_seed():
    for game, _ in unequal_teammates():
        assert max_team_inconsistency(game, 1, 0) == max_team_inconsistency(game, 500, 9)


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


def prior_fraction_sum_tensor(game):
    """to_normal_form's tensor as the broadcast sum of Fraction pair blocks built it."""
    counts = game.action_counts
    u = np.full(counts, Fraction(0), dtype=object)
    for (i, j), m in game.pair_matrices.items():
        axes = [c if q in (i, j) else 1 for q, c in enumerate(counts)]
        u += (m.T if i > j else m).reshape(axes)
    return u


@pytest.mark.parametrize("n", [2, 3])
def test_to_normal_form_matches_the_fraction_sum_of_the_blocks(n):
    """The integer sum over one denominator gives every cell the Fraction
    that summing the blocks in Fraction arithmetic gave, in lowest terms."""
    rng = np.random.default_rng(30 + n)
    m = fmat([[Fraction(int(v), 60) for v in row] for row in rng.integers(-60, 61, (n, n))])
    sym = fmat([[(m[i][j] + m[j][i]) / 2 for j in range(n)] for i in range(n)])
    for game in (
        gadgets.team_gadget(gadgets.shift_to_gadget_range(sym)[0], "1/20").game,
        gadgets.team3v3_gadget(m, "3/70").game,
    ):
        expected = prior_fraction_sum_tensor(game).ravel().tolist()
        for tensor in to_normal_form(game).payoffs:
            got = tensor.ravel().tolist()
            assert [(v.numerator, v.denominator) for v in got] == [
                (v.numerator, v.denominator) for v in expected
            ]
            assert all(type(v) is Fraction for v in got)


_B = fmat([[Fraction(1, 3), -1], [2, Fraction(-5, 7)]])
_T = np.array([[[Fraction(a + 2 * b - c, 3) for c in range(2)] for b in range(3)]
               for a in range(2)], dtype=object)
SHARED_TENSOR_GAMES = {  # games whose players are all handed one tensor object
    "to_normal_form": lambda: to_normal_form(
        gadgets.team3v3_gadget(fmat([[Fraction(3, 10), -1], [Fraction(1, 2), 0]]), "1/20").game
    ),
    "BimatrixGame(b, b)": lambda: BimatrixGame(_B, _B),
    "NormalFormGame((t,) * 3)": lambda: NormalFormGame((_T,) * 3, (MAXIMIZE, MINIMIZE, MAXIMIZE)),
    "tensor file": lambda: fileio.game_from_dict(fileio.game_to_dict(BimatrixGame(_B, _B))),
}


@pytest.mark.parametrize("case", SHARED_TENSOR_GAMES)
def test_one_tensor_handed_to_every_player_is_stored_and_mirrored_once(case):
    game = SHARED_TENSOR_GAMES[case]()
    assert all(t is game.payoffs[0] for t in game.payoffs)
    assert all(m is game.float_payoffs[0] for m in game.float_payoffs)
    # the cells and mirror bytes of one coercion per player, as before
    copies = NormalFormGame(
        tuple(np.array(game.payoffs[0]) for _ in range(game.n_players)), game.orientation
    )
    assert len({id(t) for t in copies.payoffs}) == game.n_players
    for t, m, t0, m0 in zip(game.payoffs, game.float_payoffs, copies.payoffs, copies.float_payoffs):
        assert [(v.numerator, v.denominator) for v in t.flat] == [
            (v.numerator, v.denominator) for v in t0.flat
        ]
        assert all(type(v) is Fraction for v in t.flat)
        assert m.tobytes() == m0.tobytes() and not m.flags.writeable

