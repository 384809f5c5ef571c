"""The all-player deviation kernel, the raw-array refinement loop and its stall rule.

Both are checked bit for bit against the implementation they replaced,
kept below as a test-only reference: per-player `deviation_payoffs` on
validated profiles, the certificate built from it, and a refinement loop
that rebuilt a validated profile on every iteration.  The reference has
no stall rule, so a start the rule stops is compared with the reference
capped at the iteration where it stopped.
"""

import math
import string
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    deviation_kernel,
    deviation_payoffs,
    deviation_vectors,
)
from minmaxlab.rational import fmat

# ---------------------------------------------------------------------------
# the prior implementation (reference only)


def prior_deviation_payoffs(game, profile, player):
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
    satisfied = all(r <= epsilon + 1e-12 for r in regrets)
    cert = checks.Certificate(epsilon=float(epsilon), witnesses=tuple(witnesses))
    assert (cert.regrets, cert.satisfied) == (tuple(regrets), satisfied)
    return cert


def prior_local_ne_refine(game, start, target_regret, max_iters=100_000, damping=0.1):
    profile = start
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


def _criterion_05_trials(count):
    """The first `count` trials of criterion 05: each team gadget and its seven
    starts, built as `test_acceptance.refined_profile` builds them."""
    rng = np.random.default_rng(6180339)
    out = []
    for trial in range(count):
        n = 2 + trial % 2
        inst = gadgets.team_gadget(_rand_sym_matrix(rng, n, 100, 200, -100), Fraction(1, 20))
        counts = inst.game.action_counts
        starts = [_uniform(inst.game)]
        for _ in range(5):
            starts.append(MixedProfile(tuple(
                MixedStrategy(rng.dirichlet(np.ones(c))) for c in counts
            )))
        canonical = gadgets.canonical_team_ne(inst)
        starts.append(MixedProfile(tuple(
            MixedStrategy(0.7 * canonical[p].probs + 0.3 * np.ones(c) / c)
            for p, c in enumerate(counts)
        )))
        out.append((inst, starts))
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
PENNIES_PURE = MixedProfile((MixedStrategy.pure(2, 0), MixedStrategy.pure(2, 0)))
PENNIES_SKEWED = MixedProfile((MixedStrategy(np.array([0.9, 0.1])), MixedStrategy.uniform(2)))
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
# player 0 is in three pairs, (1, 0), (0, 2) and (2, 0); player 3 is in none,
# so its deviation vector is the constant alone; each of the kernel's first
# and later products runs for both ends of a pair
FOUR_PLAYER = PolymatrixGame(
    action_counts=(2, 3, 2, 3),
    pair_matrices={
        (1, 0): fmat([[1, Fraction(-1, 3)], [0, 2], [Fraction(5, 7), -1]]),
        (0, 2): fmat([[Fraction(-3, 2), 1], [Fraction(1, 4), Fraction(-2, 3)]]),
        (2, 0): fmat([[Fraction(2, 5), -1], [1, Fraction(1, 9)]]),
        (1, 2): fmat([[-1, Fraction(3, 4)], [Fraction(1, 6), 0], [2, Fraction(-7, 5)]]),
    },
    orientation=(MAXIMIZE, MINIMIZE, MAXIMIZE, MINIMIZE),
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


def refine_matches_prior(game, start, target, max_iters, damping=0.1):
    """Run the loop; compare it with the prior one, capped where the rule stopped it."""
    new = oracle.local_ne_refine(game, start, target, max_iters=max_iters, damping=damping)
    if new.stalled_at is not None:
        assert not new.converged and new.iterations == new.stalled_at < max_iters
        max_iters = new.stalled_at
    old = prior_local_ne_refine(game, start, target, max_iters=max_iters, damping=damping)
    assert_same_result(new, old)
    return new


# ---------------------------------------------------------------------------
# refinement: bit-identical to the prior loop


def test_refinement_matches_the_prior_loop_on_criterion_05_gadgets():
    exits = []
    for inst, _ in _criterion_05_trials(6):
        for weight in (0.0, 0.7):
            new = refine_matches_prior(inst.game, _warm_start(inst, weight), 0.05**2, 6_500)
            exits.append((new.converged, new.stalled_at))
    # two uniform starts at n = 3 stall, at 500 and 2000; the rest converge
    assert exits.count((True, None)) == 10
    assert sorted(at for ok, at in exits if not ok) == [500, 2_000]


# (1, 4, 1)/6 is not a fixed point of renormalisation, so returning the start
# as given and returning it rebuilt differ in the last bit
_OFF_FIXED_POINT = MixedStrategy(np.array([1.0, 4.0, 1.0]) / 6.0)


@pytest.mark.parametrize(
    "game, start, target, max_iters",
    [
        (PENNIES, PENNIES_SKEWED, 5e-3, 100_000),
        (PENNIES, PENNIES_PURE, 1e-12, 1),
        (PENNIES, PENNIES_PURE, 1e-12, 700),  # the stall rule stops it at 500
        (SKEW_BIMATRIX, MixedProfile((_OFF_FIXED_POINT, MixedStrategy.uniform(4))), 1e-12, 1),
        (SKEW_BIMATRIX, MixedProfile((_OFF_FIXED_POINT, MixedStrategy.uniform(4))), 1e-12, 400),
        (SKEW_BIMATRIX, MixedProfile((_OFF_FIXED_POINT, MixedStrategy.uniform(4))), 1e3, 10),
    ],
)
def test_refinement_matches_the_prior_loop_on_bimatrix_games(game, start, target, max_iters):
    refine_matches_prior(game, start, target, max_iters)


@pytest.mark.parametrize("target, max_iters, damping", [(1e-3, 20_000, 0.1), (1e-9, 400, 1.0)])
def test_refinement_matches_the_prior_loop_on_the_irrational_game(target, max_iters, damping):
    refine_matches_prior(IRRATIONAL, _uniform(IRRATIONAL), target, max_iters, damping)


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
    start = _3v3_warm_start(TEAM_3V3_SYM, weight)
    new = refine_matches_prior(TEAM_3V3_SYM.game, start, target, max_iters)
    assert new.converged == (weight > 0)
    # the uniform start halves its regret per doubling: the cap ends it, not the rule
    assert new.stalled_at is None


@pytest.mark.parametrize(
    "target, max_iters, damping, exit",
    [
        (1e-2, 3_000, 0.1, (True, None)),
        (1e-3, 400, 0.1, (False, None)),
        (1e-4, 3_000, 0.1, (False, 500)),
        (1e-3, 3_000, 1.0, (False, 1_000)),
    ],
)
def test_refinement_matches_the_prior_loop_with_a_player_in_no_pair(
    target, max_iters, damping, exit
):
    new = refine_matches_prior(FOUR_PLAYER, _uniform(FOUR_PLAYER), target, max_iters, damping)
    assert (new.converged, new.stalled_at) == exit


def _dense_pair(rows, cols, seed):
    return fmat([
        [Fraction((seed * (3 * a + 1) + 5 * b * b + 7 * a * b) % 23 - 11, 6) for b in range(cols)]
        for a in range(rows)
    ])


# one player below numpy's 8-entry pairwise block and two at or above it, so
# the loop totals one segment in Python and two with np.add.reduce; player 1
# minimises what players 0 and 2 maximise, and the regret falls for thousands
# of iterations, long enough for a last-bit change in a total to show
MIXED_TOTALS = PolymatrixGame(
    action_counts=(7, 8, 9),
    pair_matrices={(0, 1): _dense_pair(7, 8, 2), (2, 1): _dense_pair(9, 8, 5)},
    orientation=(MAXIMIZE, MINIMIZE, MAXIMIZE),
)


@pytest.mark.parametrize(
    "seed, target, damping, exit",
    [
        (None, 0.03, 1.0, (True, None, 1_972)),
        (3, 0.03, 1.0, (True, None, 1_998)),
        (6, 0.022, 0.1, (True, None, 2_756)),
        (3, 0.022, 0.1, (False, None, 3_000)),
        (3, 0.01, 1.0, (False, 1_000, 1_000)),
    ],
)
def test_refinement_matches_the_prior_loop_on_segments_on_both_sides_of_the_block(
    seed, target, damping, exit
):
    rng = np.random.default_rng(seed)
    start = _uniform(MIXED_TOTALS) if seed is None else MixedProfile(tuple(
        MixedStrategy(rng.dirichlet(np.ones(c))) for c in MIXED_TOTALS.action_counts
    ))
    new = refine_matches_prior(MIXED_TOTALS, start, target, 3_000, damping)
    assert (new.converged, new.stalled_at, new.iterations) == exit


@st.composite
def polymatrix_structures(draw):
    """2-5 players of 1-10 actions, any set of ordered pairs in any order
    (none, or all 20, so a player may be in up to 8 pairs or in none), any
    orientations, a seed for the matrices and the Dirichlet start, a damping
    in (0, 1], 1-300 iterations and a target."""
    n = draw(st.integers(2, 5))
    counts = tuple(draw(st.lists(st.integers(1, 10), min_size=n, max_size=n)))
    ordered = [(i, j) for i in range(n) for j in range(n) if i != j]
    kept = draw(st.lists(st.booleans(), min_size=len(ordered), max_size=len(ordered)))
    pairs = tuple(draw(st.permutations([pair for pair, k in zip(ordered, kept) if k])))
    orientation = tuple(draw(st.lists(orientations, min_size=n, max_size=n)))
    damping = draw(st.floats(0.0, 1.0, exclude_min=True))
    return (counts, pairs, orientation, draw(st.integers(0, 2**32 - 1)), damping,
            draw(st.integers(1, 300)), draw(st.sampled_from([0.0, 1e-3, 0.05])))


def random_polymatrix(counts, pairs, orientation, seed):
    """The game of a drawn structure, with entries a/b, |a| <= 9, b in {1, 2, 3, 5, 7},
    and a Dirichlet start."""
    rng = np.random.default_rng(seed)
    matrices = {
        (i, j): fmat([[Fraction(int(rng.integers(-9, 10)), int(rng.choice([1, 2, 3, 5, 7])))
                       for _ in range(counts[j])] for _ in range(counts[i])])
        for i, j in pairs
    }
    game = PolymatrixGame(counts, matrices, orientation)
    start = MixedProfile(tuple(MixedStrategy(rng.dirichlet(np.ones(c))) for c in counts))
    return game, start


@settings(max_examples=60, deadline=None)
@given(polymatrix_structures())
# player 0 is in four pairs, so its products fill four rank slots, and
# player 4 is in none; two players total a segment of 8 or more entries
@example(((3, 9, 1, 10, 2), ((0, 1), (2, 0), (1, 3), (0, 3), (1, 0)),
          (MAXIMIZE, MINIMIZE, MINIMIZE, MAXIMIZE, MAXIMIZE), 39, 0.3, 300, 1e-3))
@example(((4, 2, 6), (), (MINIMIZE, MAXIMIZE, MAXIMIZE), 5, 1.0, 40, 0.0))  # no pair at all
def test_refinement_and_kernel_match_the_prior_on_random_structures(case):
    counts, pairs, orientation, seed, damping, max_iters, target = case
    game, start = random_polymatrix(counts, pairs, orientation, seed)
    new = refine_matches_prior(game, start, target, max_iters, damping)
    kernel = deviation_kernel(game)
    for profile in (start, new.profile):
        vectors = kernel([s.probs for s in profile.strategies])
        for p in range(game.n_players):
            assert vectors[p].tobytes() == prior_deviation_payoffs(game, profile, p).tobytes()


# ---------------------------------------------------------------------------
# segment totals: a Python loop below the pairwise block, np.add.reduce above


def _loop_total(s):
    """The refinement loop's total of a short segment."""
    total = 0.0
    for x in s.tolist():
        total += x
    return total


@st.composite
def short_segments(draw):
    """1 to 7 non-negative entries: ties, zeros, subnormals, one large entry
    with tiny ones, or a Dirichlet point near the simplex."""
    n = draw(st.integers(1, oracle._PAIRWISE_BLOCK - 1))
    kind = draw(st.sampled_from(["ties", "zeros", "subnormal", "tiny tail", "simplex"]))
    if kind == "ties":
        return np.full(n, draw(st.floats(0.0, 1.0)))
    if kind == "zeros":
        zeros = st.sampled_from([0.0, -0.0, 0.5, 1.0])
        return np.array(draw(st.lists(zeros, min_size=n, max_size=n)))
    if kind == "subnormal":
        return np.array(draw(st.lists(
            st.floats(0.0, 1e-307, allow_subnormal=True), min_size=n, max_size=n
        )))
    if kind == "tiny tail":
        return np.array([1.0] + [2.0**-53] * (n - 1))
    w = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).dirichlet(np.ones(n))
    return w * draw(st.sampled_from([1.0, 1.0 - 2.0**-52, 1.0 + 2.0**-52]))


@settings(max_examples=500, deadline=None)
@given(short_segments())
def test_a_short_segment_is_totalled_with_np_add_reduce_bits(s):
    assert np.float64(_loop_total(s)).tobytes() == np.add.reduce(s).tobytes()


def test_at_the_pairwise_block_np_add_reduce_sums_otherwise():
    # left to right each 2^-53 rounds away against 1.0; pairwise, they first
    # meet each other
    s = np.array([1.0] + [2.0**-53] * (oracle._PAIRWISE_BLOCK - 1))
    assert _loop_total(s) == 1.0 < np.add.reduce(s)


# ---------------------------------------------------------------------------
# the stall rule


# one step of fictitious play from here raises the regret from 2e-4 to about 0.1,
# and by iteration 500 it has not come back down: the best is still the start
NEAR_EQUILIBRIUM = MixedProfile((MixedStrategy(np.array([0.5001, 0.4999])), MixedStrategy.uniform(2)))


@pytest.mark.parametrize("target", [1e-6, 0.0])
def test_a_start_whose_best_regret_stays_flat_stops_at_500(target):
    result = oracle.local_ne_refine(PENNIES, NEAR_EQUILIBRIUM, target)
    assert not result.converged
    assert result.stalled_at == result.iterations == 500
    (_, at_250), (_, at_500) = result.checkpoints
    assert at_250 == at_500 == result.max_regret
    assert [s.probs.tolist() for s in result.profile.strategies] == [[0.5001, 0.4999], [0.5, 0.5]]


def test_with_target_zero_only_the_flat_check_fires():
    # from the pure start the regret keeps falling, but too slowly to reach 1e-12
    assert oracle.local_ne_refine(PENNIES, PENNIES_PURE, 1e-12, max_iters=4_000).stalled_at == 500
    result = oracle.local_ne_refine(PENNIES, PENNIES_PURE, 0.0, max_iters=4_000)
    assert result.stalled_at is None and result.iterations == 4_000
    regrets = [b for _, b in result.checkpoints]
    assert len(regrets) == 5 and all(a > b for a, b in zip(regrets, regrets[1:]))


def test_projected_finish_is_compared_with_four_times_the_cap():
    # halving per doubling from 1 at t = 1000, the target 1/8 is 3 doublings
    # away: a finish at 8,000 iterations
    assert not oracle._stalled(2.0, 1.0, 1 / 8, 1_000, 2_001)
    assert oracle._stalled(2.0, 1.0, 1 / 8, 1_000, 1_999)
    assert oracle._stalled(1.0, 1.0, 1 / 8, 1_000, 10**9)
    assert not oracle._stalled(1.0 + 1e-15, 1.0, 0.0, 1_000, 2_000)


# (start index, iteration) at which each trial of criterion 05 converges; the
# loop without the stall rule converges at the same iterations, and spends
# 980,104 iterations on the protocol, 900,000 of them on 36 starts that
# reach 25,000 without converging
CRITERION_05_FINISH = [
    (0, 3823), (6, 1751), (0, 5637), (6, 1603), (0, 5580), (0, 5300), (0, 4168),
    (0, 4621), (0, 4773), (6, 1640), (0, 4312), (0, 5485), (0, 4744), (6, 1742),
    (0, 5090), (6, 1705), (0, 4543), (0, 6102), (0, 5752), (6, 1733),
]


def test_criterion_05_converges_where_it_did_and_stops_the_rest_early():
    finish = []
    total = 0
    for inst, starts in _criterion_05_trials(20):
        for k, start in enumerate(starts):
            result = oracle.local_ne_refine(inst.game, start, 0.05**2, max_iters=25_000)
            total += result.iterations
            if result.converged:
                finish.append((k, result.iterations))
                break
            assert result.stalled_at is not None
    assert finish == CRITERION_05_FINISH
    assert total == 101_104


# ---------------------------------------------------------------------------
# the kernel: bit-identical to per-player deviation payoffs


KERNEL_GAMES = [
    PENNIES, SKEW_BIMATRIX, TEAM_2.game, TEAM_3V3.game, TEAM_3V3_SYM.game, IRRATIONAL, TENSOR_3,
    FOUR_PLAYER,
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


@pytest.mark.parametrize("game", KERNEL_GAMES)
def test_one_kernel_called_again_matches_per_player_deviation_payoffs(game):
    # the polymatrix kernel rewrites its buffer on every call: nothing of the
    # last call may remain, including in the segment of a player in no pair
    kernel = deviation_kernel(game)
    rng = np.random.default_rng(31)
    for _ in range(5):
        profile = MixedProfile(tuple(
            MixedStrategy(rng.dirichlet(np.ones(c))) for c in game.action_counts
        ))
        vectors = kernel([s.probs for s in profile.strategies])
        for p in range(game.n_players):
            assert np.array_equal(vectors[p], prior_deviation_payoffs(game, profile, p))


@settings(max_examples=200, deadline=None)
@given(game_and_profile(), st.sampled_from([0.0, 1e-6, 0.05]))
def test_certificates_are_unchanged(case, epsilon):
    game, profile = case
    new = checks.epsilon_ne_report(game, profile, epsilon)
    old = prior_epsilon_ne_report(game, profile, epsilon)
    assert new.regrets == old.regrets
    assert new.witnesses == old.witnesses
    assert new.satisfied == old.satisfied


# ---------------------------------------------------------------------------
# no result shares a buffer with a later call


def _snapshot(result):
    return (
        result.iterations, result.converged, result.max_regret, result.stalled_at,
        result.checkpoints, [s.probs.copy() for s in result.profile.strategies],
        None if result.certificate is None else result.certificate.witnesses,
    )


def _same_snapshot(a, b):
    assert a[:5] == b[:5] and a[6] == b[6]
    assert all(np.array_equal(x, y) for x, y in zip(a[5], b[5]))


@pytest.mark.parametrize("game", KERNEL_GAMES)
def test_results_do_not_change_after_later_calls(game):
    rng = np.random.default_rng(29)
    starts = [_uniform(game)] + [
        MixedProfile(tuple(MixedStrategy(rng.dirichlet(np.ones(c))) for c in game.action_counts))
        for _ in range(3)
    ]
    probs = [[s.probs for s in start.strategies] for start in starts]

    def refine(start):
        return oracle.local_ne_refine(game, start, 1e-2, max_iters=600)

    fresh_vectors = [[v.copy() for v in deviation_vectors(game, p)] for p in probs]
    fresh_results = [_snapshot(refine(start)) for start in starts[:2]]
    # interleaved: each output is kept, then the same calls run again on other inputs
    vectors_a = deviation_vectors(game, probs[0])
    result_a = refine(starts[0])
    vectors_b = deviation_vectors(game, probs[1])
    result_b = refine(starts[1])
    deviation_vectors(game, probs[2])
    refine(starts[2])
    deviation_vectors(game, probs[3])
    refine(starts[3])
    for vectors, fresh in ((vectors_a, fresh_vectors[0]), (vectors_b, fresh_vectors[1])):
        assert all(np.array_equal(v, f) for v, f in zip(vectors, fresh))
    _same_snapshot(_snapshot(result_a), fresh_results[0])
    _same_snapshot(_snapshot(result_b), fresh_results[1])


# ---------------------------------------------------------------------------
# a bimatrix game is the two-player normal form, bit for bit

cells = st.fractions(min_value=-5, max_value=5, max_denominator=12)
orientations = st.sampled_from([MAXIMIZE, MINIMIZE])


@st.composite
def rectangular_game_and_start(draw):
    """Two rectangular matrices R and C as in SKEW_BIMATRIX, any orientations, a mixed start."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    r, c = [
        draw(st.lists(st.lists(cells, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
        for _ in range(2)
    ]
    start = []
    for n in (rows, cols):
        w = np.array(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any)), float)
        start.append(MixedStrategy(w / w.sum()))
    return r, c, (draw(orientations), draw(orientations)), MixedProfile(tuple(start))


@settings(max_examples=50, deadline=None)
@given(rectangular_game_and_start())
@example((
    SKEW_BIMATRIX.row_payoff.tolist(), SKEW_BIMATRIX.col_payoff.tolist(), SKEW_BIMATRIX.orientation,
    MixedProfile((_OFF_FIXED_POINT, MixedStrategy.uniform(4))),
))
def test_a_bimatrix_game_and_its_normal_form_give_the_same_bits(case):
    r, c, orientation, start = case
    bimatrix, normal = BimatrixGame(r, c, orientation), NormalFormGame((r, c), orientation)
    probs = [s.probs for s in start.strategies]
    for a, b in zip(deviation_vectors(bimatrix, probs), deviation_vectors(normal, probs)):
        assert a.tobytes() == b.tobytes()
    for epsilon in (0.0, 0.05):
        assert repr(checks.epsilon_ne_report(bimatrix, start, epsilon)) == repr(
            checks.epsilon_ne_report(normal, start, epsilon)
        )
    a, b = (
        _snapshot(oracle.local_ne_refine(game, start, 1e-3, max_iters=600))
        for game in (bimatrix, normal)
    )
    assert repr(a[:5] + a[6:]) == repr(b[:5] + b[6:])  # repr tells every float bit apart
    assert [x.tobytes() for x in a[5]] == [y.tobytes() for y in b[5]]

