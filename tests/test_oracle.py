"""Brute-force reference machinery: enumeration, grids, refinement, cliques."""

import ast
import itertools
import logging
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minmaxlab import analytic, checks, gadgets, oracle
from minmaxlab.cliques import Graph, payoff_from_graph
from minmaxlab.errors import CapExceededError, DimensionError, PreconditionError
from minmaxlab.games import (
    MAXIMIZE,
    MINIMIZE,
    BimatrixGame,
    MixedProfile,
    MixedStrategy,
    NormalFormGame,
)
from minmaxlab.geometry import _compositions, simplex_grid
from minmaxlab.rational import exact_array, fmat

# the float prefilter with exact re-checks that the integer grid replaced
from test_exact_kernel import (
    RATIONALS,
    assert_kernel_matches_the_prior,
    assert_same_hits,
    bimatrix_cases,
    prior_exact_deviation,
    prior_exact_max_regret,
    prior_grid_ne_search,
    prior_player_tensors,
    tensor_cases,
)

RPS = fmat([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])


def test_rock_paper_scissors_has_only_the_uniform_equilibrium():
    eqs = oracle.symmetric_support_enumeration(RPS, orientation=MAXIMIZE)
    assert len(eqs) == 1
    assert eqs[0].probs == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    assert eqs[0].value == 0


def test_triangle_clique_game_equilibrium_is_uniform():
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    a = payoff_from_graph(g)
    eqs = oracle.symmetric_support_enumeration(a, orientation=MAXIMIZE)
    assert len(eqs) == 1
    assert eqs[0].probs == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    assert eqs[0].value == Fraction(-1, 3)


def test_enumeration_respects_orientation():
    m = fmat([[2, 0], [0, 1]])
    max_values = {e.value for e in oracle.symmetric_support_enumeration(m, orientation=MAXIMIZE)}
    min_values = {e.value for e in oracle.symmetric_support_enumeration(m, orientation=MINIMIZE)}
    # both pure profiles are stable for a maximizer, neither is for a minimizer
    assert max_values == {Fraction(2), Fraction(1), Fraction(2, 3)}
    assert min_values == {Fraction(2, 3)}


def test_enumeration_cap():
    big = fmat([[0] * 13 for _ in range(13)])
    with pytest.raises(CapExceededError):
        oracle.symmetric_support_enumeration(big)


def test_max_clique_on_the_pinned_graph():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    size, members = oracle.max_clique(g)
    assert size == 4
    assert members == (0, 1, 2, 3)
    # four triangles inside the 4-clique plus the (2, 3, 4) ear
    assert len(oracle.cliques_of_size(g, 3)) == 5
    # no clique has no vertex or more vertices than the graph
    assert oracle.cliques_of_size(g, 0) == [] and oracle.cliques_of_size(g, g.n + 1) == []


def test_max_clique_trivial_cases():
    empty = Graph.from_edges(3, [])
    assert oracle.max_clique(empty)[0] == 1
    k2 = Graph.from_edges(2, [(0, 1)])
    assert oracle.max_clique(k2) == (2, (0, 1))


def prior_max_clique(graph):
    """The branch and bound that max_clique ran before it became the first
    non-empty `cliques_of_size` from n down (reference only)."""
    n = graph.n
    adj = oracle._adjacency_masks(graph)
    best_mask = 0
    best_size = 0

    def expand(cur_mask, cur_size, cand):
        nonlocal best_mask, best_size
        if cand == 0:
            if cur_size > best_size:
                best_mask, best_size = cur_mask, cur_size
            return
        while cand:
            if cur_size + cand.bit_count() <= best_size:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            expand(cur_mask | (1 << v), cur_size + 1, cand & adj[v])

    expand(0, 0, (1 << n) - 1)
    return best_size, tuple(i for i in range(n) if best_mask >> i & 1)


@pytest.mark.parametrize("density", [0.2, 0.5, 0.8, 0.95])
def test_max_clique_matches_the_prior_branch_and_bound(density):
    rng = np.random.default_rng(int(density * 100))
    for n in range(1, oracle.MAX_CLIQUE_MAX_N + 1):
        for _ in range(5):
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
            g = Graph.from_edges(n, edges)
            assert oracle.max_clique(g) == prior_max_clique(g), (n, edges)


def test_max_clique_keeps_its_cap():
    g = Graph.from_edges(oracle.MAX_CLIQUE_MAX_N + 1, [])
    with pytest.raises(CapExceededError, match="max_clique capped at n = 20, got 21"):
        oracle.max_clique(g)


def test_grid_search_cap_is_enforced(monkeypatch):
    game = BimatrixGame(fmat([[1, 0], [0, 1]]), fmat([[1, 0], [0, 1]]), (MAXIMIZE, MAXIMIZE))
    monkeypatch.setattr(oracle, "GRID_SEARCH_CAP", 24)
    with pytest.raises(CapExceededError, match="25 grid profiles exceed cap 24"):
        oracle.grid_ne_search(game, Fraction(1, 4), 0)


@pytest.mark.parametrize("eps", [Fraction(-1, 2), -1e-9, "-1/1000"])
def test_grid_search_refuses_a_negative_eps(eps):
    with pytest.raises(PreconditionError, match="^eps must be non-negative"):
        oracle.grid_ne_search(analytic.irrational_game(), Fraction(1, 4), eps)


def test_grid_search_finds_matching_pennies_equilibrium():
    game = BimatrixGame(
        fmat([[1, -1], [-1, 1]]), fmat([[-1, 1], [1, -1]]), (MAXIMIZE, MAXIMIZE)
    )
    hits = oracle.grid_ne_search(game, Fraction(1, 4), 1e-9)
    assert len(hits) == 1
    prof, measured = hits[0]
    assert np.allclose(prof[0].probs, 0.5)
    assert np.allclose(prof[1].probs, 0.5)
    assert measured <= 1e-9


def test_grid_search_on_the_surd_game_at_tight_eps_is_empty():
    game = analytic.irrational_game()
    hits = oracle.grid_ne_search(game, Fraction(1, 100), 1e-4)
    assert hits == []


def test_all_pure_corner_is_a_weak_approximate_equilibrium_of_the_surd_game():
    """(e1, e1, e1) has exact max regret 1/100, far below coarse thresholds.

    This is why coarse grid sweeps cannot localize the irrational equilibrium:
    spurious approximate equilibria exist at distance ~0.79 from it.
    """
    game = analytic.irrational_game()
    e1 = (Fraction(1), Fraction(0))
    assert oracle.exact_max_regret(game, (e1, e1, e1)) == Fraction(1, 100)


def test_local_refinement_reaches_small_regret():
    game = BimatrixGame(
        fmat([[1, -1], [-1, 1]]), fmat([[-1, 1], [1, -1]]), (MAXIMIZE, MAXIMIZE)
    )
    start = MixedProfile((MixedStrategy(np.array([0.9, 0.1])), MixedStrategy.uniform(2)))
    result = oracle.local_ne_refine(game, start, target_regret=5e-3)
    assert result.converged
    assert result.max_regret <= 5e-3
    assert result.certificate.satisfied
    # the best regret falls only x0.70-0.73 per doubling, so a fixed
    # per-doubling factor that caught the stalled team starts would stop
    # this start; the projected-finish rule lets it converge
    assert result.iterations == 20_230 and result.stalled_at is None
    assert [t for t, _ in result.checkpoints] == [250 * 2**k for k in range(7)]
    regrets = [b for _, b in result.checkpoints]
    assert all(0.69 < now / before < 0.74 for before, now in zip(regrets, regrets[1:]))


def test_local_refinement_reports_honestly_when_cut_short():
    game = BimatrixGame(
        fmat([[1, -1], [-1, 1]]), fmat([[-1, 1], [1, -1]]), (MAXIMIZE, MAXIMIZE)
    )
    start = MixedProfile((MixedStrategy.pure(2, 0), MixedStrategy.pure(2, 0)))
    result = oracle.local_ne_refine(game, start, target_regret=1e-12, max_iters=1)
    assert not result.converged
    assert result.iterations == 1
    assert result.max_regret > 1e-12


PENNIES = BimatrixGame(
    fmat([[1, -1], [-1, 1]]), fmat([[-1, 1], [1, -1]]), (MAXIMIZE, MAXIMIZE)
)
PURE_START = MixedProfile((MixedStrategy.pure(2, 0), MixedStrategy.pure(2, 0)))


@pytest.mark.parametrize("damping", [2.0, 1.0 + 1e-12, 0.0, -0.1, float("nan"), float("inf")])
def test_local_refinement_rejects_damping_outside_the_unit_interval(damping):
    with pytest.raises(ValueError, match="damping"):
        oracle.local_ne_refine(PENNIES, PURE_START, 1e-3, damping=damping)


def test_local_refinement_accepts_full_damping():
    result = oracle.local_ne_refine(PENNIES, PURE_START, 1e-12, max_iters=3, damping=1.0)
    assert result.iterations == 3
    assert all(np.all(s.probs >= 0.0) for s in result.profile.strategies)


@pytest.mark.parametrize("max_iters", [0, -5])
def test_local_refinement_rejects_a_cap_below_one(max_iters):
    with pytest.raises(ValueError, match="max_iters"):
        oracle.local_ne_refine(PENNIES, PURE_START, 1e-3, max_iters=max_iters)


@pytest.mark.parametrize("target", [-1e-9, float("nan"), float("inf")])
def test_local_refinement_rejects_a_bad_target(target):
    with pytest.raises(ValueError, match="target_regret"):
        oracle.local_ne_refine(PENNIES, PURE_START, target)


@pytest.mark.parametrize(
    "start",
    [
        MixedProfile((MixedStrategy.uniform(3), MixedStrategy.uniform(2))),
        MixedProfile((MixedStrategy.uniform(2),)),
    ],
)
def test_local_refinement_rejects_a_start_that_does_not_fit_the_game(start):
    with pytest.raises(DimensionError):
        oracle.local_ne_refine(PENNIES, start, 1e-3, max_iters=5)


# ---------------------------------------------------------------------------
# the exact integer grid kernel

HUGE_DENOMINATORS = (2**40 + 1, 2**40 + 3, 2**40 + 7)


def _huge_denominator_games():
    """Games whose payoffs a + b/q, q near 2^40, overflow the float64 bound."""
    rng = np.random.default_rng(11)

    def entries(shape):
        flat = [Fraction(int(a), 1) + Fraction(int(b), HUGE_DENOMINATORS[i % 3])
                for i, (a, b) in enumerate(zip(rng.integers(-3, 4, math.prod(shape)),
                                               rng.integers(-5, 6, math.prod(shape))))]
        return np.array(flat, dtype=object).reshape(shape)

    yield BimatrixGame(fmat(entries((3, 3))), fmat(entries((3, 3))), (MAXIMIZE, MINIMIZE)), Fraction(1, 4)
    yield NormalFormGame(tuple(entries((2, 2, 2)) for _ in range(3)),
                         (MINIMIZE, MAXIMIZE, MAXIMIZE)), Fraction(1, 3)


def test_grid_search_falls_back_to_python_ints_and_matches_the_prior_search():
    for game, resolution in _huge_denominator_games():
        nf = oracle._as_normal_form(game)
        tensors, _, _ = oracle._integer_tensors(nf, [resolution.denominator] * nf.n_players)
        assert tensors[0].dtype == object  # the float64 bound fails
        assert_kernel_matches_the_prior(game, resolution)
        found = 0
        for eps in (Fraction(0), Fraction(1, 50), Fraction(1, 5)):
            new = oracle.grid_ne_search(game, resolution, eps)
            assert_same_hits(new, prior_grid_ne_search(game, resolution, eps))
            found += len(new)
        assert found > 0  # the comparison is not vacuous
        profile = [tuple(Fraction(v, 7) for v in (3, 4) + (0,) * (c - 2))
                   for c in nf.action_counts]
        assert oracle.exact_max_regret(game, profile) == prior_exact_max_regret(game, profile)


def test_grid_search_decides_the_threshold_exactly():
    """The pure corner has exact regret 1/100: a hit at eps = 1/100 and not
    at eps = 1/100 - 1/10^12, which a float comparison cannot tell apart."""
    game = analytic.irrational_game()
    corner = (Fraction(1), Fraction(0))

    def corner_hit(eps):
        hits = oracle.grid_ne_search(game, Fraction(1, 10), eps)
        found = [r for prof, r in hits if all(s.exact == corner for s in prof.strategies)]
        return found[0] if found else None

    assert corner_hit(Fraction(1, 100)) == float(Fraction(1, 100))
    assert corner_hit(Fraction(1, 100) - Fraction(1, 10**12)) is None


def test_a_huge_eps_returns_every_grid_profile():
    """No regret exceeds the carrier's bound, so an eps far beyond any float
    compares as the bound does."""
    game = analytic.irrational_game()
    hits = oracle.grid_ne_search(game, Fraction(1, 4), 10**400)
    assert len(hits) == 5**3  # five points a player
    assert_same_hits(hits, oracle.grid_ne_search(game, Fraction(1, 4), 100))


CARRIERS = (np.dtype(np.float64), np.dtype(object))


def carried(dtype):
    """`_integer_tensors`, with the tensors in `dtype`, which must be at least
    as wide as the carrier the bound picks."""
    integer_tensors = oracle._integer_tensors

    def forced(nf, denominators):
        tensors, d, bound = integer_tensors(nf, denominators)
        assert CARRIERS.index(tensors[0].dtype) <= CARRIERS.index(dtype)
        if tensors[0].dtype != dtype:  # float64 integers, as Python ints
            tensors = [t.astype(np.int64).astype(dtype) for t in tensors]
        return tensors, d, bound

    return forced


def assert_the_carriers_agree(game, resolution, eps, strategies):
    """Hits, their regret bits and exact_max_regret are the same in the carrier
    the bound picks and every wider one, and match the prior search and the
    prior Fraction regret."""
    nf = oracle._as_normal_form(game)
    natural = oracle._integer_tensors(nf, [resolution.denominator] * nf.n_players)[0][0].dtype
    runs = []
    for dtype in CARRIERS[CARRIERS.index(natural):]:
        dtypes = []
        regret_gaps = oracle._regret_gaps

        def spy(tensor, grids, p):
            dtypes.append(tensor.dtype)
            return regret_gaps(tensor, grids, p)

        with mock.patch.object(oracle, "_integer_tensors", carried(dtype)):
            with mock.patch.object(oracle, "_regret_gaps", spy):
                hits = oracle.grid_ne_search(game, resolution, eps)
            runs.append((hits, oracle.exact_max_regret(game, strategies)))
        assert set(dtypes) == {dtype}
    hits, regret = runs[0]
    assert_same_hits(hits, prior_grid_ne_search(game, resolution, eps))
    assert regret == prior_exact_max_regret(game, strategies)
    for other, other_regret in runs[1:]:
        assert_same_hits(other, hits)
        assert [r.hex() for _, r in other] == [r.hex() for _, r in hits]
        assert other_regret == regret
    return hits


@st.composite
def team_cases(draw):
    a, b, c = (draw(RATIONALS.filter(lambda v: v <= -1)) for _ in range(3))
    instance = gadgets.team_gadget(fmat([[a, b], [b, c]]),
                                   draw(st.sampled_from([Fraction(1, 10), Fraction(1, 20)])))
    return instance.game, [gadgets.canonical_team_ne(instance)[p].exact for p in range(3)]


@settings(max_examples=40, deadline=None)
@given(st.one_of(bimatrix_cases(), tensor_cases(), team_cases()),
       st.sampled_from([Fraction(1, 2), Fraction(1, 3)]),
       st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(2)]))
def test_float64_and_python_int_carriers_give_the_same_bits(case, resolution, eps):
    assert_the_carriers_agree(case[0], resolution, eps, case[1])


@pytest.mark.parametrize("k,carrier", [
    (2**50 - 1, np.float64),  # bound 8k = 2^53 - 8
    (2**50, object),  # bound 2^53: the float carrier needs it below
    (2**50 + 1, object),
])
def test_the_bound_picks_the_carrier_at_2_to_the_53(k, carrier):
    """Payoffs over D = k with max|T * D| = k, at resolution 1/2: bound 2 * k * 2^2."""
    def cell(v):
        return Fraction(v, k)

    row = fmat([[1, cell(-(k - 2))], [cell(1), cell(k // 3)]])
    col = fmat([[cell(k // 5 - 1), cell(7)], [-1, cell(-(k // 7))]])
    game = BimatrixGame(row, col, (MAXIMIZE, MINIMIZE))
    tensors, d, bound = oracle._integer_tensors(game, [2, 2])
    assert d == k and bound == 8 * k and tensors[0].dtype == carrier
    found = 0
    for eps in (Fraction(0), Fraction(1, 2), Fraction(3, 2)):
        found += len(assert_the_carriers_agree(game, Fraction(1, 2), eps,
                                               [(Fraction(1, 2),) * 2] * 2))
    assert 0 < found < 3 * 9  # the comparison is not vacuous


@pytest.mark.parametrize("strategies,error", [
    ([(1, 1)] * 3, ValueError),  # sums to 2
    ([(2, -1)] * 3, ValueError),  # a negative entry
    ([(1, 0, 0)] * 3, DimensionError),  # three entries for two actions
    ([(1, 0)] * 2, DimensionError),  # two strategies for three players
])
def test_exact_max_regret_rejects_a_profile_that_does_not_fit_the_game(strategies, error):
    with pytest.raises(error) as info:
        oracle.exact_max_regret(analytic.irrational_game(), strategies)
    assert (info.type is DimensionError) == (error is DimensionError)


def test_every_hit_reports_the_float_of_its_exact_regret():
    game = analytic.irrational_game()
    hits = oracle.grid_ne_search(game, Fraction(1, 20), Fraction(1, 20))
    assert hits
    for profile, regret in hits:
        assert regret == float(oracle.exact_max_regret(game, [s.exact for s in profile.strategies]))


def test_every_hit_regret_is_rounded_once_when_the_scale_passes_2_to_53():
    """Payoffs k/q with q just above 2^53 keep every regret numerator w small,
    so float64 carries them, while the scale D * m^n passes 2^53: dividing w
    by float(scale) would round twice and, at some hits, report other bits."""
    q = 2**53 + 5
    game = BimatrixGame([[Fraction(3, q), Fraction(1, q)], [Fraction(-2, q), Fraction(2, q)]],
                        [[Fraction(2, q), Fraction(2, q)], [Fraction(-1, q), Fraction(-3, q)]])
    m = 7
    tensors, d, _ = oracle._integer_tensors(oracle._as_normal_form(game), [m, m])
    scale = d * m * m
    assert tensors[0].dtype == np.float64 and scale >= 2**53
    hits = oracle.grid_ne_search(game, Fraction(1, m), 1)
    assert len(hits) == (m + 1) ** 2
    rounded_twice = 0
    for profile, regret in hits:
        exact = oracle.exact_max_regret(game, [s.exact for s in profile.strategies])
        assert regret == float(exact)
        w = exact * scale
        assert w.denominator == 1
        rounded_twice += float(w.numerator) / float(scale) != regret
    assert rounded_twice  # the test tells the two divisions apart


def test_one_row_of_player_0_per_chunk_gives_the_same_hits(monkeypatch):
    game, resolution = next(_huge_denominator_games())
    cases = [
        (analytic.irrational_game(), Fraction(1, 12), Fraction(1, 20)),
        (gadgets.team_gadget(fmat([[-2, -1], [-1, -3]]), Fraction(1, 20)).game,
         Fraction(1, 4), Fraction(1, 10)),
        (game, resolution, Fraction(1, 5)),  # Python ints
    ]
    expected = [oracle.grid_ne_search(*case) for case in cases]
    calls = []
    regret_gaps = oracle._regret_gaps

    def spy(tensor, grids, p):
        calls.append((p, len(grids[0])))
        return regret_gaps(tensor, grids, p)

    monkeypatch.setattr(oracle, "_GRID_CHUNK_ENTRIES", {"i": 1, "O": 1})
    monkeypatch.setattr(oracle, "_regret_gaps", spy)
    for case, old in zip(cases, expected):
        calls.clear()
        new = oracle.grid_ne_search(*case)
        assert new  # the comparison is not vacuous
        assert_same_hits(new, old)
        later = [rows for p, rows in calls if p > 0]
        assert set(later) == {1} and len(later) > len(new[0][0].strategies)


def _gap_builds(game, m, eps, budget):
    """The hits of a grid search at chunk budget `budget` (None: the default)
    and, per `_regret_gaps` call, the player and its number of player-0 rows."""
    calls = []
    regret_gaps = oracle._regret_gaps

    def spy(tensor, grids, p):
        calls.append((p, len(grids[0])))
        return regret_gaps(tensor, grids, p)

    chunked = {"i": budget, "O": budget} if budget else oracle._GRID_CHUNK_ENTRIES
    with mock.patch.object(oracle, "_GRID_CHUNK_ENTRIES", chunked), \
            mock.patch.object(oracle, "_regret_gaps", spy):
        hits = oracle.grid_ne_search(game, Fraction(1, m), eps)
    return hits, calls


@pytest.mark.parametrize("budget, per_chunk", [(None, set()), (1_500, {2}), (1, {1, 2})])
def test_later_players_gaps_are_built_once_when_they_fit_the_budget(budget, per_chunk):
    """At counts (4, 3, 2) and m = 5 the grids hold 56, 21 and 6 points, so
    player 1's gaps over the whole grid have 3 * 56 * 6 = 1,008 entries and
    player 2's 2 * 56 * 21 = 2,352.  A player whose gaps fit the budget gets
    them once, over all 56 rows of player 0; the others per chunk."""
    game = _small_game((4, 3, 2), seed=12)
    expected = oracle.grid_ne_search(game, Fraction(1, 5), Fraction(1, 2))
    assert 0 < len(expected) < 56 * 21 * 6
    hits, calls = _gap_builds(game, 5, Fraction(1, 2), budget)
    assert_same_hits(hits, expected)
    for p in (1, 2):
        rows = [r for q, r in calls if q == p]
        if p in per_chunk:
            assert len(rows) > 1 and max(rows) < 56
        else:
            assert rows == [56]


@pytest.mark.parametrize("budget, player_1_rows", [(None, [4]), (20, [1, 1])])
def test_no_gaps_are_built_for_a_player_no_survivor_reaches(budget, player_1_rows):
    """Players 0 and 1 play matching pennies and player 2 is indifferent.  At
    m = 3 the grid misses the mixed equilibrium (1/2, 1/2): player 0 passes
    only its two pure points, and player 1 prunes all it passes.  So player
    2's gaps are never built, and player 1's only for chunks with survivors:
    once over all 4 rows when its 2 * 16 gaps fit the budget; at a budget of
    20, per one-row chunk, for the two pure rows alone.  (Player 0 passes a
    point of some chunk in every search: a pure best response lies on every
    grid.)"""
    pennies = np.array([[[1, 1], [-1, -1]], [[-1, -1], [1, 1]]])
    game = NormalFormGame(
        tuple(exact_array(t) for t in (pennies, -pennies, np.zeros((2, 2, 2), dtype=int))),
        (MAXIMIZE,) * 3,
    )
    hits, calls = _gap_builds(game, 3, 0, budget)
    assert hits == []
    assert [r for p, r in calls if p == 1] == player_1_rows
    assert [p for p, _ in calls if p == 2] == []


def _small_game(counts, seed):
    """A tensor game with small rational payoffs and mixed orientations."""
    rng = np.random.default_rng(seed)
    cells = math.prod(counts)

    def tensor():
        return np.array([Fraction(int(a), int(b)) for a, b in zip(
            rng.integers(-6, 7, cells), rng.choice([1, 2, 3, 5], cells))],
            dtype=object).reshape(counts)

    orientation = tuple(MAXIMIZE if o else MINIMIZE for o in rng.integers(0, 2, len(counts)))
    return NormalFormGame(tuple(tensor() for _ in counts), orientation)


@pytest.mark.parametrize("counts, m", [
    ((1, 6), 7), ((6, 1), 5), ((2, 5), 7), ((3, 4), 6), ((6, 2, 1), 5), ((4, 3, 2), 5),
], ids=str)
def test_every_hit_strategy_has_the_bits_of_from_exact(counts, m):
    """The grid builds its points unchecked (`MixedStrategy._grid_point`) and
    its profiles too (`MixedProfile._of_strategies`): byte for byte what
    `from_exact` and the public constructor build, in either carrier and
    with one row of player 0 a chunk or the default budget.  With eps above
    every regret each grid point is built, and the hits run in grid order."""
    game = _small_game(counts, seed=m * sum(counts))
    points = [list(_compositions(m, c)) for c in counts]
    expected = {}
    runs = []
    for dtype in CARRIERS:
        for budget in (oracle._GRID_CHUNK_ENTRIES, {"i": 1, "O": 1}):
            with mock.patch.object(oracle, "_integer_tensors", carried(dtype)), \
                    mock.patch.object(oracle, "_GRID_CHUNK_ENTRIES", budget):
                hits = oracle.grid_ne_search(game, Fraction(1, m), 10**6)
            assert len(hits) == math.prod(map(len, points))
            for (profile, _), combo in zip(hits, itertools.product(*points)):
                assert type(profile) is MixedProfile and type(profile.strategies) is tuple
                assert len(profile.strategies) == len(counts)
                for s, point in zip(profile.strategies, combo):
                    if point not in expected:
                        expected[point] = MixedStrategy.from_exact(Fraction(c, m) for c in point)
                    want = expected[point]
                    assert type(s) is MixedStrategy
                    assert s.probs.dtype == want.probs.dtype == np.float64
                    assert s.probs.tobytes() == want.probs.tobytes()
                    assert s.probs.flags.writeable is want.probs.flags.writeable is False
                    assert type(s.exact) is tuple and s.exact == want.exact
                    assert all(type(e) is Fraction for e in s.exact)
            runs.append([r.hex() for _, r in hits])
    assert all(run == runs[0] for run in runs)


def test_only_the_grid_search_builds_strategies_and_profiles_unchecked():
    trusted = ("_grid_point", "_of_strategies")
    callers = {name: set() for name in trusted}
    for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in trusted:
                    callers[node.attr].add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == {name: {"oracle.grid_ne_search"} for name in trusted}


def test_grid_search_logs_its_profiles_survivors_and_hits(caplog):
    game = analytic.irrational_game()
    eps = Fraction(1, 20)
    with caplog.at_level(logging.DEBUG, logger="minmaxlab.oracle"):
        hits = oracle.grid_ne_search(game, Fraction(1, 10), eps)
    records = [r for r in caplog.records if r.name == "minmaxlab.oracle"]
    assert [r.levelno for r in records] == [logging.DEBUG]
    # the profiles player 0 passes, decided one by one in Fractions
    grid = list(simplex_grid(2, Fraction(1, 10)))
    _, tensors, orientation = prior_player_tensors(game)
    assert orientation[0] == MINIMIZE
    survivors = 0
    for s1, s2 in itertools.product(grid, grid):
        dev = prior_exact_deviation(tensors[0], [None, s1, s2], 0)
        survivors += sum(sum(d * w for d, w in zip(dev, x)) - min(dev) <= eps for x in grid)
    assert len(hits) < survivors < 11**3
    assert records[0].getMessage() == (
        f"grid search: {11**3} profiles, {survivors} pass player 0, {len(hits)} hits"
    )


@pytest.mark.parametrize("m,c", [(1, 1), (1, 3), (4, 1), (4, 2), (5, 3), (6, 4), (3, 5)])
def test_compositions_are_the_simplex_grid_in_order(m, c):
    points = [tuple(Fraction(v, m) for v in comp) for comp in _compositions(m, c)]
    assert points == list(simplex_grid(c, Fraction(1, m)))
