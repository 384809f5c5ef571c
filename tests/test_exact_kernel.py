"""Exact WSNE, exact regret, enumeration, grid and fone against prior versions.

These paths used to write out their own min and max branches and decide in
tuples of Fractions; they now fold a minimiser's values once, with
`games.oriented` or the float deviation kernel, and decide in integers over
a common denominator.  Each is checked against the implementation it
replaced, kept below as a self-contained test-only reference (verbatim
except for the `prior_*` names and type annotations), down to the Fraction
Gauss-Jordan solve and the tuple products it ran on: every Fraction and
equilibrium list must be equal, and every float equal bit for bit.
"""

import itertools
import logging
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from minmaxlab import analytic, checks, cli, gadgets, oracle
from minmaxlab.cliques import Graph, payoff_from_graph, payoff_from_graph_delta
from minmaxlab.errors import (
    CapExceededError,
    DimensionError,
    PreconditionError,
    UnsupportedDomainError,
)
from minmaxlab.games import (
    MAXIMIZE,
    MINIMIZE,
    SUPPORT_TOL,
    BimatrixGame,
    MixedProfile,
    MixedStrategy,
    NormalFormGame,
    PolymatrixGame,
    to_normal_form,
)
from minmaxlab.geometry import simplex_grid
from minmaxlab.minmax import QuadraticMinMaxProblem, _point, check_fone, gradient
from minmaxlab.oracle import GRID_SEARCH_CAP, SUPPORT_ENUM_MAX_N, SymmetricEquilibrium
from minmaxlab.rational import (
    fmat,
    fvec,
    scale_to_integers,
    shape,
    solve_linear,
    to_fraction,
    transpose,
)

logger = logging.getLogger(__name__)

# ---------------------------------------------------------------------------
# the prior implementation (reference only)


def prior_mat_vec(m, v):
    if m and len(m[0]) != len(v):
        raise ValueError("matrix-vector shape mismatch")
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def prior_vec_dot(u, v):
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def prior_solve_linear(a, b):
    """Solve A x = b exactly by Gaussian elimination with partial pivoting.

    Returns None when A is singular (no unique solution).
    """
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ValueError("solve_linear expects a square system")
    # augmented working copy
    rows = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return tuple(row[n] for row in rows)


def prior_wsne_report(game, x):
    if not isinstance(game, BimatrixGame) or not game.identical_payoff():
        raise PreconditionError("wsne_report needs an identical-payoff bimatrix game")
    if game.row_payoff != transpose(game.row_payoff):
        raise PreconditionError("wsne_report needs a symmetric payoff matrix")
    if game.orientation[0] != game.orientation[1]:
        raise PreconditionError("players must share an orientation")
    probs = x.probs if isinstance(x, MixedStrategy) else np.asarray(x, dtype=float)
    if probs.size != game.action_counts[0]:
        raise PreconditionError("strategy length does not match the game")
    payoffs = game.row_float @ probs
    support = probs > SUPPORT_TOL
    if game.orientation[0] == MAXIMIZE:
        return float((payoffs.max() - payoffs[support]).max())
    return float((payoffs[support] - payoffs.min()).max())


def prior_wsne_eps_exact(matrix, x, orientation=MAXIMIZE):
    m = fmat(matrix)
    n, n2 = shape(m)
    if n != n2:
        raise PreconditionError("square matrix required")
    xv = fvec(x)
    if len(xv) != n:
        raise PreconditionError("strategy length does not match the matrix")
    payoffs = prior_mat_vec(m, xv)
    supported = [payoffs[i] for i in range(n) if xv[i] > 0]
    if not supported:
        raise PreconditionError("empty support")
    if orientation == MAXIMIZE:
        return max(payoffs) - min(supported)
    return max(supported) - min(payoffs)


def prior_symmetric_support_enumeration(matrix, orientation=MAXIMIZE, cap_n=SUPPORT_ENUM_MAX_N):
    m = fmat(matrix)
    n, n2 = shape(m)
    if n != n2:
        raise DimensionError("square matrix required")
    if n > cap_n:
        raise CapExceededError(f"support enumeration capped at n = {cap_n}, got {n}")
    if orientation not in (MAXIMIZE, MINIMIZE):
        raise ValueError(f"bad orientation {orientation!r}")
    zero = Fraction(0)
    one = Fraction(1)
    results = []
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            # unknowns: x on the support, then v
            rows = []
            rhs = []
            for i in support:
                rows.append([m[i][j] for j in support] + [Fraction(-1)])
                rhs.append(zero)
            rows.append([one] * size + [zero])
            rhs.append(one)
            sol = prior_solve_linear(rows, rhs)
            if sol is None:
                logger.debug("singular support system skipped: %s", support)
                continue
            x_support, v = sol[:-1], sol[-1]
            if any(p <= 0 for p in x_support):
                continue
            x = [zero] * n
            for i, p in zip(support, x_support):
                x[i] = p
            payoffs = prior_mat_vec(m, x)
            if orientation == MAXIMIZE:
                ok = all(payoffs[i] <= v for i in range(n) if i not in support)
            else:
                ok = all(payoffs[i] >= v for i in range(n) if i not in support)
            if ok:
                results.append(SymmetricEquilibrium(tuple(x), v, support))
    results.sort(key=lambda eq: (eq.value, eq.probs))
    return results


def prior_max_vi_residual(matrix, strategy):
    """Largest gain of a deviation from x* when maximizing <x, M x*>."""
    if strategy.exact is not None:
        payoffs = prior_mat_vec(matrix, strategy.exact)
        value = prior_vec_dot(strategy.exact, payoffs)
        return float(max(payoffs) - value)
    m = np.array([[float(e) for e in row] for row in matrix])
    payoffs = m @ strategy.probs
    return float(payoffs.max() - strategy.probs @ payoffs)


def prior_as_normal_form(game):
    if isinstance(game, PolymatrixGame):
        return to_normal_form(game)
    return game


def prior_player_tensors(game):
    """Float and exact per-player tensors for bimatrix or normal-form games."""
    if isinstance(game, BimatrixGame):
        floats = [game.row_float, game.col_float]
        exacts = [
            np.array(game.row_payoff, dtype=object),
            np.array(game.col_payoff, dtype=object),
        ]
        return floats, exacts, game.orientation
    return list(game.float_payoffs), list(game.payoffs), game.orientation


def prior_exact_deviation(tensor, strategies, player):
    """Exact deviation payoffs of `player` from an object tensor."""
    t = tensor
    for q in range(len(strategies) - 1, -1, -1):
        if q == player:
            continue
        vec = np.array(strategies[q], dtype=object)
        t = np.tensordot(t, vec, axes=([q], [0]))
    return list(t)


def prior_exact_max_regret(game, strategies):
    game = prior_as_normal_form(game)
    exact = [fvec(s) for s in strategies]
    _, tensors, orientation = prior_player_tensors(game)
    worst = Fraction(0)
    for p, tensor in enumerate(tensors):
        dev = prior_exact_deviation(tensor, exact, p)
        current = sum(d * w for d, w in zip(dev, exact[p]))
        if orientation[p] == MAXIMIZE:
            r = max(dev) - current
        else:
            r = current - min(dev)
        worst = max(worst, r)
    return worst


def prior_grid_ne_search(game, resolution, eps, cap=GRID_SEARCH_CAP):
    nf = prior_as_normal_form(game)
    counts = nf.action_counts
    n_players = len(counts)
    eps_exact = to_fraction(eps)
    eps_f = float(eps_exact)
    grids_exact = [list(simplex_grid(c, resolution, cap)) for c in counts]
    sizes = [len(g) for g in grids_exact]
    total = math.prod(sizes)
    if total > cap:
        raise CapExceededError(f"{total} grid profiles exceed cap {cap}")
    grids_float = [
        np.array([[float(p) for p in point] for point in g]) for g in grids_exact
    ]
    floats, _, orientation = prior_player_tensors(nf)

    # per-player chunked regret arrays over the joint grid, chunking player 0
    act = [chr(ord("a") + p) for p in range(n_players)]
    gl = [chr(ord("A") + p) for p in range(n_players)]
    chunk_rows = max(1, min(sizes[0], int(2e7 // max(1, total // sizes[0]))))
    candidates = []
    for start in range(0, sizes[0], chunk_rows):
        stop = min(sizes[0], start + chunk_rows)
        chunk_grids = [grids_float[0][start:stop]] + grids_float[1:]
        worst = None
        for p in range(n_players):
            others = [q for q in range(n_players) if q != p]
            sub_in = "".join(act) + "," + ",".join(gl[q] + act[q] for q in others)
            dev = np.einsum(sub_in + "->" + act[p] + "".join(gl[q] for q in others),
                            floats[p], *[chunk_grids[q] for q in others])
            if orientation[p] == MAXIMIZE:
                best = dev.max(axis=0)
            else:
                best = dev.min(axis=0)
            cur = np.einsum(gl[p] + act[p] + "," + act[p] + "".join(gl[q] for q in others)
                            + "->" + "".join(gl), chunk_grids[p], dev)
            sign = 1.0 if orientation[p] == MAXIMIZE else -1.0
            r = sign * (np.expand_dims(best, axis=p) - cur)
            worst = r if worst is None else np.maximum(worst, r)
        hits = np.argwhere(worst <= eps_f + 1e-9)
        for idx in hits:
            idx = tuple(int(i) for i in idx)
            candidates.append((idx[0] + start,) + idx[1:])

    results = []
    for idx in candidates:
        strategies = [grids_exact[p][idx[p]] for p in range(n_players)]
        exact_regret = prior_exact_max_regret(nf, strategies)
        if exact_regret <= eps_exact:
            profile = MixedProfile(tuple(MixedStrategy.from_exact(s) for s in strategies))
            results.append((profile, float(exact_regret)))
    return results


def prior_check_fone(problem, x, y):
    if problem.domain is not None:
        raise UnsupportedDomainError(
            "first-order certificates on the coupled domain are not supported"
        )
    xv, yv = _point(problem, x, y)
    gx, gy = gradient(problem, x, y)
    eps_x = float(xv @ gx - gx.min())
    eps_y = float(gy.max() - yv @ gy)
    return eps_x, eps_y


# ---------------------------------------------------------------------------
# comparisons


def assert_same_equilibria(new, old):
    assert [(e.probs, e.value, e.support) for e in new] == [
        (e.probs, e.value, e.support) for e in old
    ]


def symmetrised(m):
    """M + M^T, exactly."""
    return fmat([[a + b for a, b in zip(r, c)] for r, c in zip(m, transpose(m))])


def assert_same_hits(new, old):
    assert len(new) == len(old)
    for (p_new, r_new), (p_old, r_old) in zip(new, old):
        assert r_new == r_old
        for a, b in zip(p_new.strategies, p_old.strategies):
            assert a.exact == b.exact
            assert np.array_equal(a.probs, b.probs)


# ---------------------------------------------------------------------------
# inputs

ORIENTATIONS = st.sampled_from([MAXIMIZE, MINIMIZE])
RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 7]))


def rational_strategy(n):
    return st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(sum).map(
        lambda w: tuple(Fraction(v, sum(w)) for v in w)
    )


def float_strategy(n):
    return st.lists(st.integers(0, 1000), min_size=n, max_size=n).filter(sum).map(
        lambda w: np.array(w, dtype=float) / sum(w)
    )


@st.composite
def bimatrix_cases(draw):
    rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    matrix = st.lists(st.lists(RATIONALS, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows)
    game = BimatrixGame(fmat(draw(matrix)), fmat(draw(matrix)),
                        (draw(ORIENTATIONS), draw(ORIENTATIONS)))
    return game, [draw(rational_strategy(rows)), draw(rational_strategy(cols))]


@st.composite
def tensor_cases(draw):
    counts = tuple(draw(st.integers(2, 3)) for _ in range(3))
    cells = math.prod(counts)
    payoffs = tuple(
        np.array(draw(st.lists(RATIONALS, min_size=cells, max_size=cells)),
                 dtype=object).reshape(counts)
        for _ in range(3)
    )
    game = NormalFormGame(payoffs, tuple(draw(ORIENTATIONS) for _ in range(3)))
    return game, [draw(rational_strategy(c)) for c in counts]


@st.composite
def square_cases(draw):
    n = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(RATIONALS, min_size=n, max_size=n), min_size=n, max_size=n))
    return fmat(rows), draw(ORIENTATIONS), draw(rational_strategy(n)), draw(float_strategy(n))


# ---------------------------------------------------------------------------
# the exact linear solve

BIG = 2**40


@st.composite
def rational_systems(draw):
    """Square rational systems of size 1-8, some singular by a duplicated row."""
    n = draw(st.integers(1, 8))
    denominators = st.sampled_from([1, 2, 3, 7]) | st.integers(BIG - 50, BIG + 50)
    entry = st.builds(Fraction, st.integers(-9, 9), denominators)
    a = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    b = draw(st.lists(entry, min_size=n, max_size=n))
    singular = n >= 2 and draw(st.booleans())
    if singular:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        a[j] = list(a[i])
    return a, b, singular


@settings(max_examples=200, deadline=None)
@given(rational_systems())
def test_solve_linear_matches_the_prior_gauss_jordan(case):
    a, b, singular = case
    cells, _ = scale_to_integers([row + [rhs] for row, rhs in zip(a, b)])
    a_int, b_int = cells[:, :-1].tolist(), cells[:, -1].tolist()
    new = solve_linear(a_int, b_int)
    old = prior_solve_linear(a, b)
    if singular:
        assert new is None and old is None
    if old is None:
        assert new is None
        return
    num, det = new
    assert det > 0 and all(isinstance(v, int) for v in num)
    assert tuple(Fraction(v, det) for v in num) == old
    assert [sum(x * v for x, v in zip(row, num)) for row in a_int] == [r * det for r in b_int]


# ---------------------------------------------------------------------------
# exact regret and the grid prefilter


@settings(max_examples=100, deadline=None)
@given(st.one_of(bimatrix_cases(), tensor_cases()))
def test_exact_max_regret_matches_the_prior_branches(case):
    game, strategies = case
    new = oracle.exact_max_regret(game, strategies)
    assert isinstance(new, Fraction)
    assert new == prior_exact_max_regret(game, strategies)


@settings(max_examples=40, deadline=None)
@given(st.one_of(bimatrix_cases(), tensor_cases()), st.sampled_from([Fraction(1, 2), Fraction(1, 3)]),
       st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(2)]))
def test_grid_search_matches_the_prior_prefilter_on_random_games(case, resolution, eps):
    game, _ = case
    new = oracle.grid_ne_search(game, resolution, eps)
    assert_same_hits(new, prior_grid_ne_search(game, resolution, eps))


def test_grid_search_matches_the_prior_prefilter_on_the_irrational_game():
    game = analytic.irrational_game()
    for resolution in (Fraction(1, 10), Fraction(1, 20)):
        new = oracle.grid_ne_search(game, resolution, Fraction(1, 20))
        assert new  # the comparison is not vacuous
        assert_same_hits(new, prior_grid_ne_search(game, resolution, Fraction(1, 20)))


def test_grid_search_matches_the_prior_prefilter_on_a_team_gadget():
    game = gadgets.team_gadget(fmat([[-2, -1], [-1, -3]]), Fraction(1, 20)).game
    for resolution, eps in ((Fraction(1, 4), Fraction(1, 10)), (Fraction(1, 6), Fraction(1))):
        new = oracle.grid_ne_search(game, resolution, eps)
        assert new
        assert_same_hits(new, prior_grid_ne_search(game, resolution, eps))


# ---------------------------------------------------------------------------
# WSNE values and support enumeration


@settings(max_examples=100, deadline=None)
@given(square_cases())
def test_wsne_values_and_enumeration_match_the_prior_branches(case):
    matrix, orientation, exact_x, float_x = case
    new = checks.wsne_eps_exact(matrix, exact_x, orientation)
    assert isinstance(new, Fraction)
    assert new == prior_wsne_eps_exact(matrix, exact_x, orientation)
    sym = symmetrised(matrix)
    game = BimatrixGame(sym, sym, (orientation, orientation))
    for x in (float_x, MixedStrategy.from_exact(exact_x)):
        assert checks.wsne_report(game, x) == prior_wsne_report(game, x)
    assert_same_equilibria(
        oracle.symmetric_support_enumeration(matrix, orientation),
        prior_symmetric_support_enumeration(matrix, orientation),
    )
    for x in (MixedStrategy(float_x), MixedStrategy.from_exact(exact_x)):
        assert cli._max_vi_residual(matrix, x) == prior_max_vi_residual(matrix, x)


GRAPHS = [
    Graph.from_edges(3, [(0, 1), (1, 2)]),
    Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]),
    Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]),
]


def test_enumeration_and_wsne_values_match_on_the_graph_corpus():
    total = 0
    for g in GRAPHS:
        for matrix in (payoff_from_graph(g), payoff_from_graph_delta(g, Fraction(1, 2))):
            for orientation in (MAXIMIZE, MINIMIZE):
                new = oracle.symmetric_support_enumeration(matrix, orientation)
                assert_same_equilibria(new, prior_symmetric_support_enumeration(matrix, orientation))
                total += len(new)
                for eq in new:
                    for o in (MAXIMIZE, MINIMIZE):
                        assert checks.wsne_eps_exact(matrix, eq.probs, o) == prior_wsne_eps_exact(
                            matrix, eq.probs, o
                        )
    assert total > 0


def gnp_graph(n, seed):
    """G(n, 1/2): each edge present with probability 1/2, seeded."""
    rng = np.random.default_rng(seed)
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                if rng.random() < 0.5])


def test_enumeration_matches_at_census_sizes():
    for n, seed in ((8, 1), (9, 2)):
        g = gnp_graph(n, seed)
        for matrix in (payoff_from_graph(g), payoff_from_graph_delta(g, Fraction(1, 2))):
            for orientation in (MAXIMIZE, MINIMIZE):
                new = oracle.symmetric_support_enumeration(matrix, orientation)
                assert new  # the comparison is not vacuous
                assert_same_equilibria(new, prior_symmetric_support_enumeration(matrix, orientation))


# ---------------------------------------------------------------------------
# first-order certificate


def _rational_matrix(rng, rows, cols):
    return fmat([[Fraction(int(v), 4) for v in row] for row in rng.integers(-8, 9, (rows, cols))])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_check_fone_matches_the_prior_expressions_bit_for_bit(nx, ny, seed):
    rng = np.random.default_rng(seed)
    problem = QuadraticMinMaxProblem(
        symmetrised(_rational_matrix(rng, nx, nx)),
        symmetrised(_rational_matrix(rng, ny, ny)),
        _rational_matrix(rng, ny, nx),
    )
    x, y = rng.dirichlet(np.ones(nx)), rng.dirichlet(np.ones(ny))
    assert check_fone(problem, x, y) == prior_check_fone(problem, x, y)


def test_check_fone_matches_on_quadratic_gadgets():
    rng = np.random.default_rng(5)
    for n in (2, 3, 7):
        problem = gadgets.quadratic_gadget(
            fmat([[Fraction(int(v), 8) for v in row] for row in rng.integers(-8, 9, (n, n))])
        )
        for _ in range(20):
            x, y = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
            assert check_fone(problem, x, y) == prior_check_fone(problem, x, y)
