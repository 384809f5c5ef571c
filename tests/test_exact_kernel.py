"""Exact WSNE, exact regret, enumeration, grid, fone and the WSNE audit against prior versions.

These paths used to write out their own min and max branches and decide in
tuples of Fractions, one support system or one audit candidate at a time;
they now fold a minimiser's values once, with `games.oriented` or the float
deviation kernel, and decide in integers over a common denominator, whole
stacks of systems and candidates at once.  Each is checked against the
implementation it replaced, kept below as a self-contained test-only
reference (verbatim except for the `prior_*` names and type annotations),
down to the Fraction Gauss-Jordan solve and the tuple products it ran on:
every Fraction, equilibrium list and audit report must be equal, and every
float equal bit for bit.  The prior audit calls the prior enumeration and
returns its report with no offenders, since it raised on the first one.
"""

import itertools
import logging
import math
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minmaxlab import analytic, checks, cliques, gadgets, oracle, rational
from minmaxlab.cliques import (
    Graph,
    ParameterRegime,
    WsneCandidateRecord,
    WsneValueReport,
    clique_uniform,
    cliques_of_size,
    max_clique,
    payoff_from_graph,
    payoff_from_graph_delta,
    robust_unique_ne_game,
    unique_ne_game,
)
from minmaxlab.errors import (
    BoundViolationError,
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
    oriented,
    to_normal_form,
)
from minmaxlab.geometry import _compositions, simplex_grid
from minmaxlab.minmax import QuadraticMinMaxProblem, _point, check_fone, gradient
from minmaxlab.oracle import GRID_SEARCH_CAP, SUPPORT_ENUM_MAX_N, SymmetricEquilibrium
from minmaxlab.rational import fvec, scale_to_integers, solve_linear, solve_stacked, to_fraction
from prior_forms import fmat, shape, transpose

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
    if game.row_payoff.tolist() != game.row_payoff.T.tolist():
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


def per_size_symmetric_support_enumeration(matrix, orientation=MAXIMIZE):
    """The integer enumeration with one stack per support size."""
    m = rational.fmat(matrix)
    n, n2 = m.shape
    if n != n2:
        raise DimensionError("square matrix required")
    if n > SUPPORT_ENUM_MAX_N:
        raise CapExceededError(
            f"support enumeration capped at n = {SUPPORT_ENUM_MAX_N}, got {n}"
        )
    if orientation not in (MAXIMIZE, MINIMIZE):
        raise ValueError(f"bad orientation {orientation!r}")
    cells, d = scale_to_integers(m)
    f = oriented(cells, orientation)
    if max(map(abs, f.flat), default=0) < 2**63:
        f = f.astype(np.int64)
    results = []
    for size in range(1, n + 1):
        supports = np.array(list(itertools.combinations(range(n), size)))
        systems = np.zeros((len(supports), size + 1, size + 2), f.dtype)
        systems[:, :size, :size] = f[supports[:, :, None], supports[:, None, :]]
        systems[:, :size, size] = -1
        systems[:, size, :size] = 1
        systems[:, size, size + 1] = 1
        num, det = solve_stacked(systems)
        if logger.isEnabledFor(logging.DEBUG):
            for support in supports[det == 0].tolist():
                logger.debug("singular support system skipped: %s", tuple(support))
        keep = (det > 0) & (num[:, :size] > 0).all(axis=1)
        supports, x, w, det = supports[keep], num[keep, :size], num[keep, size], det[keep]
        keep = ((f[:, supports] * x).sum(axis=2) <= w).all(axis=0)
        for support, xs, wv, dv in zip(supports[keep].tolist(), x[keep].tolist(),
                                       w[keep].tolist(), det[keep].tolist()):
            probs = dict(zip(support, xs))
            x_exact = tuple(Fraction(probs.get(i, 0), dv) for i in range(n))
            value = Fraction(oriented(wv, orientation), dv * d)
            results.append(SymmetricEquilibrium(x_exact, value, tuple(support)))
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
    grids_exact = [list(simplex_grid(c, resolution)) for c in counts]
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


def prior_worst_regret(tensors, grids, denominators):
    """Largest regret numerator over players at every joint grid profile.

    `grids[q]` holds player q's points as rows of integer numerators over
    `denominators[q]` = m_q.  Player p's deviation payoffs are integers over
    D * prod(m_q, q != p), so m_p * max(dev) - cur is its regret over the
    common scale D * prod(m_q).
    """
    n_players = len(grids)
    act = [chr(ord("a") + p) for p in range(n_players)]
    gl = [chr(ord("A") + p) for p in range(n_players)]
    worst = None
    for p in range(n_players):
        others = [q for q in range(n_players) if q != p]
        sub_in = "".join(act) + "," + ",".join(gl[q] + act[q] for q in others)
        dev = np.einsum(sub_in + "->" + act[p] + "".join(gl[q] for q in others),
                        tensors[p], *[grids[q] for q in others])
        cur = np.einsum(gl[p] + act[p] + "," + act[p] + "".join(gl[q] for q in others)
                        + "->" + "".join(gl), grids[p], dev)
        r = denominators[p] * np.expand_dims(dev.max(axis=0), axis=p) - cur
        worst = r if worst is None else np.maximum(worst, r)
    return worst


def prior_gradient(problem, x, y):
    xv, yv = _point(problem, x, y)
    gx = problem.mt_float @ yv - problem.qx_float @ xv
    gy = problem.qy_float @ yv + problem.m_float @ xv
    return gx, gy


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


def prior_wsne_and_value(rows, d, x):
    """WSNE slack of (x, x) and the value x^T M x, from one integer product.

    `rows` is M, folded into the players' direction, as integers over d
    (`rational.scale_to_integers`); x is exact.  The caller validates.
    """
    xs, dx = scale_to_integers(x)
    support = xs > 0
    if not support.any():
        raise PreconditionError("empty support")
    payoffs = rows.dot(xs)  # M x, integers over d * dx
    slack = Fraction(payoffs.max() - payoffs[support].min(), d * dx)
    return slack, Fraction(payoffs.dot(xs), d * dx * dx)


def prior_wsne_value_audit(
    graph,
    regime,
    resolution=Fraction(1, 6),
):
    """Check the two well-supported value bounds on A-bar(G, delta), exactly.

    Candidates are every simplex grid point at `resolution`, every exact
    symmetric equilibrium, and rational perturbations of those equilibria.
    For each candidate x with measured well-supported slack e (the smallest
    e for which x is an e-WSNE):

      * support inside a maximum clique:  value >= 1 - 1/k + delta/k
        - ((k - delta)/(1 - delta)) e, and x is within that same factor of
        the uniform clique profile in sup norm;
      * support not inside any maximum clique:  value <= 1 - 1/k + delta/k
        - 2 delta / (n^2 k^4) + 2 e.

    All comparisons are exact rational arithmetic; a violation raises.
    """
    if regime.n != graph.n:
        raise DimensionError("regime n does not match the graph")
    n, k = graph.n, regime.k
    true_k, _ = max_clique(graph)
    if true_k != k:
        raise PreconditionError(f"regime says k = {k} but the maximum clique has {true_k}")
    delta = regime.delta
    a = payoff_from_graph_delta(graph, delta)
    maxima = cliques_of_size(graph, k)
    clique_sets = [frozenset(c) for c in maxima]
    uniforms = {
        frozenset(c): clique_uniform(graph, c).exact for c in maxima
    }

    candidates: dict[FVec, None] = {}
    for point in simplex_grid(n, resolution):
        candidates.setdefault(point, None)
    eqs = prior_symmetric_support_enumeration(a, orientation=MAXIMIZE)
    uniform = tuple(Fraction(1, n) for _ in range(n))
    for eq in eqs:
        candidates.setdefault(eq.probs, None)
        for weight in (Fraction(1, 100), Fraction(1, 10)):
            mixed = tuple(
                (1 - weight) * p + weight * q for p, q in zip(eq.probs, uniform)
            )
            candidates.setdefault(mixed, None)
            for v in range(n):
                toward = tuple(
                    (1 - weight) * p + (weight if i == v else 0)
                    for i, p in enumerate(eq.probs)
                )
                candidates.setdefault(toward, None)

    base = 1 - Fraction(1, k) + delta / k
    factor = Fraction(k - delta, 1 - delta) if delta != 1 else None
    other_cap_const = base - 2 * delta / (n**2 * k**4)
    records = []
    min_clique_value = None
    max_other_value = None
    rows, d = scale_to_integers(a)  # maximizing players: nothing to fold
    for probs in candidates:
        eps_hat, value = prior_wsne_and_value(rows, d, probs)
        support = frozenset(i for i, p in enumerate(probs) if p > 0)
        containing = [c for c in clique_sets if support <= c]
        clique_supported = bool(containing)
        if clique_supported:
            lower = base - factor * eps_hat
            if value < lower:
                raise BoundViolationError(
                    f"clique-supported candidate {probs} has value {value} < {lower}"
                )
            dist_bound = factor * eps_hat
            best_dist = min(
                max(abs(p - q) for p, q in zip(probs, uniforms[c]))
                for c in containing
            )
            if best_dist > dist_bound:
                raise BoundViolationError(
                    f"clique-supported candidate {probs} strays {best_dist} "
                    f"> {dist_bound} from the uniform clique profile"
                )
            if min_clique_value is None or value < min_clique_value:
                min_clique_value = value
        else:
            upper = other_cap_const + 2 * eps_hat
            if value > upper:
                raise BoundViolationError(
                    f"non-clique candidate {probs} has value {value} > {upper}"
                )
            if max_other_value is None or value > max_other_value:
                max_other_value = value
        records.append(
            WsneCandidateRecord(probs, eps_hat, value, clique_supported)
        )
    def as_float(value):
        return float(value) if value is not None else None

    # the records the CLI built from a passing report
    bounds = (
        checks.BoundRecord("wsne_clique_value", float(base), as_float(min_clique_value), True),
        checks.BoundRecord("wsne_nonclique_value", float(other_cap_const),
                           as_float(max_other_value), True),
        checks.BoundRecord("wsne_closeness", None, None, True),
    )
    report = WsneValueReport(
        k=k,
        records=tuple(records),
        offenders=(),
        clause_bounds=(base, factor, other_cap_const),
    )
    assert (report.candidates, report.min_clique_value, report.max_other_value, report.bounds) == (
        len(records), min_clique_value, max_other_value, bounds
    )
    return report


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


def one_action_game():
    """A three-player game whose middle player has a single action."""
    rng = np.random.default_rng(5)
    payoffs = tuple(np.array([Fraction(int(v), 3) for v in rng.integers(-6, 7, 6)],
                             dtype=object).reshape(3, 1, 2) for _ in range(3))
    return NormalFormGame(payoffs, (MAXIMIZE, MINIMIZE, MAXIMIZE))


def kernel_worst_regret(game, resolution):
    """Every player's regrets x . gap on the joint grid, their maximum, and the prior's."""
    nf = oracle._as_normal_form(game)
    m = resolution.denominator
    tensors, _, _ = oracle._integer_tensors(nf, [m] * nf.n_players)
    grids = [np.array(list(_compositions(m, c)), dtype=tensors[0].dtype)
             for c in nf.action_counts]
    regrets = []
    for p, tensor in enumerate(tensors):
        gap = oracle._regret_gaps(tensor, grids, p)
        assert gap.shape == (nf.action_counts[p],) + tuple(
            len(g) for q, g in enumerate(grids) if q != p)
        assert (gap >= 0).all()
        regrets.append(np.moveaxis(np.tensordot(grids[p], gap, axes=(1, 0)), 0, p))
    return np.maximum.reduce(regrets), prior_worst_regret(tensors, grids, [m] * nf.n_players)


def assert_kernel_matches_the_prior(game, resolution):
    new, old = kernel_worst_regret(game, resolution)
    assert new.dtype == old.dtype and np.array_equal(new, old)
    assert (new >= 0).all()


@settings(max_examples=60, deadline=None)
@given(st.one_of(bimatrix_cases(), tensor_cases()), st.sampled_from([Fraction(1, 2), Fraction(1, 3)]))
def test_regret_gaps_match_the_prior_worst_regret_on_random_games(case, resolution):
    assert_kernel_matches_the_prior(case[0], resolution)


def test_regret_gaps_match_the_prior_worst_regret_with_a_one_action_player():
    game = one_action_game()
    for resolution in (Fraction(1, 1), Fraction(1, 4)):
        assert_kernel_matches_the_prior(game, resolution)
    found = 0
    for eps in (Fraction(0), Fraction(1, 3), Fraction(2)):
        new = oracle.grid_ne_search(game, Fraction(1, 4), eps)
        assert_same_hits(new, prior_grid_ne_search(game, Fraction(1, 4), eps))
        found += len(new)
    assert found > 0  # the comparison is not vacuous
    strategies = [(Fraction(1, 3), Fraction(0), Fraction(2, 3)), (1,), (Fraction(1, 5), Fraction(4, 5))]
    assert oracle.exact_max_regret(game, strategies) == prior_exact_max_regret(game, strategies)


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
        assert gadgets.symmetric_regret(matrix, x) == prior_max_vi_residual(matrix, x)


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


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_gradient_matches_the_prior_products_bit_for_bit(nx, ny, seed):
    rng = np.random.default_rng(seed)
    problem = QuadraticMinMaxProblem(
        symmetrised(_rational_matrix(rng, nx, nx)),
        symmetrised(_rational_matrix(rng, ny, ny)),
        _rational_matrix(rng, ny, nx),
    )
    # interior points, and vertices, where components vanish: zeros keep their sign
    for x, y in ((rng.dirichlet(np.ones(nx)), rng.dirichlet(np.ones(ny))),
                 (np.eye(nx)[seed % nx], np.eye(ny)[seed % ny])):
        for new, old in zip(gradient(problem, x, y), prior_gradient(problem, x, y)):
            assert new.tobytes() == old.tobytes()


def test_check_fone_matches_on_quadratic_gadgets():
    rng = np.random.default_rng(5)
    for n in (2, 3, 7):
        problem = gadgets.quadratic_gadget(
            fmat([[Fraction(int(v), 8) for v in row] for row in rng.integers(-8, 9, (n, n))])
        )
        for _ in range(20):
            x, y = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
            assert check_fone(problem, x, y) == prior_check_fone(problem, x, y)


# ---------------------------------------------------------------------------
# the stacked solve


@st.composite
def integer_stacks(draw):
    """Stacks of square integer systems [A | b], small or large entries, some singular."""
    n, batch = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    large = draw(st.booleans())
    entry = st.sampled_from([0, 1, -1])
    entry |= st.integers(-2**30, 2**30) if large else st.integers(-3, 3)
    systems = draw(st.lists(
        st.lists(st.lists(entry, min_size=n + 1, max_size=n + 1), min_size=n, max_size=n),
        min_size=batch, max_size=batch))
    for system in systems:
        if n >= 2 and draw(st.booleans()):  # singular: A repeats a row, b need not
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            system[j][:n] = system[i][:n]
    return systems, draw(st.sampled_from([np.int64, object]))


def assert_stack_matches_the_prior(systems, dtype):
    n = len(systems[0])
    num, det = solve_stacked(np.array(systems, dtype=dtype))
    assert num.shape == (len(systems), n) and det.shape == (len(systems),)
    for system, x, q in zip(systems, num.tolist(), det.tolist()):
        old = prior_solve_linear([[Fraction(v) for v in row[:n]] for row in system],
                                 [Fraction(row[n]) for row in system])
        if old is None:
            assert q == 0 and x == [0] * n
        else:
            assert q > 0 and tuple(Fraction(v, q) for v in x) == old


@settings(max_examples=200, deadline=None)
@given(integer_stacks())
def test_stacked_solve_matches_the_prior_gauss_jordan(case):
    systems, dtype = case
    assert_stack_matches_the_prior(systems, dtype)


def test_stacked_solve_picks_int64_only_under_the_hadamard_bound():
    rng = np.random.default_rng(9)
    small = rng.integers(-3, 4, (5, 6, 7))
    large = rng.integers(-2**20, 2**20, (5, 6, 7))
    # 6 x 6 minors of 2^20-entries reach 2^135: int64 would wrap
    for systems in (small, large, np.concatenate([small, large])):
        assert_stack_matches_the_prior(systems.tolist(), np.int64)
    assert solve_stacked(small)[1].dtype == np.int64
    assert solve_stacked(large)[1].dtype == object
    assert solve_stacked(np.concatenate([small, large]))[1].dtype == object
    # at n = 1 the bound is 2 H^2 < 2^63: a peak of 2^31 - 1 is int64, and 2^31,
    # where 2 H^2 is 2^63 exactly, is not
    for peak, dtype in ((2**31 - 1, np.int64), (2**31, object)):
        edge = [[[peak, 0]], [[-1, 0]], [[3, 0]]]
        assert_stack_matches_the_prior(edge, np.int64)
        assert solve_stacked(np.array(edge))[1].dtype == dtype
    # at n = 2 the factor is 3, so the same peak is past the bound; a zero row
    # counts as norm 1, so it hides no other row's peak
    for edge in ([[[2**31 - 1, 0, 0], [0, 1, 0]]], [[[2**40, 1, 1], [0, 0, 0]]]):
        assert_stack_matches_the_prior(edge, np.int64)
        assert solve_stacked(np.array(edge))[1].dtype == object
    # a single entry of -2^63 has magnitude 2^63: not int64
    edge = np.array([[[-2**63, 1]], [[1, 1]]], dtype=np.int64)
    assert solve_stacked(edge)[1].dtype == object
    assert solve_stacked(edge)[0].tolist() == [[-1], [1]]


def test_stacked_solve_swaps_to_the_first_nonzero_pivot():
    # column 0 is zero in row 0; rows 1 and 2 both hold a pivot
    systems = [[[0, 1, 2, 1], [0, 3, 1, 2], [4, 0, 1, 3]],
               [[0, 2, 1, 1], [5, 1, 0, 2], [1, 0, 3, 3]],
               [[0, 0, 1, 1], [0, 0, 2, 2], [1, 1, 1, 1]]]
    assert_stack_matches_the_prior(systems, np.int64)
    assert_stack_matches_the_prior(systems, object)


def stack_with_int64_steps(n, j, rng):
    """Four n x (n + 1) systems whose Bareiss step j would wrap in int64.

    A diagonal c with off-diagonal entries and right-hand sides in -3..3:
    the pivot and the diagonal entries before step k are about c^(k + 1),
    so step j multiplies two numbers near c^(2j + 2) >= 2^63.5, while
    2 M_j^2, about 2 c^(2j), stays below 2^63 (M_j the product of j row
    norms).  At j = n there is no step j, and (n + 1) H^2 < 2^63.
    """
    c = math.ceil(2 ** (63.5 / (2 * (j + 1))))
    systems = rng.integers(-1, 2, (4, n, n + 1))
    systems[:, :, n] = rng.integers(-3, 4, (4, n))
    systems[:, range(n), range(n)] = c * rng.choice([-1, 1], (4, n))
    return systems.tolist()


def test_a_stack_runs_wholly_in_int64_only_when_no_step_would_wrap():
    rng = np.random.default_rng(25)
    for n in range(1, 7):
        for j in range(n + 1):
            systems = stack_with_int64_steps(n, j, rng)
            for dtype in (np.int64, object):
                assert_stack_matches_the_prior(systems, dtype)
                assert solve_stacked(np.array(systems, dtype=dtype))[1].dtype == (
                    np.int64 if j == n else object)


# ---------------------------------------------------------------------------
# batched enumeration on the bordered games


def unliftable(matrix):
    """The matrix with its last row's first cell set to the corner's value.

    A bordered game's last action then has a row that is not constant, so
    the enumeration lifts no border and the stacks solve every support of
    the whole matrix, with the border's denominators in every system that
    holds it.
    """
    cells = np.array(matrix, dtype=object)
    assert cells[-1, 0] != cells[-1, -1]
    cells[-1, 0] = cells[-1, -1]
    return rational.fmat(cells)


def test_enumeration_matches_on_bordered_games(monkeypatch):
    dtypes = set()

    def recording(systems):
        num, det = solve_stacked(systems)
        dtypes.add(det.dtype)
        return num, det

    monkeypatch.setattr(oracle, "solve_stacked", recording)
    for n, seed in ((8, 1), (9, 2)):
        g = gnp_graph(n, seed)
        k, _ = max_clique(g)
        games = [unique_ne_game(g, kk) for kk in (k, k + 1) if 2 <= kk <= n]
        regime = ParameterRegime(n=n, k=k, delta=Fraction(1, 2), epsilon=Fraction(1, 10**9))
        games.append(robust_unique_ne_game(g, regime))
        for game in games:
            matrix = unliftable(game.row_payoff)
            new = oracle.symmetric_support_enumeration(matrix, MAXIMIZE)
            assert new
            assert_same_equilibria(new, prior_symmetric_support_enumeration(matrix))
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}  # both paths ran


def test_enumeration_matches_with_one_huge_payoff():
    # a payoff near 2^61: the stacks of supports that hold it run on Python
    # ints, the others in int64, and the off-support test multiplies it in both
    rng = np.random.default_rng(4)
    for trial in range(40):
        cells = rng.integers(-3, 4, (4, 4)).tolist()
        i, j = rng.integers(0, 4, 2)
        cells[i][j] = int(rng.choice([-1, 1])) * (2**61 + int(rng.integers(0, 99)))
        matrix = fmat(cells)
        for orientation in (MAXIMIZE, MINIMIZE):
            assert_same_equilibria(
                oracle.symmetric_support_enumeration(matrix, orientation),
                prior_symmetric_support_enumeration(matrix, orientation),
            )


def test_enumeration_matches_with_a_payoff_beyond_int64():
    # a payoff near 2^70: F is a Python-int array, so the stacks that hold it
    # and the off-support product run on Python ints
    rng = np.random.default_rng(7)
    for trial in range(30):
        n = int(rng.integers(1, 6))
        cells = rng.integers(-3, 4, (n, n)).tolist()
        i, j = rng.integers(0, n, 2)
        cells[i][j] = int(rng.choice([-1, 1])) * (2**70 + int(rng.integers(0, 99)))
        for orientation in (MAXIMIZE, MINIMIZE):
            assert_same_equilibria(
                oracle.symmetric_support_enumeration(fmat(cells), orientation),
                prior_symmetric_support_enumeration(fmat(cells), orientation),
            )


@st.composite
def planted_matrices(draw):
    """Integer matrices of size 1-7; a copied action makes every support
    that holds both copies singular."""
    n = draw(st.integers(1, 7))
    entry = st.integers(-9, 9) | st.integers(-2**40, 2**40)
    m = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                               min_size=n, max_size=n)), dtype=np.int64)
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        m[j], m[:, j] = m[i], m[:, i]
    lo = draw(st.integers(1, n))
    return m, range(lo, draw(st.integers(lo, n)) + 1)


@settings(max_examples=100, deadline=None)
@given(planted_matrices())
def test_padded_stack_gives_each_system_its_own_stacks_solution(case):
    f, sizes = case
    supports, member, systems = oracle._padded_stack(f, sizes)
    num, det = solve_stacked(systems)
    start = 0
    for s in sizes:
        own_supports, _, own = oracle._padded_stack(f, range(s, s + 1))
        assert own.shape[1:] == (s + 1, s + 2)  # one size: no padding
        own_num, own_det = solve_stacked(own)
        block = slice(start, start + len(own))
        assert supports[block] == own_supports
        assert [tuple(np.flatnonzero(r)) for r in member[block]] == own_supports
        assert det[block].tolist() == own_det.tolist()
        assert num[block, :s + 1].tolist() == own_num.tolist()
        assert not num[block, s + 1:].any()
        start = block.stop
    assert start == len(supports)


def test_enumeration_of_the_empty_and_the_one_action_matrix():
    assert oracle.symmetric_support_enumeration(rational.fmat([])) == []
    for orientation in (MAXIMIZE, MINIMIZE):
        (eq,) = oracle.symmetric_support_enumeration([[Fraction(-3, 2)]], orientation)
        assert (eq.probs, eq.value, eq.support) == ((1,), Fraction(-3, 2), (0,))


def test_enumeration_at_the_cap_keeps_every_stack_within_the_memory_budget(monkeypatch):
    """At n = 12 no padded stack holds more entries than the largest stack of
    one support size, and the equilibria are the per-size enumeration's."""
    n = SUPPORT_ENUM_MAX_N
    budget = max(math.comb(n, s) * (s + 1) * (s + 2) for s in range(1, n + 1))
    sizes = []

    def recording(systems):
        sizes.append(systems.size)
        return solve_stacked(systems)

    monkeypatch.setattr(oracle, "solve_stacked", recording)
    g = gnp_graph(n - 1, 1)
    k, _ = max_clique(g)
    bordered = unliftable(unique_ne_game(g, max(k, 2)).row_payoff)
    for matrix in (payoff_from_graph(gnp_graph(n, 1)), bordered):
        new = oracle.symmetric_support_enumeration(matrix)
        assert new
        assert_same_equilibria(new, per_size_symmetric_support_enumeration(matrix))
    assert len(sizes) == 2 * len(oracle._stack_sizes(n)) < 2 * n
    assert max(sizes) <= budget


def test_enumeration_logs_one_summary_line_at_debug(caplog):
    bordered = unliftable(unique_ne_game(gnp_graph(9, 2), 3).row_payoff)
    for n, matrix, wide in ((6, payoff_from_graph(gnp_graph(6, 3)), False), (10, bordered, True)):
        caplog.clear()
        with caplog.at_level(logging.DEBUG):
            found = oracle.symmetric_support_enumeration(matrix)
        singular = [r for r in caplog.records if r.name == "minmaxlab.oracle"]
        (line,) = [r for r in caplog.records if r.name == "minmaxlab.oracle.enum"]
        assert caplog.records[-1] is line  # after the per-support lines
        tried, skipped, stacks, narrow, python_int, equilibria = line.args
        assert tried == 2**n - 1 and narrow + python_int == tried
        assert skipped == len(singular) > 0
        assert stacks == len(oracle._stack_sizes(n))
        assert (python_int > 0) == wide
        assert equilibria == len(found)
    caplog.clear()
    with caplog.at_level(logging.INFO):
        oracle.symmetric_support_enumeration(matrix)
    assert not caplog.records


def test_enumeration_logs_each_singular_support_in_order(caplog):
    g = gnp_graph(6, 3)
    matrix = payoff_from_graph(g)
    with caplog.at_level(logging.DEBUG):
        oracle.symmetric_support_enumeration(matrix)
    new = [r.getMessage() for r in caplog.records if r.name == "minmaxlab.oracle"]
    caplog.clear()
    with caplog.at_level(logging.DEBUG):
        prior_symmetric_support_enumeration(matrix)
    old = [r.getMessage() for r in caplog.records if r.name == __name__]
    assert new and new == old


# ---------------------------------------------------------------------------
# one census per payoff class: lifted borders and the kept census


def census_spy():
    """Wraps the stacked census, so its call count is the number of censuses run."""
    return mock.patch.object(oracle, "_stacked_census", wraps=oracle._stacked_census)


def summary(records) -> list[logging.LogRecord]:
    return [r for r in records if r.name == "minmaxlab.oracle.enum"]


def test_the_clique_games_of_a_graph_match_the_prior_from_one_census():
    for g in GRAPHS + [gnp_graph(8, 1)]:
        k, _ = max_clique(g)
        regime = ParameterRegime(n=g.n, k=k, delta=Fraction(1, 2), epsilon=Fraction(1, 10**9))
        matrices = [payoff_from_graph(g)]
        matrices += [unique_ne_game(g, kk).row_payoff for kk in (k, k + 1) if 2 <= kk <= g.n]
        matrices += [robust_unique_ne_game(g, regime).row_payoff,
                     payoff_from_graph_delta(g, Fraction(1, 2))]
        with census_spy() as spy:
            for matrix in matrices:
                new = oracle.symmetric_support_enumeration(matrix)
                assert new
                assert_same_equilibria(new, prior_symmetric_support_enumeration(matrix))
        assert spy.call_count == 1


@st.composite
def bordered_matrices(draw):
    """Rational matrices of 2-7 actions whose last one or two actions are
    constant borders, and an orientation.  The entries take few values, and
    a border's r is often its corner v or its c the first core entry, so
    ties (degenerate borders) are common."""
    n = draw(st.integers(2, 7))
    entry = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
    m = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)),
                 dtype=object)
    for b in range(n - draw(st.integers(1, min(2, n - 1))), n):
        m[b, :b] = draw(st.sampled_from([m[0, 0]]) | entry)
        m[:b, b] = draw(st.sampled_from([m[b, b]]) | entry)
    return rational.fmat(m), draw(ORIENTATIONS)


@settings(max_examples=200, deadline=None)
@given(bordered_matrices())
def test_lifted_borders_match_the_prior(case):
    matrix, orientation = case
    oracle._last_census = None
    old = prior_symmetric_support_enumeration(matrix, orientation)
    with census_spy() as spy:
        for _ in range(2):  # the second call lifts the kept census
            assert_same_equilibria(oracle.symmetric_support_enumeration(matrix, orientation), old)
    assert spy.call_count == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(st.lists(RATIONALS, min_size=n, max_size=n),
                                                    min_size=n, max_size=n)),
       ORIENTATIONS, st.builds(Fraction, st.integers(1, 9), st.integers(1, 5)), RATIONALS)
def test_an_affine_image_and_the_negated_game_reuse_the_census(rows, orientation, alpha, beta):
    """alpha M + beta J, and -M in the other orientation, right after M."""
    oracle._last_census = None
    other = MINIMIZE if orientation == MAXIMIZE else MAXIMIZE
    cases = [(rows, orientation), ([[alpha * a + beta for a in row] for row in rows], orientation),
             ([[-a for a in row] for row in rows], other)]
    with census_spy() as spy:
        for cells, o in cases:
            matrix = rational.fmat(cells)
            assert_same_equilibria(oracle.symmetric_support_enumeration(matrix, o),
                                   prior_symmetric_support_enumeration(matrix, o))
    assert spy.call_count == 1


def test_interleaved_classes_each_get_their_own_census():
    a = payoff_from_graph(gnp_graph(7, 1))
    b = unique_ne_game(gnp_graph(6, 2), 2).row_payoff
    with census_spy() as spy:
        for matrix in (a, b, a):
            assert_same_equilibria(oracle.symmetric_support_enumeration(matrix),
                                   prior_symmetric_support_enumeration(matrix))
    assert spy.call_count == 3


def test_a_caller_changing_the_returned_list_changes_no_later_result():
    g = gnp_graph(6, 3)
    for matrix in (payoff_from_graph(g), unique_ne_game(g, 3).row_payoff):
        first = oracle.symmetric_support_enumeration(matrix)
        expected = [(e.probs, e.value, e.support) for e in first]
        first.reverse()
        first[0] = None
        first.append(first[-1])
        again = oracle.symmetric_support_enumeration(matrix)
        assert [(e.probs, e.value, e.support) for e in again] == expected


def test_a_lift_and_a_kept_census_each_log_one_line(caplog):
    g = gnp_graph(7, 1)
    k, _ = max_clique(g)
    with caplog.at_level(logging.DEBUG):
        census = oracle.symmetric_support_enumeration(payoff_from_graph(g))
        (line,) = summary(caplog.records)
        assert line.args[0] == 2**7 - 1  # A(G) has no border: every support was tried
        caplog.clear()
        found = oracle.symmetric_support_enumeration(unique_ne_game(g, k).row_payoff)
    kept, lift = summary(caplog.records)
    assert kept.getMessage() == (
        f"support enumeration: reused the last census of a 7-action core, {len(census)} equilibria")
    assert lift.getMessage() == (
        f"support enumeration: lifted 1 constant border(s) onto a 7-action core, "
        f"{len(found)} equilibria")
    assert caplog.records == [kept, lift]  # no census ran, so no support line either


def test_only_a_census_that_solved_stacks_logs_a_summary(caplog):
    g = gnp_graph(7, 1)
    k, _ = max_clique(g)
    with caplog.at_level(logging.DEBUG):
        oracle.symmetric_support_enumeration(rational.fmat([]))
        assert not caplog.records
        found = oracle.symmetric_support_enumeration(unique_ne_game(g, k).row_payoff)
    line, lift = summary(caplog.records)
    tried, skipped, stacks, narrow, python_int, equilibria = line.args
    assert tried == 2**7 - 1 and stacks == len(oracle._stack_sizes(7))  # the core's supports
    assert lift.args == (1, 7, len(found))
    assert caplog.records[-2:] == [line, lift]


# ---------------------------------------------------------------------------
# the batched WSNE value audit

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  the benchmark's census menu

PETERSEN = Graph.from_edges(10, [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
])  # criterion 08's 10-vertex graph


def audit_graphs():
    menu = [workloads.census_entry(n, i)["graph"] for n, i in workloads.census_menu() if n <= 7]
    complete = [Graph.from_edges(n, itertools.combinations(range(n), 2)) for n in (4, 5, 7)]
    return menu + complete + [PETERSEN]


def assert_same_audit(graph, delta):
    k, _ = max_clique(graph)
    regime = ParameterRegime(n=graph.n, k=k, delta=delta,
                             epsilon=delta * (1 - delta) / (12 * graph.n**7))
    try:
        old = prior_wsne_value_audit(graph, regime)
    except BoundViolationError as exc:
        with pytest.raises(BoundViolationError) as new:
            cliques.wsne_value_audit(graph, regime)
        assert str(new.value) == str(exc)
        return False
    assert cliques.wsne_value_audit(graph, regime) == old
    return True


def test_wsne_value_audit_matches_the_prior_on_the_census_menu():
    graphs = [g for g in audit_graphs() if max_clique(g)[0] >= 2]
    assert len(graphs) > 100
    assert all(assert_same_audit(g, Fraction(1, 2)) for g in graphs)


def test_wsne_value_audit_matches_the_prior_with_a_large_delta_denominator():
    # D = 2^32 and equilibrium denominators near it: x^T M x leaves int64
    delta = Fraction(2**31 - 1, 2**32)
    graphs = [Graph.from_edges(3, [(0, 1), (1, 2)]), gnp_graph(5, 1)]
    assert all(assert_same_audit(g, delta) for g in graphs)


def test_wsne_value_audit_matches_the_prior_on_violations():
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    outcomes = [assert_same_audit(g, delta)
                for g in (path3, gnp_graph(5, 1), gnp_graph(6, 2))
                for delta in (Fraction(1, 10), Fraction(9, 10), Fraction(99, 100))]
    assert False in outcomes and True in outcomes  # both a violation and a pass
