"""Brute-force ground truth: support enumeration, cliques, grid search, refinement.

Everything here is meant to be slow but trustworthy at desk scale, so the
closed forms and reduction gadgets can be audited against independent
computations.  Support enumeration decides in exact rationals and grid
search in exact integers; only local refinement works in floats.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .checks import Certificate, epsilon_ne_report, require_finite_nonnegative
from .errors import CapExceededError, DimensionError, PreconditionError
from .games import (
    MAXIMIZE,
    MINIMIZE,
    Game,
    MixedProfile,
    MixedStrategy,
    NormalFormGame,
    PolymatrixGame,
    best_deviation,
    deviation_kernel,
    oriented,
    profile_probs,
    split_players,
    to_normal_form,
)
from .geometry import _compositions, _resolution_denominator, grid_size
from .rational import FVec, carrier, fmat, fvec, scale_to_integers, solve_stacked, to_fraction

logger = logging.getLogger(__name__)
# one counter line per support enumeration, apart from its per-support lines
_summary_logger = logging.getLogger(f"{__name__}.enum")

SUPPORT_ENUM_MAX_N = 12
# element work (entries times steps, `_stack_sizes`) that padding may add to
# a stack of support systems before the next size gets a stack of its own;
# near this much, one more call of `solve_stacked` costs what the padding
# does (docs/decisions.md, "Exact integer core")
_STACK_PAD_WORK = 20_000
MAX_CLIQUE_MAX_N = 20
GRID_SEARCH_CAP = 100_000_000
# entries of player 0's regret array per chunk of its grid: integers carried
# in float64 (2 MB a chunk), or Python ints, which take far more memory and
# time per entry
_GRID_CHUNK_ENTRIES = {"i": 2**18, "O": 200_000}
REFINE_MAX_ITERS = 100_000
REFINE_DAMPING = 0.1
_STALL_CHECKPOINT = 250  # the stall rule's checkpoints are 250 * 2^k iterations
_STALL_FINISH_MARGIN = 4  # a start may project to finish within 4 * max_iters
_PAIRWISE_BLOCK = 8  # np.add.reduce sums fewer entries left to right from 0.0


@dataclass(frozen=True)
class SymmetricEquilibrium:
    """Exact symmetric equilibrium (x, x) of a two-player game (M, M^T)."""

    probs: FVec
    value: Fraction
    support: tuple[int, ...]

    @property
    def strategy(self) -> MixedStrategy:
        return MixedStrategy.from_exact(self.probs)


def symmetric_support_enumeration(
    matrix, orientation: str = MAXIMIZE
) -> list[SymmetricEquilibrium]:
    """Enumerate all exact symmetric equilibria (x, x) of the game (M, M^T).

    Both players share the deviation vector Mx, so (x, x) is an equilibrium
    iff (Mx)_i = v on the support and every off-support payoff is no better
    than v in the given orientation.  The linear systems of the supports of
    a run of consecutive sizes are padded to one stack and solved together,
    exactly, in integers (`_stack_sizes`, `_padded_stack`,
    `rational.solve_stacked`); singular systems (which can hide equilibrium
    continua) are skipped and logged.
    Solutions must be strictly positive on their support, so each
    equilibrium is reported once, under its true support.

    Each payoff class is enumerated once.  While the last action's row and
    column are constant off the corner, that action is a border, and the
    equilibria of the bordered matrix are lifted from those of the matrix
    inside it (`_lift_border`).  The core left inside is a positive multiple
    of an integer matrix C plus a constant, and the last census of a C is
    kept for the next call (`_core_census`).  The result is the equilibrium
    list that the stacks give for the whole matrix (docs/decisions.md,
    "Bordering lemma and one census per class").

    M need not be symmetric: for a matrix R this enumerates the symmetric
    equilibria of (R, R^T).  When M is symmetric these are also the symmetric
    equilibria of the identical-payoff game (M, M).
    """
    m = fmat(matrix)
    n, n2 = m.shape
    if n != n2:
        raise DimensionError("square matrix required")
    if n > SUPPORT_ENUM_MAX_N:
        raise CapExceededError(
            f"support enumeration capped at n = {SUPPORT_ENUM_MAX_N}, got {n}"
        )
    if orientation not in (MAXIMIZE, MINIMIZE):
        raise ValueError(f"bad orientation {orientation!r}")
    # F = oriented(M) * D in integers; a value w of F is oriented(w) / D of M
    cells, d = scale_to_integers(m)
    f = oriented(cells, orientation)
    k = n
    while k >= 2 and len({*f[k - 1, :k - 1].tolist()}) == len({*f[:k - 1, k - 1].tolist()}) == 1:
        k -= 1
    found = _core_census(f[:k, :k])
    for b in range(k, n):  # border b: c across its row, r down its column, v at the corner
        found = _lift_border(found, b, f[b, 0], f[0, b], f[b, b])
    if k < n:
        _summary_logger.debug("support enumeration: lifted %d constant border(s) onto a "
                              "%d-action core, %d equilibria", n - k, k, len(found))
    results = [SymmetricEquilibrium(x, Fraction(oriented(w, orientation), d), support)
               for x, w, support in found]
    # the core census is in (value, probs) order; a lift or a negating fold changes it
    if k < n or oriented(1, orientation) < 0:
        results.sort(key=lambda eq: (eq.value, eq.probs))
    return results


_Census = list[tuple[FVec, Fraction, tuple[int, ...]]]  # (x, value, support) per equilibrium

# (canonical matrix, its census) of the last core enumerated, rebound whole;
# each graph's clique games arrive back to back, so one is enough
_last_census: tuple[list, _Census] | None = None


def _core_census(f: np.ndarray) -> _Census:
    """The equilibria of the square integer matrix f, with values in f's units.

    f = step * C + low * J, where low is f's smallest entry and step the gcd
    of f - low (1 when f is constant), so C is f's canonical integer form.
    (x, x) is an equilibrium of f iff it is one of C, with value
    step * w + low for C's w, and every support system of f is singular iff
    C's is.  So C's census answers every matrix of its class, and the last
    one is reused.  Both are in (value, probs) order, as step > 0 keeps it.
    """
    global _last_census
    low = min(f.flat, default=0)
    shifted = f - low
    step = math.gcd(*shifted.flat) or 1
    canonical = shifted // step
    key = canonical.tolist()
    last = _last_census
    if last is not None and last[0] == key:
        census = last[1]
        _summary_logger.debug("support enumeration: reused the last census of a "
                              "%d-action core, %d equilibria", len(f), len(census))
    else:
        census = sorted(_stacked_census(canonical), key=lambda eq: (eq[1], eq[0]))
        _last_census = (key, census)
    return [(x, w * step + low, support) for x, w, support in census]


def _stacked_census(f: np.ndarray) -> _Census:
    """The equilibria of the square non-negative integer matrix f, maximized,
    in stacks of padded support systems."""
    n = len(f)
    f = f.astype(carrier(max(f.flat, default=0)), copy=False)
    # supports, singular, stacks, systems wholly in int64, systems on Python ints
    tally = np.zeros(5, int) if _summary_logger.isEnabledFor(logging.DEBUG) else None
    found: _Census = []
    for sizes in _stack_sizes(n):
        supports, member, systems = _padded_stack(f, sizes)
        num, det = solve_stacked(systems)
        if logger.isEnabledFor(logging.DEBUG):
            for i in np.flatnonzero(det == 0).tolist():
                logger.debug("singular support system skipped: %s", supports[i])
        if tally is not None:
            wide = det.dtype == object
            tally += (len(det), np.count_nonzero(det == 0), 1,
                      0 if wide else len(det), len(det) if wide else 0)
        size = member.sum(axis=1)
        # the numerators of x, with 0 in each padded column; w sits at column size
        x = num[:, :-1]
        unknown = np.arange(x.shape[1]) < size[:, None]
        # det > 0 on solved systems, so numerators over det compare as the values do;
        # a singular system has num = 0 and fails
        keep = np.flatnonzero(((x > 0) | ~unknown).all(axis=1))
        xs = np.zeros((len(keep), n), num.dtype)
        xs[member[keep]] = x[keep][unknown[keep]]
        w, det = num[keep, size[keep]], det[keep]
        # (F x)_i = w on the support, so testing every row tests the off-support ones
        # (in int64 this cannot overflow: docs/decisions.md, "Exact integer core")
        ok = np.flatnonzero(((xs @ f.T) <= w[:, None]).all(axis=1)).tolist()
        for i, xv, wv, dv in zip(ok, xs[ok].tolist(), w[ok].tolist(), det[ok].tolist()):
            found.append((tuple(Fraction(p, dv) for p in xv), Fraction(wv, dv),
                          supports[keep[i]]))
    if tally is not None and tally[2]:
        _summary_logger.debug("support enumeration: %d supports, %d singular, %d stacks, "
                              "%d systems wholly in int64, %d with Python-int steps, "
                              "%d equilibria", *tally.tolist(), len(found))
    return found


def _lift_border(found: _Census, b: int, c, r, v) -> _Census:
    """The equilibria of a b-action matrix bordered by action b, from its own.

    In the folded direction the border pays c against every inner action, r
    to each of them and v against itself.  Each inner equilibrium y of
    value u gives (y, 0) when c <= u, and ((1 - t)y, t) with
    t = (u - c) / ((u - c) + (v - r)) when (u - c)(v - r) > 0; the pure
    border is one when r <= v.  There are no others (docs/decisions.md,
    "Bordering lemma and one census per class").
    """
    zero = Fraction(0)
    lifted: _Census = []
    for y, u, support in found:
        gain = u - c
        if gain >= 0:
            lifted.append((y + (zero,), u, support))
        if gain * (v - r) > 0:
            t = gain / (gain + v - r)
            rest = 1 - t
            lifted.append((tuple(rest * p if p else p for p in y) + (t,), rest * u + t * r,
                           support + (b,)))
    if r <= v:
        lifted.append(((zero,) * b + (Fraction(1),), Fraction(v), (b,)))
    return lifted


def _stack_sizes(n: int) -> list[range]:
    """The support sizes 1..n, as runs of consecutive sizes solved in one stack.

    A size joins the stack of the sizes before it while padding every system
    of the run to its unknowns adds at most `_STACK_PAD_WORK` element work:
    a system of size s has s + 1 unknowns, and its elimination works on
    (s + 1)(s + 2) entries over s + 1 steps.
    """
    def work(s: int) -> int:
        return (s + 1) ** 2 * (s + 2)

    runs: list[range] = []
    lo = 1
    for size in range(2, n + 1):
        pad = sum(math.comb(n, s) * (work(size) - work(s)) for s in range(lo, size))
        if pad > _STACK_PAD_WORK:
            runs.append(range(lo, size))
            lo = size
    return runs + [range(lo, n + 1)] if n else runs


def _padded_stack(f: np.ndarray, sizes: range):
    """The support systems of the given sizes, padded to one stack.

    Returns the supports in size-then-combinations order, their membership
    masks over the n actions, and the (batch, N + 1, N + 2) stack, N the
    largest size.  A support S of size s holds its system [F_S, -1; 1^T, 0]
    top left, the identity on the unknowns s + 1..N and its right-hand side
    e_s in the last column, so its pivots, det and numerators are those of
    its own system and its padded numerators are 0 (docs/decisions.md,
    "Exact integer core").
    """
    n, top = len(f), sizes[-1]
    supports = [c for s in sizes for c in itertools.combinations(range(n), s)]
    member = np.zeros((len(supports), n), bool)
    systems = np.zeros((len(supports), top + 1, top + 2), f.dtype)
    start = 0
    for s in sizes:
        block = slice(start, start + math.comb(n, s))
        sup = np.array(supports[block])
        member[np.arange(len(sup))[:, None] + start, sup] = True
        systems[block, :s, :s] = f[sup[:, :, None], sup[:, None, :]]
        systems[block, :s, s] = -1
        systems[block, s, :s] = 1
        systems[block, s, top + 1] = 1
        pad = np.arange(s + 1, top + 1)
        systems[block, pad, pad] = 1
        start = block.stop
    return supports, member, systems


# ---------------------------------------------------------------------------
# cliques


def _adjacency_masks(graph) -> list[int]:
    n = graph.n
    masks = [0] * n
    for i, j in graph.edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


def max_clique(graph) -> tuple[int, tuple[int, ...]]:
    """Exact maximum clique (size, witness): the first size k, from n down,
    with a k-clique.

    Deterministic: among maximum cliques the lexicographically smallest
    vertex tuple is returned.  Capped at 20 vertices.  A Graph has a
    vertex, so k = 1 always returns.
    """
    n = graph.n
    if n > MAX_CLIQUE_MAX_N:
        raise CapExceededError(f"max_clique capped at n = {MAX_CLIQUE_MAX_N}, got {n}")
    for k in range(n, 0, -1):
        cliques = cliques_of_size(graph, k)
        if cliques:
            return k, cliques[0]


def cliques_of_size(graph, k: int) -> list[tuple[int, ...]]:
    """All vertex sets of size k that are cliques, in lexicographic order."""
    n = graph.n
    if n > MAX_CLIQUE_MAX_N:
        raise CapExceededError(f"clique enumeration capped at n = {MAX_CLIQUE_MAX_N}")
    if k < 1 or k > n:
        return []
    adj = _adjacency_masks(graph)
    out: list[tuple[int, ...]] = []

    def expand(cur: tuple[int, ...], cand: int) -> None:
        if len(cur) == k:
            out.append(cur)
            return
        while cand:
            if len(cur) + cand.bit_count() < k:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            expand(cur + (v,), cand & adj[v])

    expand((), (1 << n) - 1)
    return out


# ---------------------------------------------------------------------------
# grid search


def _as_normal_form(game: Game) -> NormalFormGame:
    return to_normal_form(game) if isinstance(game, PolymatrixGame) else game


def _integer_tensors(nf: NormalFormGame, denominators: Sequence[int]):
    """Payoff tensors folded into each player's direction, times D; D; and the bound.

    D is the lcm of the payoff denominators.  When player q plays integer
    numerators over m_q, every regret is an integer over D * prod(m_q), and
    the bound 2 * max|T * D| * prod(m_q) exceeds none of them, nor any entry,
    product or partial sum on the way to one (docs/decisions.md, "Exact
    integer grid").  The tensors carry these integers on the bound's BLAS
    `carrier`: float64, where BLAS rounds none of them, or Python ints.
    """
    cells, d = scale_to_integers(nf.payoffs)  # every player's tensor has the same shape
    bound = 2 * max(map(abs, cells.flat), default=0) * math.prod(denominators)
    dtype = carrier(bound, blas=True)
    return [oriented(t.astype(dtype), o) for t, o in zip(cells, nf.orientation)], d, bound


def _deviations(tensor: np.ndarray, points: Sequence[np.ndarray], p: int) -> np.ndarray:
    """Player p's deviation payoffs, of shape (a_p, point counts of the others).

    The one exact contraction, in whatever field the arrays hold (integers
    carried in float64 or Python ints, Fractions, surds): `points[q]` holds
    player q's points as rows, and `points[p]` is not read.
    """
    dev = tensor
    for q, rows in enumerate(points):
        if q != p:  # contract q's action axis with its points, which take its place
            dev = np.moveaxis(np.tensordot(dev, rows, axes=(q, 1)), -1, q)
    return np.moveaxis(dev, p, 0)


def _regret_gaps(tensor: np.ndarray, grids: list[np.ndarray], p: int) -> np.ndarray:
    """Player p's gaps max(dev) - dev, of shape (a_p, grid sizes of the others).

    `grids[q]` holds player q's points as rows of integer numerators over
    m_q, so dev (`_deviations`) is an integer over D * prod(m_q, q != p).
    A point x of p's grid sums to m_p, so its regret over the common scale
    D * prod(m_q) is m_p * max(dev) - x . dev = x . gap: a sum of
    non-negative terms, each at most the regret itself.
    """
    dev = _deviations(tensor, grids, p)
    return dev.max(axis=0) - dev


def exact_max_regret(game: Game, strategies: Sequence[Iterable]) -> Fraction:
    """Largest regret over players, computed in exact integer arithmetic.

    The profile is a one-point grid: player q's strategy becomes integer
    numerators over the lcm m_q of its denominators, and the regret is an
    integer over D * prod(m_q) (see `_integer_tensors` and `_regret_gaps`).
    Raises DimensionError when the strategies do not fit the game and
    ValueError when one is not a probability vector.
    """
    nf = _as_normal_form(game)
    exact = [fvec(s) for s in strategies]
    if len(exact) != nf.n_players:
        raise DimensionError(f"{len(exact)} strategies for {nf.n_players} players")
    for p, (s, c) in enumerate(zip(exact, nf.action_counts)):
        if len(s) != c:
            raise DimensionError(f"player {p}'s strategy has {len(s)} entries for {c} actions")
        if min(s) < 0 or sum(s) != 1:
            raise ValueError(f"player {p}'s strategy is not a probability vector")
    scaled = [scale_to_integers(s) for s in exact]
    ms = [m for _, m in scaled]
    tensors, d, _ = _integer_tensors(nf, ms)
    grids = [xs[None].astype(t.dtype) for (xs, _), t in zip(scaled, tensors)]
    worst = max(int(np.dot(grids[p][0], _regret_gaps(t, grids, p).ravel()))
                for p, t in enumerate(tensors))
    return Fraction(worst, d * math.prod(ms))


def grid_ne_search(game: Game, resolution, eps) -> list[tuple[MixedProfile, float]]:
    """All grid profiles whose exact max regret is at most eps, in grid order.

    Each player's strategy ranges over the simplex grid with spacing
    `resolution` = 1/m, in the order of `geometry.simplex_grid`, as integer
    numerators over m.  With the payoffs scaled by the lcm D of their
    denominators, every regret on the joint grid is an integer over
    m^n * D (carried in float64 when a bound proves it exact, a Python int
    otherwise), and a profile is a hit iff every player's is at most
    floor(eps * m^n * D).
    The grid is decided player by player (`_regret_gaps`): player 0's
    regrets densely, a chunk of its grid at a time, and each later player's
    only at the profiles every earlier player passed, from its gaps over the
    whole grid when they fit a chunk's budget (built at the first chunk that
    needs them) and over the chunk's otherwise.  Each hit carries its exact
    max regret as a float.  Raises PreconditionError when eps is negative
    and CapExceededError when the number of joint profiles exceeds
    GRID_SEARCH_CAP.
    """
    eps = to_fraction(eps)
    if eps < 0:
        raise PreconditionError(f"eps must be non-negative, got {eps}")
    nf = _as_normal_form(game)
    counts = nf.action_counts
    m = _resolution_denominator(resolution)
    sizes = [grid_size(c, resolution) for c in counts]
    total = math.prod(sizes)
    if total > GRID_SEARCH_CAP:
        raise CapExceededError(f"{total} grid profiles exceed cap {GRID_SEARCH_CAP}")
    ms = [m] * len(counts)
    tensors, d, bound = _integer_tensors(nf, ms)
    scale = d * m ** len(counts)
    # no regret exceeds the bound, which the carrier holds exactly
    threshold = min(math.floor(eps * scale), bound)
    dtype = tensors[0].dtype
    points = [list(_compositions(m, c)) for c in counts]  # tuples of Python ints
    grids = [np.array(xs, dtype=dtype) for xs in points]

    gap0 = _regret_gaps(tensors[0], grids, 0).reshape(counts[0], -1)
    budget = _GRID_CHUNK_ENTRIES["O" if dtype == object else "i"]
    chunk_rows = max(1, min(sizes[0], int(budget // max(1, total // sizes[0]))))
    # a later player's gaps over the whole grid, when they fit the budget: built
    # the first time a chunk leaves that player survivors, then kept
    fits = [total // size * c <= budget for size, c in zip(sizes, counts)]
    whole = [None] * len(counts)
    cache: list[dict[int, MixedStrategy]] = [{} for _ in counts]

    def column(p: int, idx: np.ndarray) -> list[MixedStrategy]:
        """Player p's strategies at grid indices idx, each built once per search,
        unchecked: a grid point lies on the simplex by construction."""
        idx, built = idx.tolist(), cache[p]
        for i in set(idx).difference(built):
            built[i] = MixedStrategy._grid_point(points[p][i], m)
        return list(map(built.__getitem__, idx))

    results = []
    survivors = 0
    for start in range(0, sizes[0], chunk_rows):
        rows = grids[0][start:start + chunk_rows]
        worst = (rows @ gap0).ravel()
        flat = np.flatnonzero(worst <= threshold)
        survivors += len(flat)
        if not len(flat):
            continue
        # grid indices of the survivors, player 0's within the chunk, in C order
        point = np.unravel_index(flat, (len(rows), *sizes[1:]))
        worst = worst[flat]
        for p in range(1, len(counts)):
            if not len(worst):
                break
            if fits[p]:
                if whole[p] is None:
                    whole[p] = _regret_gaps(tensors[p], grids, p)
                gap, first = whole[p], point[0] + start
            else:
                gap, first = _regret_gaps(tensors[p], [rows] + grids[1:], p), point[0]
            at = (slice(None), first) + tuple(i for q, i in enumerate(point) if q not in (0, p))
            r = (grids[p][point[p]].T * gap[at]).sum(axis=0)
            keep = r <= threshold
            point = tuple(i[keep] for i in point)
            worst = np.maximum(worst[keep], r[keep])
        columns = [column(p, i + start if p == 0 else i) for p, i in enumerate(point)]
        # int true division rounds correctly: the bits of float(Fraction(w, scale))
        results += zip(map(MixedProfile._of_strategies, zip(*columns)),
                       (int(w) / scale for w in worst.tolist()))
    logger.debug("grid search: %d profiles, %d pass player 0, %d hits",
                 total, survivors, len(results))
    return results


# ---------------------------------------------------------------------------
# local refinement


@dataclass(frozen=True)
class RefineResult:
    """What `local_ne_refine` returned, and why it stopped.

    A run that did not converge either hit `max_iters` (`stalled_at` is None)
    or was stopped by the stall rule at iteration `stalled_at`.
    `checkpoints` holds (t, best regret over the first t iterations) at each
    t = 250 * 2^k the run reached: the figures the stall rule compared.
    """

    profile: MixedProfile
    max_regret: float
    iterations: int
    converged: bool
    certificate: Certificate | None
    stalled_at: int | None = None
    checkpoints: tuple[tuple[int, float], ...] = ()


def local_ne_refine(
    game: Game,
    start: MixedProfile,
    target_regret: float,
    max_iters: int = REFINE_MAX_ITERS,
    damping: float = REFINE_DAMPING,
) -> RefineResult:
    """Damped fictitious play toward an approximate equilibrium.

    All players simultaneously step toward a pure best response,
    s <- (1 - eta_t) s + eta_t e_br, with eta_t = damping / (1 + damping t):
    the first step uses `damping`, the tail decays like the classic 1/t
    averaging so oscillations shrink instead of limit-cycling.  Stops once
    the max regret reaches `target_regret`, returning a freshly recomputed
    certificate; otherwise returns the best profile seen with a failure flag.

    A stall rule abandons starts that cannot reach the target in time.  At
    each checkpoint t = 500, 1000, 2000, ... it compares the best regret b_t
    with b_{t/2} and stops the start when b_t >= b_{t/2}, or when, at the
    measured rate r = b_{t/2} / b_t per doubling, the projected finish
    t * 2^d with d = log(b_t / target) / log(r) lies beyond 4 * max_iters
    (`_stalled`).  A stopped start returns what a capped one does, with
    `stalled_at` set; the best regret at every checkpoint is in
    `checkpoints`.

    `damping` must lie in (0, 1], so every step is a convex combination and
    the iterates stay on the simplex; `max_iters` must be at least 1 and
    `target_regret` finite and non-negative.  The arguments and the start
    are validated once, on entry; the loop works on raw float vectors and a
    validated profile is built only for the result.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    require_finite_nonnegative("target_regret", target_regret)
    # the raw iterates and their renormalised views, the vectors a
    # MixedStrategy would hold (its clamp never fires on a convex
    # combination), as one segment per player of two flat buffers
    raw = np.concatenate(profile_probs(game, start))
    view = raw.copy()
    counts = game.action_counts
    raws, views = split_players(raw, counts), split_players(view, counts)
    deviations = deviation_kernel(game)
    offsets = list(itertools.accumulate(counts, initial=0))
    # a segment below numpy's pairwise block is totalled in a Python loop over
    # the list of raw's entries, with np.add.reduce's bits and less overhead;
    # not by the builtin sum, which compensates from Python 3.12 on
    # (docs/decisions.md, "Float loops"); a longer one by np.add.reduce
    spans = [(a, a + c, None if c < _PAIRWISE_BLOCK else s)
             for a, c, s in zip(offsets, counts, raws)]
    owner = np.repeat(np.arange(len(counts)), counts)
    add_reduce, divide = np.add.reduce, np.divide
    best = None  # a flat copy of the best iterate; None while it is the start
    best_regret = math.inf
    orientation = game.orientation
    checkpoints = []
    next_checkpoint = _STALL_CHECKPOINT
    stalled_at = None
    for t in range(max_iters):
        worst = 0.0
        brs = []
        for dev, s, o in zip(deviations(views), raws, orientation):
            br, gain = best_deviation(dev, s, o)
            if gain > worst:
                worst = gain
            brs.append(br)
        if worst < best_regret:
            best_regret = worst
            best = raw.copy() if t else None
        if worst <= target_regret:
            profile = _profile_of(raw, counts) if t else start
            cert = epsilon_ne_report(game, profile, target_regret)
            return RefineResult(profile, worst, t + 1, True, cert, None, tuple(checkpoints))
        if t + 1 == next_checkpoint:
            checkpoints.append((next_checkpoint, best_regret))
            if len(checkpoints) > 1 and _stalled(
                checkpoints[-2][1], best_regret, target_regret, next_checkpoint, max_iters
            ):
                stalled_at = next_checkpoint
                break
            next_checkpoint *= 2
        eta = damping / (1.0 + damping * t)
        raw *= 1.0 - eta
        flat = raw.tolist()
        for a, br in zip(offsets, brs):
            i = a + br
            flat[i] += eta
            raw[i] = flat[i]
        totals = []
        for a, b, s in spans:
            if s is None:
                total = 0.0
                for x in flat[a:b]:
                    total += x
            else:  # what ndarray.sum runs, without its Python wrapper
                total = add_reduce(s)
            totals.append(total)
        divide(raw, np.array(totals)[owner], out=view)
    profile = start if best is None else _profile_of(best, counts)
    # t + 1 is max_iters after the last iteration, or the checkpoint that stalled
    return RefineResult(profile, best_regret, t + 1, False, None, stalled_at, tuple(checkpoints))


def _profile_of(flat: np.ndarray, counts: Sequence[int]) -> MixedProfile:
    """The validated profile whose strategies are copies of flat's segments."""
    return MixedProfile(tuple(MixedStrategy(s) for s in split_players(flat, counts)))


def _stalled(before: float, now: float, target: float, t: int, max_iters: int) -> bool:
    """Whether a start whose best regret went from `before` to `now` over the
    doubling up to iteration t should stop (see `local_ne_refine`).

    now > target here, so d > 0.  The finish test t * 2^d > 4 * max_iters is
    taken in logarithms, d > log2(4 * max_iters / t), so a rate close to 1
    cannot overflow 2^d.  With target 0 no rate ever finishes, so only the
    first test applies.
    """
    if now >= before:
        return True
    if target == 0.0:
        return False
    return math.log(now / target) > math.log(before / now) * math.log2(
        _STALL_FINISH_MARGIN * max_iters / t
    )
