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

from .checks import Certificate, epsilon_ne_report
from .errors import CapExceededError, DimensionError, PreconditionError
from .games import (
    MAXIMIZE,
    MINIMIZE,
    BimatrixGame,
    Game,
    MixedProfile,
    MixedStrategy,
    NormalFormGame,
    PolymatrixGame,
    as_profile,
    best_deviation,
    deviation_kernel,
    oriented,
    profile_probs,
    split_players,
    to_normal_form,
)
from .geometry import _compositions, _resolution_denominator, grid_size
from .rational import FVec, fmat, fvec, scale_to_integers, shape, solve_stacked, to_fraction

logger = logging.getLogger(__name__)

SUPPORT_ENUM_MAX_N = 12
MAX_CLIQUE_MAX_N = 20
GRID_SEARCH_CAP = 100_000_000
# entries of player 0's regret array per chunk of its grid, by dtype kind:
# int64, or Python ints, which take far more memory and time per entry
_GRID_CHUNK_ENTRIES = {"i": 20_000_000, "O": 200_000}
REFINE_MAX_ITERS = 100_000
REFINE_DAMPING = 0.1
_STALL_CHECKPOINT = 250  # the stall rule's checkpoints are 250 * 2^k iterations
_STALL_FINISH_MARGIN = 4  # a start may project to finish within 4 * max_iters


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
    than v in the given orientation.  The linear systems of all supports of
    one size are solved together, exactly, in integers
    (`rational.solve_stacked`); singular systems (which can hide equilibrium
    continua) are skipped and logged.
    Solutions must be strictly positive on their support, so each
    equilibrium is reported once, under its true support.

    M need not be symmetric: for a matrix R this enumerates the symmetric
    equilibria of (R, R^T).  When M is symmetric these are also the symmetric
    equilibria of the identical-payoff game (M, M).
    """
    m = fmat(matrix)
    n, n2 = shape(m)
    if n != n2:
        raise DimensionError("square matrix required")
    if n > SUPPORT_ENUM_MAX_N:
        raise CapExceededError(
            f"support enumeration capped at n = {SUPPORT_ENUM_MAX_N}, got {n}"
        )
    if orientation not in (MAXIMIZE, MINIMIZE):
        raise ValueError(f"bad orientation {orientation!r}")
    # F = oriented(M) * D in integers; unknowns x on the support, then w = D * oriented(v)
    cells, d = scale_to_integers(m)
    f = oriented(cells, orientation)
    if max(map(abs, f.flat), default=0) < 2**63:
        f = f.astype(np.int64)
    results: list[SymmetricEquilibrium] = []
    for size in range(1, n + 1):
        # every support of this size at once, in combinations order
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
        # det > 0 on solved systems, so numerators over det compare as the values do
        keep = (det > 0) & (num[:, :size] > 0).all(axis=1)
        supports, x, w, det = supports[keep], num[keep, :size], num[keep, size], det[keep]
        # (F x)_i = w on the support, so testing every row tests the off-support ones.
        # In int64 this cannot overflow: x_j = 1 at size 1, and at size >= 2 each
        # F_ij sits in some system of this size, so |F_ij x_j| <= H^2 (`_bareiss_dtype`)
        keep = ((f[:, supports] * x).sum(axis=2) <= w).all(axis=0)
        for support, xs, wv, dv in zip(supports[keep].tolist(), x[keep].tolist(),
                                       w[keep].tolist(), det[keep].tolist()):
            probs = dict(zip(support, xs))
            x_exact = tuple(Fraction(probs.get(i, 0), dv) for i in range(n))
            value = Fraction(oriented(wv, orientation), dv * d)
            results.append(SymmetricEquilibrium(x_exact, value, tuple(support)))
    results.sort(key=lambda eq: (eq.value, eq.probs))
    return results


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
    vertex tuple is returned.  Capped at 20 vertices.
    """
    n = graph.n
    if n > MAX_CLIQUE_MAX_N:
        raise CapExceededError(f"max_clique capped at n = {MAX_CLIQUE_MAX_N}, got {n}")
    for k in range(n, 0, -1):
        cliques = cliques_of_size(graph, k)
        if cliques:
            return k, cliques[0]
    return 0, ()


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
    if isinstance(game, PolymatrixGame):
        return to_normal_form(game)
    if isinstance(game, BimatrixGame):
        tensors = [np.array(m, dtype=object) for m in (game.row_payoff, game.col_payoff)]
        return NormalFormGame(tuple(tensors), game.orientation)
    return game


def _integer_tensors(nf: NormalFormGame, denominators: Sequence[int]):
    """Payoff tensors folded into each player's direction, times D, and D.

    D is the lcm of the payoff denominators.  When player q plays integer
    numerators over m_q, every regret is an integer over D * prod(m_q) of
    size at most 2 * max|T * D| * prod(m_q): the tensors are int64 when that
    bound fits, Python-int object arrays otherwise.
    """
    cells, d = scale_to_integers(nf.payoffs)  # every player's tensor has the same shape
    bound = 2 * max(map(abs, cells.flat), default=0) * math.prod(denominators)
    dtype = np.int64 if bound < 2**63 else object
    return [oriented(t.astype(dtype), o) for t, o in zip(cells, nf.orientation)], d


def _deviations(tensor: np.ndarray, points: Sequence[np.ndarray], p: int) -> np.ndarray:
    """Player p's deviation payoffs, of shape (a_p, point counts of the others).

    The one exact contraction, in whatever field the arrays hold (int64,
    Python ints, Fractions, surds): `points[q]` holds player q's points as
    rows, and `points[p]` is not read.
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
    tensors, d = _integer_tensors(nf, ms)
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
    m^n * D (int64 when a bound proves it fits, a Python int otherwise), and
    a profile is a hit iff every player's is at most floor(eps * m^n * D).
    The grid is decided player by player (`_regret_gaps`): player 0's
    regrets densely, a chunk of its grid at a time, and each later player's
    only at the profiles every earlier player passed.  Each hit carries its
    exact max regret as a float.  Raises PreconditionError when eps is
    negative and CapExceededError when the number of joint profiles exceeds
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
    tensors, d = _integer_tensors(nf, ms)
    scale = d * m ** len(counts)
    threshold = math.floor(eps * scale)
    grids = [np.array(list(_compositions(m, c)), dtype=tensors[0].dtype) for c in counts]

    gap0 = _regret_gaps(tensors[0], grids, 0).reshape(counts[0], -1)
    budget = _GRID_CHUNK_ENTRIES[tensors[0].dtype.kind]
    chunk_rows = max(1, min(sizes[0], int(budget // max(1, total // sizes[0]))))
    cache: list[dict[int, MixedStrategy]] = [{} for _ in counts]

    def strategy(p: int, i: int) -> MixedStrategy:
        if i not in cache[p]:
            cache[p][i] = MixedStrategy.from_exact(Fraction(int(c), m) for c in grids[p][i])
        return cache[p][i]

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
            gap = _regret_gaps(tensors[p], [rows] + grids[1:], p)
            at = (slice(None),) + tuple(i for q, i in enumerate(point) if q != p)
            r = (grids[p][point[p]].T * gap[at]).sum(axis=0)
            keep = r <= threshold
            point = tuple(i[keep] for i in point)
            worst = np.maximum(worst[keep], r[keep])
        for *idx, w in zip(*(i.tolist() for i in point), worst.tolist()):
            idx[0] += start
            profile = MixedProfile(tuple(strategy(p, i) for p, i in enumerate(idx)))
            # int true division rounds correctly: the bits of float(Fraction(w, scale))
            results.append((profile, int(w) / scale))
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
    if not (math.isfinite(target_regret) and target_regret >= 0.0):
        raise ValueError(f"target_regret must be finite and non-negative, got {target_regret}")
    profile = as_profile(start)
    # the raw iterates and their renormalised views, the vectors a
    # MixedStrategy would hold (its clamp never fires on a convex
    # combination), as one segment per player of two flat buffers
    raw = np.concatenate(profile_probs(game, profile))
    view = raw.copy()
    counts = game.action_counts
    raws, views = split_players(raw, counts), split_players(view, counts)
    deviations = deviation_kernel(game)
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
            if t:
                profile = _profile_of(raw, counts)
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
        for s, v, br in zip(raws, views, brs):
            s[br] += eta
            # np.add.reduce is what ndarray.sum runs, without its Python wrapper
            np.divide(s, np.add.reduce(s), out=v)
    if best is not None:
        profile = _profile_of(best, counts)
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
