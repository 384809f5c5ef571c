"""Strategy and game containers: polymatrix and dense tensor form, with
BimatrixGame the constructor of a two-player tensor game from two matrices.

Payoffs are stored in the one exact form (`rational.exact_array`: a read-only,
C-ordered object array of Fraction) and mirrored to float64 once for
evaluation.  Every player carries an explicit orientation (maximize or
minimize its stored payoff), since the adversarial-team constructions mix
both conventions inside a single game.

A :class:`PolymatrixGame` here is a pairwise-bilinear game with one shared
scalar payoff: the stored matrices define

    u(s) = sum over pairs (i, j) of  s_i^T M_ij s_j,

every player evaluates that same scalar, and the orientation says which way
the player pulls it.  Teams are the orientation classes, so players on a
team share per-profile utility exactly and the two teams' signed utilities
cancel by construction.
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import CapExceededError, DimensionError
from .rational import (
    FVec,
    exact_array,
    fmat,
    fvec,
    matrix_cells,
    scale_to_integers,
    scaled_to_exact,
)

MAXIMIZE = "maximize"
MINIMIZE = "minimize"

# strategy hygiene thresholds
CLAMP_TOL = 1e-12     # negative components above this magnitude are rejected
SUM_TOL = 1e-9        # |sum - 1| must be below this before renormalizing
SUPPORT_TOL = 1e-12   # probabilities above this are in the support

NORMAL_FORM_CAP = 10_000_000  # most pure profiles to_normal_form expands


def _validate_orientation(orientation: Sequence[str], n_players: int) -> tuple[str, ...]:
    out = tuple(orientation)
    if len(out) != n_players:
        raise DimensionError(f"expected {n_players} orientations, got {len(out)}")
    for o in out:
        if o not in (MAXIMIZE, MINIMIZE):
            raise ValueError(f"orientation must be '{MAXIMIZE}' or '{MINIMIZE}', got {o!r}")
    return out


def _validate_partition(
    partition, orientation: tuple[str, ...]
) -> tuple[frozenset[int], frozenset[int]] | None:
    """Two non-empty teams covering the players, each sharing one orientation,
    pulling in opposite directions; None stays None."""
    if partition is None:
        return None
    t0, t1 = (frozenset(t) for t in partition)
    if t0 & t1 or (t0 | t1) != set(range(len(orientation))) or not t0 or not t1:
        raise ValueError("team partition must split the players into two non-empty sets")
    for team in (t0, t1):
        if len({orientation[q] for q in team}) != 1:
            raise ValueError("players on one team must share an orientation")
    if orientation[min(t0)] == orientation[min(t1)]:
        raise ValueError("the two teams must pull the shared payoff in opposite directions")
    return t0, t1


def require_simplex(v: np.ndarray) -> None:
    """Raise unless the float vector v is a probability vector up to CLAMP_TOL
    (negative entries) and SUM_TOL (total mass)."""
    if v.size == 0:
        raise DimensionError("empty strategy vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("strategy contains non-finite entries")
    if v.min() < -CLAMP_TOL:
        raise ValueError(f"negative probability {v.min()} below clamp tolerance")
    total = v.sum()
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"probabilities sum to {total}, not 1")


@dataclass(frozen=True, eq=False)
class MixedStrategy:
    """A point of the probability simplex, stored as float64.

    Tiny negative components (>= -1e-12) are clamped to zero and the vector
    renormalized; larger violations or a total mass off by more than 1e-9
    raise.  Only from_exact, and the grid's `_grid_point`, set `exact`: the
    rational point the floats round.
    """

    probs: np.ndarray
    exact: FVec | None = field(default=None, init=False)

    def __post_init__(self):
        v = np.array(self.probs, dtype=float).reshape(-1)
        require_simplex(v)
        v[v < 0.0] = 0.0
        v /= v.sum()
        v.flags.writeable = False
        object.__setattr__(self, "probs", v)

    @classmethod
    def from_exact(cls, values: Iterable) -> "MixedStrategy":
        e = fvec(values)
        strategy = cls([float(p) for p in e])
        if any(p < 0 for p in e) or sum(e) != 1:
            raise ValueError("exact strategy must lie on the simplex")
        object.__setattr__(strategy, "exact", e)
        return strategy

    @classmethod
    def _grid_point(cls, numerators: Sequence[int], m: int) -> "MixedStrategy":
        """The point numerators / m, which the caller guarantees lies on the
        simplex (non-negative ints summing to m), built without the checks.

        Only `oracle.grid_ne_search` calls this.  Python's int true division
        rounds correctly, so `c / m` is `float(Fraction(c, m))`, and the steps
        after it are `__post_init__`'s: the bits of `from_exact`'s point.
        perfbench's `games.MixedStrategy.built` counter patches `__post_init__`
        and so does not count these points (ROADMAP item 1).
        """
        v = np.array([c / m for c in numerators])
        v /= v.sum()
        v.flags.writeable = False
        strategy = object.__new__(cls)
        object.__setattr__(strategy, "probs", v)
        object.__setattr__(strategy, "exact", tuple(Fraction(c, m) for c in numerators))
        return strategy

    @classmethod
    def uniform(cls, n: int) -> "MixedStrategy":
        return cls.from_exact([Fraction(1, n)] * n)

    @classmethod
    def pure(cls, n: int, action: int) -> "MixedStrategy":
        e = [Fraction(0)] * n
        e[action] = Fraction(1)
        return cls.from_exact(e)

    def __len__(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True, eq=False)
class MixedProfile:
    """One mixed strategy per player."""

    strategies: tuple[MixedStrategy, ...]

    def __post_init__(self):
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if not self.strategies:
            raise DimensionError("empty profile")
        for s in self.strategies:
            if not isinstance(s, MixedStrategy):
                raise TypeError("profile entries must be MixedStrategy")

    @classmethod
    def _of_strategies(cls, strategies: tuple[MixedStrategy, ...]) -> "MixedProfile":
        """The profile of a non-empty tuple of MixedStrategy, built without the
        checks; only `oracle.grid_ne_search` calls this."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "strategies", strategies)
        return profile

    def __len__(self) -> int:
        return len(self.strategies)

    def __getitem__(self, player: int) -> MixedStrategy:
        return self.strategies[player]


def _read_only(a: np.ndarray) -> np.ndarray:
    """`a`, locked: the float mirrors of a game's payoffs are shared, never written."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class PolymatrixGame:
    """Pairwise-bilinear game with a single shared scalar payoff (see module docs)."""

    action_counts: tuple[int, ...]
    pair_matrices: Mapping[tuple[int, int], np.ndarray]
    orientation: tuple[str, ...]
    team_partition: tuple[frozenset[int], frozenset[int]] | None = None

    def __post_init__(self):
        counts = tuple(int(c) for c in self.action_counts)
        if not counts or any(c < 1 for c in counts):
            raise DimensionError("each player needs at least one action")
        object.__setattr__(self, "action_counts", counts)
        p = len(counts)
        pairs: dict[tuple[int, int], np.ndarray] = {}
        for (i, j), m in dict(self.pair_matrices).items():
            if not (0 <= i < p and 0 <= j < p) or i == j:
                raise DimensionError(f"bad player pair ({i}, {j})")
            fm = fmat(m)
            if fm.shape != (counts[i], counts[j]):
                raise DimensionError(f"pair ({i}, {j}) matrix has shape {fm.shape}")
            pairs[(i, j)] = fm
        object.__setattr__(self, "pair_matrices", pairs)
        object.__setattr__(self, "orientation", _validate_orientation(self.orientation, p))
        object.__setattr__(
            self, "team_partition", _validate_partition(self.team_partition, self.orientation)
        )

    @property
    def n_players(self) -> int:
        return len(self.action_counts)

    @cached_property
    def pair_floats(self) -> dict[tuple[int, int], np.ndarray]:
        return {key: _read_only(m.astype(float)) for key, m in self.pair_matrices.items()}

    @cached_property
    def kernel_plan(self) -> tuple[tuple, np.ndarray, int]:
        """The static part of deviation_kernel: (pairs, owner, ranks).

        `pairs` holds, per pair in pair_floats order, (i, j, M.dot, M^T.dot,
        the rank of i's product, the rank of j's, the players outside the
        pair): rank k is a player's k-th product in pair_floats order, and
        `ranks` is one more than the largest.  `owner` is the player of each
        entry of the flat vector of all players' actions.  M^T is the
        transposed view, not a contiguous copy: a copy would run another
        BLAS kernel, whose sums may round differently.
        """
        players = range(self.n_players)
        pairs = []
        made = [0] * self.n_players  # products planned so far, per player
        for (i, j), m in self.pair_floats.items():
            others = tuple(q for q in players if q != i and q != j)
            pairs.append((i, j, m.dot, m.T.dot, made[i], made[j], others))
            made[i] += 1
            made[j] += 1
        owner = _read_only(np.repeat(np.arange(self.n_players), self.action_counts))
        return tuple(pairs), owner, max(made)


def _once_each(fn, items: tuple) -> tuple:
    """fn of each item, once per distinct object (`items` keeps every id live)."""
    done = {}
    for x in items:
        if id(x) not in done:
            done[id(x)] = fn(x)
    return tuple(done[id(x)] for x in items)


@dataclass(frozen=True, eq=False)
class NormalFormGame:
    """Dense tensor game: one payoff tensor per player, rational entries.
    Players handed one tensor share its one exact array and one float mirror."""

    payoffs: tuple[np.ndarray, ...]
    orientation: tuple[str, ...]
    team_partition: tuple[frozenset[int], frozenset[int]] | None = None

    def __post_init__(self):
        tensors = _once_each(exact_array, tuple(self.payoffs))
        if not tensors:
            raise DimensionError("need at least one player tensor")
        shp = tensors[0].shape
        if len(shp) != len(tensors):
            raise DimensionError("tensor rank must equal the number of players")
        if any(t.shape != shp for t in tensors):
            raise DimensionError("all player tensors must share one shape")
        if 0 in shp:
            raise DimensionError("empty payoff matrix")
        object.__setattr__(self, "payoffs", tensors)
        p = len(tensors)
        object.__setattr__(self, "orientation", _validate_orientation(self.orientation, p))
        object.__setattr__(
            self, "team_partition", _validate_partition(self.team_partition, self.orientation)
        )

    @property
    def n_players(self) -> int:
        return len(self.payoffs)

    @property
    def action_counts(self) -> tuple[int, ...]:
        return tuple(int(c) for c in self.payoffs[0].shape)

    @cached_property
    def float_payoffs(self) -> tuple[np.ndarray, ...]:
        return _once_each(lambda t: _read_only(t.astype(float)), self.payoffs)

    @cached_property
    def payoff_symmetry(self) -> tuple[bool, bool]:
        """(every player holds the same tensor, and the game is moreover a
        two-player (M, M) with M = M^T), decided once over the exact cells:
        a game is immutable."""
        first, cells = self.payoffs[0], self.payoffs[0].tolist()
        identical = all(t is first or t.tolist() == cells for t in self.payoffs[1:])
        return identical, identical and self.n_players == 2 and cells == first.T.tolist()

    def identical_payoff(self) -> bool:
        return self.payoff_symmetry[0]


class BimatrixGame(NormalFormGame):
    """The two-player NormalFormGame (R, C), built from two matrices.

    It adds only this constructor and read-only views of the two players'
    payoffs and float mirrors; no other module tests for it or reads a view.
    """

    def __init__(self, row_payoff, col_payoff, orientation=(MAXIMIZE, MAXIMIZE)):
        # rank checks here; the parent coerces each distinct matrix once
        r = matrix_cells(row_payoff)
        c = r if col_payoff is row_payoff else matrix_cells(col_payoff)
        super().__init__((r, c), orientation)

    row_payoff = property(lambda self: self.payoffs[0])
    col_payoff = property(lambda self: self.payoffs[1])
    row_float = property(lambda self: self.float_payoffs[0])
    col_float = property(lambda self: self.float_payoffs[1])


Game = PolymatrixGame | NormalFormGame


def _check_profile(game: Game, profile: MixedProfile) -> None:
    counts = game.action_counts
    if len(profile) != len(counts):
        raise DimensionError(f"profile has {len(profile)} strategies for {len(counts)} players")
    for s, c in zip(profile.strategies, counts):
        if len(s) != c:
            raise DimensionError(f"strategy length {len(s)} does not match {c} actions")


def _check_player(game: Game, player: int) -> None:
    if not (0 <= player < game.n_players):
        raise DimensionError(f"no player {player}")


def profile_probs(game: Game, profile: MixedProfile) -> list[np.ndarray]:
    """Validate a profile against the game; return its per-player float vectors.

    A MixedProfile is the one profile form: anything else is a TypeError.
    """
    if not isinstance(profile, MixedProfile):
        raise TypeError(f"expected a MixedProfile, got {type(profile).__name__}")
    _check_profile(game, profile)
    return [s.probs for s in profile.strategies]


def evaluate_utility(game: Game, profile: MixedProfile, player: int) -> float:
    """Expected stored payoff of `player` under a mixed profile.

    The player's deviation_payoffs dotted with its own strategy, so every
    game type has one float contraction, deviation_kernel.  For polymatrix
    games this is the shared bilinear sum; orientation is not applied here,
    only in regret.
    """
    dev = deviation_payoffs(game, profile, player)
    return float(dev.dot(profile[player].probs))


def split_players(flat: np.ndarray, counts: Sequence[int]) -> tuple[np.ndarray, ...]:
    """The consecutive views of `flat` of lengths `counts`, one per player."""
    return tuple(flat[a:a + c] for a, c in zip(itertools.accumulate(counts, initial=0), counts))


def deviation_kernel(game: Game) -> Callable[[Sequence[np.ndarray]], Sequence[np.ndarray]]:
    """The game's one float contraction: a closure from one float vector per
    player to every player's deviation_payoffs vector.

    The inputs are not checked: callers validate once (see profile_probs)
    and may then call the closure in a loop.  It is built once per call site
    and binds its products, so a call looks up no attribute.  A polymatrix
    pair (i, j) costs two products, M s_j for player i and M^T s_i for
    player j; the latter also gives every other player the constant
    s_i^T M s_j.  A player's k-th product, in pair_floats order, is written
    into its segment of rank slot k (`kernel_plan`); the slots are summed
    over the flat buffer in rank order, one ufunc a rank, and every
    player's constant is added last, in one more.  A slot a player never
    reaches holds 0.0, which can only turn a -0.0 into +0.0, and so can the
    constant add; so every entry equals the sum started from zeros
    (docs/decisions.md, "Float loops").  A player in no pair gets its
    constant alone.  The returned vectors are the segments of the sum's
    buffer and change on the next call; a caller that keeps one across
    calls copies it.
    """
    n = game.n_players
    if isinstance(game, NormalFormGame):
        if n == 2:  # BLAS products: einsum rounds some sums differently
            p0, p1_t = game.float_payoffs[0].dot, game.float_payoffs[1].T.dot
            return lambda probs: (p0(probs[1]), p1_t(probs[0]))
        letters = string.ascii_lowercase[:n]
        plan = []
        for p in range(n):
            others = [q for q in range(n) if q != p]
            sub = letters + "," + ",".join(letters[q] for q in others) + "->" + letters[p]
            plan.append((sub, game.float_payoffs[p], others))
        return lambda probs: [
            np.einsum(sub, t, *[probs[q] for q in others]) for sub, t, others in plan
        ]
    plan, owner, ranks = game.kernel_plan
    counts = game.action_counts
    rows = list(np.zeros((max(ranks, 1), owner.size)))  # the rank slots, flat
    slots = [split_players(row, counts) for row in rows]
    pairs = [(i, j, m_dot, slots[r_i][i], mt_dot, slots[r_j][j], others)
             for i, j, m_dot, mt_dot, r_i, r_j, others in plan]
    out = np.zeros(owner.size)
    segments = split_players(out, counts)
    # the running sum of ranks 0..k is out from k = 1 on
    sums = [(out if k > 1 else rows[0], rows[k]) for k in range(1, ranks)]
    total = out if ranks > 1 else rows[0]
    add = np.add

    def kernel(probs):
        consts = [0.0] * n
        for i, j, m_dot, out_i, mt_dot, out_j, others in pairs:
            s_i, s_j = probs[i], probs[j]
            m_dot(s_j, out_i)
            value = mt_dot(s_i, out_j).dot(s_j)
            for q in others:
                consts[q] += value
        for a, b in sums:
            add(a, b, out=out)
        add(total, np.array(consts)[owner], out=out)
        return segments

    return kernel


def deviation_vectors(game: Game, probs: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Every player's deviation_payoffs vector, in one pass of a kernel built
    for this call, so the vectors alias nothing (see deviation_kernel)."""
    return list(deviation_kernel(game)(probs))


def deviation_payoffs(game: Game, profile: MixedProfile, player: int) -> np.ndarray:
    """Stored payoff of each pure action of `player` against the co-players.

    For polymatrix games the constant contribution of pairs not touching
    `player` is included, so a dot with the player's own strategy is
    evaluate_utility.  This validates the profile and reads one entry
    of deviation_vectors; a caller that needs every player calls that once.
    """
    probs = profile_probs(game, profile)
    _check_player(game, player)
    return deviation_vectors(game, probs)[player]


def best_deviation(dev: np.ndarray, probs: np.ndarray, orientation: str) -> tuple[int, float]:
    """Best pure deviation from `probs` and its gain, in the player's direction.

    Ties go to the smallest index.
    """
    current = float(dev.dot(probs))
    if orientation == MAXIMIZE:
        action = int(dev.argmax())
        return action, dev.item(action) - current
    action = int(dev.argmin())
    return action, current - dev.item(action)


def deviation_gaps(dev: np.ndarray, orientation: str) -> np.ndarray:
    """How far each pure action falls short of the best response (>= 0)."""
    if orientation == MAXIMIZE:
        return dev.max() - dev
    return dev - dev.min()


def oriented(values, orientation: str):
    """`values` in the player's own direction: as given for a maximizer,
    negated for a minimizer.

    Negation is exact for float64 and for Fraction, so a caller that folds
    once and then maximizes gets the same bits, or the same rational, as
    minimizing the unfolded values.
    """
    return values if orientation == MAXIMIZE else -values


def max_team_inconsistency(game: Game, samples: int = 100, seed: int = 0) -> float:
    """The largest gap from "signed utilities agree within a team and the two
    team values cancel" over all mixed profiles, read exactly (`samples` and
    `seed` are ignored).  A polymatrix game's players share one scalar, and
    `_validate_partition` makes teammates share an orientation and the teams
    oppose: 0.0.  In a tensor game each gap, between teammates or the teams'
    first players, is +-(u_p - u_q), multilinear in the profile: its supremum
    is the largest entry of |T_p - T_q|, and a tensor shared by p and q has none.
    """
    if game.team_partition is None:
        raise ValueError("game has no team partition")
    if isinstance(game, PolymatrixGame):
        return 0.0
    t0, t1 = (sorted(team) for team in game.team_partition)
    pairs = [*itertools.combinations(t0, 2), *itertools.combinations(t1, 2), (t0[0], t1[0])]
    t = game.payoffs
    gaps = [float(np.abs(t[p] - t[q]).max()) for p, q in pairs if t[p] is not t[q]]
    return max(gaps, default=0.0)


def decompose_symmetric_skew(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Split a square rational matrix exactly into symmetric + skew parts.

    Returns (A, C) with A = (R + R^T)/2 symmetric, C = (R - R^T)/2 skew,
    and A + C == R entrywise.
    """
    r = fmat(matrix)
    n, m = r.shape
    if n != m:
        raise DimensionError("square matrix required")
    cells, d = scale_to_integers(r)  # R = cells / d, so (R +- R^T)/2 = (cells +- cells^T) / 2d
    return scaled_to_exact(cells + cells.T, 2 * d), scaled_to_exact(cells - cells.T, 2 * d)


def to_normal_form(game: PolymatrixGame) -> NormalFormGame:
    """Expand a polymatrix game to dense tensors (exact entries).

    Every player receives the same shared-scalar tensor; orientations and
    the team partition carry over.  Raises CapExceededError when the number
    of pure profiles exceeds NORMAL_FORM_CAP.
    """
    counts = game.action_counts
    total = math.prod(counts)
    if total > NORMAL_FORM_CAP:
        raise CapExceededError(f"{total} pure profiles exceed cap {NORMAL_FORM_CAP}")
    # each block as integers over one common denominator d, summed exactly
    scaled = {pair: scale_to_integers(m) for pair, m in game.pair_matrices.items()}
    d = math.lcm(*(q for _, q in scaled.values()))
    u = np.full(counts, 0, dtype=object)
    for (i, j), (cells, q) in scaled.items():
        axes = [c if p in (i, j) else 1 for p, c in enumerate(counts)]
        u += (cells.T if i > j else cells).reshape(axes) * (d // q)  # broadcast along the others
    u = scaled_to_exact(u, d)
    return NormalFormGame(
        payoffs=tuple(u for _ in range(game.n_players)),
        orientation=game.orientation,
        team_partition=game.team_partition,
    )
