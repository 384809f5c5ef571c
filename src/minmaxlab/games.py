"""Strategy and game containers: bimatrix, polymatrix, and dense tensor form.

Payoffs are stored as exact rationals and mirrored to float64 once for
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
    FMat,
    FVec,
    fmat,
    fvec,
    scale_to_integers,
    shape,
    to_float_matrix,
    to_fraction,
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


@dataclass(frozen=True)
class MixedStrategy:
    """A point of the probability simplex, stored as float64.

    Tiny negative components (>= -1e-12) are clamped to zero and the vector
    renormalized; larger violations or a total mass off by more than 1e-9
    raise.  Only from_exact sets `exact`: the rational point the floats round.
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
    def uniform(cls, n: int) -> "MixedStrategy":
        return cls.from_exact([Fraction(1, n)] * n)

    @classmethod
    def pure(cls, n: int, action: int) -> "MixedStrategy":
        e = [Fraction(0)] * n
        e[action] = Fraction(1)
        return cls.from_exact(e)

    def __len__(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True)
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

    def __len__(self) -> int:
        return len(self.strategies)

    def __getitem__(self, player: int) -> MixedStrategy:
        return self.strategies[player]


def as_strategy(values) -> MixedStrategy:
    if isinstance(values, MixedStrategy):
        return values
    return MixedStrategy(np.asarray(values, dtype=float))


def as_profile(strategies) -> MixedProfile:
    if isinstance(strategies, MixedProfile):
        return strategies
    return MixedProfile(tuple(as_strategy(s) for s in strategies))


def _read_only(a: np.ndarray) -> np.ndarray:
    """`a`, locked: the float mirrors of a game's payoffs are shared, never written."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class BimatrixGame:
    """Two-player game with dense rational payoff matrices R (row) and C (column)."""

    row_payoff: FMat
    col_payoff: FMat
    orientation: tuple[str, str] = (MAXIMIZE, MAXIMIZE)

    def __post_init__(self):
        r = fmat(self.row_payoff)
        c = fmat(self.col_payoff)
        if shape(r) != shape(c):
            raise DimensionError("row and column payoff shapes differ")
        if not r or not r[0]:
            raise DimensionError("empty payoff matrix")
        object.__setattr__(self, "row_payoff", r)
        object.__setattr__(self, "col_payoff", c)
        object.__setattr__(self, "orientation", _validate_orientation(self.orientation, 2))

    @property
    def n_players(self) -> int:
        return 2

    @property
    def action_counts(self) -> tuple[int, int]:
        return shape(self.row_payoff)

    @cached_property
    def row_float(self) -> np.ndarray:
        return _read_only(to_float_matrix(self.row_payoff))

    @cached_property
    def col_float(self) -> np.ndarray:
        return _read_only(to_float_matrix(self.col_payoff))

    def identical_payoff(self) -> bool:
        return self.row_payoff == self.col_payoff


@dataclass(frozen=True, eq=False)
class PolymatrixGame:
    """Pairwise-bilinear game with a single shared scalar payoff (see module docs)."""

    action_counts: tuple[int, ...]
    pair_matrices: Mapping[tuple[int, int], FMat]
    orientation: tuple[str, ...]
    team_partition: tuple[frozenset[int], frozenset[int]] | None = None

    def __post_init__(self):
        counts = tuple(int(c) for c in self.action_counts)
        if not counts or any(c < 1 for c in counts):
            raise DimensionError("each player needs at least one action")
        object.__setattr__(self, "action_counts", counts)
        p = len(counts)
        pairs: dict[tuple[int, int], FMat] = {}
        for (i, j), m in dict(self.pair_matrices).items():
            if not (0 <= i < p and 0 <= j < p) or i == j:
                raise DimensionError(f"bad player pair ({i}, {j})")
            fm = fmat(m)
            if shape(fm) != (counts[i], counts[j]):
                raise DimensionError(f"pair ({i}, {j}) matrix has shape {shape(fm)}")
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
        return {key: _read_only(to_float_matrix(m)) for key, m in self.pair_matrices.items()}

    @cached_property
    def kernel_plan(self) -> tuple[tuple, np.ndarray, tuple[int, ...]]:
        """The static part of deviation_kernel: (pairs, owner, idle).

        `pairs` holds, per pair in pair_floats order, (i, j, M.dot, M^T.dot,
        whether an earlier pair holds i, whether one holds j, the players
        outside the pair).  `owner` is the player of each entry of the flat
        vector of all players' actions, and `idle` the players in no pair.
        M^T is the transposed view, not a contiguous copy: a copy would run
        another BLAS kernel, whose sums may round differently.
        """
        players = range(self.n_players)
        pairs = []
        seen = set()
        for (i, j), m in self.pair_floats.items():
            others = tuple(q for q in players if q != i and q != j)
            pairs.append((i, j, m.dot, m.T.dot, i in seen, j in seen, others))
            seen.update((i, j))
        owner = _read_only(np.repeat(np.arange(self.n_players), self.action_counts))
        return tuple(pairs), owner, tuple(q for q in players if q not in seen)


@dataclass(frozen=True, eq=False)
class NormalFormGame:
    """Dense tensor game: one payoff tensor per player, rational entries."""

    payoffs: tuple[np.ndarray, ...]
    orientation: tuple[str, ...]
    team_partition: tuple[frozenset[int], frozenset[int]] | None = None

    def __post_init__(self):
        tensors = []
        for t in self.payoffs:
            arr = np.array(t, dtype=object)
            flat = np.array([to_fraction(x) for x in arr.reshape(-1)], dtype=object)
            arr = flat.reshape(arr.shape)
            arr.flags.writeable = False
            tensors.append(arr)
        if not tensors:
            raise DimensionError("need at least one player tensor")
        shp = tensors[0].shape
        if len(shp) != len(tensors):
            raise DimensionError("tensor rank must equal the number of players")
        if any(t.shape != shp for t in tensors):
            raise DimensionError("all player tensors must share one shape")
        object.__setattr__(self, "payoffs", tuple(tensors))
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
        return tuple(_read_only(t.astype(float)) for t in self.payoffs)


Game = BimatrixGame | PolymatrixGame | NormalFormGame


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


def profile_probs(game: Game, profile) -> list[np.ndarray]:
    """Validate a profile against the game; return its per-player float vectors."""
    profile = as_profile(profile)
    _check_profile(game, profile)
    return [s.probs for s in profile.strategies]


def evaluate_utility(game: Game, profile: MixedProfile, player: int) -> float:
    """Expected stored payoff of `player` under a mixed profile.

    The player's deviation_payoffs dotted with its own strategy, so every
    game type has one float contraction, deviation_kernel.  For polymatrix
    games this is the shared bilinear sum; orientation is not applied here,
    only in regret.
    """
    profile = as_profile(profile)
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
    s_i^T M s_j.  Each player's first product is written into its segment
    of one flat buffer that the closure owns, later products are added in
    pair_floats order, and every player's constant is added last, in one
    ufunc, which maps any -0.0 to +0.0; so every entry equals the sum
    started from zeros (docs/decisions.md, "Float loops").  A player in no
    pair gets its constant alone.  The returned vectors are that buffer's
    segments and change on the next call; a caller that keeps one across
    calls copies it.
    """
    n = game.n_players
    if isinstance(game, BimatrixGame):
        row, col_t = game.row_float.dot, game.col_float.T.dot
        return lambda probs: (row(probs[1]), col_t(probs[0]))
    if isinstance(game, NormalFormGame):
        letters = string.ascii_lowercase[:n]
        plan = []
        for p in range(n):
            others = [q for q in range(n) if q != p]
            sub = letters + "," + ",".join(letters[q] for q in others) + "->" + letters[p]
            plan.append((sub, game.float_payoffs[p], others))
        return lambda probs: [
            np.einsum(sub, t, *[probs[q] for q in others]) for sub, t, others in plan
        ]
    pairs, owner, idle = game.kernel_plan
    out = np.zeros(owner.size)
    segments = split_players(out, game.action_counts)
    idle = [segments[p] for p in idle]

    def kernel(probs):
        consts = [0.0] * n
        for i, j, m_dot, mt_dot, add_i, add_j, others in pairs:
            s_i, s_j = probs[i], probs[j]
            if add_i:
                seg = segments[i]
                seg += m_dot(s_j)
            else:
                m_dot(s_j, segments[i])
            if add_j:
                col = mt_dot(s_i)
                seg = segments[j]
                seg += col
            else:
                col = mt_dot(s_i, segments[j])
            value = col.dot(s_j)
            for q in others:
                consts[q] += value
        for seg in idle:
            seg.fill(0.0)
        np.add(out, np.array(consts)[owner], out=out)
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


def regret(game: Game, profile: MixedProfile, player: int) -> float:
    """Best pure-deviation payoff minus current payoff, in the player's direction."""
    profile = as_profile(profile)
    dev = deviation_payoffs(game, profile, player)
    return best_deviation(dev, profile[player].probs, game.orientation[player])[1]


def max_team_inconsistency(game: Game, samples: int = 100, seed: int = 0) -> float:
    """Spot-check the team structure on random profiles.

    Returns the largest deviation from "signed utilities agree within a team
    and the two team values cancel" over `samples` random mixed profiles.
    Each player's utility is its vector from one deviation_kernel, dotted
    with its strategy and folded with `oriented`, so the check compares the
    kernel's per-player outputs with each other.
    """
    if game.team_partition is None:
        raise ValueError("game has no team partition")
    rng = np.random.default_rng(seed)
    deviations = deviation_kernel(game)
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


def decompose_symmetric_skew(matrix) -> tuple[FMat, FMat]:
    """Split a square rational matrix exactly into symmetric + skew parts.

    Returns (A, C) with A = (R + R^T)/2 symmetric, C = (R - R^T)/2 skew,
    and A + C == R entrywise.
    """
    r = fmat(matrix)
    n, m = shape(r)
    if n != m:
        raise DimensionError("square matrix required")
    cells, d = scale_to_integers(r)  # R = cells / d, so (R +- R^T)/2 = (cells +- cells^T) / 2d
    twice = 2 * d

    def halves(ints) -> FMat:
        return tuple(tuple(Fraction(x, twice) for x in row) for row in ints.tolist())

    return halves(cells + cells.T), halves(cells - cells.T)


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
    u = np.full(counts, Fraction(0), dtype=object)
    for (i, j), m in game.pair_matrices.items():  # pair order: the per-cell sums' order
        block = np.array(m, dtype=object)
        axes = [c if q in (i, j) else 1 for q, c in enumerate(counts)]
        u += (block.T if i > j else block).reshape(axes)  # broadcast along the others
    return NormalFormGame(
        payoffs=tuple(u for _ in range(game.n_players)),
        orientation=game.orientation,
        team_partition=game.team_partition,
    )
