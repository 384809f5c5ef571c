"""Equilibrium certificates: approximate Nash, well-supported Nash, mass bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BoundViolationError, PreconditionError
from .games import (
    MAXIMIZE,
    MINIMIZE,
    Game,
    MixedProfile,
    MixedStrategy,
    NormalFormGame,
    SUPPORT_TOL,
    best_deviation,
    deviation_gaps,
    deviation_vectors,
    oriented,
    profile_probs,
    require_simplex,
)
from .rational import fmat, fvec, scale_to_integers, to_fraction

VERDICT_SLACK = 1e-12


def within(measured: float, bound: float) -> bool:
    """The one float verdict rule: `measured <= bound`, up to VERDICT_SLACK."""
    return measured <= bound + VERDICT_SLACK


@dataclass(frozen=True)
class BoundRecord:
    """One verdict, decided by the audit that measured it: bound, measured value, holds."""

    name: str
    value: float | str | None
    measured: float | str | None
    satisfied: bool


def bound_record(name: str, bound: float, measured: float) -> BoundRecord:
    """The record of `measured <= bound`, decided by `within`."""
    return BoundRecord(name, bound, measured, within(measured, bound))


def enforce(report):
    """The one raise policy of the lemma audits: return the report, or raise
    its `violation`, which is set exactly when one of its `bounds` fails."""
    if report.violation is not None:
        raise BoundViolationError(report.violation)
    return report


def require_finite_nonnegative(name: str, value: float) -> None:
    """Refuse a parameter that is negative, infinite or NaN, naming it."""
    if not (math.isfinite(value) and value >= 0):
        raise PreconditionError(f"{name} must be finite and non-negative, got {value}")


@dataclass(frozen=True)
class Certificate:
    """Regret audit of a profile against a target epsilon.

    `witnesses` lists one (player, pure action, gain) per player: the best
    deviation found and how much it gains.  The gains are the `regrets`, and
    `satisfied` is true when every regret is `within` epsilon.
    """

    epsilon: float
    witnesses: tuple[tuple[int, int, float], ...]
    regrets: tuple[float, ...] = field(init=False)
    satisfied: bool = field(init=False)

    def __post_init__(self):
        regrets = tuple(gain for _, _, gain in self.witnesses)
        object.__setattr__(self, "regrets", regrets)
        object.__setattr__(self, "satisfied", all(within(r, self.epsilon) for r in regrets))


def epsilon_ne_report(game: Game, profile: MixedProfile, epsilon: float = 0.0) -> Certificate:
    """Per-player regrets of a profile, tested against epsilon."""
    probs = profile_probs(game, profile)
    witnesses = []
    for p, dev in enumerate(deviation_vectors(game, probs)):
        action, gain = best_deviation(dev, probs[p], game.orientation[p])
        witnesses.append((p, action, gain))
    return Certificate(epsilon=float(epsilon), witnesses=tuple(witnesses))


def certify(game: Game, profile: MixedProfile, epsilon: float) -> Certificate:
    """The certificate of an epsilon-equilibrium; PreconditionError when the
    profile is not one (the precondition of every lemma audit)."""
    cert = epsilon_ne_report(game, profile, epsilon)
    if not cert.satisfied:
        raise PreconditionError(
            f"profile is not a certified {epsilon}-equilibrium: regrets {cert.regrets}"
        )
    return cert


def require_symmetric_game(game) -> None:
    """Raise unless `game` is (M, M), M symmetric, its players in one orientation.

    Then one strategy x describes the profile (x, x), both players facing Mx
    in one direction, and the game is the (M, M^T) of the symmetric support
    enumeration.  The game decides its symmetry once (`payoff_symmetry`).
    """
    if not isinstance(game, NormalFormGame) or game.n_players != 2 or not game.identical_payoff():
        raise PreconditionError("expected an identical-payoff two-player game")
    if not game.payoff_symmetry[1]:
        raise PreconditionError("expected a symmetric payoff matrix")
    if game.orientation[0] != game.orientation[1]:
        raise PreconditionError("players must share an orientation")


def wsne_report(game: NormalFormGame, x: MixedStrategy) -> float:
    """Smallest eps for which (x, x) is an eps-well-supported equilibrium.

    Requires the game require_symmetric_game accepts.  Support means
    probability above SUPPORT_TOL.  A raw vector must pass `require_simplex`
    (ValueError otherwise) and is read as given, not renormalized.
    """
    require_symmetric_game(game)
    probs = x.probs if isinstance(x, MixedStrategy) else np.asarray(x, dtype=float)
    if probs.size != game.action_counts[0]:
        raise PreconditionError("strategy length does not match the game")
    if not isinstance(x, MixedStrategy):
        require_simplex(probs)
    gaps = deviation_gaps(deviation_vectors(game, [probs, probs])[0], game.orientation[0])
    return float(gaps[probs > SUPPORT_TOL].max())


def wsne_eps_exact(matrix, x, orientation: str = MAXIMIZE) -> Fraction:
    """Exact-rational version of wsne_report on a raw square matrix.

    Support is exact here: every action with positive probability.  The
    matrix, folded into the player's direction with `oriented`, is scaled to
    integers; the value is the best payoff minus the worst supported one.
    The caller checks what require_symmetric_game checks; this only computes.
    Raises ValueError when x is not a probability vector or the orientation
    is neither MAXIMIZE nor MINIMIZE.
    """
    if orientation not in (MAXIMIZE, MINIMIZE):
        raise ValueError(f"bad orientation {orientation!r}")
    m = fmat(matrix)
    n, n2 = m.shape
    if n != n2:
        raise PreconditionError("square matrix required")
    xv = fvec(x)
    if len(xv) != n:
        raise PreconditionError("strategy length does not match the matrix")
    rows, d = scale_to_integers(m)
    xs, dx = scale_to_integers(xv)
    nums = xs.tolist()
    if min(nums) < 0 or sum(nums) != dx:  # x = xs / dx exactly
        raise ValueError("strategy is not a probability vector")
    _, _, slack = _wsne_slack(oriented(rows, orientation), xs[None])
    return Fraction(slack[0], d * dx)


def _wsne_slack(rows: np.ndarray, xs: np.ndarray):
    """Support, payoffs and WSNE slack of (x, x) for every candidate row of xs.

    `rows` is M, folded into the players' direction, as integers over d
    (`rational.scale_to_integers`); row c of `xs` is a candidate x with a
    nonempty support, as integer numerators over its own dx_c.  One integer
    product gives the payoffs M x over d * dx_c, and from them the slack
    (best payoff minus the worst supported one) over d * dx_c.  The value
    x^T M x is the row sum of xs * payoffs, over d * dx_c^2.  The caller
    validates the inputs and picks a dtype that holds these numerators.
    """
    support = xs > 0
    payoffs = xs @ rows.T
    top = payoffs.max(axis=1)
    return support, payoffs, top - np.where(support, payoffs, top[:, None]).min(axis=1)


def ne_to_wsne(game: Game, profile: MixedProfile, epsilon: float) -> MixedProfile:
    """Turn an (eps^2/8)-Nash profile of a two-player game into an
    eps-well-supported one (Chen, Deng & Teng, J. ACM 2009).

    Each player drops every action whose payoff against the co-player's
    original strategy is more than eps below the best response, then
    renormalizes.  The construction is verified a posteriori: the output
    must be an eps-WSNE and move each probability by at most eps/4 in
    sup-norm, else BoundViolationError is raised.  PreconditionError when
    the game does not have two players, the lemma's setting.
    """
    if game.n_players != 2:
        raise PreconditionError(f"ne_to_wsne needs a two-player game, got {game.n_players}")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise PreconditionError(f"epsilon must be finite and positive, got {epsilon}")
    certify(game, profile, epsilon**2 / 8.0)
    old = profile_probs(game, profile)
    strategies = []
    for p, dev in enumerate(deviation_vectors(game, old)):
        probs = old[p].copy()
        probs[deviation_gaps(dev, game.orientation[p]) > epsilon] = 0.0
        strategies.append(MixedStrategy(probs / probs.sum()))
    new = [s.probs for s in strategies]
    measured = max(  # the largest supported-action suboptimality
        float(deviation_gaps(dev, o)[probs > SUPPORT_TOL].max())
        for dev, probs, o in zip(deviation_vectors(game, new), new, game.orientation)
    )
    if not within(measured, epsilon):
        raise BoundViolationError(
            f"constructed profile is only a {measured}-WSNE, wanted {epsilon}"
        )
    drift = max(float(np.abs(a - b).max()) for a, b in zip(new, old))
    if not within(drift, epsilon / 4.0):
        raise BoundViolationError(f"construction moved mass by {drift} > eps/4")
    return MixedProfile(tuple(strategies))


@dataclass(frozen=True)
class MassBoundEntry:
    """One suboptimal action whose probability mass exceeds eps^2 / gap."""

    player: int
    action: int
    mass: float
    gap: float
    bound: float


def mass_bound_audit(
    game: Game, profile: MixedProfile, epsilon: float | Fraction
) -> list[MassBoundEntry]:
    """Check that suboptimal actions carry little mass in an eps^2-equilibrium.

    In any eps^2-equilibrium, an action whose payoff is c worse than the
    best response (c > 0) can carry at most eps^2 / c probability.  Requires
    the profile to actually be an eps^2-equilibrium; returns the list of
    violating (player, action) pairs with measured masses, empty when every
    mass is `within` its bound.  eps is squared exactly, then rounded once.
    """
    require_finite_nonnegative("epsilon", epsilon)
    eps_sq = float(to_fraction(epsilon) ** 2)
    certify(game, profile, eps_sq)
    violations = []
    for p, dev in enumerate(deviation_vectors(game, profile_probs(game, profile))):
        gaps = deviation_gaps(dev, game.orientation[p])
        for a in range(gaps.size):
            gap = float(gaps[a])
            if gap <= 0.0:
                continue
            mass = float(profile[p].probs[a])
            bound = eps_sq / gap
            if not within(mass, bound):
                violations.append(MassBoundEntry(p, a, mass, gap, bound))
    return violations
