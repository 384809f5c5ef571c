"""Closed-form 2x2 zero-sum solutions and an exactly-irrational equilibrium.

The star exhibit is a three-player game (two-player team versus an
adversary) with rational payoffs whose unique equilibrium has irrational
coordinates.  To certify that on a machine, arithmetic runs in the field
Q(sqrt(3)): numbers p + q*sqrt(3) with rational p, q, under exact addition,
multiplication, division, and order comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .checks import Certificate, epsilon_ne_report
from .errors import BoundViolationError, DegenerateGameError, DimensionError, PreconditionError
from .games import MAXIMIZE, MINIMIZE, MixedProfile, MixedStrategy, NormalFormGame
from .oracle import _deviations
from .rational import to_fraction

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class QuadSurd:
    """Exact element p + q*sqrt(3) of the quadratic field Q(sqrt(3))."""

    p: Fraction
    q: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "p", to_fraction(self.p))
        object.__setattr__(self, "q", to_fraction(self.q))

    @classmethod
    def of(cls, value) -> "QuadSurd":
        if isinstance(value, QuadSurd):
            return value
        return cls(to_fraction(value))

    def _sign(self) -> int:
        p, q = self.p, self.q
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return 1 if q > 0 else -1
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        # opposite signs: compare |p| against |q|*sqrt(3) via squares
        # (p^2 = 3 q^2 is impossible for rational p, q not both zero)
        if p > 0:
            return 1 if p * p > 3 * q * q else -1
        return 1 if 3 * q * q > p * p else -1

    def __add__(self, other):
        o = QuadSurd.of(other)
        return QuadSurd(self.p + o.p, self.q + o.q)

    __radd__ = __add__

    def __neg__(self):
        return QuadSurd(-self.p, -self.q)

    def __sub__(self, other):
        return self + (-QuadSurd.of(other))

    def __rsub__(self, other):
        return QuadSurd.of(other) + (-self)

    def __mul__(self, other):
        o = QuadSurd.of(other)
        return QuadSurd(
            self.p * o.p + 3 * self.q * o.q,
            self.p * o.q + self.q * o.p,
        )

    __rmul__ = __mul__

    def _inverse(self) -> "QuadSurd":
        denom = self.p * self.p - 3 * self.q * self.q
        if denom == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(3))")
        return QuadSurd(self.p / denom, -self.q / denom)

    def __truediv__(self, other):
        return self * QuadSurd.of(other)._inverse()

    def __rtruediv__(self, other):
        return QuadSurd.of(other) * self._inverse()

    def __eq__(self, other):
        if isinstance(other, (QuadSurd, int, Fraction)):
            o = QuadSurd.of(other)
            return self.p == o.p and self.q == o.q
        return NotImplemented

    def __hash__(self):
        return hash(self.p) if self.q == 0 else hash((self.p, self.q))

    def __lt__(self, other):
        return (self - QuadSurd.of(other))._sign() < 0

    def __le__(self, other):
        return (self - QuadSurd.of(other))._sign() <= 0

    def __gt__(self, other):
        return (self - QuadSurd.of(other))._sign() > 0

    def __ge__(self, other):
        return (self - QuadSurd.of(other))._sign() >= 0

    def __float__(self):
        return float(self.p) + float(self.q) * SQRT3

    def __repr__(self):
        if self.q == 0:
            return f"QuadSurd({self.p})"
        return f"QuadSurd({self.p} + {self.q}*sqrt3)"


def _lift_matrix(matrix):
    """Normalize a 2x2 input to exact entries, surds allowed."""
    rows = tuple(tuple(row) for row in matrix)
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise DimensionError("closed form applies to 2x2 matrices only")
    if any(isinstance(e, QuadSurd) for r in rows for e in r):
        return tuple(tuple(QuadSurd.of(e) for e in r) for r in rows)
    return tuple(tuple(to_fraction(e) for e in r) for r in rows)


def solve_2x2(matrix):
    """Unique interior equilibrium of a 2x2 zero-sum game, in closed form.

    The row player minimizes <x, A z> and the column player maximizes.
    Requires (A11-A12)(A22-A21) > 0 and (A11-A21)(A22-A12) > 0 — both
    players' diagonal preferences cross, which forces a fully mixed
    equilibrium.  Returns (value, row_strategy, col_strategy) with

        value = (A11 A22 - A12 A21) / D,  D = A11 - A12 - A21 + A22,
        x* = ((A22-A21)/D, (A11-A12)/D),  z* = ((A22-A12)/D, (A11-A21)/D),

    evaluated exactly (entries may be Fraction or QuadSurd).  Inputs
    failing the precondition raise DegenerateGameError; callers wanting
    those cases should fall back to support enumeration.
    """
    a = _lift_matrix(matrix)
    (a11, a12), (a21, a22) = a
    zero = a11 - a11
    if not ((a11 - a12) * (a22 - a21) > zero and (a11 - a21) * (a22 - a12) > zero):
        raise DegenerateGameError(
            "2x2 closed form needs strictly crossing preferences"
        )
    d = a11 - a12 - a21 + a22
    value = (a11 * a22 - a12 * a21) / d
    x = ((a22 - a21) / d, (a11 - a12) / d)
    z = ((a22 - a12) / d, (a11 - a21) / d)
    return value, x, z


# ---------------------------------------------------------------------------
# the irrational-equilibrium team game


def irrational_game() -> NormalFormGame:
    """Rational-payoff 2x2x2 team game whose unique equilibrium is irrational.

    Players: two team members x and y (minimizing) versus the adversary z
    (maximizing); all read the same payoff tensor indexed [x-action,
    y-action, z-action].
    """
    f = Fraction
    tensor = [
        [  # x plays action 1
            [f(1), f(9, 10)],     # y action 1: z actions 1, 2
            [f(3), f(-1, 10)],    # y action 2
        ],
        [  # x plays action 2
            [f(99, 100), f(1)],
            [f(-1, 100), f(3)],
        ],
    ]
    return NormalFormGame(
        payoffs=(tensor, tensor, tensor),
        orientation=(MINIMIZE, MINIMIZE, MAXIMIZE),
        team_partition=(frozenset({0, 1}), frozenset({2})),
    )


def irrational_equilibrium() -> tuple[tuple[QuadSurd, QuadSurd], ...]:
    """The exact equilibrium profile of irrational_game, in Q(sqrt(3)).

    x* = ((3-s)/6, (3+s)/6), y* = ((611-9s)/600, (9s-11)/600),
    z* = ((3+s)/6, (3-s)/6) where s = sqrt(3).
    """
    s = QuadSurd(0, 1)
    x = ((3 - s) / 6, (3 + s) / 6)
    y = ((611 - 9 * s) / 600, (9 * s - 11) / 600)
    z = ((3 + s) / 6, (3 - s) / 6)
    return x, y, z


@dataclass(frozen=True)
class IrrationalEquilibriumReport:
    """Exact and floating certificates for the irrational profile."""

    profile: tuple[tuple[QuadSurd, QuadSurd], ...]
    float_profile: MixedProfile
    action_values: tuple[tuple[QuadSurd, QuadSurd], ...]
    game_value: QuadSurd
    exact: bool
    certificate: Certificate


def verify_irrational_equilibrium(tolerance: float = 1e-9) -> IrrationalEquilibriumReport:
    """Certify the surd profile twice: exactly in Q(sqrt(3)) and in floats.

    Every player is fully mixed, so exactness means each player's two pure
    actions earn identical utilities against the others' profile — checked
    as surd equalities (in particular the adversary's two action values
    are both (578 + 9 sqrt(3))/600).  The float pass re-checks the real
    image through the generic equilibrium reporter at `tolerance`.
    """
    game = irrational_game()
    profile = irrational_equilibrium()
    points = [np.array([coords], dtype=object) for coords in profile]  # one surd row each
    values = tuple(tuple(_deviations(game.payoffs[0], points, p).ravel()) for p in range(3))
    expected = (578 + 9 * QuadSurd(0, 1)) / 600
    exact = all(v[0] == v[1] for v in values) and values[2][0] == expected
    if not exact:
        raise BoundViolationError("surd indifference check failed")
    floats = MixedProfile(
        tuple(
            MixedStrategy([float(c) for c in coords])
            for coords in profile
        )
    )
    cert = epsilon_ne_report(game, floats, epsilon=tolerance)
    if not cert.satisfied:
        raise BoundViolationError(
            f"float image has regret above {tolerance}: {cert.regrets}"
        )
    return IrrationalEquilibriumReport(
        profile=profile,
        float_profile=floats,
        action_values=values,
        game_value=expected,
        exact=exact,
        certificate=cert,
    )


# ---------------------------------------------------------------------------
# the induced one-parameter family


def induced_matrix(y2):
    """The 2x2 zero-sum game faced by (x, z) when y mixes with weight y2.

    A(y2) = [[1 + 2 y2, 9/10 - y2], [99/100 - y2, 1 + 2 y2]]; accepts a
    rational or QuadSurd weight in [0, 1] and stays in that field.
    """
    w = y2 if isinstance(y2, QuadSurd) else to_fraction(y2)
    zero = w - w
    if w < zero or w > zero + 1:
        raise PreconditionError("y2 must lie in [0, 1]")
    f = Fraction
    return (
        (1 + 2 * w, f(9, 10) - w),
        (f(99, 100) - w, 1 + 2 * w),
    )


def team_value_curve(y2):
    """Value of the induced game as a function of the second team weight.

    v(y2) = (109 + 5890 y2 + 3000 y2^2) / (110 + 6000 y2), evaluated
    exactly; it equals solve_2x2(induced_matrix(y2)) across [0, 1] and is
    strictly convex with its minimum at y2 = (9 sqrt(3) - 11)/600.
    """
    w = y2 if isinstance(y2, QuadSurd) else to_fraction(y2)
    zero = w - w
    if w < zero or w > zero + 1:
        raise PreconditionError("y2 must lie in [0, 1]")
    return (109 + 5890 * w + 3000 * w * w) / (110 + 6000 * w)
