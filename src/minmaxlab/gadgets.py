"""Reduction gadgets between symmetric games, team games, and min-max problems.

The constructions all share one trick: an adversary with 2n + 1 actions
whose first 2n "mirror" actions pay (|A_min| / eps) times the signed
difference between two team strategies, plus an anchor action paying a
flat |A_min|.  Near equilibrium the anchor soaks up the adversary's mass
and the team members are forced to play almost identically, which is what
lets approximate equilibria be mapped back to the original game.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .checks import (BoundRecord, Certificate, bound_record, certify, enforce,
                     epsilon_ne_report, require_finite_nonnegative)
from .errors import DimensionError, PreconditionError
from .games import (
    MAXIMIZE,
    MINIMIZE,
    BimatrixGame,
    MixedProfile,
    MixedStrategy,
    PolymatrixGame,
    decompose_symmetric_skew,
)
from .geometry import JointDomain
from .minmax import QuadraticMinMaxProblem
from .oracle import exact_max_regret, symmetric_support_enumeration
from .rational import exact_array, fmat, scale_to_integers, to_fraction

EPS_CAP = Fraction(1, 10)
TEAM_SYMMETRY_TOL = 1e-9  # a 3v3 profile's largest sup-norm gap to its mirror team


def _exact_eps(epsilon) -> Fraction:
    """The gadget parameter eps as a Fraction; PreconditionError outside (0, 1/10]."""
    eps = to_fraction(epsilon)
    if not (0 < eps <= EPS_CAP):
        raise PreconditionError(f"epsilon must lie in (0, 1/10], got {eps}")
    return eps


def _float_eps(instance: TeamGadgetInstance | Team3v3Instance, epsilon) -> float:
    """A measured eps as a float; PreconditionError outside (0, 1/10] or
    when it is not the gadget's own eps, at which alone the lemmas hold."""
    eps = float(epsilon)
    if not (0 < eps <= float(EPS_CAP)):
        raise PreconditionError(f"epsilon must lie in (0, 1/10], got {eps}")
    if eps != float(instance.epsilon):
        raise PreconditionError(f"epsilon {eps} is not the gadget's own {instance.epsilon}")
    return eps


def _square_exact(matrix) -> np.ndarray:
    m = fmat(matrix)
    n, n2 = m.shape
    if n != n2 or n == 0:
        raise DimensionError("non-empty square matrix required")
    return m


def shift_to_gadget_range(matrix) -> tuple[np.ndarray, Fraction]:
    """Affine shift making all entries <= -1 (identity when already there).

    Subtracts (max entry + 2) from every entry when needed, so the shifted
    maximum lands at -2.  A constant shift moves every profile's utility by
    the same amount and leaves best responses, equilibria, and regrets of
    an identical-payoff game unchanged; only |A_min| in the additive bounds
    grows.  Returns (shifted matrix, shift used).
    """
    m = _square_exact(matrix)
    top = m.max()
    if top <= -1:
        return m, Fraction(0)
    shift = top + 2
    return exact_array(m - shift), shift


def _mirror_adversary(a: np.ndarray, eps: Fraction) -> tuple[Fraction, np.ndarray, np.ndarray]:
    """|A_min| and the adversary's two (2n+1) x n blocks against the teammates.

    Against the first teammate, mirror action i pays |A_min| / eps on
    coordinate i, mirror action n + i pays -|A_min| / eps, and the anchor
    (last row) pays |A_min| flat; against the second teammate the blocks
    pay the mirror part negated.  The blocks are object arrays of Fraction.
    """
    n = len(a)
    penalty = -a.min()
    eye = np.identity(n, dtype=object) * (penalty / eps)
    mirror = np.vstack([eye, -eye, np.zeros((1, n), dtype=object)])
    anchored = mirror.copy()
    anchored[-1] = penalty
    return penalty, anchored, -mirror


@dataclass(frozen=True, eq=False)
class TeamGadgetInstance:
    """Two-player team (x, y) versus one adversary z with mirror actions.

    The shared scalar payoff (which z maximizes and the team minimizes) is

        u(x, y, z) = <x, A y>
                     + (|A_min| / eps) * sum_i ( z_i (x_i - y_i) + z_{n+i} (y_i - x_i) )
                     + z_{2n+1} |A_min|.
    """

    a: np.ndarray
    epsilon: Fraction
    penalty_scale: Fraction
    game: PolymatrixGame

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def anchor_action(self) -> int:
        return 2 * self.n


def team_gadget(matrix, epsilon) -> TeamGadgetInstance:
    """Build the two-team-player gadget for a symmetric A with entries <= -1.

    `epsilon` must satisfy 0 < eps <= 1/10 (rational, kept exact).  Callers
    holding a matrix with larger entries shift it first via
    shift_to_gadget_range.
    """
    a = _square_exact(matrix)
    if a.tolist() != a.T.tolist():
        raise PreconditionError("A must be symmetric")
    if a.max() > -1:
        raise PreconditionError(
            "A must have entries <= -1; see shift_to_gadget_range"
        )
    eps = _exact_eps(epsilon)
    n = len(a)
    penalty, toward_x, toward_y = _mirror_adversary(a, eps)
    game = PolymatrixGame(
        action_counts=(n, n, 2 * n + 1),
        pair_matrices={(0, 1): a, (2, 0): toward_x, (2, 1): toward_y},
        orientation=(MINIMIZE, MINIMIZE, MAXIMIZE),
        team_partition=(frozenset({0, 1}), frozenset({2})),
    )
    return TeamGadgetInstance(a=a, epsilon=eps, penalty_scale=penalty, game=game)


def canonical_team_ne(instance: TeamGadgetInstance) -> MixedProfile:
    """An exact equilibrium of the gadget: both team players on an exact
    symmetric minimization equilibrium of A, the adversary on the anchor.

    With x = y the mirror actions all pay zero, so the anchor is the
    adversary's strict best response; against the anchored adversary the
    team faces exactly the identical-payoff game on A.
    """
    eqs = symmetric_support_enumeration(instance.a, orientation=MINIMIZE)
    if not eqs:
        raise RuntimeError("no exact symmetric minimization equilibrium found")
    x_bar = eqs[0].strategy
    z = MixedStrategy.pure(2 * instance.n + 1, instance.anchor_action)
    return MixedProfile((x_bar, x_bar, z))


def _backmap_scale(instance: TeamGadgetInstance | Team3v3Instance) -> float:
    """(21 n + 1) |A_min|: times eps, the regret bound both team back-maps carry."""
    return (21 * instance.n + 1) * float(instance.penalty_scale)


def symmetric_regret(matrix, strategy: MixedStrategy, orientation: str = MAXIMIZE) -> float:
    """Every back-map's measured value: the regret of (s, s) in (M, M^T), both
    players in `orientation`, exact and rounded once when s is exact.  Both
    players' regrets are equal; in floats it is the first player's reading."""
    game = BimatrixGame(matrix, np.transpose(matrix), (orientation, orientation))
    if strategy.exact is not None:
        return float(exact_max_regret(game, [strategy.exact] * 2))
    return epsilon_ne_report(game, MixedProfile((strategy, strategy))).regrets[0]


@dataclass(frozen=True)
class BackmapReport:
    """A back-map's source `strategy` s, the stated `bound` on the regret of (s, s)
    in its source game, and that `regret` as measured by `symmetric_regret`."""

    name: str
    strategy: MixedStrategy
    bound: float
    regret: float

    @property
    def bounds(self) -> tuple[BoundRecord, ...]:
        return (bound_record(self.name, self.bound, self.regret),)

    def __iter__(self):
        return iter((self.strategy, self.bound))


def team_backmap(
    instance: TeamGadgetInstance, profile: MixedProfile, eps2_certified: float
) -> BackmapReport:
    """Map an eps^2-equilibrium of the gadget back to the symmetric game on A.

    The report's strategy y*: playing (y*, y*) in the identical-payoff game
    on A (both players minimizing) has regret at most (21 n + 1) |A_min| eps.
    eps^2 must be the square of the gadget's own eps.
    """
    require_finite_nonnegative("eps2_certified", eps2_certified)
    eps = _float_eps(instance, math.sqrt(float(eps2_certified)))
    certify(instance.game, profile, float(eps2_certified))
    regret = symmetric_regret(instance.a, profile[1], MINIMIZE)
    return BackmapReport("team_backmap", profile[1], _backmap_scale(instance) * eps, regret)


VIOLATIONS = {  # the message of each unsatisfied record: measured, then bound
    "pair_gap": "teammates differ by {} > 2 eps = {}",
    "mirror_mass": "mirror action holds {} > 9 eps = {}",
    "team3v3_backmap": "back-mapped strategy has regret {} > {} in (R, R^T)",
}


@dataclass(frozen=True)
class GadgetStructureReport:
    """Measured near-equilibrium structure of a team gadget profile."""

    epsilon: float
    max_pair_gap: float       # ||x - y||_inf, bounded by 2 eps
    max_mirror_mass: float    # max_j z_j over the 2n mirror actions, bounded by 9 eps
    certificate: Certificate

    @property
    def pair_bound(self) -> float:
        return 2.0 * self.epsilon

    @property
    def mirror_bound(self) -> float:
        return 9.0 * self.epsilon

    @property
    def bounds(self) -> tuple[BoundRecord, ...]:
        """The pair-gap and mirror-mass verdicts (`checks.bound_record`)."""
        return (
            bound_record("pair_gap", self.pair_bound, self.max_pair_gap),
            bound_record("mirror_mass", self.mirror_bound, self.max_mirror_mass),
        )

    @property
    def violation(self) -> str | None:
        """The message of the first unsatisfied record, or None."""
        for b in self.bounds:
            if not b.satisfied:
                return VIOLATIONS[b.name].format(b.measured, b.value)
        return None


def _measure_structure(
    instance: TeamGadgetInstance | Team3v3Instance,
    profile: MixedProfile,
    eps: float,
    pairs: tuple[tuple[int, int], ...],
    adversaries: tuple[int, ...],
) -> GadgetStructureReport:
    """Certify `profile` as an eps^2-equilibrium, then measure both lemmas.

    The pair gap is the largest ||x - y||_inf over the teammate `pairs`; the
    mirror mass is the largest probability an adversary in `adversaries`
    puts on one of its 2n mirror actions.
    """
    cert = certify(instance.game, profile, eps * eps)
    mirrors = 2 * instance.n
    return GadgetStructureReport(
        epsilon=eps,
        max_pair_gap=max(
            float(np.abs(profile[x].probs - profile[y].probs).max()) for x, y in pairs
        ),
        max_mirror_mass=max(float(profile[z].probs[:mirrors].max()) for z in adversaries),
        certificate=cert,
    )


def gadget_structure_audit(
    instance: TeamGadgetInstance, profile: MixedProfile, epsilon: float
) -> GadgetStructureReport:
    """Verify the two structure lemmas on a certified eps^2-equilibrium.

    In any eps^2-equilibrium of the gadget (eps <= 1/10) the team strategies
    are close, ||x - y||_inf <= 2 eps, and the adversary leaves at most
    9 eps on each mirror action.  Violations raise BoundViolationError.
    """
    return enforce(measure_gadget_structure(instance, profile, epsilon))


def measure_gadget_structure(
    instance: TeamGadgetInstance, profile: MixedProfile, epsilon: float
) -> GadgetStructureReport:
    """The pair gap and mirror mass of a certified eps^2-equilibrium.

    Raises PreconditionError when eps is outside (0, 1/10], is not the
    gadget's own, or the profile is not a certified eps^2-equilibrium; the
    two lemma bounds are measured, not enforced (see gadget_structure_audit).
    """
    eps = _float_eps(instance, epsilon)
    return _measure_structure(instance, profile, eps, ((0, 1),), (2,))


# ---------------------------------------------------------------------------
# quadratic and coupled min-max gadgets


def quadratic_gadget(matrix) -> QuadraticMinMaxProblem:
    """Antisymmetric quadratic min-max problem encoding a symmetric play of R.

    For square R with entries in [-1, 1], split R = A + C into symmetric and
    skew parts and set f(x, y) = 1/2 y^T A y - 1/2 x^T A x + y^T C x.  Then
    f(x, y) = -f(y, x), and f is 4n-smooth with gradients bounded by 4n
    (both recorded on the problem).
    """
    return _quadratic_problem(matrix, None)


def _quadratic_problem(matrix, delta: float | None) -> QuadraticMinMaxProblem:
    """The quadratic gadget of R, on the band of width delta unless it is None."""
    r = _square_exact(matrix)
    cells, d = scale_to_integers(r)
    if cells.min() < -d or cells.max() > d:
        raise PreconditionError("entries of R must lie in [-1, 1]")
    n = len(r)
    domain = None if delta is None else JointDomain(n, float(delta))
    # A and C of decompose_symmetric_skew, as (cells +- cells^T) / 2d
    return QuadraticMinMaxProblem._of_scaled(cells + cells.T, cells - cells.T, 2 * d, domain, 4.0 * n)


def symmetric_backmap(matrix, x_star: MixedStrategy, gap: float) -> BackmapReport:
    """Regret bound for (x*, x*) in (R, R^T) from a symmetric GDA gap.

    A unit-stepsize GDA gap of eps at the symmetric point (x*, x*) of the
    quadratic gadget bounds every unilateral deviation by
    sqrt(2) * eps * (2n + 1).  R must be one `quadratic_gadget` accepts.
    """
    n = quadratic_gadget(matrix).n_x
    require_finite_nonnegative("gap", gap)
    bound = math.sqrt(2.0) * float(gap) * (2.0 * n + 1.0)
    return BackmapReport("symmetric_vi", x_star, bound, symmetric_regret(matrix, x_star))


def coupling_width(eps: float, n: int) -> float:
    """Default band width for the coupled domain: delta = eps^(1/4) n^(-1/4)."""
    if not (math.isfinite(eps) and eps > 0) or n < 1:
        raise PreconditionError(f"need a finite eps > 0 and n >= 1, got eps = {eps}, n = {n}")
    return float(eps) ** 0.25 * float(n) ** -0.25

def coupled_gadget(matrix, delta: float) -> QuadraticMinMaxProblem:
    """The quadratic gadget on pairs with |x_i - y_i| <= delta, for a finite delta > 0."""
    if not (math.isfinite(delta) and delta > 0):
        raise PreconditionError(f"delta must be finite and positive, got {delta}")
    return _quadratic_problem(matrix, delta)


def median_backmap(
    matrix, x_star: MixedStrategy, y_star: MixedStrategy, gap: float, delta: float
) -> BackmapReport:
    """Map a safe-GDA stationary pair on the coupled domain back to (R, R^T).

    The report's median (x* + y*) / 2 has the regret bound 2 n^2 delta
    + 2 K n^(3/2) sqrt(gap) / delta, K = (L+1) sqrt(G + 4 sqrt 2), L = G = 4n.
    The pair must be feasible for `coupled_gadget(R, delta)`, which checks R and delta.
    """
    problem = coupled_gadget(matrix, delta)
    require_finite_nonnegative("gap", gap)
    if not problem.domain.contains(x_star.probs, y_star.probs):
        raise PreconditionError("pair is not feasible for the coupled domain")
    n = problem.n_x
    l, g = problem.smoothness_bound, problem.lipschitz_bound
    k = (l + 1.0) * math.sqrt(g + 4.0 * math.sqrt(2.0))
    bound = 2.0 * n * n * float(delta) + 2.0 * k * n**1.5 * math.sqrt(float(gap)) / float(delta)
    median = MixedStrategy((x_star.probs + y_star.probs) / 2.0)
    return BackmapReport("median_regret", median, bound, symmetric_regret(matrix, median))


# ---------------------------------------------------------------------------
# three-versus-three team gadget


@dataclass(frozen=True, eq=False)
class Team3v3Instance:
    """Two symmetric teams (x, y, z) and (x-hat, y-hat, z-hat) around a square R.

    With A = -(R + R^T)/2 shifted to entries <= -1 and C = R^T - R, the
    hatted team maximizes

        u = <x, A y> - <x-hat, A y-hat> + <x, C x-hat>
            + delta(x, y, z-hat) - delta(x-hat, y-hat, z),

    where delta(x, y, w) is the mirror coupling of the two-player gadget
    driven by the listed adversary w.  Each adversary polices the *other*
    team's internal agreement.  Swapping the teams negates u.
    """

    r: np.ndarray
    a: np.ndarray
    c: np.ndarray
    shift: Fraction
    epsilon: Fraction
    penalty_scale: Fraction
    game: PolymatrixGame

    @property
    def n(self) -> int:
        return len(self.a)


def team3v3_gadget(matrix, epsilon) -> Team3v3Instance:
    """Build the three-versus-three gadget from any square rational R."""
    r = _square_exact(matrix)
    eps = _exact_eps(epsilon)
    sym, skew = decompose_symmetric_skew(r)
    a, shift = shift_to_gadget_range(-sym)
    c = exact_array(-2 * skew)  # C = R^T - R = -2 * skew(R)
    n = len(r)
    penalty, toward_x, toward_y = _mirror_adversary(a, eps)
    # players: 0 x, 1 y, 2 z (unhatted, minimize u); 3 x-hat, 4 y-hat, 5 z-hat
    game = PolymatrixGame(
        action_counts=(n, n, 2 * n + 1, n, n, 2 * n + 1),
        pair_matrices={
            (0, 1): a,                           # <x, A y>
            (3, 4): -a,                          # -<x-hat, A y-hat>
            (0, 3): c,                           # <x, C x-hat>
            (5, 0): toward_x,                    # delta(x, y, z-hat)
            (5, 1): toward_y,
            (2, 3): -toward_x,                   # -delta(x-hat, y-hat, z)
            (2, 4): -toward_y,
        },
        orientation=(MINIMIZE, MINIMIZE, MINIMIZE, MAXIMIZE, MAXIMIZE, MAXIMIZE),
        team_partition=(frozenset({0, 1, 2}), frozenset({3, 4, 5})),
    )
    return Team3v3Instance(
        r=r,
        a=a,
        c=c,
        shift=shift,
        epsilon=eps,
        penalty_scale=penalty,
        game=game,
    )


@dataclass(frozen=True)
class Team3v3Report(GadgetStructureReport):
    """Structure audit and back-map of a team-symmetric 3v3 profile; `bound`
    caps `backmap_regret`, the regret of (x*, x*) in (R, R^T), both maximizing."""

    strategy: MixedStrategy
    backmap_scale: float  # (21 n + 1) |A_min|
    backmap_regret: float

    @property
    def bound(self) -> float:
        """(21 n + 1) |A_min| eps."""
        return self.backmap_scale * self.epsilon

    @property
    def bounds(self) -> tuple[BoundRecord, ...]:
        """Both structure verdicts, then the back-map's (`checks.bound_record`)."""
        return super().bounds + (bound_record("team3v3_backmap", self.bound, self.backmap_regret),)


def team3v3_audit_and_backmap(
    instance: Team3v3Instance, profile: MixedProfile, epsilon: float
) -> Team3v3Report:
    """Audit a certified, team-symmetric eps^2-equilibrium and map it back.

    Requires x = x-hat, y = y-hat, z = z-hat up to TEAM_SYMMETRY_TOL.
    Checks both teams' internal agreement (<= 2 eps per coordinate) and both
    adversaries' mirror masses (<= 9 eps), then returns x* with the
    guarantee that (x*, x*) is a (21 n + 1) |A_min| eps equilibrium of
    (R, R^T), which it measures too.  Violations raise BoundViolationError.
    """
    return enforce(measure_team3v3(instance, profile, epsilon))


def measure_team3v3(
    instance: Team3v3Instance, profile: MixedProfile, epsilon: float
) -> Team3v3Report:
    """The back-map of a certified, team-symmetric eps^2-equilibrium, with
    its pair gap and mirror mass measured, not enforced.

    Raises PreconditionError when eps is outside (0, 1/10] or not the
    gadget's own, or the profile is not team-symmetric or not a certified
    eps^2-equilibrium.
    """
    eps = _float_eps(instance, epsilon)
    if len(profile) != 6:
        raise DimensionError("profile must cover all six players")
    for p in range(3):
        mismatch = float(np.abs(profile[p].probs - profile[p + 3].probs).max())
        if mismatch > TEAM_SYMMETRY_TOL:
            raise PreconditionError(
                f"profile is not symmetric across teams (player {p}: {mismatch})"
            )
    report = _measure_structure(instance, profile, eps, ((0, 1), (3, 4)), (2, 5))
    return Team3v3Report(
        **vars(report),
        strategy=profile[0],
        backmap_scale=_backmap_scale(instance),
        backmap_regret=symmetric_regret(instance.r, profile[0]),
    )
