"""Clique-counting games: payoff builders, uniqueness borders, and audits.

Two payoff families over a graph G on n vertices:

  * A(G): -1 on the diagonal, 0 across edges, -2 across non-edges, that is
    2(A_G + I/2) - 2J for the adjacency matrix A_G and the all-ones J.  Its
    symmetric equilibria track cliques: uniform play on a maximum clique of
    size k attains value -1/k, and every other symmetric equilibrium is
    worth strictly less (Bomze's regularisation of Motzkin-Straus).  They
    are not all at most -1/(k-1); see `nashgap_audit`.
  * A-bar(G, delta): delta on the diagonal, 1 across edges, 0 across
    non-edges (0 < delta < 1), the robust variant used for the
    well-supported audits.

Each family extends to an (n+1)-action "bordered" game whose extra action
is meant to pin the equilibrium set down to three canonical shapes.  The
robust family `robust_unique_ne_game` does so on the acceptance corpus;
the A(G) family `unique_ne_game` also has exact equilibria away from all
three (see `classify_symmetric_profile` and docs/decisions.md).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import BoundViolationError, DimensionError, PreconditionError
from .checks import BoundRecord, _wsne_slack, enforce, require_finite_nonnegative, within
from .games import MAXIMIZE, BimatrixGame, MixedStrategy, NormalFormGame
from .minmax import QuadraticMinMaxProblem
from .oracle import (
    SymmetricEquilibrium,
    cliques_of_size,
    max_clique,
    symmetric_support_enumeration,
)
from .geometry import _compositions, _grid_denominator
from .rational import FVec, FractionTable, carrier, exact_array, scale_to_integers, to_fraction


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count and a set of 0-indexed edges."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise DimensionError("graph needs at least one vertex")
        normalized = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop at {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range")
            normalized.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(normalized))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return cls(n, frozenset(tuple(e) for e in edges))

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def is_clique(self, vertices: Sequence[int]) -> bool:
        return all(
            self.has_edge(i, j) for i, j in itertools.combinations(vertices, 2)
        )


def _graph_matrix(graph: Graph, diagonal: Fraction, edge: Fraction, non_edge: Fraction) -> np.ndarray:
    """The n x n matrix with `diagonal` on the diagonal, `edge` across edges, else `non_edge`."""
    m = np.full((graph.n, graph.n), non_edge, dtype=object)
    for i, j in graph.edges:
        m[i, j] = m[j, i] = edge
    np.fill_diagonal(m, diagonal)
    return exact_array(m)


def payoff_from_graph(graph: Graph) -> np.ndarray:
    """A(G): -1 diagonal, 0 across edges, -2 across non-edges."""
    return _graph_matrix(graph, Fraction(-1), Fraction(0), Fraction(-2))


def payoff_from_graph_delta(graph: Graph, delta) -> np.ndarray:
    """A-bar(G, delta): delta diagonal, 1 across edges, 0 across non-edges."""
    d = to_fraction(delta)
    if not (0 < d < 1):
        raise PreconditionError(f"delta must lie in (0, 1), got {d}")
    return _graph_matrix(graph, d, Fraction(1), Fraction(0))


def clique_uniform(graph: Graph, clique: Sequence[int]) -> MixedStrategy:
    """Uniform distribution over a clique's vertices (validated)."""
    vertices = tuple(sorted(set(int(v) for v in clique)))
    if len(vertices) != len(tuple(clique)):
        raise ValueError("repeated vertices in clique")
    if not vertices:
        raise ValueError("empty clique")
    if any(not (0 <= v < graph.n) for v in vertices):
        raise ValueError("clique vertex out of range")
    if not graph.is_clique(vertices):
        raise PreconditionError(f"{vertices} is not a clique")
    k = len(vertices)
    probs = [Fraction(0)] * graph.n
    for v in vertices:
        probs[v] = Fraction(1, k)
    return MixedStrategy.from_exact(probs)


@dataclass(frozen=True)
class ParameterRegime:
    """Scale parameters (n, k, delta, epsilon) for the robust constructions.

    The bounds from the source analysis hold under the strict regime
    n >= k >= 10, delta = 1/2, eps < delta (1 - delta) / (6 n^7); desk-scale
    experiments run far below it, so `strict` is an explicit flag: when set,
    the conditions are enforced at construction, and only
    `classify_symmetric_profile` reads it, raising where it would record
    Other.  The WSNE audit reads n, k and delta only.
    """

    n: int
    k: int
    delta: Fraction
    epsilon: Fraction
    strict: bool = False

    def __post_init__(self):
        object.__setattr__(self, "delta", to_fraction(self.delta))
        object.__setattr__(self, "epsilon", to_fraction(self.epsilon))
        if self.n < 1 or self.k < 1 or self.k > self.n:
            raise PreconditionError("need 1 <= k <= n")
        if not (0 < self.delta < 1):
            raise PreconditionError("delta must lie in (0, 1)")
        if self.epsilon <= 0:
            raise PreconditionError("epsilon must be positive")
        if self.strict and not strict_conditions_hold(
            self.n, self.k, self.delta, self.epsilon
        ):
            raise PreconditionError(
                "strict regime requires n >= k >= 10, delta = 1/2, "
                "eps < delta (1 - delta) / (6 n^7)"
            )


def strict_conditions_hold(n: int, k: int, delta: Fraction, epsilon: Fraction) -> bool:
    return (
        n >= k >= 10
        and delta == Fraction(1, 2)
        and epsilon < delta * (1 - delta) / (6 * n**7)
    )


def unique_ne_game(graph: Graph, k: int) -> BimatrixGame:
    """Bordered identical-payoff game whose equilibria witness k-cliques.

    Appends one action to A(G) paying r = -(2k - 1) / (2 (k - 1) k) against
    every original action and V = -1/k against itself; r sits strictly
    between -1/(k-1) and -1/k, so mixing onto the border is attractive
    exactly against sub-clique play.
    """
    if k < 2:
        raise PreconditionError("border construction needs k >= 2")
    if k > graph.n:
        raise PreconditionError("k cannot exceed the vertex count")
    a = payoff_from_graph(graph)
    r = Fraction(-(2 * k - 1), 2 * (k - 1) * k)
    v = Fraction(-1, k)
    return _bordered_game(a, r, v)


def robust_unique_ne_game(graph: Graph, regime: ParameterRegime) -> BimatrixGame:
    """Bordered A-bar game with the same equilibrium shapes, robustly.

    Border payoff r = V - delta / (n^2 k^4) + 3 eps against original
    actions, V = 1 - 1/k + delta/k against itself.
    """
    if regime.n != graph.n:
        raise DimensionError("regime n does not match the graph")
    n, k = regime.n, regime.k
    a = payoff_from_graph_delta(graph, regime.delta)
    v = 1 - Fraction(1, k) + regime.delta / k
    r = v - regime.delta / (n**2 * k**4) + 3 * regime.epsilon
    return _bordered_game(a, r, v)


def _bordered_game(a: np.ndarray, r: Fraction, v: Fraction) -> BimatrixGame:
    b = np.full((len(a) + 1,) * 2, r, dtype=object)
    b[:-1, :-1] = a
    b[-1, -1] = v
    return BimatrixGame(b, b, orientation=(MAXIMIZE, MAXIMIZE))


# ---------------------------------------------------------------------------
# audits


@dataclass(frozen=True)
class NashGapReport:
    """Exact symmetric equilibrium census of A(G), measured against the lemma.

    `clique_values` holds the equilibrium value of uniform play on each
    maximum clique (None when it is not an equilibrium); `clique_form` flags
    each equilibrium that is uniform on a clique.  The rest is derived from
    these: `offenders` are the non-clique-form equilibria worth more than
    `nonclique_bound` = -1/(k-1), which exists for k >= 2.
    """

    k: int
    max_cliques: tuple[tuple[int, ...], ...]
    equilibria: tuple[SymmetricEquilibrium, ...]
    clique_values: tuple[Fraction | None, ...]
    clique_form: tuple[bool, ...]
    max_value: Fraction = field(init=False)
    clique_form_count: int = field(init=False)
    best_nonclique_value: Fraction | None = field(init=False)
    nonclique_bound: Fraction | None = field(init=False)
    offenders: tuple[SymmetricEquilibrium, ...] = field(init=False)

    def __post_init__(self):
        others = [eq for eq, flag in zip(self.equilibria, self.clique_form, strict=True) if not flag]
        bound = Fraction(-1, self.k - 1) if self.k >= 2 else None
        for name, value in (
            ("max_value", max(eq.value for eq in self.equilibria)),
            ("clique_form_count", sum(self.clique_form)),
            ("best_nonclique_value", max((eq.value for eq in others), default=None)),
            ("nonclique_bound", bound),
            ("offenders", tuple(eq for eq in others if bound is not None and eq.value > bound)),
        ):
            object.__setattr__(self, name, value)

    @property
    def bounds(self) -> tuple[BoundRecord, ...]:
        """nashgap_max (every maximum clique and the best equilibrium worth
        exactly -1/k) and, for k >= 2, nashgap_gap (no offender); exact."""
        top = Fraction(-1, self.k)
        records = (BoundRecord(
            "nashgap_max", float(top), float(self.max_value),
            self.max_value == top and all(v == top for v in self.clique_values),
        ),)
        if self.nonclique_bound is not None:
            best = self.best_nonclique_value
            records += (BoundRecord(
                "nashgap_gap", float(self.nonclique_bound),
                float(best) if best is not None else None, not self.offenders,
            ),)
        return records

    @property
    def violation(self) -> str | None:
        """The first violated clause of the value-gap lemma, or None when every record holds."""
        if all(b.satisfied for b in self.bounds):
            return None
        k = self.k
        for clique, value in zip(self.max_cliques, self.clique_values):
            if value is None:
                return f"uniform play on maximum clique {clique} is not an equilibrium"
            if value != Fraction(-1, k):
                return f"clique {clique} equilibrium value {value} != -1/{k}"
        if self.max_value != Fraction(-1, k):
            return f"best symmetric equilibrium value {self.max_value} != -1/{k}"
        listing = "; ".join(f"{eq.probs} at value {eq.value}" for eq in self.offenders[:4])
        return (
            f"{len(self.offenders)} non-clique-form symmetric equilibria exceed "
            f"-1/(k-1) = {self.nonclique_bound}: {listing}"
        )


def _is_clique_uniform(graph: Graph, probs: FVec) -> bool:
    """True when probs is the uniform distribution over some clique of G."""
    support = tuple(i for i, p in enumerate(probs) if p > 0)
    m = len(support)
    if any(probs[i] != Fraction(1, m) for i in support):
        return False
    return graph.is_clique(support)


def measure_nashgap(graph: Graph) -> NashGapReport:
    """Enumerate all symmetric equilibria of A(G) and measure the value gap.

    Records the value of uniform play on every maximum clique and which
    equilibria are uniform on a clique; the report derives the best value,
    the best value of the other equilibria and (for k >= 2) those worth
    more than -1/(k-1).  Nothing is enforced; see `nashgap_audit`.
    """
    a = payoff_from_graph(graph)
    k, _ = max_clique(graph)
    maxima = tuple(cliques_of_size(graph, k))
    eqs = symmetric_support_enumeration(a, orientation=MAXIMIZE)
    by_probs = {eq.probs: eq for eq in eqs}
    clique_values = []
    for clique in maxima:
        eq = by_probs.get(clique_uniform(graph, clique).exact)
        clique_values.append(None if eq is None else eq.value)
    return NashGapReport(
        k=k,
        max_cliques=maxima,
        equilibria=tuple(eqs),
        clique_values=tuple(clique_values),
        clique_form=tuple(_is_clique_uniform(graph, eq.probs) for eq in eqs),
    )


def nashgap_audit(graph: Graph) -> NashGapReport:
    """Measure the value gap of A(G) and raise on a violated clause.

    Asserts that uniform play on every maximum clique is an exact
    equilibrium of value -1/k, that the best symmetric equilibrium value is
    exactly -1/k, and (for k >= 2) that every equilibrium that is not the
    uniform distribution over some clique is worth at most -1/(k-1).

    Caution: the last assertion fails on many graphs.  Symmetric equilibria
    only require indifference across the support, not local optimality, and
    indifference points with a compromised support can sit strictly between
    -1/(k-1) and -1/k; the smallest example is the four-cycle-with-chord
    graph (complete on four vertices minus one edge), where
    (1/8, 1/8, 3/8, 3/8) is an exact symmetric equilibrium of value -3/8 >
    -1/2.  The audit reports such profiles in its error message; the
    maximum-value and clique-uniform assertions are always sound.
    `measure_nashgap` returns the same report without raising.
    """
    return enforce(measure_nashgap(graph))


@dataclass(frozen=True)
class WsneCandidateRecord:
    probs: FVec
    wsne_eps: Fraction
    value: Fraction
    clique_supported: bool


@dataclass(frozen=True)
class WsneOffender:
    """A candidate that violates a clause: the measured quantity and its bound.

    `clause` names the report record: `wsne_clique_value` (value below its
    bound), `wsne_closeness` (sup distance to the nearest uniform clique
    profile above its bound) or `wsne_nonclique_value` (value above its bound).
    """

    clause: str
    probs: FVec
    measured: Fraction
    bound: Fraction


@dataclass(frozen=True)
class WsneValueReport:
    """The WSNE value audit's candidates, offenders and clause bounds
    (base, factor, other) of `wsne_value_bounds`; see `measure_wsne_value`."""

    k: int
    records: tuple[WsneCandidateRecord, ...]
    offenders: tuple[WsneOffender, ...]
    clause_bounds: tuple[Fraction, Fraction, Fraction]

    @property
    def candidates(self) -> int:
        return len(self.records)

    @property
    def min_clique_value(self) -> Fraction | None:
        return min((r.value for r in self.records if r.clique_supported), default=None)

    @property
    def max_other_value(self) -> Fraction | None:
        return max((r.value for r in self.records if not r.clique_supported), default=None)

    @property
    def bounds(self) -> tuple[BoundRecord, ...]:
        """The clique-value, non-clique-value and closeness verdicts: each
        clause's bound and extreme value, or its first offender's; exact."""
        base, _, other = self.clause_bounds
        first = {}
        for o in self.offenders:
            first.setdefault(o.clause, o)
        verdicts = []
        for name, value, measured in (("wsne_clique_value", base, self.min_clique_value),
                                      ("wsne_nonclique_value", other, self.max_other_value),
                                      ("wsne_closeness", None, None)):
            if name in first:
                value, measured = first[name].bound, first[name].measured
            verdicts.append(BoundRecord(
                name, None if value is None else float(value),
                None if measured is None else float(measured), name not in first,
            ))
        return tuple(verdicts)

    @property
    def violation(self) -> str | None:
        """The message of the first offender in candidate order, or None."""
        if not self.offenders:
            return None
        o = self.offenders[0]
        if o.clause == "wsne_clique_value":
            return f"clique-supported candidate {o.probs} has value {o.measured} < {o.bound}"
        if o.clause == "wsne_closeness":
            return (f"clique-supported candidate {o.probs} strays {o.measured} "
                    f"> {o.bound} from the uniform clique profile")
        return f"non-clique candidate {o.probs} has value {o.measured} > {o.bound}"


PERTURB_WEIGHTS = (Fraction(1, 100), Fraction(1, 10))
AUDIT_CHUNK_ROWS = 4096
WSNE_CLAUSES = ("wsne_clique_value", "wsne_closeness", "wsne_nonclique_value")


def _wsne_candidates(n: int, m: int, eqs) -> tuple[np.ndarray, np.ndarray]:
    """Every WSNE audit candidate once, in first-occurrence order.

    Returns integer rows over per-row denominators.  The simplex grid with
    spacing 1/m comes first, in `simplex_grid` order, over m.  Then
    each equilibrium and its perturbations with weight w in PERTURB_WEIGHTS,
    (1 - w) x + w u toward the uniform profile u and then toward each vertex,
    in lowest terms.  Such a point is on the grid iff its denominator divides
    m; it is kept only when it is off the grid and new.  `eqs` is never empty:
    every census of A-bar(G, delta) holds uniform play on a maximum clique.
    """
    grid = np.array(list(_compositions(m, n)), dtype=object)
    scaled = [scale_to_integers(eq.probs) for eq in eqs]
    e = np.array([row for row, _ in scaled], dtype=object)
    den = np.array([dx for _, dx in scaled], dtype=object)
    rows, dens = [e[:, None]], [den[:, None]]
    for w in PERTURB_WEIGHTS:
        a, b = w.numerator, w.denominator
        rows.append(((b - a) * n * e + a * den[:, None])[:, None])
        dens.append(b * n * den[:, None])
        rows.append((b - a) * e[:, None, :] + a * den[:, None, None] * np.eye(n, dtype=int))
        dens.append(np.repeat(b * den[:, None], n, axis=1))
    rows = np.concatenate(rows, axis=1).reshape(-1, n)
    dens = np.concatenate(dens, axis=1).reshape(-1)
    g = np.gcd.reduce(rows, axis=1)  # the entries sum to the denominator, so g divides it
    rows, dens = rows // g[:, None], dens // g
    seen: dict[tuple, int] = {}
    for i, (row, dx) in enumerate(zip(rows.tolist(), dens.tolist())):
        if m % dx:
            seen.setdefault(tuple(row), i)
    kept = list(seen.values())
    return (np.concatenate([grid, rows[kept]]),
            np.concatenate([np.full(len(grid), m, dtype=object), dens[kept]]))


def measure_wsne_value(
    graph: Graph,
    regime: ParameterRegime,
    resolution=Fraction(1, 6),
) -> WsneValueReport:
    """Measure the two well-supported value bounds on A-bar(G, delta), exactly.

    Candidates are every simplex grid point at `resolution`, every exact
    symmetric equilibrium, and rational perturbations of those equilibria
    (`_wsne_candidates`).  For each candidate x with measured well-supported
    slack e (the smallest e for which x is an e-WSNE):

      * support inside a maximum clique:  value >= 1 - 1/k + delta/k
        - ((k - delta)/(1 - delta)) e, and x is within that same factor of
        the uniform clique profile in sup norm;
      * support not inside any maximum clique:  value <= 1 - 1/k + delta/k
        - 2 delta / (n^2 k^4) + 2 e.

    Candidate c is a row X_c of integers over its denominator q_c.  One
    chunked integer product with the payoffs, integers over D, gives its
    support, slack E_c / (D q_c) and value V_c / (D q_c^2)
    (`checks._wsne_slack`); its sup distance to the uniform
    profile on clique K is max_i |k X_ci - q_c [i in K]| / (k q_c).  Every
    clause is decided on these integers.  Nothing is enforced: the report
    lists each violation as an offender, in candidate order and, within a
    candidate, in clause order; its `bounds` record each clause with its
    bound and measured value, or its first offender's.  See `wsne_value_audit`.
    It reads the regime's n, k and delta, never its epsilon or `strict`.
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
    m = _grid_denominator(n, resolution)
    in_clique = np.zeros((len(maxima), n), dtype=bool)
    for i, clique in enumerate(maxima):
        in_clique[i, list(clique)] = True
    eqs = symmetric_support_enumeration(a, orientation=MAXIMIZE)
    xs, dens = _wsne_candidates(n, m, eqs)
    rows, d = scale_to_integers(a)  # maximizing players: nothing to fold
    # |M x| <= max|M| q and |x^T M x| <= max|M| q^2 bound every integer of the product
    dtype = carrier(max(map(abs, rows.flat)) * max(dens) ** 2)
    xs, dens, rows = (t.astype(dtype, copy=False) for t in (xs, dens, rows))

    slack, value, clique_supported, dist = [], [], [], []
    for start in range(0, len(xs), AUDIT_CHUNK_ROWS):
        x, q = xs[start:start + AUDIT_CHUNK_ROWS], dens[start:start + AUDIT_CHUNK_ROWS]
        support, payoffs, e = _wsne_slack(rows, x)
        contained = ~(support @ ~in_clique.T)  # support inside clique K
        # k q bounds every distance numerator, so it stands in where K does not contain x
        far = np.abs(k * x[:, None, :] - (q[:, None, None] * in_clique)).max(axis=2)
        slack += e.tolist()
        value += (x * payoffs).sum(axis=1).tolist()
        clique_supported += contained.any(axis=1).tolist()
        dist += np.where(contained, far, (k * q)[:, None]).min(axis=1).tolist()
    e, v, near, q = (np.array(t, dtype=object) for t in (slack, value, dist, dens.tolist()))
    bounds = wsne_value_bounds(n, k, delta)
    base, factor, other = bounds
    violated = _violated_clauses(bounds, d, k, q, e, v, near, np.array(clique_supported))

    # coordinates over q, slacks over d q and values over d q^2 repeat: build each Fraction once
    tables: dict[int, tuple[FractionTable, ...]] = {}
    records, offenders = [], []
    for row, dx, ec, vc, cs in zip(xs.tolist(), dens.tolist(), slack, value, clique_supported):
        over = tables.get(dx)
        if over is None:
            over = tables[dx] = tuple(map(FractionTable, (dx, d * dx, d * dx * dx)))
        records.append(WsneCandidateRecord(tuple(map(over[0].__getitem__, row)), over[1][ec],
                                           over[2][vc], cs))
    for c in np.flatnonzero(violated[0] | violated[1] | violated[2]).tolist():
        r = records[c]
        measured = (r.value, Fraction(dist[c], k * q[c]), r.value)
        bound = (base - factor * r.wsne_eps, factor * r.wsne_eps, other + 2 * r.wsne_eps)
        offenders += [WsneOffender(clause, r.probs, measured[i], bound[i])
                      for i, clause in enumerate(WSNE_CLAUSES) if violated[i][c]]
    return WsneValueReport(
        k=k,
        records=tuple(records),
        offenders=tuple(offenders),
        clause_bounds=bounds,
    )


def wsne_value_bounds(n: int, k: int, delta: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """(base, factor, other) of the WSNE value clauses at slack e.

    A clique-supported candidate needs value >= base - factor e and sup
    distance <= factor e to the uniform clique profile; any other candidate
    needs value <= other + 2 e.
    """
    base = 1 - Fraction(1, k) + delta / k
    return base, Fraction(k - delta, 1 - delta), base - 2 * delta / (n**2 * k**4)


def _violated_clauses(bounds, d: int, k: int, q, e, v, near, clique) -> tuple:
    """Which candidates violate each clause of WSNE_CLAUSES, decided in integers.

    Candidate c has slack e_c / (d q_c), value v_c / (d q_c^2) and sup
    distance near_c / (k q_c), as Python ints in object arrays; `clique`
    says whether a maximum clique contains its support.  Each clause is
    multiplied through by its positive denominators: d q^2 bd fd for the
    clique value, d q fd for the distance and d q^2 od for the other value.
    """
    (bn, bd), (fn, fd), (on, od) = (b.as_integer_ratio() for b in bounds)
    return (
        clique & (v * bd * fd < bn * fd * d * q * q - fn * bd * e * q),
        clique & (near * d * fd > fn * e * k),
        ~clique & (v * od > on * d * q * q + 2 * e * q * od),
    )


def wsne_value_audit(
    graph: Graph,
    regime: ParameterRegime,
    resolution=Fraction(1, 6),
) -> WsneValueReport:
    """Measure the two well-supported value bounds and raise on the first violation.

    All comparisons are exact rational arithmetic (`measure_wsne_value`);
    the first offender, in candidate order, raises BoundViolationError.
    """
    return enforce(measure_wsne_value(graph, regime, resolution))


# ---------------------------------------------------------------------------
# classification of bordered-game profiles


TRIVIAL_LAST = "TrivialLast"
CLIQUE_UNIFORM = "CliqueUniform"
HALF_MIX = "HalfMix"
OTHER = "Other"
_FORM_ORDER = {TRIVIAL_LAST: 0, CLIQUE_UNIFORM: 1, HALF_MIX: 2}


@dataclass(frozen=True)
class ProfileClassification:
    """Nearest canonical shape for a bordered-game profile.

    Iterates as (form, distance) so callers can unpack the pair directly.
    """

    form: str
    clique: tuple[int, ...] | None
    distance: float
    bound: float | None

    def __iter__(self):
        yield self.form
        yield self.distance


def graph_from_bordered_game(game: NormalFormGame) -> Graph:
    """Recover the graph from a bordered payoff matrix.

    Both bordered families are recognized by their diagonal: the exact one
    has -1 on the graph block's diagonal with edges at 0 and non-edges at
    -2; the robust one has delta in (0, 1) on the diagonal with edges at 1
    and non-edges at 0.  The last action is the border.
    """
    if not game.identical_payoff():
        raise PreconditionError("bordered games carry identical payoffs")
    b = game.payoffs[0].tolist()
    n = len(b) - 1
    if n < 1:
        raise DimensionError("bordered game needs at least two actions")
    diag = {b[i][i] for i in range(n)}
    if len(diag) != 1:
        raise PreconditionError("graph block has a non-constant diagonal")
    d = next(iter(diag))
    if d == -1:
        edge_value = Fraction(0)
    elif 0 < d < 1:
        edge_value = Fraction(1)
    else:
        raise PreconditionError(f"unrecognized diagonal value {d}")
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if b[i][j] == edge_value
    ]
    return Graph.from_edges(n, edges)


def _canonical_forms(graph: Graph, k: int) -> list[tuple[str, tuple[int, ...] | None, np.ndarray]]:
    n = graph.n
    forms: list[tuple[str, tuple[int, ...] | None, np.ndarray]] = []
    trivial = np.zeros(n + 1)
    trivial[n] = 1.0
    forms.append((TRIVIAL_LAST, None, trivial))
    for clique in cliques_of_size(graph, k):
        cu = np.zeros(n + 1)
        for v in clique:
            cu[v] = 1.0 / k
        forms.append((CLIQUE_UNIFORM, clique, cu))
        hm = np.zeros(n + 1)
        hm[n] = 0.5
        for v in clique:
            hm[v] = 0.5 / k
        forms.append((HALF_MIX, clique, hm))
    return forms


def classify_symmetric_profile(
    game: NormalFormGame,
    k: int,
    regime: ParameterRegime,
    x_hat: MixedStrategy,
    eps: float,
    well_supported: bool = False,
) -> ProfileClassification:
    """Snap a bordered-game profile to the nearest canonical shape.

    The shapes are TrivialLast (all mass on the border action),
    CliqueUniform (uniform on a k-clique), and HalfMix (half border, half
    clique-uniform), with the k-cliques enumerated from the graph encoded
    in the payoff block.  Distance is sup-norm; ties prefer the smaller
    distance, then the form order above, then the lexicographically
    smallest clique.  A profile farther than the stability bound from
    every shape classifies as Other — the bound being 2 n^6 eps for a
    well-supported input and n^6 sqrt(eps) for a plain approximate
    equilibrium.  Under the strict regime that situation raises instead;
    at desk scale it is merely recorded, and with eps = 0 exact equilibria
    away from all three shapes (which many graphs do have) come out as
    Other.  A negative or non-finite eps is refused.
    """
    require_finite_nonnegative("eps", eps)
    graph = graph_from_bordered_game(game)
    probs = x_hat.probs
    if probs.size != graph.n + 1:
        raise DimensionError("profile must include the border action")
    best: tuple[tuple, tuple[int, ...] | None, str, float] | None = None
    for form, clique, vec in _canonical_forms(graph, k):
        dist = float(np.abs(probs - vec).max())
        key = (dist, _FORM_ORDER[form], clique if clique is not None else ())
        if best is None or key < best[0]:
            best = (key, clique, form, dist)
    _, clique, form, dist = best
    n = graph.n
    bound = 2.0 * n**6 * eps if well_supported else n**6 * math.sqrt(eps)
    if not within(dist, bound):
        if regime.strict:
            raise BoundViolationError(
                f"profile sits {dist} from every canonical shape, above {bound}"
            )
        form, clique = OTHER, None
    return ProfileClassification(
        form=form,
        clique=clique,
        distance=dist,
        bound=bound,
    )


def nonsym_instance(graph: Graph, regime: ParameterRegime) -> QuadraticMinMaxProblem:
    """Decoupled min-max form of the robust bordered game.

    f(x, y) = y^T B y - x^T B x with B the robust bordered payoff, i.e.
    Qx = Qy = 2B and no cross term; first-order points of f recover
    symmetric approximate equilibria of (B, B) on each block.
    """
    game = robust_unique_ne_game(graph, regime)
    b = game.payoffs[0]
    q = 2 * b  # one Q for both players: coerced, scaled and mirrored once
    return QuadraticMinMaxProblem(qx=q, qy=q, m=np.zeros(b.shape, dtype=object))
