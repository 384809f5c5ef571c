"""Clique-counting games: payoff builders, audits, and the three-form census."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from minmaxlab import checks, cliques, minmax, oracle
from minmaxlab.cliques import (
    CLIQUE_UNIFORM,
    HALF_MIX,
    OTHER,
    TRIVIAL_LAST,
    Graph,
    ParameterRegime,
    payoff_from_graph,
    payoff_from_graph_delta,
)
from minmaxlab.errors import BoundViolationError, CapExceededError, PreconditionError
from minmaxlab.games import MAXIMIZE, MixedStrategy
from minmaxlab.rational import solve_linear, transpose


def regime_for(graph, k, strict=False):
    delta = Fraction(1, 2)
    eps = delta * (1 - delta) / (12 * graph.n**7)
    return ParameterRegime(n=graph.n, k=k, delta=delta, epsilon=eps, strict=strict)


def test_payoff_matrix_encodes_adjacency(path3):
    a = payoff_from_graph(path3)
    assert a[0][0] == Fraction(-1)
    assert a[0][1] == Fraction(0)  # edge
    assert a[0][2] == Fraction(-2)  # non-edge
    assert a.tolist() == a.T.tolist()  # symmetric


def test_robust_payoff_matrix_values(path3):
    a = payoff_from_graph_delta(path3, Fraction(1, 2))
    assert a[0][0] == Fraction(1, 2)
    assert a[0][1] == Fraction(1)
    assert a[0][2] == Fraction(0)


def test_nashgap_audit_on_the_pinned_graph(fig1):
    rep = cliques.nashgap_audit(fig1)
    assert rep.k == 4
    assert rep.max_value == Fraction(-1, 4)
    values = sorted(e.value for e in rep.equilibria)
    assert values == [Fraction(-7, 19), Fraction(-1, 3), Fraction(-1, 4)]
    assert rep.clique_form_count == 2
    assert rep.best_nonclique_value == Fraction(-7, 19)
    assert rep.nonclique_bound == Fraction(-1, 3)


def test_nashgap_audit_flags_the_path_graph(path3):
    # the full-support equalizer (1/5, 3/5, 1/5) is worth -3/5, above the
    # -1/(k-1) = -1 threshold claimed for non-clique equilibria
    with pytest.raises(BoundViolationError):
        cliques.nashgap_audit(path3)


def test_measure_nashgap_reports_the_violation_it_does_not_enforce(path3):
    rep = cliques.measure_nashgap(path3)
    assert rep.clique_values == (Fraction(-1, 2), Fraction(-1, 2))
    assert rep.best_nonclique_value == Fraction(-3, 5)
    assert [eq.probs for eq in rep.offenders] == [(Fraction(1, 5), Fraction(3, 5), Fraction(1, 5))]
    assert "exceed -1/(k-1) = -1" in rep.violation
    assert cliques.measure_nashgap(Graph.from_edges(3, [(0, 1)])).violation is None


def test_measure_nashgap_compares_with_the_bound_exactly(path3, monkeypatch):
    """An equilibrium a hair above -1/(k-1) is an offender; one at it is not."""
    real = cliques.measure_nashgap(path3).equilibria  # k = 2, bound -1
    hair = Fraction(1, 10**12)
    for value, offends in ((Fraction(-1) + hair, True), (Fraction(-1), False)):
        fake = oracle.SymmetricEquilibrium((Fraction(1, 3),) * 3, value, (0, 1, 2))
        monkeypatch.setattr(cliques, "symmetric_support_enumeration",
                            lambda a, orientation: [*real, fake])
        assert (fake in cliques.measure_nashgap(path3).offenders) == offends


def test_nashgap_audit_flags_the_almost_complete_graph(k4_minus_edge):
    """K4 minus one edge carries a full-support equilibrium worth -3/8.

    That value beats the -1/(k-1) = -1/2 threshold claimed for equilibria
    that are not uniform on a clique, so the audit must refuse to certify.
    """
    with pytest.raises(BoundViolationError):
        cliques.nashgap_audit(k4_minus_edge)


def test_unique_ne_game_border_values(fig1):
    k = 4
    game = cliques.unique_ne_game(fig1, k)
    b = game.row_payoff
    assert len(b) == 6
    assert b[5][5] == Fraction(-1, k)
    r = Fraction(-(2 * k - 1), 2 * (k - 1) * k)
    assert b[0][5] == r
    assert b[5][0] == r
    assert game.col_payoff.tolist() == transpose(game.row_payoff).tolist()


def test_unique_ne_game_rejects_out_of_range_k(fig1):
    with pytest.raises(PreconditionError):
        cliques.unique_ne_game(fig1, 1)
    with pytest.raises(PreconditionError):
        cliques.unique_ne_game(fig1, 6)


def test_game_to_graph_roundtrip(fig1, cycle5):
    for g in (fig1, cycle5):
        bordered = cliques.unique_ne_game(g, 2)
        back = cliques.graph_from_bordered_game(bordered)
        assert back.n == g.n
        assert back.edges == g.edges
        robust = cliques.robust_unique_ne_game(g, regime_for(g, 2))
        back2 = cliques.graph_from_bordered_game(robust)
        assert back2.edges == g.edges


def test_census_of_the_bordered_game_classifies_into_named_forms(fig1):
    k = 4
    game = cliques.unique_ne_game(fig1, k)
    regime = regime_for(fig1, k)
    forms = set()
    for eq in oracle.symmetric_support_enumeration(
        game.row_payoff, orientation="maximize"
    ):
        x_hat = MixedStrategy.from_exact(eq.probs)
        result = cliques.classify_symmetric_profile(game, k, regime, x_hat, 1e-9)
        form, distance = result
        forms.add(form)
        if form != OTHER:
            assert distance <= 1e-9
    assert TRIVIAL_LAST in forms
    assert CLIQUE_UNIFORM in forms


def test_pure_last_action_is_the_trivial_form(fig1):
    k = 5  # one above the maximum clique size
    game = cliques.unique_ne_game(fig1, k)
    regime = regime_for(fig1, k)
    eqs = oracle.symmetric_support_enumeration(game.row_payoff, orientation="maximize")
    assert len(eqs) == 1
    x_hat = MixedStrategy.from_exact(eqs[0].probs)
    form, distance = cliques.classify_symmetric_profile(game, k, regime, x_hat, 1e-9)
    assert form == TRIVIAL_LAST
    assert distance == 0.0


def test_strict_regime_needs_ten_or_more_vertices(fig1):
    with pytest.raises(PreconditionError):
        regime_for(fig1, 4, strict=True)


def test_strict_regime_raises_on_unclassifiable_profiles(petersen):
    k = 10  # no 10-clique exists, so only the trivial form is available
    game = cliques.unique_ne_game(petersen, k)
    regime = ParameterRegime(
        n=10, k=k, delta=Fraction(1, 2), epsilon=Fraction(1, 10**9), strict=True
    )
    raw = np.zeros(11)
    raw[0] = raw[1] = 0.5
    stray = MixedStrategy(raw)
    with pytest.raises(BoundViolationError):
        cliques.classify_symmetric_profile(
            game, k, regime, stray, 1e-9, well_supported=True
        )


@pytest.mark.parametrize("value", [-0.1, -math.inf, math.inf, math.nan])
def test_classification_refuses_a_negative_or_non_finite_eps(fig1, value):
    game = cliques.unique_ne_game(fig1, 4)
    with pytest.raises(PreconditionError, match="eps"):
        cliques.classify_symmetric_profile(
            game, 4, regime_for(fig1, 4), MixedStrategy.pure(6, 5), value
        )


def test_lenient_regime_labels_stray_profiles_other(fig1):
    k = 4
    game = cliques.unique_ne_game(fig1, k)
    regime = regime_for(fig1, k)
    stray = MixedStrategy(np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0]))
    # n^6 sqrt(eps) swallows everything at eps = 1e-9, so shrink eps until
    # the tolerance is honest before asking for a label
    form, _ = cliques.classify_symmetric_profile(game, k, regime, stray, 1e-18)
    assert form == OTHER


def test_wsne_value_audit_smoke(k3):
    rep = cliques.wsne_value_audit(k3, regime_for(k3, 3))
    assert rep.k == 3
    assert rep.min_clique_value == Fraction(1, 2)
    assert rep.max_other_value is None  # every subset of a triangle is a clique
    assert rep.candidates == 34


def test_wsne_value_audit_keeps_the_grid_cap(fig1):
    regime = regime_for(fig1, 4)
    with pytest.raises(CapExceededError, match=r"grid holds 42084793751 points, cap is 10000000"):
        cliques.wsne_value_audit(fig1, regime, Fraction(1, 1000))
    with pytest.raises(ValueError, match="resolution must be 1/m"):
        cliques.measure_wsne_value(fig1, regime, Fraction(2, 3))


def test_wsne_value_audit_requires_the_true_clique_number(k3):
    with pytest.raises(PreconditionError):
        cliques.wsne_value_audit(k3, regime_for(k3, 2))


def test_measure_wsne_value_reports_the_nonclique_offender_at_delta_99_100(path3):
    # a finding about the stated bound: the non-clique clause fails at delta = 99/100
    regime = ParameterRegime(n=3, k=2, delta=Fraction(99, 100), epsilon=Fraction(1, 10**6))
    report = cliques.measure_wsne_value(path3, regime)
    assert report.candidates == 53
    first = report.offenders[0]
    assert first.clause == "wsne_nonclique_value"
    assert first.probs == (Fraction(1, 103), Fraction(101, 103), Fraction(1, 103))
    assert (first.measured, first.bound) == (Fraction(10199, 10300), Fraction(157, 160))
    assert {o.clause for o in report.offenders} == {"wsne_nonclique_value"}
    assert first.measured == next(r.value for r in report.records if r.probs == first.probs)
    message = report.violation
    assert message == (
        "non-clique candidate (Fraction(1, 103), Fraction(101, 103), Fraction(1, 103)) "
        "has value 10199/10300 > 157/160"
    )
    with pytest.raises(BoundViolationError) as exc:
        cliques.wsne_value_audit(path3, regime)
    assert str(exc.value) == message


def fraction_offenders(graph, regime, report):
    """The offenders of a report's records, recomputed clause by clause in Fractions."""
    n, k, delta = graph.n, regime.k, regime.delta
    maxima = [set(c) for c in oracle.cliques_of_size(graph, k)]
    base = 1 - Fraction(1, k) + delta / k
    factor = (k - delta) / (1 - delta)
    other = base - 2 * delta / (n**2 * k**4)
    out = []
    for r in report.records:
        support = {i for i, p in enumerate(r.probs) if p > 0}
        containing = [c for c in maxima if support <= c]
        assert r.clique_supported == bool(containing)
        if containing:
            if r.value < base - factor * r.wsne_eps:
                out.append(("wsne_clique_value", r.probs, r.value, base - factor * r.wsne_eps))
            dist = min(max(abs(p - (Fraction(1, k) if i in c else 0)) for i, p in enumerate(r.probs))
                       for c in containing)
            if dist > factor * r.wsne_eps:
                out.append(("wsne_closeness", r.probs, dist, factor * r.wsne_eps))
        elif r.value > other + 2 * r.wsne_eps:
            out.append(("wsne_nonclique_value", r.probs, r.value, other + 2 * r.wsne_eps))
    return out


@pytest.mark.parametrize("delta", [Fraction(1, 100), Fraction(1, 2), Fraction(99, 100)])
def test_wsne_offenders_are_the_clauses_decided_in_fractions(path3, fig1, petersen, delta):
    for graph in (path3, fig1, petersen, Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])):
        k, _ = oracle.max_clique(graph)
        regime = ParameterRegime(n=graph.n, k=k, delta=delta, epsilon=Fraction(1, 10**6))
        report = cliques.measure_wsne_value(graph, regime, Fraction(1, 4))
        got = [(o.clause, o.probs, o.measured, o.bound) for o in report.offenders]
        assert got == fraction_offenders(graph, regime, report)
        for r in report.records:
            assert r.wsne_eps == checks.wsne_eps_exact(payoff_from_graph_delta(graph, delta), r.probs)


def test_wsne_clauses_hold_at_equality():
    # n = 3, k = 2, delta = 1/2: base 3/4, factor 3, other 107/144
    bounds = cliques.wsne_value_bounds(3, 2, Fraction(1, 2))
    assert bounds == (Fraction(3, 4), Fraction(3), Fraction(107, 144))
    d, k, q, e = 2, 2, 72, 1  # slack 1/144
    clique = np.array([True, True, False, False, True, True])
    # value at the clique bound and one below; at the other bound and one above
    at_low = (Fraction(3, 4) - 3 * Fraction(e, d * q)) * d * q * q
    at_high = (Fraction(107, 144) + 2 * Fraction(e, d * q)) * d * q * q
    assert at_low.denominator == at_high.denominator == 1
    v = np.array([int(at_low), int(at_low) - 1, int(at_high), int(at_high) + 1,
                  d * q * q, d * q * q], dtype=object)
    # distance at the bound factor e = 3/144, i.e. 3 e k / d over k q, and one above
    near = np.array([0, 0, 0, 0, 3 * e * k // d, 3 * e * k // d + 1], dtype=object)
    low, strays, high = cliques._violated_clauses(
        bounds, d, k, np.full(6, q, dtype=object), np.full(6, e, dtype=object), v, near, clique)
    assert low.tolist() == [False, True, False, False, False, False]
    assert strays.tolist() == [False, False, False, False, False, True]
    assert high.tolist() == [False, False, False, True, False, False]


def test_wsne_candidates_keep_first_occurrences():
    # uniform play on K5 is an equilibrium, and its mix toward uniform is
    # itself, at weight 1/100 and again at 1/10; 1/5 is not on the 1/6 grid
    k5 = Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    report = cliques.measure_wsne_value(k5, regime_for(k5, 5))
    probs = [r.probs for r in report.records]
    assert len(set(probs)) == len(probs)
    uniform = (Fraction(1, 5),) * 5
    toward_first = (Fraction(26, 125),) + (Fraction(99, 500),) * 4  # weight 1/100 toward vertex 0
    assert probs.index(uniform) < probs.index(toward_first)


def test_every_delta_census_holds_uniform_play_on_each_maximum_clique():
    # why the WSNE audit's census is never empty: on a maximum clique K,
    # A-bar_KK = J - (1 - delta) I and its bordered support system are
    # nonsingular, and every payoff off K is strictly below the value
    # 1 - (1 - delta) / k, so uniform play on K is a symmetric equilibrium
    rng = np.random.default_rng(26)
    cases = 0
    for n in range(1, 8):
        for _ in range(40):
            density = rng.uniform(0.2, 0.9)
            graph = Graph.from_edges(
                n, [e for e in itertools.combinations(range(n), 2) if rng.random() < density])
            k, _ = oracle.max_clique(graph)
            for delta in (Fraction(1, 100), Fraction(1, 3), Fraction(1, 2), Fraction(99, 100)):
                a = payoff_from_graph_delta(graph, delta)
                census = {eq.probs for eq in
                          oracle.symmetric_support_enumeration(a, orientation=MAXIMIZE)}
                value = 1 - (1 - delta) / k
                q = delta.denominator
                for clique in oracle.cliques_of_size(graph, k):
                    inside = list(clique)
                    block = a[np.ix_(inside, inside)]
                    assert block.tolist() == [[1 - (1 - delta) * (i == j) for j in range(k)]
                                              for i in range(k)]
                    bordered = [[int(q * c) for c in row] + [-q] for row in block.tolist()]
                    bordered.append([1] * k + [0])
                    assert solve_linear(bordered, [0] * k + [1]) is not None
                    uniform = cliques.clique_uniform(graph, clique).exact
                    payoffs = a.dot(np.array(uniform, dtype=object))
                    assert all(payoffs[i] == value for i in inside)
                    assert all(payoffs[i] < value for i in range(n) if i not in clique)
                    assert uniform in census
                cases += 1
    assert cases == 7 * 40 * 4


def test_nonsym_instance_value_matches_the_bordered_matrix(fig1):
    regime = regime_for(fig1, 4)
    prob = cliques.nonsym_instance(fig1, regime)
    game = cliques.robust_unique_ne_game(fig1, regime)
    b = np.array([[float(v) for v in row] for row in game.row_payoff])
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.dirichlet(np.ones(6))
        y = rng.dirichlet(np.ones(6))
        assert minmax.f_value(prob, x, y) == pytest.approx(
            y @ b @ y - x @ b @ x, abs=1e-10
        )


def test_strict_conditions_predicate():
    tiny = Fraction(1, 10**9)
    assert cliques.strict_conditions_hold(12, 10, Fraction(1, 2), tiny)
    assert not cliques.strict_conditions_hold(9, 10, Fraction(1, 2), tiny)
    assert not cliques.strict_conditions_hold(12, 10, Fraction(1, 3), tiny)
    assert not cliques.strict_conditions_hold(12, 10, Fraction(1, 2), Fraction(1, 2))
