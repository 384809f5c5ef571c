"""Acceptance gate: one test per quantitative claim the package must uphold.

Each ``test_criterion_NN_*`` function checks one stated bound at its stated
scale and tolerance; the conftest plugin folds the outcomes into a per-
criterion scoreboard at the end of the run.  Three clauses, as first
stated, are false (01 sweep distance, 03 gap, 04 distance).  Their tests
pin the exact counterexample and check the part of the clause that does
hold; the analysis is in docs/decisions.md.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from minmaxlab import analytic, checks, cliques, dynamics, gadgets, minmax, oracle
from minmaxlab.cliques import (
    CLIQUE_UNIFORM,
    HALF_MIX,
    OTHER,
    TRIVIAL_LAST,
    Graph,
    ParameterRegime,
    classify_symmetric_profile,
    clique_uniform,
    payoff_from_graph,
    payoff_from_graph_delta,
    robust_unique_ne_game,
    unique_ne_game,
    wsne_value_audit,
)
from minmaxlab.dynamics import (
    SYMMETRIC_ALGORITHMS,
    DynamicsConfig,
    drift_witness_instance,
    run,
    symmetry_drift,
)
from minmaxlab.games import (
    MAXIMIZE,
    MINIMIZE,
    BimatrixGame,
    MixedProfile,
    MixedStrategy,
    NormalFormGame,
    deviation_payoffs,
    max_team_inconsistency,
)
from minmaxlab.geometry import JointDomain, project_joint, project_simplex, simplex_grid
from minmaxlab.rational import fmat, transpose

NOTES = "see docs/decisions.md"


def random_graph(rng, lo=4, hi=8):
    n = int(rng.integers(lo, hi))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


def graph_corpus():
    """Fifty random graphs (n <= 7) plus the five-vertex example graph."""
    rng = np.random.default_rng(733123900)
    fig1 = Graph.from_edges(
        5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]
    )
    return [random_graph(rng) for _ in range(50)] + [fig1]


# ---------------------------------------------------------------------------
# criterion 1 — the irrational equilibrium


def test_criterion_01_verify():
    report = analytic.verify_irrational_equilibrium(tolerance=1e-9)
    assert report.exact
    assert report.certificate.satisfied
    assert max(report.certificate.regrets) <= 1e-9
    # the two adversary action values agree exactly, as surds
    va, vb = report.action_values[2]
    assert va == vb
    assert va == report.game_value


def test_criterion_01_sweep_distance():
    """Grid sweep, resolution 1/100, eps 1/20: it finds the equilibrium region.

    The clause as first stated, that every hit lies within 0.05 of the surd
    profile, is false on every 1/m grid: the pure corner (a1, a1, a1) has
    exact regret 1/100 and lies 0.789 away.  At eps 1e-4 the sweep is empty
    instead (tests/test_oracle.py).  What holds is checked here:

      * the grid point nearest the surd profile is a hit.  Each coordinate
        is within 1/200 of the profile, so a Lipschitz bound caps its regret
        at about 3.1 * 2 * 0.005 = 0.031 < 1/20; exactly it is 2277/500000;
      * the corner is a hit with exact regret 1/100 at distance 0.789, so
        hits at this eps do not localize the equilibrium (docs/decisions.md).
    """
    game = analytic.irrational_game()
    star = [
        np.array([float(p) for p in coords])
        for coords in analytic.irrational_equilibrium()
    ]
    hits = oracle.grid_ne_search(game, Fraction(1, 100), Fraction(1, 20))
    found = {
        tuple(strategy.exact for strategy in profile.strategies): regret
        for profile, regret in hits
    }

    nearest = tuple(
        (Fraction(round(100 * s[0]), 100), Fraction(round(100 * s[1]), 100))
        for s in star
    )
    f = Fraction
    assert nearest == (
        (f(21, 100), f(79, 100)),
        (f(99, 100), f(1, 100)),
        (f(79, 100), f(21, 100)),
    )
    assert max(
        float(np.abs(np.array([float(c) for c in nearest[p]]) - star[p]).max())
        for p in range(3)
    ) <= 0.005
    assert oracle.exact_max_regret(game, nearest) == Fraction(2277, 500000)
    assert nearest in found, f"the sweep lost the equilibrium region; {NOTES}"
    assert found[nearest] == float(Fraction(2277, 500000))

    e1 = (Fraction(1), Fraction(0))
    corner = (e1, e1, e1)
    assert oracle.exact_max_regret(game, corner) == Fraction(1, 100)
    assert corner in found, f"the corner hit refuting the clause is gone; {NOTES}"
    assert found[corner] == float(Fraction(1, 100))
    corner_dist = max(float(np.abs(np.array([1.0, 0.0]) - s).max()) for s in star)
    assert corner_dist == pytest.approx((3 + np.sqrt(3)) / 6)  # 0.789


# ---------------------------------------------------------------------------
# criterion 2 — 2x2 closed form vs support enumeration


def oracle_2x2(m):
    """Test-local support enumeration for 2x2 zero-sum (min, max) games."""
    sols = []
    for i in range(2):
        for j in range(2):
            row_ok = all(m[i][j] <= m[ii][j] for ii in range(2))
            col_ok = all(m[i][j] >= m[i][jj] for jj in range(2))
            if row_ok and col_ok:
                sols.append(
                    (
                        m[i][j],
                        tuple(Fraction(1 if t == i else 0) for t in range(2)),
                        tuple(Fraction(1 if t == j else 0) for t in range(2)),
                    )
                )
    d = m[0][0] - m[0][1] - m[1][0] + m[1][1]
    if d != 0:
        x0 = (m[1][1] - m[1][0]) / d
        z0 = (m[1][1] - m[0][1]) / d
        if 0 < x0 < 1 and 0 < z0 < 1:
            x = (x0, 1 - x0)
            z = (z0, 1 - z0)
            v = x[0] * (m[0][0] * z[0] + m[0][1] * z[1]) + x[1] * (
                m[1][0] * z[0] + m[1][1] * z[1]
            )
            sols.append((v, x, z))
    return sols


def test_criterion_02_closed_form_vs_oracle():
    rng = np.random.default_rng(20260816)

    def rand_frac():
        return Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 21)))

    checked = 0
    while checked < 1000:
        m = ((rand_frac(), rand_frac()), (rand_frac(), rand_frac()))
        p1 = (m[0][0] - m[0][1]) * (m[1][1] - m[1][0])
        p2 = (m[0][0] - m[1][0]) * (m[1][1] - m[0][1])
        if not (p1 > 0 and p2 > 0):
            continue
        value, x, z = analytic.solve_2x2(m)
        sols = oracle_2x2(m)
        assert len(sols) == 1, (m, sols)
        ov, ox, oz = sols[0]
        # exact agreement, which is stronger than the 1e-9 the bound asks
        assert value == ov and tuple(x) == ox and tuple(z) == oz, (m, sols)
        checked += 1


# ---------------------------------------------------------------------------
# criteria 3 and 4 — clique census claims


def test_criterion_03_max_value():
    for g in graph_corpus():
        k, _ = oracle.max_clique(g)
        equilibria = oracle.symmetric_support_enumeration(
            payoff_from_graph(g), orientation=MAXIMIZE
        )
        assert max(eq.value for eq in equilibria) == Fraction(-1, k), g
        # and uniform play on every maximum clique attains it
        by_probs = {eq.probs: eq.value for eq in equilibria}
        for c in oracle.cliques_of_size(g, k):
            cu = clique_uniform(g, c).exact
            assert by_probs.get(cu) == Fraction(-1, k), (g, c)


def exact_payoffs(matrix, probs):
    """(M x)_i in plain rational sums, independent of the package's kernels."""
    return [sum(row[j] * probs[j] for j in range(len(probs))) for row in matrix]


def test_criterion_03_gap_clause(k4_minus_edge):
    """Non-clique-form equilibria: the value gap that holds, and the one that does not.

    The clause as first stated, that every non-clique-form symmetric
    equilibrium of A(G) is worth at most -1/(k-1), is false: on K4 minus
    edge {2, 3} (k = 3), (3/8, 3/8, 1/8, 1/8) is an exact equilibrium of
    value -3/8 > -1/2.  It is certified here by hand, without the
    enumerator, and must be among the enumerated equilibria.  What holds
    on the corpus (docs/decisions.md):

      * A(G) = 2(A_G + I/2) - 2J, so by Bomze's regularisation of
        Motzkin-Straus uniform play on a maximum clique is the only
        maximiser of x^T A(G) x; every non-clique-form equilibrium of A(G)
        is worth strictly less than -1/k;
      * on A-bar(G, 1/2), every exact symmetric equilibrium whose support
        lies in no maximum clique is worth at most
        1 - 1/k + delta/k - 2 delta/(n^2 k^4), the `wsne_value_audit`
        clause at slack 0.

    Both cover only the equilibria the enumerator isolates: it skips
    supports whose linear system is singular.
    """
    g = k4_minus_edge
    f = Fraction
    x = (f(3, 8), f(3, 8), f(1, 8), f(1, 8))
    k, _ = oracle.max_clique(g)
    assert k == 3
    a = payoff_from_graph(g)
    # full support, every action pays the same: an exact symmetric equilibrium
    assert exact_payoffs(a, x) == [f(-3, 8)] * 4
    assert not cliques._is_clique_uniform(g, x)
    assert f(-1, k - 1) < f(-3, 8) < f(-1, k)
    by_probs = {
        eq.probs: eq.value
        for eq in oracle.symmetric_support_enumeration(a, orientation=MAXIMIZE)
    }
    assert by_probs.get(x) == f(-3, 8), f"the enumerator lost {x}; {NOTES}"

    delta = f(1, 2)
    above_k, above_cap = [], []
    nonclique_a = nonclique_abar = 0
    for g in graph_corpus():
        k, _ = oracle.max_clique(g)
        for eq in oracle.symmetric_support_enumeration(
            payoff_from_graph(g), orientation=MAXIMIZE
        ):
            if cliques._is_clique_uniform(g, eq.probs):
                continue
            nonclique_a += 1
            if eq.value >= f(-1, k):
                above_k.append((g, k, eq))
        cap = 1 - f(1, k) + delta / k - 2 * delta / (g.n**2 * k**4)
        maxima = [frozenset(c) for c in oracle.cliques_of_size(g, k)]
        for eq in oracle.symmetric_support_enumeration(
            payoff_from_graph_delta(g, delta), orientation=MAXIMIZE
        ):
            if any(frozenset(eq.support) <= c for c in maxima):
                continue
            nonclique_abar += 1
            if eq.value > cap:
                above_cap.append((g, k, eq, cap))
    assert nonclique_a > 0 and nonclique_abar > 0
    assert not above_k, (
        f"{len(above_k)} non-clique-form equilibria of A(G) reach -1/k; "
        f"first: {above_k[0]}; {NOTES}"
    )
    assert not above_cap, (
        f"{len(above_cap)} non-clique equilibria of A-bar(G, 1/2) exceed "
        f"the slack-0 cap; first: {above_cap[0]}; {NOTES}"
    )


def test_criterion_04_iff_and_uniqueness():
    for g in graph_corpus():
        kmax, _ = oracle.max_clique(g)
        for k in (max(kmax, 2), max(kmax, 2) + 1):
            if k > g.n:
                continue
            game = unique_ne_game(g, k)
            regime = ParameterRegime(
                n=g.n, k=k, delta=Fraction(1, 2), epsilon=Fraction(1, 10**9)
            )
            equilibria = oracle.symmetric_support_enumeration(
                game.row_payoff, orientation=MAXIMIZE
            )
            forms = [
                classify_symmetric_profile(
                    game, k, regime, MixedStrategy.from_exact(eq.probs), 0.0
                ).form
                for eq in equilibria
            ]
            has_clique = bool(oracle.cliques_of_size(g, k))
            sees_clique_form = any(f in (CLIQUE_UNIFORM, HALF_MIX) for f in forms)
            assert sees_clique_form == has_clique, (g, k, forms)
            if not has_clique:
                # bordered game with k above the clique number: unique NE
                assert forms == [TRIVIAL_LAST], (g, k, forms)


def test_criterion_04_distance_clause():
    """Exact symmetric equilibria of the robust bordered game sit on a canonical form.

    The clause as first applied, to the A(G)-bordered `unique_ne_game`, is
    false: that game takes no (delta, eps) regime, and on n = 6 with edges
    below and k = 3 the exact equilibrium (1/4, 0, 1/12, 0, 1/12, 1/4, 1/3)
    lies 1/6 from every canonical form.  It is certified here exactly and
    must be among the enumerated equilibria, classed Other.  The clause is
    then checked on `robust_unique_ne_game`, the family the regime
    (delta = 1/2, eps = 1e-9) parametrises, on the same corpus and k pairs
    (docs/decisions.md).  It covers only the equilibria the enumerator isolates: it
    skips supports whose linear system is singular.
    """
    f = Fraction
    g = Graph.from_edges(
        6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (2, 5), (4, 5)]
    )
    k = 3
    x = (f(1, 4), f(0), f(1, 12), f(0), f(1, 12), f(1, 4), f(1, 3))
    game = unique_ne_game(g, k)
    payoffs = exact_payoffs(game.row_payoff, x)
    support = [i for i, p in enumerate(x) if p > 0]
    assert sum(x) == 1
    assert [payoffs[i] for i in support] == [f(-7, 18)] * len(support)
    assert (payoffs[1], payoffs[3]) == (f(-29, 36), f(-35, 36))
    assert sum(p * v for p, v in zip(x, payoffs)) == f(-7, 18)
    forms = [(f(0),) * g.n + (f(1),)]
    for clique in oracle.cliques_of_size(g, k):
        cu = tuple(f(1, k) if v in clique else f(0) for v in range(g.n))
        forms.append(cu + (f(0),))
        forms.append(tuple(p / 2 for p in cu) + (f(1, 2),))
    assert min(max(abs(p - q) for p, q in zip(x, form)) for form in forms) == f(1, 6)
    regime = ParameterRegime(n=g.n, k=k, delta=f(1, 2), epsilon=f(1, 10**9))
    enumerated = {
        eq.probs
        for eq in oracle.symmetric_support_enumeration(
            game.row_payoff, orientation=MAXIMIZE
        )
    }
    assert x in enumerated, f"the enumerator lost {x}; {NOTES}"
    cls = classify_symmetric_profile(game, k, regime, MixedStrategy.from_exact(x), 0.0)
    assert cls.form == OTHER
    assert cls.distance == pytest.approx(1 / 6)

    stray = []
    pairs = checked = 0
    for g in graph_corpus():
        kmax, _ = oracle.max_clique(g)
        for k in (max(kmax, 2), max(kmax, 2) + 1):
            if k > g.n:
                continue
            pairs += 1
            regime = ParameterRegime(
                n=g.n, k=k, delta=Fraction(1, 2), epsilon=Fraction(1, 10**9)
            )
            game = robust_unique_ne_game(g, regime)
            for eq in oracle.symmetric_support_enumeration(
                game.row_payoff, orientation=MAXIMIZE
            ):
                checked += 1
                cls = classify_symmetric_profile(
                    game, k, regime, MixedStrategy.from_exact(eq.probs), 0.0
                )
                if cls.form == OTHER or cls.distance > 1e-9:
                    stray.append((g, k, eq.probs, cls.distance))
    assert checked > pairs
    if stray:
        g, k, probs, dist = stray[0]
        pytest.fail(
            f"{len(stray)} of {checked} enumerated equilibria of the robust "
            f"bordered game across {pairs} graph/k pairs lie farther than "
            f"1e-9 from every canonical form; first offender: n={g.n}, "
            f"edges={sorted(g.edges)}, k={k}, profile "
            f"{tuple(str(p) for p in probs)}, distance {dist:.3g}; {NOTES}."
        )


# ---------------------------------------------------------------------------
# criterion 5 — team gadget round trip


def rand_sym_matrix(rng, n, lo, hi, den):
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(int(rng.integers(lo, hi + 1)), den)
            m[i][j] = v
            m[j][i] = v
    return fmat(m)


def refined_profile(inst, target, rng):
    """Multi-start local search; later starts lean on the canonical profile."""
    counts = inst.game.action_counts
    starts = [MixedProfile(tuple(MixedStrategy.uniform(c) for c in counts))]
    for _ in range(5):
        starts.append(
            MixedProfile(
                tuple(MixedStrategy(rng.dirichlet(np.ones(c))) for c in counts)
            )
        )
    canonical = gadgets.canonical_team_ne(inst)
    starts.append(
        MixedProfile(
            tuple(
                MixedStrategy(0.7 * canonical[p].probs + 0.3 * np.ones(c) / c)
                for p, c in enumerate(counts)
            )
        )
    )
    result = None
    for start in starts:
        result = oracle.local_ne_refine(inst.game, start, target, max_iters=25_000)
        if result.converged:
            return result
    return result


def test_criterion_05_team_gadget_roundtrip():
    rng = np.random.default_rng(6180339)
    eps = 0.05
    for trial in range(20):
        n = 2 + trial % 2
        a = rand_sym_matrix(rng, n, 100, 200, -100)  # entries in [-2, -1]
        inst = gadgets.team_gadget(a, Fraction(1, 20))
        canonical = gadgets.canonical_team_ne(inst)
        cert = checks.epsilon_ne_report(inst.game, canonical, 1e-9)
        assert cert.satisfied, (trial, cert.regrets)
        result = refined_profile(inst, eps * eps, rng)
        assert result.converged, (trial, result.max_regret)
        gadgets.gadget_structure_audit(inst, result.profile, eps)  # raises if off
        y_star, bound = gadgets.team_backmap(inst, result.profile, eps * eps)
        assert bound == pytest.approx((21 * n + 1) * float(inst.penalty_scale) * eps)
        source = NormalFormGame(payoffs=(a, a), orientation=(MINIMIZE, MINIMIZE))
        back = checks.epsilon_ne_report(
            source, MixedProfile((y_star, y_star)), bound
        )
        assert back.satisfied, (trial, back.regrets, bound)


# ---------------------------------------------------------------------------
# criterion 6 — quadratic-gadget certificate


def test_criterion_06_quadratic_certificate():
    rng = np.random.default_rng(6180339)
    for trial in range(4):
        n = 2 + trial % 2
        r = fmat(
            [
                [Fraction(int(rng.integers(-100, 101)), 100) for _ in range(n)]
                for _ in range(n)
            ]
        )
        prob = gadgets.quadratic_gadget(r)
        target = BimatrixGame(r, transpose(r), (MAXIMIZE, MAXIMIZE))
        equilibria = oracle.symmetric_support_enumeration(r, orientation=MAXIMIZE)
        points = [MixedStrategy.from_exact(eq.probs) for eq in equilibria]
        while len(points) < 100:
            base = points[int(rng.integers(0, len(equilibria)))].probs
            noise = rng.normal(0, float(rng.choice([1e-6, 1e-3, 0.05, 0.3])), size=n)
            points.append(project_simplex(base + noise))
        for s in points[:100]:
            gap = minmax.gda_gap(prob, s, s).gap
            bound = gadgets.symmetric_backmap(r, s, gap).bound
            cert = checks.epsilon_ne_report(target, MixedProfile((s, s)))
            assert max(cert.regrets) <= bound + 1e-9, (trial, max(cert.regrets), bound)


# ---------------------------------------------------------------------------
# criterion 7 — coupled-domain median


def test_criterion_07_coupled_median():
    rng = np.random.default_rng(6180339)
    eps = 1e-4
    qualified = 0
    for trial in range(4):
        n = 2 + trial % 2
        r = fmat(
            [
                [Fraction(int(rng.integers(-100, 101)), 100) for _ in range(n)]
                for _ in range(n)
            ]
        )
        delta = gadgets.coupling_width(eps, n)
        prob = gadgets.coupled_gadget(r, delta)
        target = BimatrixGame(r, transpose(r), (MAXIMIZE, MAXIMIZE))
        equilibria = oracle.symmetric_support_enumeration(r, orientation=MAXIMIZE)
        pairs = [
            (MixedStrategy.from_exact(eq.probs), MixedStrategy.from_exact(eq.probs))
            for eq in equilibria
        ]
        for eq in equilibria:
            base = np.array([float(p) for p in eq.probs])
            for scale in (1e-7, 1e-6, 1e-5):
                u = rng.normal(0, scale, size=n)
                pairs.append(
                    (project_simplex(base + u), project_simplex(base - u))
                )
        for x, y in pairs:
            if minmax.gda_gap(prob, x, y).gap > eps:
                continue
            qualified += 1
            median, bound = gadgets.median_backmap(r, x, y, eps, delta)
            cert = checks.epsilon_ne_report(target, MixedProfile((median, median)))
            assert max(cert.regrets) <= bound + 1e-9, (trial, max(cert.regrets), bound)
    assert qualified >= 20, f"only {qualified} points reached gap <= {eps}"


# ---------------------------------------------------------------------------
# criterion 8 — WSNE machinery


def measured_wsne(game, profile):
    worst = 0.0
    for p in range(2):
        dev = deviation_payoffs(game, profile, p)
        support = profile[p].probs > 1e-12
        if game.orientation[p] == MAXIMIZE:
            worst = max(worst, float((dev.max() - dev[support]).max()))
        else:
            worst = max(worst, float((dev[support] - dev.min()).max()))
    return worst


def test_criterion_08_wsne_machinery():
    rng = np.random.default_rng(271828)

    # pool of [0, 1]-normalized symmetric games with their exact equilibria
    cases = []
    for _ in range(20):
        g = random_graph(rng, 3, 8)
        a = payoff_from_graph_delta(g, Fraction(1, 2))
        game = BimatrixGame(a, a, (MAXIMIZE, MAXIMIZE))
        for eq in oracle.symmetric_support_enumeration(a, orientation=MAXIMIZE):
            cases.append((game, MixedStrategy.from_exact(eq.probs)))
    for _ in range(30):
        n = int(rng.integers(2, 6))
        a = rand_sym_matrix(rng, n, 0, 32, 32)  # entries in [0, 1]
        game = BimatrixGame(a, a, (MAXIMIZE, MAXIMIZE))
        for eq in oracle.symmetric_support_enumeration(a, orientation=MAXIMIZE):
            cases.append((game, MixedStrategy.from_exact(eq.probs)))

    checked = 0
    i = 0
    while checked < 500:
        game, s = cases[i % len(cases)]
        i += 1
        w = float(rng.choice([0.0, 1e-4, 1e-3, 1e-2]))
        n = len(s)
        probs = (1 - w) * s.probs + w * np.ones(n) / n
        x = MixedStrategy(probs / probs.sum())
        profile = MixedProfile((x, x))
        regret = max(max(checks.epsilon_ne_report(game, profile).regrets), 0.0)
        eps = max(np.sqrt(8 * regret) * float(rng.uniform(1.05, 3.0)), 1e-6)
        out = checks.ne_to_wsne(game, profile, eps)
        assert checks.wsne_report(game, out[0]) <= eps + 1e-12
        drift = max(
            float(np.abs(out[p].probs - profile[p].probs).max()) for p in range(2)
        )
        assert drift <= eps / 4 + 1e-12
        checked += 1

    while checked < 1000:
        m = [
            [Fraction(int(rng.integers(0, 65)), 64) for _ in range(2)]
            for _ in range(2)
        ]
        p1 = (m[0][0] - m[0][1]) * (m[1][1] - m[1][0])
        p2 = (m[0][0] - m[1][0]) * (m[1][1] - m[0][1])
        if not (p1 > 0 and p2 > 0):
            continue
        _, xs, zs = analytic.solve_2x2(tuple(tuple(row) for row in m))
        game = BimatrixGame(fmat(m), fmat(m), (MINIMIZE, MAXIMIZE))
        w = float(rng.choice([0.0, 1e-4, 1e-3, 1e-2]))
        x = project_simplex(np.array([float(p) for p in xs]) + rng.normal(0, w, 2))
        z = project_simplex(np.array([float(p) for p in zs]) + rng.normal(0, w, 2))
        profile = MixedProfile((x, z))
        regret = max(max(checks.epsilon_ne_report(game, profile).regrets), 0.0)
        eps = max(np.sqrt(8 * regret) * float(rng.uniform(1.05, 3.0)), 1e-6)
        out = checks.ne_to_wsne(game, profile, eps)
        assert measured_wsne(game, out) <= eps + 1e-12
        drift = max(
            float(np.abs(out[p].probs - profile[p].probs).max()) for p in range(2)
        )
        assert drift <= eps / 4 + 1e-12
        checked += 1

    # appendix value bounds, exact rationals, on named plus random graphs
    fig1 = Graph.from_edges(
        5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]
    )
    named = [
        fig1,
        Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]),
        Graph.from_edges(3, [(0, 1), (1, 2)]),
        Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
        Graph.from_edges(
            10,
            [
                (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
            ],
        ),
    ]
    rng2 = np.random.default_rng(733123900)
    graphs = named + [random_graph(rng2, 3, 8) for _ in range(10)]
    audited = 0
    for g in graphs:
        k = oracle.max_clique(g)[0]
        if k < 2:
            continue
        delta = Fraction(1, 2)
        regime = ParameterRegime(
            n=g.n, k=k, delta=delta,
            epsilon=delta * (1 - delta) / (12 * g.n**7),
        )
        report = wsne_value_audit(g, regime)  # raises on any bound violation
        assert report.candidates > 0
        audited += 1
    assert audited >= 15


# ---------------------------------------------------------------------------
# criterion 9 — dynamics symmetry trap


def test_criterion_09_symmetry_trap():
    rng = np.random.default_rng(6180339)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(10):
        n = 2 + trial % 2
        r = fmat(
            [
                [Fraction(int(rng.integers(-100, 101)), 100) for _ in range(n)]
                for _ in range(n)
            ]
        )
        prob = gadgets.quadratic_gadget(r)
        sanity = minmax.antisymmetry_check(prob, samples=50, seed=trial)
        assert sanity.ok and sanity.max_violation <= 1e-12
        for algorithm in SYMMETRIC_ALGORITHMS:
            config = DynamicsConfig(algorithm=algorithm, stepsize=0.05, horizon=10_000)
            worst = max(worst, symmetry_drift(run(prob, config)))
    assert worst <= 1e-12, worst

    witness_prob, witness_config = drift_witness_instance()
    assert symmetry_drift(run(witness_prob, witness_config)) > 1e-3
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# criterion 10 — team 3v3


def test_criterion_10_team_3v3():
    rng = np.random.default_rng(6180339)
    eps = 0.05
    symmetric_audits = 0
    for trial in range(10):
        n = int(rng.integers(2, 4))
        symmetric = trial % 2 == 0
        m = [
            [Fraction(int(rng.integers(-100, 101)), 100) for _ in range(n)]
            for _ in range(n)
        ]
        if symmetric:
            for i in range(n):
                for j in range(i, n):
                    m[j][i] = m[i][j]
        r = fmat(m)
        inst = gadgets.team3v3_gadget(r, eps)
        assert max_team_inconsistency(inst.game, samples=100, seed=trial) <= 1e-12
        if not symmetric:
            continue
        equilibria = oracle.symmetric_support_enumeration(
            inst.a, orientation=MINIMIZE
        )
        assert equilibria
        s = MixedStrategy.from_exact(equilibria[0].probs)
        anchor = MixedStrategy.pure(2 * n + 1, 2 * n)
        profile = MixedProfile((s, s, anchor, s, s, anchor))
        report = gadgets.team3v3_audit_and_backmap(inst, profile, eps)
        assert report.max_pair_gap == 0.0
        assert report.max_mirror_mass == 0.0
        assert max(report.certificate.regrets) <= 1e-9
        assert report.bound == pytest.approx(
            (21 * n + 1) * float(inst.penalty_scale) * eps
        )
        game = BimatrixGame(r, transpose(r), (MINIMIZE, MAXIMIZE))
        cert = checks.epsilon_ne_report(
            game, MixedProfile((report.strategy, report.strategy))
        )
        assert max(cert.regrets) <= report.bound + 1e-9
        symmetric_audits += 1
    assert symmetric_audits == 5


# ---------------------------------------------------------------------------
# criterion 11 — projections


def test_criterion_11_projections():
    rng = np.random.default_rng(20260816)
    grid = np.array(
        [[float(p) for p in pt] for pt in simplex_grid(3, Fraction(1, 100))]
    )
    for _ in range(50):
        v = rng.normal(0, 2, size=3)
        p = project_simplex(v).probs
        dist_proj = float(np.linalg.norm(v - p))
        dist_grid = float(np.linalg.norm(grid - v, axis=1).min())
        assert dist_proj <= dist_grid + 1e-12

    for _ in range(100):
        n = int(rng.integers(2, 6))
        domain = JointDomain(n, float(rng.uniform(0.05, 0.5)))
        x, y = rng.normal(0, 2, size=n), rng.normal(0, 2, size=n)
        px, py = project_joint(x, y, domain)
        assert domain.violation(px.probs, py.probs) <= 1e-8
        for probs in (px.probs, py.probs):
            assert probs.min() >= -1e-12
            assert abs(probs.sum() - 1.0) <= 1e-9
