"""Reduction gadgets: team game, quadratic saddle, coupled domain, 3v3."""

import dataclasses
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minmaxlab import checks, gadgets, minmax, oracle
from minmaxlab.errors import BoundViolationError, DimensionError, PreconditionError
from minmaxlab.games import (
    MAXIMIZE,
    MINIMIZE,
    BimatrixGame,
    MixedProfile,
    MixedStrategy,
    decompose_symmetric_skew,
)
from minmaxlab.geometry import JointDomain
from minmaxlab.rational import fmat, transpose
from prior_forms import to_float_matrix

A2 = fmat([["-3/2", -1], [-1, "-2"]])  # symmetric, entries in [-2, -1]


def test_shift_keeps_entries_in_the_working_range():
    shifted, shift = gadgets.shift_to_gadget_range(fmat([[3, 5], [5, 4]]))
    assert min(map(min, shifted)) >= -10
    assert max(max(row) for row in shifted) <= -1
    assert shift != 0
    inert, no_shift = gadgets.shift_to_gadget_range(A2)
    assert inert.tolist() == A2.tolist()
    assert no_shift == 0


def test_team_gadget_shape_and_anchor():
    inst = gadgets.team_gadget(A2, 0.05)
    assert inst.n == 2
    assert inst.anchor_action == 4
    assert inst.game.action_counts == (2, 2, 5)
    assert inst.penalty_scale == 2  # |min entry| of A2
    assert inst.epsilon == 0.05


def test_team_gadget_epsilon_cap():
    with pytest.raises(PreconditionError):
        gadgets.team_gadget(A2, 0.2)
    with pytest.raises(PreconditionError):
        gadgets.team_gadget(A2, 0.0)


def test_canonical_profile_is_an_equilibrium():
    inst = gadgets.team_gadget(A2, 0.05)
    prof = gadgets.canonical_team_ne(inst)
    cert = checks.epsilon_ne_report(inst.game, prof)
    assert max(cert.regrets) <= 1e-9


def test_structure_audit_accepts_the_canonical_profile():
    inst = gadgets.team_gadget(A2, 0.05)
    prof = gadgets.canonical_team_ne(inst)
    report = gadgets.gadget_structure_audit(inst, prof, 0.05)
    assert report.max_pair_gap <= 1e-12
    assert report.max_mirror_mass <= 1e-12
    assert report.pair_bound == pytest.approx(0.1)
    assert report.mirror_bound == pytest.approx(0.45)


def test_structure_audit_rejects_uncertified_profiles():
    # a desynchronized team cannot even pass the eps^2 regret precondition
    inst = gadgets.team_gadget(A2, 0.05)
    prof = gadgets.canonical_team_ne(inst)
    broken = MixedProfile(
        (MixedStrategy.pure(2, 0), MixedStrategy.pure(2, 1), prof[2])
    )
    with pytest.raises(PreconditionError):
        gadgets.gadget_structure_audit(inst, broken, 0.05)


def test_team_backmap_certifies_against_the_symmetric_game():
    inst = gadgets.team_gadget(A2, 0.05)
    prof = gadgets.canonical_team_ne(inst)
    strategy, bound = gadgets.team_backmap(inst, prof, 0.0025)
    assert bound == pytest.approx((21 * 2 + 1) * 2 * 0.05)
    target = BimatrixGame(A2, A2, (MINIMIZE, MINIMIZE))
    cert = checks.epsilon_ne_report(target, MixedProfile((strategy, strategy)))
    assert max(cert.regrets) <= bound + 1e-9


def test_structure_lemmas_are_measured_only_at_the_gadget_eps():
    inst = gadgets.team_gadget(A2, Fraction(1, 20))
    prof = gadgets.canonical_team_ne(inst)
    # a float eps equal to the gadget's passes, and so does its square's root
    assert gadgets.gadget_structure_audit(inst, prof, 0.05).epsilon == 0.05
    assert gadgets.team_backmap(inst, prof, 0.05**2).bound == pytest.approx(43 * 2 * 0.05)
    for measure, eps in (
        (gadgets.measure_gadget_structure, 0.01),
        (gadgets.gadget_structure_audit, 0.1),
        (lambda i, p, e: gadgets.team_backmap(i, p, e * e), 0.01),
    ):
        with pytest.raises(PreconditionError, match="is not the gadget's own 1/20"):
            measure(inst, prof, eps)
    inst3 = gadgets.team3v3_gadget(fmat([["1/2", 0], [0, "1/2"]]), Fraction(1, 20))
    with pytest.raises(PreconditionError, match="is not the gadget's own 1/20"):
        gadgets.measure_team3v3(inst3, MixedProfile((prof[0],) * 6), 0.1)


def test_quadratic_gadget_dimensions_and_bounds():
    r = fmat([[1, 0], [0, -1]])
    prob = gadgets.quadratic_gadget(r)
    assert len(prob.qx) == 2
    assert prob.smoothness_bound == 8.0
    assert prob.lipschitz_bound == 8.0


def test_symmetric_backmap_zero_gap_zero_bound():
    r = fmat([[0, -1], [1, 0]])
    eqs = oracle.symmetric_support_enumeration(r, orientation=MAXIMIZE)
    s = MixedStrategy.from_exact(eqs[0].probs)
    bound = gadgets.symmetric_backmap(r, s, 0.0).bound
    assert bound == 0.0
    game = BimatrixGame(r, transpose(r), (MAXIMIZE, MAXIMIZE))
    cert = checks.epsilon_ne_report(game, MixedProfile((s, s)))
    assert max(cert.regrets) <= 1e-12


def test_symmetric_backmap_scales_linearly_with_gap():
    r = fmat([[0, -1], [1, 0]])
    s = MixedStrategy.uniform(2)
    b1 = gadgets.symmetric_backmap(r, s, 0.01).bound
    b2 = gadgets.symmetric_backmap(r, s, 0.04).bound
    assert b2 == pytest.approx(4 * b1)
    assert b1 == pytest.approx(np.sqrt(2) * 0.01 * 5)


def test_coupling_width_worked_example():
    delta = gadgets.coupling_width(1e-4, 2)
    assert delta == pytest.approx(0.1 * 2 ** (-0.25))


def test_median_backmap_worked_example_bound():
    r = fmat([[0, -1], [1, 0]])
    delta = gadgets.coupling_width(1e-4, 2)
    prob = gadgets.coupled_gadget(r, delta)
    eqs = oracle.symmetric_support_enumeration(r, orientation=MAXIMIZE)
    s = MixedStrategy.from_exact(eqs[0].probs)
    assert prob.domain.delta == pytest.approx(delta)
    median, bound = gadgets.median_backmap(r, s, s, 1e-4, delta)
    assert np.allclose(median.probs, s.probs)
    assert bound == pytest.approx(23.04706, abs=1e-4)


@pytest.mark.parametrize("value", [-0.1, -math.inf, math.inf, math.nan])
def test_symmetric_backmap_refuses_a_negative_or_non_finite_gap(value):
    with pytest.raises(PreconditionError, match="gap"):
        gadgets.symmetric_backmap(fmat([[0, -1], [1, 0]]), MixedStrategy.uniform(2), value)


@pytest.mark.parametrize("value", [-0.1, -math.inf, math.inf, math.nan])
def test_median_backmap_refuses_a_negative_or_non_finite_gap(value):
    s = MixedStrategy.uniform(2)
    with pytest.raises(PreconditionError, match="gap"):
        gadgets.median_backmap(fmat([[0, -1], [1, 0]]), s, s, value, 0.05)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_median_backmap_refuses_a_non_positive_or_non_finite_delta(value):
    s = MixedStrategy.uniform(2)
    with pytest.raises(PreconditionError, match="delta"):
        gadgets.median_backmap(fmat([[0, -1], [1, 0]]), s, s, 0.01, value)


@pytest.mark.parametrize("value", [-0.1, -math.inf, math.inf, math.nan])
def test_coupling_width_refuses_a_negative_or_non_finite_eps(value):
    with pytest.raises(PreconditionError, match="eps"):
        gadgets.coupling_width(value, 2)


SOURCE = fmat([["1/3", "-1/2"], ["3/2", 3]])


def test_symmetric_regret_is_exact_then_rounded_once_for_an_exact_strategy():
    s = MixedStrategy.from_exact((Fraction(3, 7), Fraction(4, 7)))
    # R s = (-1/7, 33/14) and s^T R s = 9/7
    assert gadgets.symmetric_regret(SOURCE, s) == float(Fraction(15, 14)) == 1.0714285714285714
    minimizing = gadgets.symmetric_regret(SOURCE, s, MINIMIZE)
    assert minimizing == float(Fraction(10, 7)) == 1.4285714285714286


def test_symmetric_regret_of_a_float_strategy_is_the_certificate_value():
    s = MixedStrategy(MixedStrategy.from_exact((Fraction(3, 7), Fraction(4, 7))).probs)
    assert s.exact is None
    got = []
    for orientation in (MAXIMIZE, MINIMIZE):
        game = BimatrixGame(SOURCE, transpose(SOURCE), (orientation, orientation))
        cert = checks.epsilon_ne_report(game, MixedProfile((s, s)))
        got.append(gadgets.symmetric_regret(SOURCE, s, orientation))
        assert got[-1] == cert.regrets[0]
    assert got == [1.0714285714285716, 1.4285714285714284]


def test_team3v3_backmap_regret_is_the_source_regret():
    rng = np.random.default_rng(6180339)  # the gadgets of criterion 10, same draws
    checked = 0
    for trial in range(10):
        n = int(rng.integers(2, 4))
        m = [[Fraction(int(rng.integers(-100, 101)), 100) for _ in range(n)] for _ in range(n)]
        if trial % 2:
            continue
        r = fmat([[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
        inst = gadgets.team3v3_gadget(r, 0.05)
        eqs = oracle.symmetric_support_enumeration(inst.a, orientation=MINIMIZE)
        s = MixedStrategy.from_exact(eqs[0].probs)
        anchor = MixedStrategy.pure(2 * n + 1, 2 * n)
        report = gadgets.measure_team3v3(inst, MixedProfile((s, s, anchor) * 2), 0.05)
        assert report.backmap_regret == gadgets.symmetric_regret(inst.r, report.strategy)
        checked += 1
    assert checked == 5


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_coupled_gadget_refuses_a_non_positive_or_non_finite_delta(value):
    # the median back-map's bound divides by delta, so its builder refuses what it refuses
    with pytest.raises(PreconditionError, match="delta must be finite and positive"):
        gadgets.coupled_gadget(fmat([[0, -1], [1, 0]]), value)


def test_the_quadratic_back_maps_refuse_a_matrix_their_gadget_refuses():
    r, s = fmat([[5, 0], [0, 0]]), MixedStrategy.uniform(2)
    message = re.escape("entries of R must lie in [-1, 1]")
    for build in (
        lambda: gadgets.quadratic_gadget(r),
        lambda: gadgets.symmetric_backmap(r, s, 0.0),
        lambda: gadgets.median_backmap(r, s, s, 0.0, 0.1),
    ):
        with pytest.raises(PreconditionError, match=message):
            build()


@pytest.mark.parametrize("value", [-0.0025, -math.inf, math.inf, math.nan])
def test_team_backmap_refuses_a_negative_or_non_finite_eps2(value):
    inst = gadgets.team_gadget(A2, Fraction(1, 20))
    with pytest.raises(PreconditionError, match="eps2_certified"):
        gadgets.team_backmap(inst, gadgets.canonical_team_ne(inst), value)


@pytest.mark.parametrize(
    "s", [MixedStrategy.uniform(3), MixedStrategy.from_exact((Fraction(1, 3),) * 3)],
    ids=["float", "exact"],
)
def test_the_quadratic_back_maps_refuse_a_strategy_of_the_wrong_length(s):
    r = fmat([[0, -1], [1, 0]])
    with pytest.raises(DimensionError):
        gadgets.symmetric_backmap(r, s, 0.0)
    with pytest.raises(DimensionError):
        gadgets.median_backmap(r, s, s, 0.0, 0.1)


GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text("utf-8"))


def test_every_back_map_returns_its_verdict_on_one_corpus():
    # each row's records are those `backmap <row>` emits, each satisfied, and
    # each report's measured regret is within its stated bound
    names = {row: [b["name"] for b in GOLDEN["cases"][f"backmap-{row}"]["report"]["bounds"]]
             for row in ("team", "symmetric", "median", "team3v3")}
    rng = np.random.default_rng(20261019)
    rows = []
    for trial in range(6):
        n = 2 + trial % 3
        r = fmat([[Fraction(int(rng.integers(-100, 101)), 100) for _ in range(n)]
                  for _ in range(n)])
        sym = decompose_symmetric_skew(r)[0]
        team = gadgets.team_gadget(gadgets.shift_to_gadget_range(sym)[0], Fraction(1, 20))
        rows.append(("team", gadgets.team_backmap(team, gadgets.canonical_team_ne(team), 0.05**2)))
        team3 = gadgets.team3v3_gadget(sym, Fraction(1, 20))  # criterion 10's profile
        s = MixedStrategy.from_exact(
            oracle.symmetric_support_enumeration(team3.a, orientation=MINIMIZE)[0].probs)
        anchor = MixedStrategy.pure(2 * n + 1, 2 * n)
        rows.append(("team3v3", gadgets.measure_team3v3(
            team3, MixedProfile((s, s, anchor) * 2), 0.05)))
        quadratic = gadgets.quadratic_gadget(r)
        delta = gadgets.coupling_width(1e-4, n)
        coupled = gadgets.coupled_gadget(r, delta)
        for eq in oracle.symmetric_support_enumeration(r, orientation=MAXIMIZE):
            x = MixedStrategy.from_exact(eq.probs)
            gap = minmax.gda_gap(quadratic, x, x).gap
            rows.append(("symmetric", gadgets.symmetric_backmap(r, x, gap)))
            gap = minmax.gda_gap(coupled, x, x).gap
            rows.append(("median", gadgets.median_backmap(r, x, x, gap, delta)))
    assert {row for row, _ in rows} == set(names)
    for row, report in rows:
        assert [b.name for b in report.bounds] == names[row]
        assert all(b.satisfied for b in report.bounds), (row, report.bounds)
        if row == "team3v3":
            assert checks.within(report.backmap_regret, report.bound)
        else:
            assert checks.within(report.regret, report.bound)
            assert tuple(report) == (report.strategy, report.bound)


def test_median_backmap_rejects_points_outside_the_coupled_domain():
    r = fmat([[0, -1], [1, 0]])
    x = MixedStrategy.pure(2, 0)
    y = MixedStrategy.pure(2, 1)
    with pytest.raises(PreconditionError):
        gadgets.median_backmap(r, x, y, 1e-4, 0.05)


def test_team3v3_structure():
    r = fmat([["1/2", "-1/4"], ["1/4", "1/2"]])
    inst = gadgets.team3v3_gadget(r, 0.05)
    assert inst.game.action_counts == (2, 2, 5, 2, 2, 5)
    assert inst.game.orientation == (
        MINIMIZE,
        MINIMIZE,
        MINIMIZE,
        MAXIMIZE,
        MAXIMIZE,
        MAXIMIZE,
    )
    assert inst.game.team_partition == (frozenset({0, 1, 2}), frozenset({3, 4, 5}))


def test_team3v3_audit_requires_team_symmetry():
    r = fmat([["1/2", 0], [0, "1/2"]])
    inst = gadgets.team3v3_gadget(r, 0.05)
    eqs = oracle.symmetric_support_enumeration(inst.a, orientation=MINIMIZE)
    s = MixedStrategy.from_exact(eqs[0].probs)
    anchor = MixedStrategy.pure(5, 4)
    lopsided = MixedProfile((s, s, anchor, s, MixedStrategy.pure(2, 0), anchor))
    with pytest.raises(PreconditionError):
        gadgets.team3v3_audit_and_backmap(inst, lopsided, 0.05)


def test_team3v3_exact_construction_passes_audit():
    r = fmat([["1/2", 0], [0, "1/2"]])
    inst = gadgets.team3v3_gadget(r, 0.05)
    eqs = oracle.symmetric_support_enumeration(inst.a, orientation=MINIMIZE)
    s = MixedStrategy.from_exact(eqs[0].probs)
    anchor = MixedStrategy.pure(5, 4)
    prof = MixedProfile((s, s, anchor, s, s, anchor))
    report = gadgets.team3v3_audit_and_backmap(inst, prof, 0.05)
    assert report.max_pair_gap == 0.0
    assert report.max_mirror_mass == 0.0
    assert max(report.certificate.regrets) <= 1e-12
    assert report.bound == pytest.approx(
        (21 * 2 + 1) * float(inst.penalty_scale) * 0.05
    )


def test_structure_audits_measure_then_enforce():
    inst = gadgets.team_gadget(A2, 0.05)
    prof = gadgets.canonical_team_ne(inst)
    report = gadgets.measure_gadget_structure(inst, prof, 0.05)
    assert gadgets.gadget_structure_audit(inst, prof, 0.05) == report
    with pytest.raises(BoundViolationError, match="teammates differ"):
        checks.enforce(dataclasses.replace(report, max_pair_gap=0.2))
    with pytest.raises(BoundViolationError, match="mirror action holds"):
        checks.enforce(dataclasses.replace(report, max_mirror_mass=0.5))


# the Fraction formulas the integer scaling replaced (reference only)


def prior_decompose_symmetric_skew(r):
    half = Fraction(1, 2)
    rt = transpose(r)
    a = tuple(tuple((x + y) * half for x, y in zip(ra, rb)) for ra, rb in zip(r, rt))
    c = tuple(tuple((x - y) * half for x, y in zip(ra, rb)) for ra, rb in zip(r, rt))
    return a, c


# denominators up to 10^15 make the common denominator of a matrix exceed 2^53
exact_entries = st.one_of(
    st.fractions(min_value=-1, max_value=1, max_denominator=10**15),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 6))
    return fmat(draw(st.lists(
        st.lists(exact_entries, min_size=n, max_size=n), min_size=n, max_size=n
    )))


@settings(max_examples=100, deadline=None)
@given(square_matrices())
def test_quadratic_gadget_matches_the_fraction_formula(r):
    a, c = prior_decompose_symmetric_skew(r)
    assert all(map(np.array_equal, decompose_symmetric_skew(r), (a, c)))
    if min(map(min, r)) < -1 or max(map(max, r)) > 1:
        with pytest.raises(PreconditionError):
            gadgets.quadratic_gadget(r)
        return
    problem = gadgets.quadratic_gadget(r)
    assert all(map(np.array_equal, (problem.qx, problem.qy, problem.m), (a, a, c)))
    for mirror, exact in ((problem.qx_float, a), (problem.qy_float, a), (problem.m_float, c)):
        assert mirror.tobytes() == to_float_matrix(exact).tobytes()


def prior_quadratic_problem(r, delta):
    """The quadratic gadget as it was built through the public constructor (reference only)."""
    a, c = decompose_symmetric_skew(r)
    n = len(r)
    domain = None if delta is None else JointDomain(n, float(delta))
    return minmax.QuadraticMinMaxProblem(a, a, c, domain, smoothness_bound=4.0 * n, lipschitz_bound=4.0 * n)


def mixed_denominator_matrix(rng, n):
    """R with entries in [-1, 1] over denominators 1, 3, 7 and 100: most cells
    of A and C, (cells +- cells^T) / 2d, reduce below the gadget's 2d."""
    dens = rng.choice([1, 3, 7, 100], (n, n))
    return fmat([[Fraction(int(rng.integers(-q, q + 1)), int(q)) for q in row] for row in dens])


@pytest.mark.parametrize("delta", [None, 0.25])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_the_quadratic_gadget_is_the_one_the_public_constructor_built(n, delta):
    rng = np.random.default_rng(1000 * n + (delta is None))
    r = mixed_denominator_matrix(rng, n)
    new = gadgets.quadratic_gadget(r) if delta is None else gadgets.coupled_gadget(r, delta)
    old = prior_quadratic_problem(r, delta)
    for name in ("qx", "qy", "m"):
        got, want = getattr(new, name), getattr(old, name)
        assert got.tolist() == want.tolist()
        assert all(type(x) is Fraction for x in got.flat)
        assert got.flags.c_contiguous and not got.flags.writeable
    for name in ("qx_float", "qy_float", "m_float", "mt_float", "neg_m_float"):
        got, want = getattr(new, name), getattr(old, name)
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
    assert (new.smoothness_bound, new.lipschitz_bound) == (old.smoothness_bound, old.lipschitz_bound)
    assert new.domain == old.domain
    assert new.antisymmetric() and old.antisymmetric()
    assert minmax.antisymmetry_check(new) == minmax.antisymmetry_check(old)


# ---------------------------------------------------------------------------
# differential test: both team gadgets and their structure measurements
# against verbatim copies of the code they replaced (reference only)


def prior_mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def prior_mat_scale(a, c):
    return tuple(tuple(c * x for x in row) for row in a)


def prior_mat_min(m):
    return min(x for row in m for x in row)


def prior_mat_max(m):
    return max(x for row in m for x in row)


def prior_shift_to_gadget_range(matrix):
    m = gadgets._square_exact(matrix)
    top = prior_mat_max(m)
    if top <= -1:
        return m, Fraction(0)
    shift = top + 2
    shifted = tuple(tuple(x - shift for x in row) for row in m)
    return shifted, shift


def prior_mirror_coupling(n, scale):
    """(2n+1) x n matrix P with P[i, i] = scale, P[n+i, i] = -scale, last row 0."""
    zero = Fraction(0)
    rows = []
    for i in range(n):
        row = [zero] * n
        row[i] = scale
        rows.append(tuple(row))
    for i in range(n):
        row = [zero] * n
        row[i] = -scale
        rows.append(tuple(row))
    rows.append(tuple([zero] * n))
    return tuple(rows)


def prior_anchor_matrix(n, payoff):
    """(2n+1) x n matrix paying `payoff` on the anchor row (folds a z-linear term)."""
    zero = Fraction(0)
    rows = [tuple([zero] * n) for _ in range(2 * n)]
    rows.append(tuple([payoff] * n))
    return tuple(rows)


def prior_team_pairs(matrix, epsilon):
    """The prior team_gadget up to its pair_matrices dict: (a, eps, penalty, pairs)."""
    a = gadgets._square_exact(matrix)
    eps = Fraction(epsilon)
    n = len(a)
    penalty = -prior_mat_min(a)
    coupling = prior_mirror_coupling(n, penalty / eps)
    pairs = {
        (0, 1): a,
        (2, 0): prior_mat_add(coupling, prior_anchor_matrix(n, penalty)),
        (2, 1): prior_mat_scale(coupling, Fraction(-1)),
    }
    return a, eps, penalty, pairs


def prior_team3v3_pairs(matrix, epsilon):
    """The prior team3v3_gadget up to its pair_matrices dict."""
    r = gadgets._square_exact(matrix)
    eps = Fraction(epsilon)
    sym, skew = decompose_symmetric_skew(r)
    a_raw = prior_mat_scale(sym, Fraction(-1))
    a, shift = prior_shift_to_gadget_range(a_raw)
    c = prior_mat_scale(skew, Fraction(-2))  # C = R^T - R = -2 * skew(R)
    n = len(r)
    penalty = -prior_mat_min(a)
    coupling = prior_mirror_coupling(n, penalty / eps)
    anchored = prior_mat_add(coupling, prior_anchor_matrix(n, penalty))
    neg = lambda m: prior_mat_scale(m, Fraction(-1))
    pairs = {
        (0, 1): a,            # <x, A y>
        (3, 4): neg(a),       # -<x-hat, A y-hat>
        (0, 3): c,            # <x, C x-hat>
        (5, 0): anchored,     # delta(x, y, z-hat): + side and anchor
        (5, 1): neg(coupling),
        (2, 3): neg(anchored),  # -delta(x-hat, y-hat, z)
        (2, 4): coupling,
    }
    return r, a, c, shift, eps, penalty, pairs


def prior_certify(game, profile, eps_sq):
    cert = checks.epsilon_ne_report(game, profile, eps_sq)
    if not cert.satisfied:
        raise PreconditionError(
            f"profile is not a certified {eps_sq}-equilibrium: regrets {cert.regrets}"
        )
    return cert


def prior_enforce_structure(report):
    if report.max_pair_gap > report.pair_bound + 1e-9:
        raise BoundViolationError(
            f"teammates differ by {report.max_pair_gap} > 2 eps = {report.pair_bound}"
        )
    if report.max_mirror_mass > report.mirror_bound + 1e-9:
        raise BoundViolationError(
            f"mirror action holds {report.max_mirror_mass} > 9 eps = {report.mirror_bound}"
        )
    return report


def prior_measure_gadget_structure(instance, profile, epsilon):
    eps = float(epsilon)
    if not (0 < eps <= float(gadgets.EPS_CAP) + 1e-12):
        raise PreconditionError(f"epsilon must lie in (0, 1/10], got {eps}")
    cert = prior_certify(instance.game, profile, eps * eps)
    x, y, z = (profile[p].probs for p in range(3))
    pair_gap = float(np.abs(x - y).max())
    mirror_mass = float(z[: 2 * instance.n].max()) if instance.n else 0.0
    report = gadgets.GadgetStructureReport(
        epsilon=eps,
        max_pair_gap=pair_gap,
        max_mirror_mass=mirror_mass,
        certificate=cert,
    )
    assert (report.pair_bound, report.mirror_bound) == (2.0 * eps, 9.0 * eps)
    return report


def prior_measure_team3v3(instance, profile, epsilon):
    eps = float(epsilon)
    if not (0 < eps <= float(gadgets.EPS_CAP) + 1e-12):
        raise PreconditionError(f"epsilon must lie in (0, 1/10], got {eps}")
    if len(profile) != 6:
        raise DimensionError("profile must cover all six players")
    for p in range(3):
        mismatch = float(np.abs(profile[p].probs - profile[p + 3].probs).max())
        if mismatch > 1e-9:
            raise PreconditionError(
                f"profile is not symmetric across teams (player {p}: {mismatch})"
            )
    cert = prior_certify(instance.game, profile, eps * eps)
    n = instance.n
    pair_gap = max(
        float(np.abs(profile[0].probs - profile[1].probs).max()),
        float(np.abs(profile[3].probs - profile[4].probs).max()),
    )
    mirror_mass = max(
        float(profile[2].probs[: 2 * n].max()),
        float(profile[5].probs[: 2 * n].max()),
    )
    bound = (21 * n + 1) * float(instance.penalty_scale) * eps
    # the back-map regret, measured as the CLI measured it
    target = BimatrixGame(instance.r, transpose(instance.r), (MAXIMIZE, MAXIMIZE))
    backmap = checks.epsilon_ne_report(target, MixedProfile((profile[0], profile[0])), bound)
    report = gadgets.Team3v3Report(
        epsilon=eps,
        strategy=profile[0],
        backmap_scale=(21 * n + 1) * float(instance.penalty_scale),
        backmap_regret=max(backmap.regrets),
        max_pair_gap=pair_gap,
        max_mirror_mass=mirror_mass,
        certificate=cert,
    )
    assert (report.pair_bound, report.mirror_bound, report.bound) == (2.0 * eps, 9.0 * eps, bound)
    return report


def prior_own_eps(measure):
    """A prior measurement behind the later rule that eps be the gadget's own."""
    def run(instance, profile, epsilon):
        eps = float(epsilon)
        if 0 < eps <= float(gadgets.EPS_CAP) + 1e-12 and eps != float(instance.epsilon):
            raise PreconditionError(f"epsilon {eps} is not the gadget's own {instance.epsilon}")
        return measure(instance, profile, epsilon)
    return run


def seeded_matrices():
    """(raw R, symmetric A with entries <= -1) for n = 1..6."""
    for seed in range(24):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 6
        raw = [[Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 9))) for _ in range(n)]
               for _ in range(n)]
        sym = [[raw[i][j] + raw[j][i] for j in range(n)] for i in range(n)]
        yield fmat(raw), gadgets.shift_to_gadget_range(sym)[0]


DIFF_EPS = (Fraction(1, 10), Fraction(1, 20), Fraction(3, 97))


def assert_same_pairs(game, pairs):
    """Equal exact matrices in the same insertion order, every entry a Fraction."""
    assert list(game.pair_matrices) == list(pairs)
    for key, m in game.pair_matrices.items():
        assert np.array_equal(m, pairs[key])
        assert all(type(x) is Fraction for row in m for x in row)


def test_team_gadgets_match_the_prior_construction():
    for raw, a in seeded_matrices():
        for eps in DIFF_EPS:
            inst = gadgets.team_gadget(a, eps)
            prior_a, prior_eps, penalty, pairs = prior_team_pairs(a, eps)
            assert np.array_equal(inst.a, prior_a)
            assert (inst.epsilon, inst.penalty_scale) == (prior_eps, penalty)
            assert_same_pairs(inst.game, pairs)
            inst3 = gadgets.team3v3_gadget(raw, eps)
            r, a3, c, shift, eps3, penalty3, pairs3 = prior_team3v3_pairs(raw, eps)
            assert all(map(np.array_equal, (inst3.r, inst3.a, inst3.c), (r, a3, c)))
            assert (inst3.shift, inst3.epsilon, inst3.penalty_scale) == (shift, eps3, penalty3)
            assert_same_pairs(inst3.game, pairs3)


def outcome(measure, *args):
    """The report of a measurement, or the type and message of what it raised."""
    try:
        return measure(*args)
    except (PreconditionError, BoundViolationError, DimensionError) as exc:
        return type(exc), str(exc)


def kind(result) -> str:
    """What an outcome exercised: the error raised, or whether the report has a pair gap."""
    if isinstance(result, tuple):
        return result[0].__name__
    return "pair gap" if result.max_pair_gap > 0 else "no gap"


def assert_same_outcome(new, old):
    assert type(new) is type(old)
    if isinstance(new, tuple):
        assert new == old
        return
    assert vars(new).keys() == vars(old).keys()
    for name, value in vars(new).items():
        if isinstance(value, MixedStrategy):
            assert value.probs.tobytes() == vars(old)[name].probs.tobytes()
        else:
            assert value == vars(old)[name], name


def nudged(strategy, shift):
    """`strategy` with `shift` mass moved from its largest entry to its smallest."""
    probs = strategy.probs.copy()
    probs[probs.argmax()] -= shift
    probs[probs.argmin()] += shift
    return MixedStrategy(probs)


def test_team_gadget_measurement_matches_the_prior():
    seen = set()
    for _, a in seeded_matrices():
        inst = gadgets.team_gadget(a, Fraction(1, 20))
        x, _, z = gadgets.canonical_team_ne(inst)
        mirror = np.zeros(2 * inst.n + 1)
        mirror[0], mirror[-1] = 1e-7, 1 - 1e-7
        profiles = [
            (x, x, z),                                    # exact, gap 0
            (x, nudged(x, 1e-6), z),                      # certified, nonzero gap
            (x, x, MixedStrategy(mirror)),                # certified, mirror mass
            (MixedStrategy.pure(inst.n, 0), x, MixedStrategy(mirror)),
        ]
        prior_measure = prior_own_eps(prior_measure_gadget_structure)
        for profile in profiles:
            for eps in (0.05, 0.01, 0.1, 0.2, 0.0):
                args = (inst, MixedProfile(profile), eps)
                new = outcome(gadgets.measure_gadget_structure, *args)
                assert_same_outcome(new, outcome(prior_measure, *args))
                audited = outcome(gadgets.gadget_structure_audit, *args)
                prior = outcome(lambda *a: prior_enforce_structure(prior_measure(*a)), *args)
                assert_same_outcome(audited, prior)
                seen.add(kind(new))
    assert seen == {"no gap", "pair gap", "PreconditionError"}


def test_structure_violation_paths_match_the_prior():
    # with A constant the team is indifferent, and a pair gap below the
    # gadget's eps leaves the mirrors no better than the anchor: an exact
    # equilibrium whose gap 0.05 is within 2 eps.  Audited at a smaller eps
    # it is refused as a precondition, since the lemma holds only at the
    # gadget's own eps; the violation path runs on a report whose eps is
    # replaced by 0.01, which tightens its pair bound to 2 * 0.01.
    flat = fmat([[-1, -1], [-1, -1]])
    inst = gadgets.team_gadget(flat, Fraction(1, 10))
    x = MixedStrategy.pure(2, 0)
    y = nudged(x, 0.05)
    profile = MixedProfile((x, y, MixedStrategy.pure(5, 4)))
    mismatch = outcome(gadgets.gadget_structure_audit, inst, profile, 0.01)
    assert mismatch == (PreconditionError, "epsilon 0.01 is not the gadget's own 1/10")
    report = gadgets.gadget_structure_audit(inst, profile, 0.1)
    assert kind(report) == "pair gap"
    tight = dataclasses.replace(report, epsilon=0.01)
    assert tight.pair_bound == 0.02
    new = outcome(checks.enforce, tight)
    assert new[0] is BoundViolationError and "teammates differ" in new[1]
    assert new == outcome(prior_enforce_structure, tight)
    inst3 = gadgets.team3v3_gadget(fmat([[0, 0], [0, 0]]), Fraction(1, 10))
    anchor = MixedStrategy.pure(5, 4)
    profile3 = MixedProfile((x, y, anchor, x, y, anchor))
    prior_measure = prior_own_eps(prior_measure_team3v3)
    kinds = []
    for eps in (0.01, 0.1):
        new = outcome(gadgets.team3v3_audit_and_backmap, inst3, profile3, eps)
        old = outcome(lambda *a: prior_enforce_structure(prior_measure(*a)), inst3, profile3, eps)
        assert_same_outcome(new, old)
        assert_same_outcome(
            outcome(gadgets.measure_team3v3, inst3, profile3, eps),
            outcome(prior_measure, inst3, profile3, eps),
        )
        kinds.append(kind(new))
    assert kinds == ["PreconditionError", "pair gap"]
    tight3 = dataclasses.replace(new, epsilon=0.01)
    assert tight3.pair_bound == 0.02
    new = outcome(checks.enforce, tight3)
    assert new[0] is BoundViolationError and "teammates differ" in new[1]
    assert new == outcome(prior_enforce_structure, tight3)


def test_team3v3_measurement_matches_the_prior():
    seen = set()
    for raw, _ in seeded_matrices():
        inst = gadgets.team3v3_gadget(raw, Fraction(1, 20))
        eqs = oracle.symmetric_support_enumeration(inst.a, orientation=MINIMIZE)
        s = MixedStrategy.from_exact(eqs[0].probs)
        anchor = MixedStrategy.pure(2 * inst.n + 1, 2 * inst.n)
        t, wider = nudged(s, 1e-7), nudged(s, 1e-7 + 5e-10)
        # mirror masses 1e-8 and, within the 1e-9 team tolerance, a bit more
        z, z_hat = nudged(anchor, 1e-8), nudged(anchor, 1e-8 + 5e-10)
        profiles = [
            (s, s, anchor, s, s, anchor),
            (s, t, anchor, s, t, anchor),
            (s, t, z, s, wider, z_hat),  # the hatted team holds the larger gap and mass
            (s, wider, z_hat, s, t, z),
            (s, s, anchor, s, t, anchor),
            (s, s, anchor, s, s),
        ]
        prior_measure = prior_own_eps(prior_measure_team3v3)
        for profile in profiles:
            for eps in (0.05, 0.1, 0.2):
                args = (inst, MixedProfile(profile), eps)
                new = outcome(gadgets.measure_team3v3, *args)
                assert_same_outcome(new, outcome(prior_measure, *args))
                audited = outcome(gadgets.team3v3_audit_and_backmap, *args)
                prior = outcome(lambda *a: prior_enforce_structure(prior_measure(*a)), *args)
                assert_same_outcome(audited, prior)
                seen.add(kind(new))
    assert seen == {"no gap", "pair gap", "PreconditionError", "DimensionError"}
