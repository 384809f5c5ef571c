"""Reduction gadgets: team game, quadratic saddle, coupled domain, 3v3."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minmaxlab import checks, gadgets, oracle
from minmaxlab.errors import BoundViolationError, PreconditionError
from minmaxlab.games import (
    MAXIMIZE,
    MINIMIZE,
    BimatrixGame,
    MixedProfile,
    MixedStrategy,
    decompose_symmetric_skew,
)
from minmaxlab.rational import fmat, mat_max, mat_min, to_float_matrix, transpose

A2 = fmat([["-3/2", -1], [-1, "-2"]])  # symmetric, entries in [-2, -1]


def test_shift_keeps_entries_in_the_working_range():
    shifted, shift = gadgets.shift_to_gadget_range(fmat([[3, 5], [5, 4]]))
    assert mat_min(shifted) >= -10
    assert max(max(row) for row in shifted) <= -1
    assert shift != 0
    inert, no_shift = gadgets.shift_to_gadget_range(A2)
    assert inert == A2
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
    bound = gadgets.symmetric_backmap(r, s, 0.0)
    assert bound == 0.0
    game = BimatrixGame(r, transpose(r), (MAXIMIZE, MAXIMIZE))
    cert = checks.epsilon_ne_report(game, MixedProfile((s, s)))
    assert max(cert.regrets) <= 1e-12


def test_symmetric_backmap_scales_linearly_with_gap():
    r = fmat([[0, -1], [1, 0]])
    s = MixedStrategy.uniform(2)
    b1 = gadgets.symmetric_backmap(r, s, 0.01)
    b2 = gadgets.symmetric_backmap(r, s, 0.04)
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
        gadgets._enforce_structure(dataclasses.replace(report, max_pair_gap=0.2))
    with pytest.raises(BoundViolationError, match="mirror action holds"):
        gadgets._enforce_structure(dataclasses.replace(report, max_mirror_mass=0.5))


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
    assert decompose_symmetric_skew(r) == (a, c)
    if mat_min(r) < -1 or mat_max(r) > 1:
        with pytest.raises(PreconditionError):
            gadgets.quadratic_gadget(r)
        return
    problem = gadgets.quadratic_gadget(r)
    assert (problem.qx, problem.qy, problem.m) == (a, a, c)
    for mirror, exact in ((problem.qx_float, a), (problem.qy_float, a), (problem.m_float, c)):
        assert mirror.tobytes() == to_float_matrix(exact).tobytes()
