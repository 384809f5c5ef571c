"""Each lemma verdict is decided once, by the audit that measures it.

A report's `bounds` records and its `violation` message come from the same
measurement, and `checks.enforce` raises BoundViolationError exactly when
one of the records is unsatisfied, with the message the audits raised
before the records moved onto the reports.
"""

import dataclasses
from fractions import Fraction

import pytest

from minmaxlab import checks, cliques, gadgets, oracle
from minmaxlab.cliques import Graph, ParameterRegime
from minmaxlab.errors import BoundViolationError
from minmaxlab.games import MINIMIZE, MixedProfile, MixedStrategy
from minmaxlab.rational import fmat

PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])
CHORD = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])  # K4 minus one edge
EDGE = Graph.from_edges(3, [(0, 1)])
A2 = fmat([["-3/2", -1], [-1, "-2"]])


def assert_enforced(report, message):
    """enforce returns the report when `message` is None, else raises it; and
    it raises exactly when one of the report's records is unsatisfied."""
    assert any(not b.satisfied for b in report.bounds) == (message is not None)
    assert report.violation == message
    if message is None:
        assert checks.enforce(report) is report
        return
    with pytest.raises(BoundViolationError) as exc:
        checks.enforce(report)
    assert str(exc.value) == message


def test_nashgap_verdicts():
    assert_enforced(cliques.measure_nashgap(EDGE), None)
    assert_enforced(
        cliques.measure_nashgap(PATH3),
        "1 non-clique-form symmetric equilibria exceed -1/(k-1) = -1: "
        "(Fraction(1, 5), Fraction(3, 5), Fraction(1, 5)) at value -3/5",
    )
    assert_enforced(
        cliques.measure_nashgap(CHORD),
        "1 non-clique-form symmetric equilibria exceed -1/(k-1) = -1/2: "
        "(Fraction(3, 8), Fraction(3, 8), Fraction(1, 8), Fraction(1, 8)) at value -3/8",
    )
    # on a graph without offenders, each clause of nashgap_max fails alone
    edge = cliques.measure_nashgap(EDGE)
    for report, message in (
        (dataclasses.replace(edge, clique_values=(None,)),
         "uniform play on maximum clique (0, 1) is not an equilibrium"),
        (dataclasses.replace(edge, clique_values=(Fraction(-1, 3),)),
         "clique (0, 1) equilibrium value -1/3 != -1/2"),
        (dataclasses.replace(edge, equilibria=tuple(
            dataclasses.replace(eq, value=Fraction(-1, 3)) if eq.value == edge.max_value else eq
            for eq in edge.equilibria)),
         "best symmetric equilibrium value -1/3 != -1/2"),
    ):
        assert [b.name for b in report.bounds if not b.satisfied] == ["nashgap_max"]
        assert_enforced(report, message)
    path3 = cliques.measure_nashgap(PATH3)  # the first violated clause comes first
    assert_enforced(
        dataclasses.replace(path3, clique_values=(Fraction(-1, 2), Fraction(-1, 3))),
        "clique (1, 2) equilibrium value -1/3 != -1/2",
    )


def test_nashgap_audit_raises_the_report_violation():
    with pytest.raises(BoundViolationError) as exc:
        cliques.nashgap_audit(CHORD)
    assert str(exc.value) == cliques.measure_nashgap(CHORD).violation


@pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(99, 100)])
def test_wsne_value_verdicts(delta):
    regime = ParameterRegime(n=3, k=2, delta=delta, epsilon=Fraction(1, 10**6))
    report = cliques.measure_wsne_value(PATH3, regime)
    message = None
    if delta == Fraction(99, 100):
        message = (
            "non-clique candidate (Fraction(1, 103), Fraction(101, 103), Fraction(1, 103)) "
            "has value 10199/10300 > 157/160"
        )
    assert_enforced(report, message)
    assert [b.name for b in report.bounds] == [
        "wsne_clique_value", "wsne_nonclique_value", "wsne_closeness"
    ]


@pytest.mark.parametrize("clause, measured, bound, message", [
    ("wsne_clique_value", Fraction(1, 3), Fraction(1, 2), "has value 1/3 < 1/2"),
    ("wsne_closeness", Fraction(1, 2), Fraction(1, 3),
     "strays 1/2 > 1/3 from the uniform clique profile"),
])
def test_wsne_value_report_names_a_first_clique_offender(clause, measured, bound, message):
    regime = ParameterRegime(n=3, k=2, delta=Fraction(1, 2), epsilon=Fraction(1, 10**6))
    clean = cliques.measure_wsne_value(PATH3, regime)
    probs = next(r.probs for r in clean.records if r.clique_supported)
    offender = cliques.WsneOffender(clause, probs, measured, bound)
    report = cliques.WsneValueReport(
        k=clean.k, records=clean.records, offenders=(offender,), clause_bounds=clean.clause_bounds
    )
    assert_enforced(report, f"clique-supported candidate {probs} {message}")
    expected = {b.name: b for b in clean.bounds}
    expected[clause] = checks.BoundRecord(clause, float(bound), float(measured), False)
    assert report.bounds == tuple(expected.values())


def test_team_gadget_structure_verdicts():
    inst = gadgets.team_gadget(A2, Fraction(1, 20))
    report = gadgets.measure_gadget_structure(inst, gadgets.canonical_team_ne(inst), 0.05)
    assert_enforced(report, None)
    assert [b.name for b in report.bounds] == ["pair_gap", "mirror_mass"]
    gap = dataclasses.replace(report, max_pair_gap=0.2)
    assert_enforced(gap, f"teammates differ by 0.2 > 2 eps = {report.pair_bound}")
    mass = dataclasses.replace(report, max_mirror_mass=0.5)
    assert_enforced(mass, f"mirror action holds 0.5 > 9 eps = {report.mirror_bound}")
    both = dataclasses.replace(gap, max_mirror_mass=0.5)
    assert_enforced(both, gap.violation)  # the pair gap comes first
    # the records are decided by checks.within, under its 1e-12 margin
    assert_enforced(dataclasses.replace(report, max_pair_gap=report.pair_bound + 5e-13), None)
    over = report.pair_bound + 5e-10
    assert_enforced(dataclasses.replace(report, max_pair_gap=over),
                    f"teammates differ by {over} > 2 eps = {report.pair_bound}")


def test_team3v3_verdicts():
    inst = gadgets.team3v3_gadget(fmat([["1/2", 0], [0, "1/2"]]), Fraction(1, 20))
    s = MixedStrategy.from_exact(
        oracle.symmetric_support_enumeration(inst.a, orientation=MINIMIZE)[0].probs
    )
    anchor = MixedStrategy.pure(5, 4)
    report = gadgets.measure_team3v3(inst, MixedProfile((s, s, anchor, s, s, anchor)), 0.05)
    assert_enforced(report, None)
    assert [b.name for b in report.bounds] == ["pair_gap", "mirror_mass", "team3v3_backmap"]
    assert_enforced(
        dataclasses.replace(report, max_pair_gap=0.5),
        f"teammates differ by 0.5 > 2 eps = {report.pair_bound}",
    )
    assert_enforced(
        dataclasses.replace(report, backmap_regret=2 * report.bound),
        f"back-mapped strategy has regret {2 * report.bound} > {report.bound} in (R, R^T)",
    )



def verdicts(report):
    """The verdict a report gives: `satisfied`, or its `bounds` and `violation`,
    which agree with each other."""
    if isinstance(report, checks.Certificate):
        return report.satisfied
    assert all(b.satisfied for b in report.bounds) == (report.violation is None)
    return report.bounds, report.violation


def assert_decides_again(report, **changes):
    """A report with measured fields replaced gives the verdict of a report
    built from the new measurements, which differs from the original's."""
    measured = {f.name: getattr(report, f.name) for f in dataclasses.fields(report) if f.init}
    built = type(report)(**{**measured, **changes})
    replaced = dataclasses.replace(report, **changes)
    assert replaced == built
    assert verdicts(replaced) == verdicts(built) != verdicts(report)


# an exact equilibrium of a flat gadget with pair gap 0.05, within 2 eps at its eps = 1/10
FLAT_X, FLAT_Y, FLAT_Z = MixedStrategy.pure(2, 0), MixedStrategy([0.95, 0.05]), MixedStrategy.pure(5, 4)


def certificate_case():
    game = gadgets.team_gadget(A2, Fraction(1, 20)).game
    uniform = MixedProfile(tuple(MixedStrategy.uniform(n) for n in game.action_counts))
    cert = checks.epsilon_ne_report(game, uniform, 0.0)
    return cert, {"epsilon": max(cert.regrets)}


def structure_case():
    inst = gadgets.team_gadget(fmat([[-1, -1], [-1, -1]]), Fraction(1, 10))
    profile = MixedProfile((FLAT_X, FLAT_Y, FLAT_Z))
    return gadgets.measure_gadget_structure(inst, profile, 0.1), {"epsilon": 0.01}


def team3v3_case():
    inst = gadgets.team3v3_gadget(fmat([[0, 0], [0, 0]]), Fraction(1, 10))
    profile = MixedProfile((FLAT_X, FLAT_Y, FLAT_Z) * 2)
    return gadgets.measure_team3v3(inst, profile, 0.1), {"epsilon": 0.01}


def nashgap_case():
    report = cliques.measure_nashgap(PATH3)
    return report, {"equilibria": tuple(
        dataclasses.replace(eq, value=Fraction(-2)) if eq in report.offenders else eq
        for eq in report.equilibria
    )}


def wsne_case():
    regime = ParameterRegime(n=3, k=2, delta=Fraction(99, 100), epsilon=Fraction(1, 10**6))
    return cliques.measure_wsne_value(PATH3, regime), {"offenders": ()}


@pytest.mark.parametrize(
    "case", [certificate_case, structure_case, team3v3_case, nashgap_case, wsne_case],
    ids=["certificate", "structure", "team3v3", "nashgap", "wsne"],
)
def test_a_replaced_report_decides_again(case):
    report, changes = case()
    assert_decides_again(report, **changes)
    if case is team3v3_case:  # every record moves with eps, the back-map's too
        assert report.backmap_scale == (21 * 2 + 1) * 2.0  # (21 n + 1) |A_min| for R = 0
        values = {b.name: b.value for b in dataclasses.replace(report, **changes).bounds}
        assert values == {"pair_gap": 2.0 * 0.01, "mirror_mass": 9.0 * 0.01,
                          "team3v3_backmap": 86.0 * 0.01}
