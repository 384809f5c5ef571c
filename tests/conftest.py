"""Shared fixtures and the acceptance-criteria scoreboard."""

import re

import pytest

from minmaxlab import oracle
from minmaxlab.cliques import Graph

FIG1_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]

CRITERIA = {
    "01": "irrational equilibrium certificate and grid sweep",
    "02": "2x2 closed form vs enumeration oracle",
    "03": "clique game equilibrium values",
    "04": "three-form classification of symmetric equilibria",
    "05": "team gadget round trip",
    "06": "quadratic gadget regret certificate",
    "07": "coupled-domain median backmap",
    "08": "well-supported equilibrium machinery",
    "09": "dynamics symmetry trap",
    "10": "three-vs-three team gadget",
    "11": "projection subroutines",
}

_results = {}


@pytest.fixture(autouse=True)
def no_kept_census():
    """Every test starts with no census kept from an earlier one, so none
    depends on the order the tests run in."""
    oracle._last_census = None


@pytest.fixture
def fig1():
    return Graph.from_edges(5, FIG1_EDGES)


@pytest.fixture
def k3():
    return Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def path3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


@pytest.fixture
def cycle5():
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


@pytest.fixture
def k4_minus_edge():
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


@pytest.fixture
def petersen():
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    spokes = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    return Graph.from_edges(10, outer + spokes + inner)


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = re.search(r"test_criterion_(\d\d)_(\w+)", report.nodeid)
    if m:
        _results.setdefault(m.group(1), []).append((m.group(2), report.outcome))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERIA):
        parts = _results.get(num)
        if parts is None:
            terminalreporter.write_line(f"  criterion {num}  NOT RUN   {CRITERIA[num]}")
            continue
        failed = [name for name, outcome in parts if outcome == "failed"]
        if failed:
            line = f"  criterion {num}  FAIL  {CRITERIA[num]} (failing part: {', '.join(failed)})"
        else:
            line = f"  criterion {num}  PASS  {CRITERIA[num]}"
        terminalreporter.write_line(line)
