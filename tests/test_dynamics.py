"""Learning dynamics: symmetric algorithms stay symmetric, alternation breaks it."""

from fractions import Fraction

import numpy as np
import pytest

from minmaxlab import dynamics, gadgets, minmax
from minmaxlab.dynamics import (
    ALGORITHMS,
    ALTERNATING_GDA,
    GDA,
    OMWU,
    SYMMETRIC_ALGORITHMS,
    DynamicsConfig,
    Trajectory,
    drift_witness_instance,
    min_gap,
    run,
    symmetry_drift,
)
from minmaxlab.errors import DimensionError, PreconditionError
from minmaxlab.games import MixedStrategy
from minmaxlab.rational import fmat

RPS = fmat([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])


def rps_problem():
    return gadgets.quadratic_gadget(RPS)


def test_symmetric_algorithms_never_drift():
    prob = rps_problem()
    for alg in SYMMETRIC_ALGORITHMS:
        traj = run(prob, DynamicsConfig(algorithm=alg, stepsize=0.1, horizon=300))
        assert symmetry_drift(traj) <= 1e-15, alg


def test_symmetric_list_contents():
    assert ALTERNATING_GDA not in SYMMETRIC_ALGORITHMS
    assert GDA in SYMMETRIC_ALGORITHMS
    assert len(SYMMETRIC_ALGORITHMS) == 4


def test_alternating_updates_leave_the_diagonal():
    prob, config = drift_witness_instance()
    assert config.algorithm == ALTERNATING_GDA
    traj = run(prob, config)
    assert symmetry_drift(traj) > 1e-3


def test_trajectory_shapes_and_feasibility():
    prob = rps_problem()
    traj = run(prob, DynamicsConfig(algorithm=OMWU, stepsize=0.1, horizon=50))
    assert isinstance(traj, Trajectory)
    assert len(traj.points) == 50
    assert len(traj.gaps) == len(traj.drifts) == len(traj.utilities) == 50
    for x, y in traj.points:
        for v in (x, y):
            assert v.min() >= -1e-12
            assert abs(v.sum() - 1.0) <= 1e-9
    assert min_gap(traj) >= 0.0
    assert min_gap(traj) <= traj.gaps[0] + 1e-12


def test_recorded_series_match_the_pointwise_definitions():
    """Block-computed gaps, drifts and utilities agree with gda_gap and f_value."""
    rng = np.random.default_rng(11)
    r = fmat(
        [[Fraction(int(rng.integers(-100, 101)), 100) for _ in range(4)] for _ in range(4)]
    )
    prob = gadgets.quadratic_gadget(r)
    horizon = 2 * (dynamics.RECORD_CELLS // 4) + 13  # two full blocks, one partial
    start = MixedStrategy(np.array([0.4, 0.3, 0.2, 0.1]))
    steps = sorted({0, 1, horizon - 1, *rng.integers(0, horizon, size=12).tolist()})
    for alg in ALGORITHMS:
        config = DynamicsConfig(
            algorithm=alg, stepsize=0.1, horizon=horizon, init=(start, start)
        )
        traj = run(prob, config)
        assert len(traj) == horizon
        for t in steps:
            x, y = traj.points[t]
            gap = minmax.gda_gap(prob, x, y).gap
            assert traj.gaps[t] == pytest.approx(gap, abs=1e-12)
            utility = minmax.f_value(prob, x, y)
            assert traj.utilities[t] == pytest.approx(utility, abs=1e-12)
            assert traj.drifts[t] == float(np.abs(x - y).max())
        if alg == ALTERNATING_GDA:
            assert symmetry_drift(traj) > 0.0


def test_unknown_algorithm_is_rejected():
    with pytest.raises(PreconditionError):
        DynamicsConfig(algorithm="nas", stepsize=0.1, horizon=10)


def test_oversized_stepsize_is_rejected():
    with pytest.raises(PreconditionError):
        DynamicsConfig(algorithm=GDA, stepsize=1.5, horizon=10)


def test_custom_init_changes_the_trajectory():
    prob = rps_problem()
    base = DynamicsConfig(algorithm=GDA, stepsize=0.1, horizon=3)
    skewed = DynamicsConfig(
        algorithm=GDA,
        stepsize=0.1,
        horizon=3,
        init=(
            MixedStrategy(np.array([0.8, 0.1, 0.1])),
            MixedStrategy(np.array([0.8, 0.1, 0.1])),
        ),
    )
    t1 = run(prob, base)
    t2 = run(prob, skewed)
    assert not np.allclose(t1.points[0][0], t2.points[0][0])
    # both inits are symmetric, so both trajectories stay symmetric
    assert symmetry_drift(t2) <= 1e-15


def test_horizon_must_be_positive():
    with pytest.raises(PreconditionError):
        DynamicsConfig(algorithm=GDA, stepsize=0.1, horizon=0)


@pytest.mark.parametrize(
    "field, value",
    [("horizon", 2.5), ("horizon", True), ("stepsize", True), ("stepsize", "0.1")],
    ids=["float-horizon", "bool-horizon", "bool-stepsize", "str-stepsize"],
)
def test_config_types_are_checked_at_construction(field, value):
    fields = {"algorithm": GDA, "stepsize": 0.1, "horizon": 10, field: value}
    with pytest.raises(PreconditionError, match=field):
        DynamicsConfig(**fields)


@pytest.mark.parametrize(
    "init",
    [
        ([0.5, 0.5], [0.5, 0.5]),
        (np.array([0.5, 0.5]), np.array([0.5, 0.5])),
        (MixedStrategy.uniform(2),) * 3,
        [MixedStrategy.uniform(2)] * 2,
    ],
    ids=["lists", "arrays", "three-strategies", "list-of-strategies"],
)
def test_config_init_must_be_a_pair_of_strategies(init):
    with pytest.raises(PreconditionError, match="init"):
        DynamicsConfig(algorithm=GDA, stepsize=0.1, horizon=10, init=init)


def test_init_of_the_wrong_size_is_refused_by_the_run():
    config = DynamicsConfig(GDA, 0.1, 10, init=(MixedStrategy.uniform(2),) * 2)
    with pytest.raises(DimensionError, match="initial point"):
        run(rps_problem(), config)


@pytest.mark.parametrize("apart", [False, True], ids=["equal-starts", "different-starts"])
def test_omwu_refuses_an_overflowing_update_with_equal_or_different_segments(apart):
    """The maximizer's feedback at x = (0.6, 0.4) is (400, -600): exp(1200)
    overflows at the first step, in the shared branch and in the separate one."""
    zero = np.zeros((2, 2), dtype=object)
    prob = minmax.QuadraticMinMaxProblem(qx=zero, qy=zero, m=fmat([[0, -1000], [1000, 0]]))
    x = MixedStrategy([0.6, 0.4])
    init = (MixedStrategy([0.3, 0.7]) if apart else x, x)
    with pytest.raises(OverflowError, match="step 1"):
        run(prob, DynamicsConfig(OMWU, stepsize=1.0, horizon=5, init=init))


def test_config_stores_numpy_and_exact_numbers_as_float_and_int():
    config = DynamicsConfig(algorithm=GDA, stepsize=Fraction(1, 10), horizon=np.int64(3))
    assert (type(config.stepsize), type(config.horizon)) == (float, int)
    plain = DynamicsConfig(algorithm=GDA, stepsize=0.1, horizon=3)
    for got, want in zip(run(rps_problem(), config).points, run(rps_problem(), plain).points):
        assert got[0].tobytes() == want[0].tobytes()


@pytest.mark.parametrize("algorithm", SYMMETRIC_ALGORITHMS)
@pytest.mark.parametrize("n", [2, 3, 8, 41])
def test_symmetric_rules_are_swap_equivariant_bit_for_bit(algorithm, n):
    """On an antisymmetric problem each player runs the same rule on its own
    feedback, so swapping the two starting points swaps every later point;
    n = 41 takes the numpy projection, the smaller n the scalar one."""
    rng = np.random.default_rng(n)
    r = fmat([[Fraction(int(rng.integers(-100, 101)), 100) for _ in range(n)] for _ in range(n)])
    prob = gadgets.quadratic_gadget(r)
    a, b = (MixedStrategy(rng.dirichlet(np.ones(n))) for _ in range(2))
    forward = run(prob, DynamicsConfig(algorithm, stepsize=0.2, horizon=150, init=(a, b)))
    swapped = run(prob, DynamicsConfig(algorithm, stepsize=0.2, horizon=150, init=(b, a)))
    for (x, y), (u, v) in zip(forward.points, swapped.points):
        assert (x.tobytes(), y.tobytes()) == (v.tobytes(), u.tobytes())
    assert max(forward.drifts) > 0.0
