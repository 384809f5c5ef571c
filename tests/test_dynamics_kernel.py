"""The dynamics loop, its feedback and the simplex projections, bit for bit.

Each is checked against the implementation it replaced, kept below as a
test-only reference: matmul feedback, a projection that thresholds on
`u - css/ind > 0` and gathers with boolean masks, and the loop that ran
on them.  Points, gaps, drifts and utilities must match to the last bit
(`tobytes`), so the recorded symmetry drift, which is the experiment, is
exactly what it was.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minmaxlab import dynamics, gadgets, geometry, minmax
from minmaxlab.dynamics import (
    ALGORITHMS,
    ALTERNATING_GDA,
    EXTRAGRADIENT,
    GDA,
    OMWU,
    OPTIMISTIC_GDA,
    SYMMETRIC_ALGORITHMS,
    DynamicsConfig,
    run,
)
from minmaxlab.games import MixedStrategy
from minmaxlab.geometry import _SCALAR_PROJECTION_MAX_N as C
from minmaxlab.geometry import _project_simplex_raw, _project_simplex_rows
from minmaxlab.minmax import QuadraticMinMaxProblem, _f_rows
from minmaxlab.rational import fmat

# ---------------------------------------------------------------------------
# the prior implementation (reference only)


def prior_project_simplex_raw(v):
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, v.size + 1)
    cond = u - css / ind > 0.0
    rho = ind[cond][-1]
    theta = css[cond][-1] / rho
    return np.maximum(v - theta, 0.0)


def prior_project_simplex_rows(v):
    u = np.sort(v, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    ind = np.arange(1, v.shape[1] + 1)
    cond = u - css / ind > 0.0
    rho = (cond * ind).max(axis=1)
    theta = css[np.arange(v.shape[0]), rho - 1] / rho
    return np.maximum(v - theta[:, None], 0.0)


def prior_minimizer_feedback(problem, own, other):
    return problem.mt_float @ other - problem.qx_float @ own


def prior_maximizer_feedback(problem, own, other):
    return problem.neg_m_float @ other - problem.qy_float @ own


def prior_simplex_gda_gaps(problem, xs, ys, stepsize=1.0):
    gx = ys @ problem.m_float - xs @ problem.qx_float
    gy = ys @ problem.qy_float + xs @ problem.mt_float
    x2 = prior_project_simplex_rows(xs - stepsize * gx)
    y2 = prior_project_simplex_rows(ys + stepsize * gy)
    return np.hypot(np.linalg.norm(xs - x2, axis=1), np.linalg.norm(ys - y2, axis=1))


def prior_record_pending(problem, points, gaps, drifts, utilities):
    pending = points[len(gaps):]
    if not pending:
        return
    xs = np.array([x for x, _ in pending])
    ys = np.array([y for _, y in pending])
    gaps.extend(prior_simplex_gda_gaps(problem, xs, ys, stepsize=1.0).tolist())
    if problem.n_x == problem.n_y:
        drifts.extend(np.abs(xs - ys).max(axis=1).tolist())
    else:
        drifts.extend([float("inf")] * len(pending))
    utilities.extend(_f_rows(problem, xs, ys).tolist())


def prior_run(problem, config):
    x, y = dynamics._init_point(problem, config)
    eta = config.stepsize
    algo = config.algorithm
    project = prior_project_simplex_raw

    def fx(own, other):
        return prior_minimizer_feedback(problem, own, other)

    def fy(own, other):
        return prior_maximizer_feedback(problem, own, other)

    gx_prev = np.zeros_like(x)
    gy_prev = np.zeros_like(y)
    block = max(1, dynamics.RECORD_CELLS // max(x.size, y.size))
    points, gaps, drifts, utilities = [], [], [], []
    for t in range(config.horizon):
        points.append((x, y))
        if len(points) - len(gaps) == block:
            prior_record_pending(problem, points, gaps, drifts, utilities)
        if t == config.horizon - 1:
            break
        if algo == GDA:
            gx = fx(x, y)
            gy = fy(y, x)
            x = project(x - eta * gx)
            y = project(y - eta * gy)
        elif algo == EXTRAGRADIENT:
            gx = fx(x, y)
            gy = fy(y, x)
            x_half = project(x - eta * gx)
            y_half = project(y - eta * gy)
            gx2 = fx(x_half, y_half)
            gy2 = fy(y_half, x_half)
            x = project(x - eta * gx2)
            y = project(y - eta * gy2)
        elif algo == OPTIMISTIC_GDA:
            gx = fx(x, y)
            gy = fy(y, x)
            x = project(x - eta * (2.0 * gx - gx_prev))
            y = project(y - eta * (2.0 * gy - gy_prev))
            gx_prev, gy_prev = gx, gy
        elif algo == OMWU:
            gx = fx(x, y)
            gy = fy(y, x)
            with np.errstate(over="ignore", invalid="ignore"):
                x_w = x * np.exp(-eta * (2.0 * gx - gx_prev))
                y_w = y * np.exp(-eta * (2.0 * gy - gy_prev))
            x = x_w / x_w.sum()
            y = y_w / y_w.sum()
            gx_prev, gy_prev = gx, gy
        else:
            gx = fx(x, y)
            x = project(x - eta * gx)
            gy = fy(y, x)
            y = project(y - eta * gy)
    prior_record_pending(problem, points, gaps, drifts, utilities)
    return points, gaps, drifts, utilities


# ---------------------------------------------------------------------------
# fixtures


def _gadget(n, seed):
    rng = np.random.default_rng(seed)
    r = fmat(
        [[Fraction(int(rng.integers(-100, 101)), 100) for _ in range(n)] for _ in range(n)]
    )
    return gadgets.quadratic_gadget(r)


def _rectangular():
    """n_x = 2, n_y = 3: no symmetry, so every drift is recorded as inf."""
    return QuadraticMinMaxProblem(
        qx=fmat([["1/2", "-1/3"], ["-1/3", "1/5"]]),
        qy=fmat([[1, 0, "1/7"], [0, "-1/2", "1/4"], ["1/7", "1/4", 0]]),
        m=fmat([["3/4", -1], ["-2/5", "1/3"], ["1/9", "5/6"]]),
    )


def _start(n, seed):
    return MixedStrategy(np.random.default_rng(seed).dirichlet(np.ones(n)))


def _bytes(values):
    return np.array(values, dtype=float).tobytes()


def assert_same_run(problem, config):
    traj = run(problem, config)
    points, gaps, drifts, utilities = prior_run(problem, config)
    assert len(traj.points) == len(points) == config.horizon
    for (x, y), (px, py) in zip(traj.points, points):
        assert x.tobytes() == px.tobytes()
        assert y.tobytes() == py.tobytes()
    assert _bytes(traj.gaps) == _bytes(gaps)
    assert _bytes(traj.drifts) == _bytes(drifts)
    assert _bytes(traj.utilities) == _bytes(utilities)
    return traj


# ---------------------------------------------------------------------------
# the loop: bit-identical to the prior loop


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize(
    "n, horizon", [(2, 400), (3, 400), (8, 300), (C, 150), (C + 1, 150), (64, 120)]
)
def test_runs_match_the_prior_loop(algorithm, n, horizon):
    problem = _gadget(n, seed=n)
    start = _start(n, seed=100 + n)
    symmetric = DynamicsConfig(algorithm, stepsize=0.1, horizon=horizon, init=(start, start))
    traj = assert_same_run(problem, symmetric)
    if algorithm != ALTERNATING_GDA:
        assert max(traj.drifts) == 0.0
    apart = (start, _start(n, seed=200 + n))
    assert_same_run(problem, DynamicsConfig(algorithm, stepsize=0.3, horizon=horizon, init=apart))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_uniform_start_matches_the_prior_loop(algorithm):
    assert_same_run(_gadget(3, seed=7), DynamicsConfig(algorithm, stepsize=1.0, horizon=200))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_rectangular_runs_match_the_prior_loop(algorithm):
    problem = _rectangular()
    init = (_start(2, seed=1), _start(3, seed=2))
    traj = assert_same_run(problem, DynamicsConfig(algorithm, stepsize=0.2, horizon=300, init=init))
    assert all(d == float("inf") for d in traj.drifts)
    assert dynamics.symmetry_drift(traj) is None


def test_feedback_matches_the_prior_products():
    rng = np.random.default_rng(3)
    for problem in (_gadget(2, 1), _gadget(8, 2), _gadget(64, 3), _rectangular()):
        for _ in range(20):
            x = rng.dirichlet(np.ones(problem.n_x))
            y = rng.dirichlet(np.ones(problem.n_y))
            g = problem.feedbacks(np.concatenate([x, y]))
            gx, gy = g[: problem.n_x], g[problem.n_x :]
            assert gx.tobytes() == prior_minimizer_feedback(problem, x, y).tobytes()
            assert gy.tobytes() == prior_maximizer_feedback(problem, y, x).tobytes()


# ---------------------------------------------------------------------------
# the projections: bit-identical to the prior ones


# vectors of up to C entries take the scalar threshold, longer ones numpy's
SIZES = st.sampled_from([1, 2, 3, 4, 5, 8, 17, C, C + 1, 64])


@st.composite
def projection_inputs(draw, n=SIZES):
    """A vector with ties, with signed zeros among ties, a point already on
    the simplex, or a plain one; n >= 1."""
    n = draw(n)
    kind = draw(st.sampled_from(["ties", "zeros", "simplex", "vertex", "plain"]))
    if kind in ("ties", "zeros"):
        pool = draw(st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=3))
        if kind == "zeros":
            pool += [0.0, -0.0]
        values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        return np.array(values)
    if kind == "simplex":
        w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        return w / w.sum() if w.sum() > 0 else np.full(n, 1.0 / n)
    if kind == "vertex":
        v = np.zeros(n)
        v[draw(st.integers(0, n - 1))] = 1.0
        return v
    values = draw(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n)
    )
    return np.array(values)


@settings(max_examples=400, deadline=None)
@given(projection_inputs())
def test_vector_projection_matches_the_prior_one(v):
    assert _project_simplex_raw(v).tobytes() == prior_project_simplex_raw(v).tobytes()


@pytest.mark.parametrize("n", [1, 2, C, C + 1, 64])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_nan_or_inf_entry_raises_the_same_error_at_every_size(n, bad):
    """No index passes the threshold test; the prior projection died with an
    IndexError from an empty `nonzero()`."""
    messages = set()
    for at in {0, n - 1}:
        v = np.full(n, 1.0 / n)
        v[at] = bad
        with pytest.raises(ValueError) as caught, np.errstate(invalid="ignore"):
            _project_simplex_raw(v)
        messages.add(str(caught.value))
        with pytest.raises(IndexError), np.errstate(invalid="ignore"):
            prior_project_simplex_raw(v)
    assert messages == {geometry._NO_THRESHOLD}


@pytest.mark.parametrize("bad", [1e17, np.nan, np.inf])
def test_a_row_without_threshold_raises_as_the_vector_projection_does(bad):
    """The prior row projection divided by rho = 0 and returned a row of zeros."""
    rows = np.array([[bad, 0.0], [0.3, 0.7]])
    with pytest.raises(ValueError) as by_row, np.errstate(invalid="ignore"):
        _project_simplex_rows(rows)
    with pytest.raises(ValueError) as by_vector, np.errstate(invalid="ignore"):
        _project_simplex_raw(rows[0])
    assert str(by_row.value) == str(by_vector.value) == geometry._NO_THRESHOLD
    if bad == 1e17:
        with np.errstate(divide="ignore"):
            assert prior_project_simplex_rows(rows)[0].tolist() == [0.0, 0.0]


@st.composite
def projection_rows(draw):
    n = draw(SIZES)
    return np.array(draw(st.lists(projection_inputs(st.just(n)), min_size=1, max_size=6)))


@settings(max_examples=400, deadline=None)
@given(projection_rows())
def test_row_projection_matches_the_prior_one(rows):
    assert _project_simplex_rows(rows).tobytes() == prior_project_simplex_rows(rows).tobytes()


# ---------------------------------------------------------------------------
# the trajectory buffer


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("n", [2, 3, 8, C, C + 1, 64])
def test_records_keep_blocks_of_1024_cells(algorithm, n):
    """The record stacks the points in blocks of 1024 // n rows, as the loop
    that set its bits did.  BLAS gives a row other bits in a block of
    another size (at n = 41 with 4,096 cells, and for any one-row block), so
    the blocks are part of the result; 241 rows leave one row alone at
    n = 41 and 64 and a partial block at every n."""
    problem = _gadget(n, seed=300 + n)
    config = DynamicsConfig(
        algorithm, stepsize=0.2, horizon=241, init=(_start(n, 1), _start(n, 2))
    )
    traj = run(problem, config)
    block = max(1, 1024 // n)
    gaps, drifts, utilities = [], [], []
    for start in range(0, len(traj), block):
        prior_record_pending(problem, traj.points[: start + block], gaps, drifts, utilities)
    assert _bytes(traj.gaps) == _bytes(gaps)
    assert _bytes(traj.drifts) == _bytes(drifts)
    assert _bytes(traj.utilities) == _bytes(utilities)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_trajectories_are_read_only_and_share_nothing(algorithm):
    problem = _gadget(3, seed=5)
    first = run(problem, DynamicsConfig(algorithm, stepsize=0.1, horizon=50))
    before = [(x.tobytes(), y.tobytes()) for x, y in first.points]
    for t in (0, 49):
        for point in first.points[t]:
            with pytest.raises(ValueError):
                point[0] = 1.0
    init = (_start(3, seed=6), _start(3, seed=7))
    run(problem, DynamicsConfig(algorithm, stepsize=0.3, horizon=50, init=init))
    assert [(x.tobytes(), y.tobytes()) for x, y in first.points] == before


def _random_problem(nx, ny, seed):
    """Symmetric Qx and Qy and any M, entries in [-1, 1] over 100."""
    rng = np.random.default_rng(seed)

    def cells(rows, cols):
        return rng.integers(-100, 101, (rows, cols))

    qx, qy = cells(nx, nx), cells(ny, ny)
    return QuadraticMinMaxProblem(
        qx=fmat([[Fraction(int(v), 200) for v in row] for row in qx + qx.T]),
        qy=fmat([[Fraction(int(v), 200) for v in row] for row in qy + qy.T]),
        m=fmat([[Fraction(int(v), 100) for v in row] for row in cells(ny, nx)]),
    )


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(1, 2), (2, 3), (3, 2), (2, C + 1), (C, C + 1), (C + 1, C), (C + 5, 3)]),
    st.sampled_from(ALGORITHMS),
    st.sampled_from([1, 2, 7, 40]),
    st.sampled_from([0.05, 0.3, 1.0]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_rectangular_runs_match_the_prior_loop_at_any_size(
    sizes, algorithm, horizon, stepsize, seed, uniform
):
    nx, ny = sizes
    problem = _random_problem(nx, ny, seed)
    init = None if uniform else (_start(nx, seed), _start(ny, seed + 1))
    traj = assert_same_run(problem, DynamicsConfig(algorithm, stepsize, horizon, init=init))
    assert all(d == float("inf") for d in traj.drifts)


# ---------------------------------------------------------------------------
# segments with equal bytes: one threshold, one total, one row projection


@pytest.mark.parametrize("algorithm", SYMMETRIC_ALGORITHMS)
@pytest.mark.parametrize("n", [2, 3, C, C + 1])
def test_equal_starts_that_separate_match_the_prior_loop(algorithm, n):
    """A square problem that is not antisymmetric: the segments start equal
    and part at the first step, so the loop leaves the shared branch."""
    problem = _random_problem(n, n, seed=400 + n)
    start = _start(n, seed=500 + n)
    traj = assert_same_run(problem, DynamicsConfig(algorithm, 0.2, 60, init=(start, start)))
    assert traj.drifts[0] == 0.0 < max(traj.drifts)


def _dominant_first_action():
    """A = M^T antisymmetric with A[0, 1] = A[0, 2] = -2: the first action
    beats both others, so the symmetric profile (e_0, e_0) attracts every start."""
    zero = np.zeros((3, 3), dtype=object)
    return QuadraticMinMaxProblem(qx=zero, qy=zero, m=[[0, 2, 2], [-2, 0, 0], [-2, 0, 0]])


@pytest.mark.parametrize("algorithm", SYMMETRIC_ALGORITHMS)
def test_different_starts_that_merge_match_the_prior_loop(algorithm):
    """From two different starts the iterates land on one point, and from
    there on the loop takes the shared branch: at once from two vertices at
    stepsize 1, and once the dominated weights of OMWU underflow to zero."""
    if algorithm == OMWU:
        init, horizon = (MixedStrategy([0.2, 0.7, 0.1]), MixedStrategy([0.3, 0.1, 0.6])), 420
    else:
        init, horizon = (MixedStrategy.pure(3, 1), MixedStrategy.pure(3, 2)), 6
    config = DynamicsConfig(algorithm, 1.0, horizon, init=init)
    traj = assert_same_run(_dominant_first_action(), config)
    merged = traj.drifts.index(0.0)
    assert merged > 0 and set(traj.drifts[merged:]) == {0.0}
    assert traj.points[-1][0].tolist() == [1.0, 0.0, 0.0]


def test_first_entries_alone_do_not_share_the_threshold():
    """The first action is decoupled, so the targets agree in their first entry
    and differ in the rest: each segment still takes its own threshold."""
    m = [[0, 0, 0], [0, "1/2", -1], [0, "3/4", "1/3"]]
    zero = np.zeros((3, 3), dtype=object)
    problem = QuadraticMinMaxProblem(qx=zero, qy=zero, m=fmat(m))
    init = (MixedStrategy([0.4, 0.5, 0.1]), MixedStrategy([0.4, 0.1, 0.5]))
    for algorithm in ALGORITHMS:
        assert_same_run(problem, DynamicsConfig(algorithm, 0.5, 20, init=init))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 2, C, C + 1]),
    st.sampled_from(ALGORITHMS),
    st.sampled_from([1, 2, 7, 40]),
    st.sampled_from([0.05, 0.3, 1.0]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_square_runs_match_the_prior_loop_at_any_size(
    n, algorithm, horizon, stepsize, seed, equal
):
    problem = _random_problem(n, n, seed)
    x = _start(n, seed)
    init = (x, x if equal else _start(n, seed + 1))
    assert_same_run(problem, DynamicsConfig(algorithm, stepsize, horizon, init=init))


@pytest.mark.parametrize("algorithm, per_step", [(GDA, 1), (EXTRAGRADIENT, 2), (OPTIMISTIC_GDA, 1)])
def test_equal_segments_take_one_threshold_per_projection(monkeypatch, algorithm, per_step):
    calls = []

    def spy(v):
        calls.append(v.size)
        return geometry._simplex_threshold(v)

    monkeypatch.setattr(dynamics, "_simplex_threshold", spy)
    n, horizon = 8, 50
    problem, start = _gadget(n, seed=8), _start(n, seed=9)
    run(problem, DynamicsConfig(algorithm, 0.1, horizon, init=(start, start)))
    assert len(calls) == per_step * (horizon - 1)
    calls.clear()
    traj = run(problem, DynamicsConfig(algorithm, 0.1, horizon, init=(start, _start(n, 10))))
    assert len(calls) == 2 * per_step * (horizon - 1)
    assert min(traj.drifts) > 0.0


def _gda_gap_blocks(n, rows, seed):
    """A gadget and a block of symmetric row pairs, then the same block with
    the last entry of its last y row moved to the first entry."""
    rng = np.random.default_rng(seed)
    xs = rng.dirichlet(np.ones(n), size=rows)
    ys = xs.copy()
    ys[-1, 0] += ys[-1, -1]
    ys[-1, -1] = 0.0
    return _gadget(n, seed), xs, ys


@pytest.mark.parametrize("n, rows", [(2, 40), (3, 5), (C, 30), (C + 1, 30), (64, 16)])
def test_gda_gaps_match_the_prior_ones_on_equal_and_unequal_halves(monkeypatch, n, rows):
    calls = []

    def spy(v):
        calls.append(v.shape)
        return _project_simplex_rows(v)

    monkeypatch.setattr(minmax, "_project_simplex_rows", spy)
    problem, xs, ys = _gda_gap_blocks(n, rows, seed=600 + n)
    for x_half, y_half, projections in ((xs, xs, 1), (xs, ys, 2)):
        calls.clear()
        gaps = minmax._simplex_gda_gaps(problem, x_half, y_half)
        assert gaps.tobytes() == prior_simplex_gda_gaps(problem, x_half, y_half).tobytes()
        assert len(calls) == projections
