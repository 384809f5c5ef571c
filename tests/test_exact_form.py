"""One exact form for payoff data.

Every exact matrix and tensor the package stores is a read-only, C-ordered
object array of Fraction (`rational.exact_array`, and `rational.fmat` for a
matrix).  Its coercion refuses the payloads the nested-tuple form refused,
with the same exception and message, except for payloads of the wrong rank,
which are now a ValueError.  Its float mirrors have the bits the tuple form's
`to_float_matrix` gave, in C order.
"""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import prior_forms as prior
from minmaxlab import gadgets, rational
from minmaxlab.checks import wsne_eps_exact
from minmaxlab.errors import DimensionError, PreconditionError
from minmaxlab.games import (
    MAXIMIZE,
    MINIMIZE,
    BimatrixGame,
    NormalFormGame,
    PolymatrixGame,
    decompose_symmetric_skew,
)
from minmaxlab.minmax import QuadraticMinMaxProblem
from minmaxlab.oracle import symmetric_support_enumeration
from minmaxlab.rational import exact_array, fmat, scale_to_integers, to_fraction

# ---------------------------------------------------------------------------
# the coercion at every public entry point, against the tuple form's

PAYLOADS = {
    "ragged": [[1, 2], [3]],
    "1-D": [1, 2],
    "3-D": [[[1, 2]], [[3, 4]]],
    "scalar": 5,
    "empty": [],
    "empty row": [[]],
    "junk string": [["1/2", "junk"], [0, 1]],
    "None": None,
    "NaN": [[float("nan"), 0], [0, 1]],
    "non-square": [[1, 2, 3], [4, 5, 6]],
}
# the tuple form raised TypeError on these while iterating rows or cells
RANK_ERRORS = {"1-D": 1, "3-D": 3, "scalar": 0, "None": 0}
# the prior normal form accepted a player with no actions
NEWLY_REFUSED = {("NormalFormGame", "empty row"): (DimensionError, "empty payoff matrix")}


def prior_bimatrix(p):
    r = prior.fmat(p)
    c = prior.fmat(p)
    if prior.shape(r) != prior.shape(c):
        raise DimensionError("row and column payoff shapes differ")
    if not r or not r[0]:
        raise DimensionError("empty payoff matrix")


def prior_polymatrix(p):
    fm = prior.fmat(p)
    if prior.shape(fm) != (2, 2):
        raise DimensionError(f"pair (0, 1) matrix has shape {prior.shape(fm)}")


def prior_normal_form(p):
    tensors = []
    for t in (p, p):
        arr = np.array(t, dtype=object)
        flat = np.array([to_fraction(x) for x in arr.reshape(-1)], dtype=object)
        tensors.append(flat.reshape(arr.shape))
    if len(tensors[0].shape) != len(tensors):
        raise DimensionError("tensor rank must equal the number of players")


def prior_quadratic(p):
    qx, qy, mm = prior.fmat(p), prior.fmat(p), prior.fmat(p)
    nx, nx2 = prior.shape(qx)
    ny, ny2 = prior.shape(qy)
    if nx != nx2 or ny != ny2:
        raise DimensionError("Qx and Qy must be square")
    qx_cells, _ = scale_to_integers(qx)
    if (qx_cells != qx_cells.T).any():
        raise DimensionError("Qx and Qy must be symmetric (exactly)")


def prior_square(error):
    def check(p):
        n, n2 = prior.shape(prior.fmat(p))
        if n != n2:
            raise error("square matrix required")
    return check


def prior_square_exact(p):
    n, n2 = prior.shape(prior.fmat(p))
    if n != n2 or n == 0:
        raise DimensionError("non-empty square matrix required")


def prior_wsne_eps_exact(p):
    prior_square(PreconditionError)(p)
    if len(prior.fmat(p)) != 2:
        raise PreconditionError("strategy length does not match the matrix")


ENTRY_POINTS = {
    "BimatrixGame": (lambda p: BimatrixGame(p, p), prior_bimatrix),
    "PolymatrixGame": (
        lambda p: PolymatrixGame((2, 2), {(0, 1): p}, (MAXIMIZE, MINIMIZE)),
        prior_polymatrix,
    ),
    "NormalFormGame": (
        lambda p: NormalFormGame((p, p), (MAXIMIZE, MAXIMIZE)), prior_normal_form
    ),
    "QuadraticMinMaxProblem": (
        lambda p: QuadraticMinMaxProblem(qx=p, qy=p, m=p), prior_quadratic
    ),
    "symmetric_support_enumeration": (
        symmetric_support_enumeration, prior_square(DimensionError)
    ),
    "wsne_eps_exact": (lambda p: wsne_eps_exact(p, [1, 0]), prior_wsne_eps_exact),
    "team_gadget": (lambda p: gadgets.team_gadget(p, Fraction(1, 20)), prior_square_exact),
    "quadratic_gadget": (gadgets.quadratic_gadget, prior_square_exact),
    "decompose_symmetric_skew": (decompose_symmetric_skew, prior_square(DimensionError)),
}


def refusal(call, payload):
    """(type, message) of what `call(payload)` raised, or None."""
    try:
        call(payload)
    except Exception as exc:  # every refusal is compared, whatever its type
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("payload", PAYLOADS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_refuses_what_the_tuple_form_refused(entry, payload):
    call, prior_call = ENTRY_POINTS[entry]
    new, old = refusal(call, PAYLOADS[payload]), refusal(prior_call, PAYLOADS[payload])
    if payload in RANK_ERRORS and entry != "NormalFormGame":
        assert old is not None and old[0] is TypeError
        assert new == (ValueError, f"a matrix has 2 dimensions, got {RANK_ERRORS[payload]}")
    elif (entry, payload) in NEWLY_REFUSED:
        assert old is None
        assert new == NEWLY_REFUSED[entry, payload]
    else:
        assert new == old


# ---------------------------------------------------------------------------
# layout and bits

cells = st.fractions(min_value=-10, max_value=10, max_denominator=10**12)


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return draw(st.lists(st.lists(cells, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


def assert_exact_form(a):
    assert a.dtype == object and a.flags.c_contiguous and not a.flags.writeable
    assert all(type(x) is Fraction for x in a.flat)


def assert_mirror(mirror, tuple_form):
    assert mirror.flags.c_contiguous and not mirror.flags.writeable
    assert mirror.tobytes() == prior.to_float_matrix(tuple_form).tobytes()


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_stored_payoffs_and_mirrors_are_c_ordered_read_only_and_keep_their_bits(rows):
    m, old = fmat(rows), prior.fmat(rows)
    old_t = prior.transpose(old)
    mt = fmat(m.T)  # m.T is a Fortran-ordered view
    assert_exact_form(m)
    assert_exact_form(mt)
    assert mt.tolist() == [list(row) for row in old_t]

    game = BimatrixGame(m.T, np.asfortranarray(m.T))
    for stored, mirror in ((game.row_payoff, game.row_float), (game.col_payoff, game.col_float)):
        assert_exact_form(stored)
        assert_mirror(mirror, old_t)

    poly = PolymatrixGame(m.shape, {(0, 1): m, (1, 0): m.T}, (MAXIMIZE, MINIMIZE))
    for key, tuple_form in (((0, 1), old), ((1, 0), old_t)):
        assert_exact_form(poly.pair_matrices[key])
        assert_mirror(poly.pair_floats[key], tuple_form)

    normal = NormalFormGame((np.asfortranarray(m), m), (MAXIMIZE, MINIMIZE))
    for tensor, mirror in zip(normal.payoffs, normal.float_payoffs):
        assert_exact_form(tensor)
        assert_mirror(mirror, old)

    # M^T M and M M^T are symmetric, so they make a problem with M as its M
    qx, qy = m.T.dot(m), m.dot(m.T)
    problem = QuadraticMinMaxProblem(qx=qx, qy=qy, m=m)
    for stored, mirror, exact in ((problem.qx, problem.qx_float, qx),
                                  (problem.qy, problem.qy_float, qy),
                                  (problem.m, problem.m_float, m)):
        assert_exact_form(stored)
        assert_mirror(mirror, prior.fmat(exact.tolist()))


# ---------------------------------------------------------------------------
# an array already in the one exact form passes through uncoerced


@pytest.fixture
def coerced(monkeypatch):
    """The cells `exact_array` hands to `to_fraction`, recorded by a spy."""
    calls = []

    def spy(x):
        calls.append(x)
        return to_fraction(x)

    monkeypatch.setattr(rational, "_fraction_cells", np.frompyfunc(spy, 1, 1))
    return calls


def read_only(a):
    a.flags.writeable = False
    return a


class Half(Fraction):
    pass


EXACT = fmat([[Fraction(1, 2), Fraction(-3, 7)], [Fraction(0), Fraction(5)]])


def test_an_exact_array_passes_exact_array_and_fmat_with_no_coercion(coerced):
    sym, small = fmat(EXACT + EXACT.T), fmat(EXACT / 5)
    coerced.clear()
    assert exact_array(EXACT) is EXACT
    assert fmat(EXACT) is EXACT
    problem = QuadraticMinMaxProblem(qx=sym, qy=sym, m=EXACT)
    assert problem.qx is sym and problem.qy is sym and problem.m is EXACT
    decompose_symmetric_skew(EXACT)  # scaled_to_exact builds its Fractions itself
    gadgets.quadratic_gadget(small)
    assert coerced == []


def writable_base_view():
    base = np.array(EXACT.tolist(), dtype=object)
    return base, read_only(base[:, :])


NOT_EXACT = {
    "writable": lambda: np.array(EXACT.tolist(), dtype=object),
    "an int": lambda: read_only(np.array([[Fraction(1, 2), 3], [Fraction(0), Fraction(5)]], dtype=object)),
    "a float": lambda: read_only(np.array([[Fraction(1, 2), 0.25], [Fraction(0), Fraction(5)]], dtype=object)),
    "a bool": lambda: read_only(np.array([[Fraction(1, 2), True], [Fraction(0), Fraction(5)]], dtype=object)),
    "a Fraction subclass": lambda: read_only(
        np.array([[Half(1, 2), Fraction(-3, 7)], [Fraction(0), Fraction(5)]], dtype=object)
    ),
    "Fortran-ordered": lambda: read_only(np.asfortranarray(np.array(EXACT.tolist(), dtype=object))),
    "a view of a writable base": lambda: writable_base_view()[1],
}


@pytest.mark.parametrize("case", NOT_EXACT)
@pytest.mark.parametrize("coerce", [exact_array, fmat])
def test_anything_else_is_coerced_into_a_fresh_array(coerced, case, coerce):
    a = NOT_EXACT[case]()
    out = coerce(a)
    assert out is not a and len(coerced) == a.size
    assert out.tolist() == a.tolist()
    assert out.dtype == object and out.flags.c_contiguous and out.flags.owndata
    assert not out.flags.writeable
    assert_exact_form(out)


def test_writing_through_a_views_base_leaves_the_stored_matrix_alone():
    base, view = writable_base_view()
    stored = fmat(view)
    game = PolymatrixGame((2, 2), {(0, 1): view}, (MAXIMIZE, MINIMIZE))
    mirror = game.pair_floats[0, 1].copy()
    base[0, 0] = Fraction(99)
    assert view[0, 0] == 99
    assert stored.tolist() == game.pair_matrices[0, 1].tolist() == EXACT.tolist()
    assert game.pair_floats[0, 1].tobytes() == mirror.tobytes()


def test_only_the_quadratic_gadget_builds_a_problem_unchecked():
    callers = set()
    for path in sorted(Path(rational.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "_of_scaled":
                    callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == {"gadgets._quadratic_problem"}
