"""Exact rational matrices, and the integer core that decides on them.

Payoff data has one exact form: a read-only, C-ordered numpy object array of
Fraction, built by `exact_array` (any rank) or `fmat` (a matrix).  Exact
decisions scale it to integers over a common denominator, carried in the
dtype `carrier` picks, and build their Fractions through `FractionTable`.
`mat_vec` and `vec_dot` are the plain Fraction products, kept as the
reference the integer core is checked against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter, index
from typing import Iterable, Sequence

import numpy as np

FVec = tuple[Fraction, ...]

_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


def to_fraction(value) -> Fraction:
    """Coerce ints, strings like '3/4', floats, and Fractions to Fraction;
    a Fraction subclass becomes a plain Fraction."""
    if type(value) is Fraction:
        return value
    if isinstance(value, Fraction):
        return Fraction(value)
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, (float, np.floating)):
        # exact binary value of the float, not a decimal approximation
        return Fraction(float(value))
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def fvec(values: Iterable) -> FVec:
    return tuple(to_fraction(v) for v in values)


_fraction_cells = np.frompyfunc(to_fraction, 1, 1)


def exact_array(cells) -> np.ndarray:
    """Exact cells of any nesting, or an array, in the one exact form: a
    read-only, C-ordered object array of Fraction, fresh unless `cells` is
    one already.  The float mirrors (`astype(float)`) keep the C order,
    which is what BLAS reads."""
    if (type(cells) is np.ndarray and cells.dtype == object and cells.flags.c_contiguous
            and not cells.flags.writeable and cells.flags.owndata  # no base to write through
            and set(map(type, cells.flat)) <= {Fraction}):
        return cells
    # one ufunc pass over the cells; on a 0-d array it returns a bare Fraction
    out = np.asarray(_fraction_cells(np.array(cells, dtype=object, order="C")), dtype=object)
    out.flags.writeable = False
    return out


def matrix_cells(rows) -> np.ndarray:
    """The cells of a matrix as an object array, not yet coerced: no rows is
    0 x 0, and any rank but 2 is a ValueError."""
    a = np.asarray(rows, dtype=object)
    if a.shape == (0,):
        a = a.reshape(0, 0)
    elif a.ndim == 1 and isinstance(a[0], (list, tuple, np.ndarray)):
        raise ValueError("ragged matrix")
    if a.ndim != 2:
        raise ValueError(f"a matrix has 2 dimensions, got {a.ndim}")
    return a


def fmat(rows) -> np.ndarray:
    """exact_array of a matrix (`matrix_cells`)."""
    return exact_array(matrix_cells(rows))


def transpose(m) -> np.ndarray:
    """The transpose of the matrix m, in the one exact form."""
    return fmat(np.transpose(m))


def mat_vec(m, v: Sequence[Fraction]) -> FVec:
    rows = np.asarray(m, dtype=object).tolist()
    if rows and len(rows[0]) != len(v):
        raise ValueError("matrix-vector shape mismatch")
    return tuple(sum(a * b for a, b in zip(row, v)) for row in rows)


def vec_dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def carrier(bound: int, blas: bool = False):
    """The dtype for a kernel's integers, each below `bound` in magnitude: int64
    below 2^63, or float64 below 2^53 for a kernel on BLAS, which then rounds
    none of them; else Python ints (docs/decisions.md, "Which carrier")."""
    if blas:
        return np.float64 if bound < 2**53 else object
    return np.int64 if bound < 2**63 else object


class FractionTable(dict):
    """Fraction(p, q) for each integer key p over one denominator q, built on
    first use, so a Fraction that recurs is one object."""

    def __init__(self, q: int):
        super().__init__()
        self.q = q

    def __missing__(self, p):
        value = self[p] = Fraction(p, self.q)
        return value


def scale_to_integers(cells) -> tuple[np.ndarray, int]:
    """Exact cells (any nesting) times the lcm D of their denominators, as Python ints, and D."""
    a = np.asarray(cells, dtype=object)
    flat = a.ravel().tolist()
    dens = list(map(_denominator, flat))
    d = math.lcm(*dens)
    nums = list(map(_numerator, flat))
    scaled = nums if d == 1 else [p * (d // q) for p, q in zip(nums, dens)]
    return np.array(scaled, dtype=object).reshape(a.shape), d


def scaled_to_float(cells: np.ndarray, d: int) -> np.ndarray:
    """The read-only float mirror of the exact matrix cells / d, from
    scale_to_integers' output.

    Python's int true division rounds correctly, as float(Fraction) does, so
    the bits are `astype(float)`'s; with the cells at hand, as
    QuadraticMinMaxProblem holds them for its symmetry check, it is about
    ten times faster.
    """
    mirror = (cells / d).astype(float)
    mirror.flags.writeable = False
    return mirror


def scaled_to_exact(cells: np.ndarray, d: int) -> np.ndarray:
    """The exact array of the integer cells / d, each distinct Fraction built once."""
    out = np.empty(np.shape(cells), dtype=object)  # fresh and C-ordered
    np.frompyfunc(FractionTable(d).__getitem__, 1, 1)(cells, out=out)
    out.flags.writeable = False
    return out


def solve_linear(a: Sequence[Sequence[int]], b: Sequence[int]):
    """Solve the integer system A x = b by fraction-free (Bareiss) elimination.

    Returns None when A is singular, else integer numerators `num` over the
    positive denominator `det` = |det A|, with A num = b det.  A batch of one
    of `solve_stacked`; see docs/decisions.md, "Exact integer core".
    """
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ValueError("solve_linear expects a square system")
    # index() refuses a Fraction or a float
    rows = [[index(x) for x in row] + [index(rhs)] for row, rhs in zip(a, b)]
    num, det = solve_stacked(np.array(rows, dtype=object).reshape(1, n, n + 1))
    if not det[0]:
        return None
    return tuple(num[0].tolist()), int(det[0])


def solve_stacked(systems: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bareiss elimination of a stack of augmented integer systems [A | b].

    `systems` is a (batch, n, n + 1) integer array (int64 or Python ints).
    Each system is eliminated as `solve_linear` would: the pivot of column k
    is its first nonzero entry from row k down, and a column without one
    makes the system singular.  Returns (num, det), of shapes (batch, n) and
    (batch,): for a nonsingular system det = |det A| > 0 and A num = b det;
    a singular one has det = 0 and num = 0.

    The stack runs every step on the `carrier` of (n + 1) H^2: int64 or
    Python ints.  H^2 is the product of the rows' squared norms,
    each taken with every position's largest magnitude in the stack and at
    least 1, so by Hadamard's inequality H bounds every minor of [A | b];
    see docs/decisions.md, "One carrier per stack".  The test runs on exact
    integers, with no square root.
    """
    h2 = 1
    if systems.size:
        hi, lo = systems.max(axis=0).tolist(), systems.min(axis=0).tolist()
        h2 = math.prod(max(1, sum(max(x, -y) ** 2 for x, y in zip(h, m))) for h, m in zip(hi, lo))
    a = systems.astype(carrier((systems.shape[1] + 1) * h2))
    batch, n = a.shape[:2]
    live = np.arange(batch)  # the systems still being eliminated
    prev = np.ones(batch, a.dtype)
    for k in range(n):
        nonzero = a[:, k:, k] != 0
        found = nonzero.any(axis=1)
        if not found.all():
            a, prev, live, nonzero = a[found], prev[found], live[found], nonzero[found]
        pivot = k + nonzero.argmax(axis=1)
        idx = (pivot != k).nonzero()[0]  # the systems that swap rows k and pivot
        top = a[idx, pivot[idx]]
        a[idx, pivot[idx]] = a[idx, k]
        a[idx, k] = top
        p = a[:, k, k]
        below = a[:, k + 1:, k + 1:]
        below *= p[:, None, None]
        below -= a[:, k + 1:, k, None] * a[:, k, None, k + 1:]
        below //= prev[:, None, None]
        prev = p
    num = np.zeros((len(a), n), a.dtype)  # det x, back-substituted; prev is det A up to sign
    for i in range(n - 1, -1, -1):
        rest = (a[:, i, i + 1:n] * num[:, i + 1:]).sum(axis=1)
        num[:, i] = (prev * a[:, i, n] - rest) // a[:, i, i]
    sign = np.where(prev > 0, 1, -1)
    out_num = np.zeros((batch, n), a.dtype)
    out_det = np.zeros(batch, a.dtype)
    out_num[live] = num * sign[:, None]
    out_det[live] = prev * sign
    return out_num, out_det
