"""The nested-tuple exact matrix helpers the package used before its one exact form.

Payoff data was once tuples of tuples of Fraction.  The prior
implementations that the replay tests keep as references ran on that form,
so they import these helpers, verbatim from the package as it was (the
`FMat` alias aside), instead of the package's array form.
"""

import numpy as np

from minmaxlab.rational import to_fraction


def fvec(values):
    return tuple(to_fraction(v) for v in values)


def fmat(rows):
    out = tuple(fvec(row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged matrix")
    return out


def shape(m):
    return (len(m), len(m[0]) if m else 0)


def transpose(m):
    return tuple(zip(*m)) if m else ()


def to_float_matrix(m):
    return np.array([[float(x) for x in row] for row in m], dtype=float)

