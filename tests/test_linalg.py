"""The sparse matrix product against a dense triple-loop oracle."""

import random
from fractions import Fraction

import pytest

from braidrep.linalg import mat_mul
from braidrep.lkb import LKBPoly
from braidrep.ring import LaurentPoly, RatFunc

from conftest import random_poly

Q = LaurentPoly.monomial(1, 0)
S = LaurentPoly.monomial(0, 1)


def dense_product(a, b):
    """The schoolbook triple loop, zeros included."""
    out = []
    for arow in a:
        row = []
        for c in range(len(b[0])):
            acc = arow[0] * b[0][c]
            for k in range(1, len(b)):
                acc = acc + arow[k] * b[k][c]
            row.append(acc)
        out.append(row)
    return out


def _laurent(rnd):
    return random_poly(rnd, max_terms=3, max_exp=2)


def _lkb(rnd):
    return LKBPoly(random_poly(rnd, max_terms=3, max_exp=2).terms)


def _fraction(rnd):
    return Fraction(rnd.randint(-9, 9), rnd.randint(1, 5))


ENTRY_KINDS = {
    "laurent": (_laurent, LaurentPoly.zero()),
    "lkb": (_lkb, LKBPoly.zero()),
    "fraction": (_fraction, Fraction(0)),
}


def sparse_matrix(rnd, rows, cols, make, zero):
    """A random matrix in which at least half of the entries are zero."""
    while True:
        mat = [[make(rnd) if rnd.random() < 0.4 else zero for _ in range(cols)]
               for _ in range(rows)]
        zeros = sum(not x for row in mat for x in row)
        if 2 * zeros >= rows * cols:
            return mat


@pytest.mark.parametrize("kind", sorted(ENTRY_KINDS))
def test_matches_dense_oracle(kind):
    make, zero = ENTRY_KINDS[kind]
    rnd = random.Random(6)
    for _ in range(25):
        rows, inner, cols = (rnd.randint(1, 6) for _ in range(3))
        a = sparse_matrix(rnd, rows, inner, make, zero)
        b = sparse_matrix(rnd, inner, cols, make, zero)
        got = mat_mul(a, b)
        assert got == dense_product(a, b)
        assert all(type(x) is type(zero) for row in got for x in row)
        assert [[str(x) for x in row] for row in got] == \
            [[str(x) for x in row] for row in dense_product(a, b)]


def test_zero_row_of_a_and_zero_column_of_b():
    z, one = LaurentPoly.zero(), LaurentPoly.one()
    a = [[z, z, z], [Q, one, S]]
    b = [[one, z], [S, z], [Q, z]]
    got = mat_mul(a, b)
    assert got == dense_product(a, b)
    assert got[0] == [z, z]
    assert got[1][1] == z
    assert got[1][0] == Q + S + Q * S


def test_cancelling_products_give_a_typed_zero():
    one = LKBPoly.one()
    t = LKBPoly.monomial(1, 0)
    a = [[t, one]]
    b = [[one], [-t]]
    (entry,), = mat_mul(a, b)
    assert entry.is_zero()
    assert type(entry) is LKBPoly
    assert str(entry) == "0"


@pytest.mark.parametrize("zero, one", [
    (LaurentPoly.zero(), LaurentPoly.one()),
    (LKBPoly.zero(), LKBPoly.one()),
    (Fraction(0), Fraction(1)),
    (RatFunc(LaurentPoly.zero()), RatFunc(LaurentPoly.one())),
])
def test_missing_entries_keep_the_entry_class(zero, one):
    got = mat_mul([[one, zero], [zero, zero]], [[zero, one], [one, zero]])
    assert got == [[zero, one], [zero, zero]]
    assert all(type(x) is type(one) for row in got for x in row)


@pytest.mark.parametrize("a, b", [
    ([[Q, S]], [[Q, S]]),              # inner sizes 2 and 1
    ([[Q], [S, Q]], [[Q]]),            # ragged left factor
    ([[Q, S]], [[Q, S], [Q]]),         # ragged right factor
])
def test_shape_mismatch_raises(a, b):
    with pytest.raises(ValueError):
        mat_mul(a, b)
