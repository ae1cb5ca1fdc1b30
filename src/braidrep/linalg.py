"""Small exact linear-algebra helpers shared across the package.

Matrices are plain lists of lists.  Entries are anything with ring
arithmetic (LaurentPoly, its LKB sibling, RatFunc, Fraction); the helpers
never introduce floating point.
"""

from __future__ import annotations

from fractions import Fraction

from .ring import RatFunc


class SingularMatrixError(ArithmeticError):
    """A matrix that had to be invertible was not."""


def mat_identity(d, one):
    zero = one - one
    return [[one if r == c else zero for c in range(d)] for r in range(d)]


def mat_mul(a, b):
    """Matrix product that skips zero entries (Gustavson's row-by-row product).

    The exact checks multiply mostly-zero matrices (a braid generator on
    V_{n,l} has at most l+1 nonzeros per column), so a dense triple loop
    would spend most multiplies on a zero operand.
    Missing entries are a zero of ``a``'s entry class, so LaurentPoly,
    LKBPoly, Fraction and RatFunc matrices keep their entry class.
    """
    inner, cols = len(b), len(b[0])
    if any(len(row) != inner for row in a) or any(len(row) != cols for row in b):
        raise ValueError("cannot multiply matrices of incompatible shapes")
    zero = a[0][0] - a[0][0]
    b_rows = [[(c, y) for c, y in enumerate(row) if y] for row in b]
    out = []
    for arow in a:
        acc = {}
        for x, b_row in zip(arow, b_rows):
            if x:
                for c, y in b_row:
                    acc[c] = acc[c] + x * y if c in acc else x * y
        out.append([acc.get(c, zero) for c in range(cols)])
    return out


def mat_diff_witness(a, b):
    """First (row, col, difference) where two matrices disagree, else None.

    Matrices of different shapes raise ValueError instead of comparing.
    """
    if len(a) != len(b) or any(len(ra) != len(rb) for ra, rb in zip(a, b)):
        raise ValueError("cannot compare matrices of different shapes")
    for r, (ra, rb) in enumerate(zip(a, b)):
        for c, (x, y) in enumerate(zip(ra, rb)):
            if x != y:
                return (r, c, x - y)
    return None


def poly_matrix_inverse(mat):
    """Exact inverse of a square matrix over a Laurent polynomial ring.

    The tests' reference for the closed-form inverses in ``braid`` and
    ``lkb``; nothing in the package calls it.
    Gauss-Jordan over the fraction field, then each entry is cleared back
    into the ring; a non-integral entry raises InexactDivisionError, a rank
    defect raises SingularMatrixError.  The product with the input is
    verified to be the identity before returning.
    """
    d = len(mat)
    ring = type(mat[0][0])
    work = [[RatFunc(mat[r][c]) for c in range(d)] for r in range(d)]
    inv = [[RatFunc(ring.one() if r == c else ring.zero()) for c in range(d)]
           for r in range(d)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if not work[r][col].is_zero()), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular at column %d" % col)
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        pe = work[col][col]
        work[col] = [x / pe for x in work[col]]
        inv[col] = [x / pe for x in inv[col]]
        for r in range(d):
            if r == col or work[r][col].is_zero():
                continue
            f = work[r][col]
            work[r] = [x - f * y for x, y in zip(work[r], work[col])]
            inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    out = [[entry.to_poly() for entry in row] for row in inv]
    if mat_diff_witness(mat_mul(mat, out), mat_identity(d, ring.one())) is not None:
        raise SingularMatrixError("inverse verification failed")
    return out


def fraction_rank(rows, ncols):
    """Rank over Q of a list of Fraction rows (destructive on a copy)."""
    rows = [list(map(Fraction, r)) for r in rows if any(r)]
    rank = 0
    col = 0
    while rows and col < ncols:
        pivot = next((i for i, r in enumerate(rows) if r[col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[0], rows[pivot] = rows[pivot], rows[0]
        prow = rows[0]
        pval = prow[col]
        reduced = []
        for r in rows[1:]:
            if r[col] != 0:
                f = r[col] / pval
                r = [x - f * y for x, y in zip(r, prow)]
            if any(r):
                reduced.append(r)
        rows = reduced
        rank += 1
        col += 1
    return rank


def modp_rank(rows, ncols, p):
    """Rank over F_p of integer rows (lower bound for the rational rank)."""
    rows = [[x % p for x in r] for r in rows]
    rows = [r for r in rows if any(r)]
    rank = 0
    col = 0
    while rows and col < ncols:
        pivot = next((i for i, r in enumerate(rows) if r[col]), None)
        if pivot is None:
            col += 1
            continue
        rows[0], rows[pivot] = rows[pivot], rows[0]
        prow = rows[0]
        inv = pow(prow[col], p - 2, p)
        reduced = []
        for r in rows[1:]:
            if r[col]:
                f = (r[col] * inv) % p
                r = [(x - f * y) % p for x, y in zip(r, prow)]
            if any(r):
                reduced.append(r)
        rows = reduced
        rank += 1
        col += 1
    return rank
