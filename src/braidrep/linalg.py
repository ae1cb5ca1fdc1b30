"""Small exact linear-algebra helpers shared across the package.

Matrices are lists of rows: {col: entry} dicts of the nonzero entries, or
dense lists at the edges.  Entries are anything with ring arithmetic
(LaurentPoly, its LKB sibling, RatFunc, Fraction); the helpers never
introduce floating point.

Mod-p work (``modp_matvec``, ``modp_rank``) holds a vector of residues as one
Python int of W-bit slots, entry k in bits [k W, (k + 1) W), with W wide
enough that no sum it forms carries into the next slot.  Only this module
knows that format; its callers pass and get lists and {col: x} rows.
"""

from __future__ import annotations

from operator import mul

from .ring import LaurentPoly, RatFunc, mul_add


class SingularMatrixError(ArithmeticError):
    """A matrix that had to be invertible was not."""


def mat_identity(d, one):
    zero = one - one
    return [[one if r == c else zero for c in range(d)] for r in range(d)]


def sparse_rows(mat):
    """Rows as {col: entry} dicts of the nonzero entries; dict rows pass through."""
    return [row if isinstance(row, dict) else {c: x for c, x in enumerate(row) if x}
            for row in mat]


def row_product(row, rows):
    """sum_k row[k] * rows[k] over the keys of ``row``, as {key: entry} of nonzeros.

    One row of Gustavson's product (ACM TOMS 4, 1978): each x * y is added
    where it lands, in place by ``ring.mul_add`` while each x and y is of the
    row's first LaurentPoly class; at the first that is not, the row restarts
    as plain products in order.  An entry that cancels is dropped, so no zero
    is stored.  ``rows[k]`` is a {key: entry} dict.
    """
    cls = type(next(iter(row.values()), None))
    if not issubclass(cls, LaurentPoly):
        return _plain_row_product(row, rows)
    out = {}
    get = out.get
    for k, x in row.items():
        if type(x) is not cls:
            return _plain_row_product(row, rows)
        for c, y in rows[k].items():
            if type(y) is not cls:
                return _plain_row_product(row, rows)
            out[c] = mul_add(get(c), x, y)
    return {c: v for c, v in out.items() if v.terms}


def _plain_row_product(row, rows):
    """``row_product`` by plain products and sums, in order."""
    out = {}
    for k, x in row.items():
        for c, y in rows[k].items():
            out[c] = out[c] + x * y if c in out else x * y
    return {c: v for c, v in out.items() if v}


def mat_mul(a, b):
    """Matrix product over the nonzero entries, one ``row_product`` per row.

    Rows are {col: entry} dicts of nonzeros, and so are the product's.
    Dense rows are an adapter at the edge: shapes are checked, and the dense
    product holds a zero of ``a``'s entry class where the sparse one has none.
    """
    dense = bool(a) and not isinstance(a[0], dict)
    if dense:
        inner, cols = len(b), len(b[0])
        if any(len(row) != inner for row in a) or any(len(row) != cols for row in b):
            raise ValueError("cannot multiply matrices of incompatible shapes")
        zero = a[0][0] - a[0][0]
        a, b = sparse_rows(a), sparse_rows(b)
    out = [row_product(row, b) for row in a]
    return [[row.get(c, zero) for c in range(cols)] for row in out] if dense else out


def mat_diff_witness(a, b):
    """First (row, col, difference) where two matrices disagree, else None.

    Rows are {col: entry} dicts or dense sequences; a missing entry equals
    an explicit zero.  Dense matrices of different shapes raise ValueError.
    Whole rows are compared first, in C; only a row that differs is scanned.
    """
    if len(a) != len(b) or any(len(ra) != len(rb) for ra, rb in zip(a, b)
                               if not isinstance(ra, dict)):
        raise ValueError("cannot compare matrices of different shapes")
    for r, (ra, rb) in enumerate(zip(a, b)):
        if ra == rb:
            continue
        if not isinstance(ra, dict):
            ra, rb = dict(enumerate(ra)), dict(enumerate(rb))
        for c in sorted(ra.keys() | rb.keys()):
            x, y = ra.get(c), rb.get(c)
            x = y - y if x is None else x
            y = x - x if y is None else y
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
    """Rank over Q of integer rows, {col: x} dicts of nonzeros.

    Fraction-free Bareiss elimination (``_bareiss_pivots``): no rational
    number is formed.
    """
    return len(_bareiss_pivots(rows, ncols))


def _bareiss_pivots(rows, ncols):
    """Pivots of fraction-free (Bareiss) elimination on integer {col: x} rows.

    Each update touches only nonzeros, and no input row is changed.  Step
    k + 1 replaces each entry x of a row by
    (pivot * x - f * y) // previous_pivot, where f is the row's entry in the
    pivot column and y the pivot row's entry in x's column.  By Sylvester's
    identity (Bareiss, Math. Comp. 22, 1968) every entry after k steps is a
    (k+1) x (k+1) minor of the input, on the k pivot rows and columns and
    its own row and column, so the division is exact and entries grow only
    as fast as minors do.  That holds whichever rows are chosen as pivots
    and whichever columns are skipped, so the pivot is the candidate row
    with the fewest nonzeros, which adds the least fill-in (Markowitz).

    A row whose f is 0 would only be scaled by pivot / previous_pivot, so
    it is left as it is and remembers the step j it was last updated at:
    after step k its entries are the stored ones times p_k / p_j (p_i the
    i-th pivot, p_0 = 1).  When it is next updated, the same formula with
    p_j as the previous pivot gives its entries after step k + 1, again
    exactly; a pivot row is first brought up to step k.  Rows that no step
    touches keep their small entries.

    The k-th pivot is a k x k minor; for a square nonsingular matrix the
    last is +- its determinant.  The number of pivots is the rank.
    """
    rows = [(0, r) for r in rows if r]     # (step last updated, row)
    pivots = [1]
    for col in range(ncols):
        candidates = [i for i, (_, r) in enumerate(rows) if col in r]
        if not candidates:
            continue
        step, prow = rows.pop(min(candidates, key=lambda i: len(rows[i][1])))
        k = len(pivots) - 1
        y = {c: x * pivots[k] // pivots[step] for c, x in prow.items()}
        pval = y.pop(col)
        reduced = []
        for step, r in rows:
            f = r.get(col)
            if f:
                new = {c: pval * x for c, x in r.items() if c != col}
                for c, b in y.items():
                    new[c] = new.get(c, 0) - f * b
                r = {c: x // pivots[step] for c, x in new.items() if x}
                if not r:
                    continue
                step = k + 1
            reduced.append((step, r))
        rows = reduced
        pivots.append(pval)
        if not rows:
            break
    return pivots[1:]


def modp_rank(rows, ncols, p):
    """Rank over F_p of the first ncols entries of integer rows.

    A lower bound for the rational rank.  Each row is reduced mod p and
    packed into one int of W-bit slots (``_pack``), entry c in slot c, with
    W the bit length of (len(rows) + 1) p^2.  Gaussian elimination then
    drops each pivot column, and the zero columns before it, once eliminated:
    every remaining row is shifted down to its tail past the pivot, and gets
    f times the pivot row's tail added in one int operation, with f chosen
    so that the pivot column becomes 0 mod p.  Only a row that becomes the
    pivot has its slots reduced mod p; every other slot is a residue plus at
    most one (p - 1)^2 per pivot, so it stays below (len(rows) + 1) p^2 and
    no carry crosses a slot.  A row that reduces to the zero int is dropped.
    """
    w = ((len(rows) + 1) * p * p).bit_length()
    mask = (1 << w) - 1
    rows = [r for r in (_pack([x % p for x in row[:ncols]], w) for row in rows) if r]
    rank = 0
    while rows:
        i = next((k for k, r in enumerate(rows) if (r & mask) % p), None)
        if i is None:
            rows = [r for r in (r >> w for r in rows) if r]
            continue
        head, *tail = _residues(rows.pop(i), w, p)
        neg_inv = -pow(head, -1, p) % p
        tail = _pack(tail, w)
        reduced = []
        for r in rows:
            f = (r & mask) * neg_inv % p
            r >>= w
            if f:
                r += f * tail
            if r:
                reduced.append(r)
        rows = reduced
        rank += 1
    return rank


def modp_matvec(rows, p):
    """The map v -> a v mod p of a square integer matrix a, packed once.

    ``rows`` are the rows of a as {col: x} dicts.  Column c of a, reduced
    mod p, is packed into one int with a[r][c] in slot r (``_pack``), W the
    bit length of d (p - 1)^2.  For v a list of residues mod p,
    sum_c v[c] * column c holds (a v)[r] in slot r; each is at most
    d (p - 1)^2 < 2^W, so no carry crosses a slot, and one unpack
    (``_residues``) reads the d slots back mod p.  A mat-vec is d big-int
    multiply-adds in C.
    """
    d = len(rows)
    w = (d * (p - 1) ** 2).bit_length()
    cols = [0] * d
    for r, row in enumerate(rows):
        for c, x in row.items():
            cols[c] |= x % p << r * w
    return lambda v: _residues(sum(map(mul, v, cols)), w, p, d)


def _pack(values, w):
    """Nonnegative ints below 2^w as one int, value k in bits [k w, (k + 1) w)."""
    return sum(x << s for x, s in zip(values, range(0, len(values) * w, w)))


def _residues(x, w, p, count=None):
    """The first ``count`` w-bit slots of x mod p, low slot first (by default up to its top slot)."""
    if count is None:
        count = -(-x.bit_length() // w)
    mask = (1 << w) - 1
    return [(x >> s & mask) % p for s in range(0, count * w, w)]
