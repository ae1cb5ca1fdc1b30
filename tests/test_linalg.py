"""The sparse matrix product, the Bareiss rank and the mod-p rank against reference oracles."""

import random
from fractions import Fraction
from math import lcm

import pytest

from braidrep import linalg
from braidrep.linalg import (_bareiss_pivots, fraction_rank, mat_diff_witness,
                              mat_mul, modp_matvec, modp_rank, row_product,
                              sparse_rows)
from braidrep.lkb import LKBPoly
from braidrep.ring import LaurentPoly, RatFunc

from conftest import kernel_operand, random_poly

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
    return LKBPoly(random_poly(rnd, max_terms=3, max_exp=2).sorted_terms())


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


@pytest.mark.parametrize("x, y", [
    (LaurentPoly({(1, 0): 2, (0, 1): -1}), S + 3),
    (Fraction(3, 2), Fraction(-5, 7)),      # dot multiplies and adds in order
    (RatFunc(Q * 2 - S, S + 1), RatFunc(S + 3, Q + 2)),
], ids=["laurent", "fraction", "ratfunc"])
def test_row_product_drops_cancelled_sums(x, y):
    # key "cancel" meets x*y and -x*y; key "kept" meets x*y and y*y
    row = {"a": x, "b": -x, "c": y}
    rows = {"a": {"cancel": y, "kept": y}, "b": {"cancel": y}, "c": {"kept": y}}
    got = row_product(row, rows)
    assert list(got) == ["kept"]
    assert got["kept"] == x * y + y * y
    assert type(got["kept"]) is type(x)


def term_sum_of_products(row, rows):
    """sum_k row[k] * rows[k] on (e0, e1) -> coeff dicts, zero entries dropped (oracle)."""
    out = {}
    for k, x in row.items():
        for c, y in rows[k].items():
            entry = out.setdefault(c, {})
            for (a0, a1), ca in x.items():
                for (b0, b1), cb in y.items():
                    key = (a0 + b0, a1 + b1)
                    entry[key] = entry.get(key, 0) + ca * cb
    out = {c: {key: v for key, v in entry.items() if v} for c, entry in out.items()}
    return {c: sorted(entry.items()) for c, entry in out.items() if entry}


@pytest.mark.parametrize("ring", [LaurentPoly, LKBPoly])
def test_row_product_matches_the_term_oracle(ring):
    rnd = random.Random(27)
    cancelled = 0
    for _ in range(300):
        keys = rnd.sample(range(8), rnd.randint(0, 5))
        row, drow = {}, {}
        for k in keys:
            drow[k], row[k] = kernel_operand(rnd, ring)
        rows, drows = {}, {}
        for k in keys:
            # an empty row, or up to four targets out of six
            picks = rnd.sample(range(6), rnd.randint(0, 4))
            drows[k], rows[k] = {}, {}
            for c in picks:
                drows[k][c], rows[k][c] = kernel_operand(rnd, ring)
        if keys and rnd.random() < 0.3:
            # key 8 repeats key k with the sign flipped: its targets cancel
            k = rnd.choice(keys)
            drow[8], row[8] = {e: -v for e, v in drow[k].items()}, -row[k]
            drows[8], rows[8] = drows[k], rows[k]
        want = term_sum_of_products(drow, drows)
        got = row_product(row, rows)
        cancelled += any(c not in want for k in row for c in rows[k])
        assert set(got) == set(want)
        for c, entry in got.items():
            assert type(entry) is ring
            assert entry.sorted_terms() == want[c]
            assert all(entry.terms.values()), "a cancelled term was stored as 0"
    assert cancelled > 20


def _ratfunc(rnd):
    return RatFunc(random_poly(rnd, max_terms=2) + 1, S + rnd.randint(1, 3))


@pytest.mark.parametrize("make", [
    lambda rnd: Fraction(rnd.randint(-5, 5), rnd.randint(1, 4)),
    lambda rnd: rnd.randint(-5, 5),
    _ratfunc,
    lambda rnd: rnd.choice((random_poly, _ratfunc))(rnd),
], ids=["fraction", "int", "ratfunc", "mixed"])
def test_row_product_plain_path(make, monkeypatch):
    def no_kernel(acc, x, y):
        raise AssertionError("mul_add met a %s entry" % type(x).__name__)

    def nonzero(rnd):
        while not (x := make(rnd)):
            pass
        return x

    monkeypatch.setattr(linalg, "mul_add", no_kernel)
    rnd = random.Random(5)
    for _ in range(150):
        keys = range(rnd.randint(1, 4))
        row = {k: nonzero(rnd) for k in keys}
        rows = [{c: nonzero(rnd) for c in rnd.sample(range(4), rnd.randint(0, 3))}
                for _ in keys]
        # a mixed row product keeps at least one fraction-field entry
        row[0] = row[0] if not isinstance(row[0], LaurentPoly) else _ratfunc(rnd)
        want = {}
        for k, x in row.items():
            for c, y in rows[k].items():
                want[c] = want[c] + x * y if c in want else x * y
        got = row_product(row, rows)
        assert got == {c: v for c, v in want.items() if v}
        assert all(type(got[c]) is type(want[c]) for c in got)
        assert [str(v) for v in got.values()] == [str(want[c]) for c in got]


def in_order_product(row, rows):
    """sum_k row[k] * rows[k] by plain products and sums, in order (oracle)."""
    out = {}
    for k, x in row.items():
        for c, y in rows[k].items():
            out[c] = out[c] + x * y if c in out else x * y
    return {c: v for c, v in out.items() if v}


def _outcome(product, row, rows):
    """The product's {key: (class, str)}, or the class of what it raised."""
    try:
        return {c: (type(v), str(v)) for c, v in product(row, rows).items()}
    except TypeError as exc:
        return type(exc)


@pytest.mark.parametrize("odd", [
    RatFunc(S + 1, Q + 2), Fraction(3, 4), LKBPoly.monomial(1, -1)],
    ids=["ratfunc", "fraction", "lkb"])
@pytest.mark.parametrize("side", ["x", "y"])
def test_row_product_restarts_at_a_later_mismatch(odd, side, monkeypatch):
    calls, kernel = [], linalg.mul_add

    def one_class_kernel(acc, x, y):
        assert type(x) is type(y) is LaurentPoly, "mul_add met a mixed product"
        assert acc is None or type(acc) is LaurentPoly
        calls.append(acc)
        return kernel(acc, x, y)

    monkeypatch.setattr(linalg, "mul_add", one_class_kernel)
    rnd = random.Random(41)
    restarted = 0
    for _ in range(60):
        row = {k: kernel_operand(rnd, LaurentPoly)[1] + k + 1 for k in range(3)}
        rows = [{c: kernel_operand(rnd, LaurentPoly)[1] + c - 1 for c in range(3)}
                for _ in range(3)]
        # the first mismatch is met in the last selected row, after the kernel ran
        if side == "x":
            row[2] = odd
        else:
            rows[2][rnd.randrange(3)] = odd
        entries = [p for p in list(row.values()) + [y for r in rows for y in r.values()]
                   if isinstance(p, LaurentPoly)]
        before = [dict(p.terms) for p in entries]
        del calls[:]
        got = _outcome(row_product, row, rows)
        restarted += bool(calls)
        assert [p.terms for p in entries] == before
        assert got == _outcome(in_order_product, row, rows)
        assert [p.terms for p in entries] == before
    assert restarted > 50


def test_row_product_leaves_inputs_unchanged():
    rnd = random.Random(11)
    one = LaurentPoly.one()
    for _ in range(100):
        row = {k: rnd.choice((one, kernel_operand(rnd, LaurentPoly)[1])) for k in range(3)}
        rows = [{c: kernel_operand(rnd, LaurentPoly)[1] for c in range(3)} for _ in range(3)]
        entries = list(row.values()) + [y for r in rows for y in r.values()]
        before = [dict(p.terms) for p in entries]
        got = row_product(row, rows)
        assert [p.terms for p in entries] == before
        assert all(v.terms is not p.terms for v in got.values() for p in entries)


# -- mat_diff_witness: whole rows first, then the first differing entry -----------


def first_mismatch(a, b):
    """Entry-by-entry scan in row order (test oracle)."""
    for r, (ra, rb) in enumerate(zip(a, b)):
        for c, (x, y) in enumerate(zip(ra, rb)):
            if x != y:
                return (r, c, x - y)
    return None


def copy_entries(mat):
    """Equal entries that are distinct objects."""
    return [[LaurentPoly(dict(x.sorted_terms())) for x in row] for row in mat]


@pytest.mark.parametrize("seed", range(6))
def test_diff_witness_is_the_first_mismatch(seed):
    rnd = random.Random(seed)
    rows, cols = rnd.randint(2, 6), rnd.randint(1, 6)
    a = sparse_matrix(rnd, rows, cols, _laurent, LaurentPoly.zero())
    b = copy_entries(a)
    assert all(x is not y for ra, rb in zip(a, b) for x, y in zip(ra, rb))
    assert mat_diff_witness(a, b) is None
    # mismatches in several rows, the earliest one not in the first row
    for r in rnd.sample(range(1, rows), min(3, rows - 1)):
        c = rnd.randrange(cols)
        b[r][c] = b[r][c] + Q * S
    want = first_mismatch(a, b)
    assert want is not None and want[0] >= 1
    assert mat_diff_witness(a, b) == want
    assert mat_diff_witness(b, a) == first_mismatch(b, a)


def test_diff_witness_compares_rows_of_any_sequence_type():
    a = [(Q, S), (S, Q)]
    assert mat_diff_witness(a, [[Q, S], [S, Q]]) is None
    assert mat_diff_witness(a, [[Q, S], [S, S]]) == (1, 1, Q - S)


def test_diff_witness_shape_mismatch_raises():
    with pytest.raises(ValueError):
        mat_diff_witness([[Q, S]], [[Q]])
    with pytest.raises(ValueError):
        mat_diff_witness([[Q]], [[Q], [S]])


# -- dict rows, the form the check suites keep, against dense rows --------------


def _ratfunc(rnd):
    den = LaurentPoly.zero()
    while not den:
        den = random_poly(rnd, max_terms=2, max_exp=1)
    return RatFunc(random_poly(rnd, max_terms=2, max_exp=1), den)


SPARSE_KINDS = {
    "laurent": (_laurent, LaurentPoly.zero()),
    "fraction": (_fraction, Fraction(0)),
    "ratfunc": (_ratfunc, RatFunc(LaurentPoly.zero())),
}


@pytest.mark.parametrize("kind", sorted(SPARSE_KINDS))
def test_dict_rows_match_list_rows(kind):
    make, zero = SPARSE_KINDS[kind]
    rnd = random.Random(18)

    def nonzero():
        x = zero
        while not x:
            x = make(rnd)
        return x

    for _ in range(20):
        rows, inner, cols = rnd.randint(1, 6), rnd.randint(2, 6), rnd.randint(1, 6)
        a = sparse_matrix(rnd, rows, inner, make, zero)
        b = sparse_matrix(rnd, inner, cols, make, zero)
        # one more column of b on which row 0 of a cancels: x1 x2 - x2 x1
        x1, x2 = nonzero(), nonzero()
        a[0][0], a[0][1] = x1, x2
        for k, row in enumerate(b):
            row.append(x2 if k == 0 else -x1 if k == 1 else zero)
        dense = mat_mul(a, b)
        sparse = mat_mul(sparse_rows(a), sparse_rows(b))
        assert sparse == sparse_rows(dense_product(a, b))
        assert cols not in sparse[0] and not dense[0][cols]
        assert all(x and type(x) is type(zero) for row in sparse for x in row.values())
        assert [[row.get(c, zero) for c in range(cols + 1)] for row in sparse] == dense


def test_diff_witness_missing_entry_equals_explicit_zero():
    z = LaurentPoly.zero()
    assert mat_diff_witness([{0: Q, 1: z}, {}], [{0: Q}, {1: z}]) is None
    assert mat_diff_witness([{1: z}, {0: S, 2: z}], [{}, {2: Q}]) == (1, 0, S)
    assert mat_diff_witness([{}, {2: Q}], [{1: z}, {0: S, 2: z}]) == (1, 0, -S)


@pytest.mark.parametrize("seed", range(6))
def test_diff_witness_on_dict_rows_is_the_dense_witness(seed):
    rnd = random.Random(100 + seed)
    rows, cols = rnd.randint(2, 6), rnd.randint(2, 6)
    a = sparse_matrix(rnd, rows, cols, _laurent, LaurentPoly.zero())

    def with_explicit_zeros(mat):
        out = sparse_rows(mat)
        for r, row in enumerate(mat):
            for c, x in enumerate(row):
                if not x and rnd.random() < 0.5:
                    out[r][c] = LaurentPoly.zero()
        return out

    assert mat_diff_witness(with_explicit_zeros(a), sparse_rows(a)) is None
    b = copy_entries(a)
    # mismatches in several rows, some of them where a has no entry
    for r in rnd.sample(range(rows), min(3, rows)):
        c = rnd.randrange(cols)
        b[r][c] = b[r][c] + Q * S
    for lhs, rhs in ((a, b), (b, a)):
        want = first_mismatch(lhs, rhs)
        assert want is not None
        assert mat_diff_witness(with_explicit_zeros(lhs), sparse_rows(rhs)) == want
        assert mat_diff_witness(sparse_rows(lhs), with_explicit_zeros(rhs)) == want


# -- fraction_rank: Bareiss elimination against Gaussian elimination over Q ------


def gauss_rank(rows, ncols):
    """Rank over Q by Gaussian elimination over Fraction (the reference)."""
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


def gauss_det(mat):
    """Determinant over Q by Gaussian elimination over Fraction."""
    rows = [list(map(Fraction, r)) for r in mat]
    det = Fraction(1)
    for col in range(len(rows)):
        pivot = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            f = rows[r][col] / rows[col][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


def _int_entry(rnd):
    return rnd.randint(-9, 9)


def _fraction_entry(rnd):
    return Fraction(rnd.randint(-9, 9), rnd.randint(1, 6))


def integer_dict_rows(rows):
    """Each row times the lcm of its denominators, as a {col: x} dict of its nonzeros.

    Scaling a row leaves the rank unchanged; ``fraction_rank`` takes only
    integer dict rows.
    """
    out = []
    for row in rows:
        den = lcm(*(Fraction(x).denominator for x in row))
        out.append({c: int(x * den) for c, x in enumerate(row) if x})
    return out


def rows_of_rank_at_most(rnd, nrows, ncols, rank, entry):
    """A product of random nrows x rank and rank x ncols factors; half of the
    time a zero row and a repeated row are inserted at random places."""
    zero = entry(rnd) * 0
    left = [[entry(rnd) for _ in range(rank)] for _ in range(nrows)]
    right = [[entry(rnd) for _ in range(ncols)] for _ in range(rank)]
    rows = [[sum((a * right[k][c] for k, a in enumerate(lrow)), zero)
             for c in range(ncols)] for lrow in left]
    if rnd.random() < 0.5:
        rows.insert(rnd.randint(0, len(rows)), [zero] * ncols)
        rows.insert(rnd.randint(0, len(rows)), list(rnd.choice(rows)))
    return rows


@pytest.mark.parametrize("entry", [_int_entry, _fraction_entry], ids=["int", "fraction"])
@pytest.mark.parametrize("shape", [(9, 4), (4, 9), (7, 7)], ids=["tall", "wide", "square"])
def test_fraction_rank_matches_gaussian_elimination(entry, shape):
    rnd = random.Random("%s %s" % (shape, entry.__name__))
    nrows, ncols = shape
    ranks = set()
    for _ in range(40):
        rows = rows_of_rank_at_most(rnd, nrows, ncols, rnd.randint(0, min(shape)), entry)
        expected = gauss_rank(rows, ncols)
        # the same rows cleared to integer {col: x} dicts, which are not changed
        dict_rows = integer_dict_rows(rows)
        assert fraction_rank(dict_rows, ncols) == expected, rows
        assert dict_rows == integer_dict_rows(rows)
        ranks.add(expected)
    # the samples cover rank-deficient and full-rank matrices alike
    assert len(ranks) >= 3 and max(ranks) == min(shape)


def test_fraction_rank_of_empty_and_zero_rows():
    assert fraction_rank([], 3) == 0
    assert fraction_rank(integer_dict_rows([[0, 0, 0], [Fraction(0), 0, 0]]), 3) == 0
    assert fraction_rank(integer_dict_rows([[Fraction(1, 3), Fraction(-2, 7)], [7, -6]]),
                         2) == 1
    assert fraction_rank([{}, {}], 3) == 0
    # columns from ncols on are never pivots
    assert fraction_rank([{0: 1, 2: 5}, {2: 3}], 2) == 1


def test_last_bareiss_pivot_is_the_determinant():
    # Sylvester's identity: the k-th pivot is a k x k minor, exactly, so the
    # last pivot of a nonsingular matrix is its determinant up to sign
    rnd = random.Random(10)
    checked = 0
    for size in range(1, 8):
        for _ in range(8):
            mat = [[rnd.randint(-9, 9) for _ in range(size)] for _ in range(size)]
            det = gauss_det(mat)
            pivots = _bareiss_pivots(integer_dict_rows(mat), size)
            assert all(type(x) is int for x in pivots)
            if det:
                assert len(pivots) == size
                assert abs(pivots[-1]) == abs(det)
                checked += 1
    assert checked >= 40


# -- modp_rank: narrowing elimination against plain Gaussian elimination mod p ---


def gauss_rank_modp(rows, ncols, p):
    """Rank over F_p by Gaussian elimination on full-width rows (the reference)."""
    rows = [[x % p for x in r[:ncols]] for r in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv % p
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("p", [7, 101, (1 << 30) - 35, (1 << 61) - 1])
@pytest.mark.parametrize("shape", [(9, 4), (4, 9), (7, 7)], ids=["tall", "wide", "square"])
def test_modp_rank_matches_gaussian_elimination_mod_p(p, shape):
    rnd = random.Random("%s %s" % (shape, p))
    nrows, ncols = shape
    ranks, zero_lead = set(), 0
    for _ in range(60):
        rows = rows_of_rank_at_most(rnd, nrows, ncols, rnd.randint(0, min(shape)),
                                    _int_entry)
        if rnd.random() < 0.3:
            # a leading column that is zero mod p: the first pivot is further on
            rows = [[p * rnd.randint(-1, 1)] + r[1:] for r in rows]
            zero_lead += 1
        # negative entries and entries >= p, equal mod p to the rows above
        rows = [[x + p * rnd.randint(-2, 2) for x in r] for r in rows]
        expected = gauss_rank_modp(rows, ncols, p)
        assert modp_rank(rows, ncols, p) == expected, rows
        ranks.add(expected)
    assert zero_lead and len(ranks) >= 3 and max(ranks) == min(shape)


def test_modp_rank_small_cases():
    assert modp_rank([], 3, 7) == 0
    assert modp_rank([[0, 7, -14], [0, 0, 0]], 3, 7) == 0
    assert modp_rank([[1, 2, 3], [8, 9, 10], [-6, 2, 3]], 3, 7) == 1
    # rows are read up to ncols only
    assert modp_rank([[0, 0, 5], [1, 0, 5]], 2, 7) == 1
    # the second pivot lies two columns past the first
    assert modp_rank([[1, 2, 3], [2, 4, 5]], 3, 101) == 2


# -- packed mod-p rows: the largest slot values and the certificate's sizes ----

WORD_PRIMES = [3, (1 << 30) - 35, (1 << 61) - 1]


def p_minus_one_rows(d, p, diagonal):
    """d x d rows of p - 1 with ``diagonal`` on the diagonal."""
    return [[diagonal if r == c else p - 1 for c in range(d)] for r in range(d)]


def nonzero_but_zero_mod_p_row(rnd, ncols, p):
    return [p * rnd.randint(-3, 3) for _ in range(ncols - 1)] + [p]


MODP_RANK_SHAPES = {
    # the certificate's d x d block at (6, 4): entries negative and >= p,
    # ranks 0, 1, d - 1 and d
    "d70": lambda rnd, p: [
        ([[x + p * rnd.randint(-2, 2) for x in row]
          for row in rows_of_rank_at_most(rnd, 70, 70, rank, _int_entry)], 70)
        for rank in (0, 1, 69, 70)],
    # every entry off the diagonal the largest residue p - 1 = -1: the rows
    # are -(J - I), -(J + I) and -J mod p, of rank d (d - 1 where p divides
    # d - 1 = 63), d and 1
    "all-p-minus-1": lambda rnd, p: [
        (p_minus_one_rows(64, p, diagonal), 64) for diagonal in (0, p - 2, p - 1)],
    # a nonzero int that is 0 mod p gives no pivot, alone or among other rows
    "zero-mod-p-row": lambda rnd, p: [
        ([nonzero_but_zero_mod_p_row(rnd, 9, p)], 9),
        ([nonzero_but_zero_mod_p_row(rnd, 9, p) for _ in range(5)], 9),
        ([nonzero_but_zero_mod_p_row(rnd, 9, p)]
         + rows_of_rank_at_most(rnd, 6, 9, 4, _int_entry), 9)],
}


@pytest.mark.parametrize("p", WORD_PRIMES)
@pytest.mark.parametrize("shape", list(MODP_RANK_SHAPES))
def test_modp_rank_packed_shapes_match_gaussian_elimination(p, shape):
    rnd = random.Random("%s %s" % (shape, p))
    for rows, ncols in MODP_RANK_SHAPES[shape](rnd, p):
        assert modp_rank(rows, ncols, p) == gauss_rank_modp(rows, ncols, p), (shape, p)
    if shape == "zero-mod-p-row":
        assert modp_rank([[p, -2 * p, 0]], 3, p) == 0


def dense_matvec(a, v, p):
    """a v mod p over dense rows (the reference)."""
    return [sum(x * y for x, y in zip(row, v)) % p for row in a]


@pytest.mark.parametrize("p", WORD_PRIMES)
def test_modp_matvec_matches_the_dense_oracle(p):
    # every entry p - 1 puts d (p - 1)^2 in each slot, the largest sum
    d = 64
    rnd = random.Random("matvec %d" % p)
    full = [[p - 1] * d for _ in range(d)]
    mixed = [[rnd.choice([0, 0, 1, p - 1, p + 5, -7, p * 3]) for _ in range(d)]
             for _ in range(d)]
    for a in (full, mixed):
        matvec = modp_matvec(sparse_rows(a), p)
        for v in ([p - 1] * d, [0] * d, [rnd.randrange(p) for _ in range(d)]):
            assert matvec(v) == dense_matvec(a, v, p)
    assert modp_matvec([{}], p)([p - 1]) == [0]
