"""The Lawrence-Krammer-Bigelow representation and the Burau representations.

The LKB space for n strands is free over Z[t^{+-1}, Q^{+-1}] on basis
elements F_{i,j}, 1 <= i < j <= n (Q is the customary curly q of the
two-parameter ring; it is kept in a type of its own so that it can never be
confused with the quantum parameter q of the Verma side).  The generator
inverses act by

    sigma_i^{-1}. F_{j,k}   = F_{j,k}                                 (j,k disjoint from i,i+1)
    sigma_i^{-1}. F_{i+1,j} = F_{i,j}
    sigma_i^{-1}. F_{j,i+1} = F_{j,i}
    sigma_i^{-1}. F_{i,j}   = Q^{-1} F_{i+1,j} + (1-Q^{-1}) F_{i,j}
                              + t^{-1}(Q^{-1}-Q^{-2}) F_{i,i+1}
    sigma_i^{-1}. F_{i,i+1} = -t^{-1} Q^{-2} F_{i,i+1}
    sigma_i^{-1}. F_{j,i}   = Q^{-1} F_{j,i+1} + (1-Q^{-1}) F_{j,i}
                              - (Q^{-1}-Q^{-2}) F_{i,i+1}

Reversing the strands, P: F_{a,b} -> F_{n+1-b,n+1-a}, and inverting t and Q
(bar) give the generators without a matrix inversion:
sigma_i = P . bar(sigma_{n-i}^{-1}) . P.

The bridge to the highest-weight side is the parameter identification
theta: Q -> s^2, t -> -q^{-2} together with the basis rescaling
F_{i,j} -> s^{i+j} w_{i,j}; because theta twists the scalars, the verified
matrix identity (with columns-as-images conventions on both sides) is

    rho_{n,2}(sigma_i) = D . theta(sigma_i^{-1} on LKB) . D^{-1},
    D = diag(s^{i+j}).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .braid import relation_reports
from .linalg import _rows_of_columns, mat_diff_witness, mat_mul, sparse_rows
from .report import CheckReport, matrix_report
from .ring import LaurentPoly, unpack
from .hwspace import _generator_columns, hw_basis, pair_label


class LKBPoly(LaurentPoly):
    """Laurent polynomial in the LKB parameters; exponents are (e_t, e_Q)."""

    __slots__ = ()
    variables = ("t", "Q")


def _t(e):
    return LKBPoly.monomial(e, 0)


def _Q(e):
    return LKBPoly.monomial(0, e)


@lru_cache(maxsize=None)
def pair_basis(n):
    """Ordered pairs (i, j), 1 <= i < j <= n, lexicographically ascending."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


@dataclass(frozen=True)
class LKBMatrix:
    n: int
    basis: tuple
    entries: tuple    # rows over LKBPoly

    @property
    def size(self):
        return len(self.basis)

    def to_json(self):
        return {
            "vars": list(LKBPoly.variables),
            "basis": ["F(%d,%d)" % p for p in self.basis],
            "rows": [[p.to_json() for p in row] for row in self.entries],
        }


def _inverse_rows(n, i):
    """{col: entry} rows of sigma_i^{-1} on the pair basis, from the six cases."""
    one = LKBPoly.one()
    mix = one - _Q(-1)                          # 1 - Q^-1
    hook = _Q(-1) - _Q(-2)                      # Q^-1 - Q^-2

    def column(a, b):
        if a == i and b == i + 1:
            return {(i, i + 1): -(_t(-1) * _Q(-2))}
        if a == i + 1:
            return {(i, b): one}
        if b == i + 1:
            return {(a, i): one}
        if a == i:
            return {(i + 1, b): _Q(-1), (i, b): mix, (i, i + 1): _t(-1) * hook}
        if b == i:
            return {(a, i + 1): _Q(-1), (a, i): mix, (i, i + 1): -hook}
        return {(a, b): one}

    basis = pair_basis(n)
    return _rows_of_columns([column(a, b) for a, b in basis], basis)


def _forward_rows(n, inv):
    """{col: entry} rows of sigma_i from the rows ``inv`` of sigma_{n-i}^{-1}.

    sigma_i = P . bar(sigma_{n-i}^{-1}) . P with P the involution
    F_{a,b} -> F_{n+1-b,n+1-a}, so entry (r, c) is the bar of inv[P r][P c].
    """
    basis = pair_basis(n)
    pos = {p: r for r, p in enumerate(basis)}
    flip = [pos[(n + 1 - b, n + 1 - a)] for (a, b) in basis]
    return [{flip[c]: x.bar() for c, x in inv[r].items()} for r in flip]


def _dense(n, rows):
    zero = LKBPoly.zero()
    entries = tuple(tuple(row.get(c, zero) for c in range(len(rows))) for row in rows)
    return LKBMatrix(n, pair_basis(n), entries)


def lkb_sigma_inverse(n, i):
    """Matrix of the i-th inverse generator on the pair basis, columns = images."""
    if not 1 <= i <= n - 1:
        raise ValueError("generator index %d out of range for n=%d" % (i, n))
    return _dense(n, _inverse_rows(n, i))


def lkb_sigma(n, i):
    """Matrix of the i-th generator, P . bar(lkb_sigma_inverse(n, n-i)) . P."""
    if not 1 <= i <= n - 1:
        raise ValueError("generator index %d out of range for n=%d" % (i, n))
    return _dense(n, _forward_rows(n, _inverse_rows(n, n - i)))


def theta(p):
    """Parameter identification into the Verma-side ring: Q -> s^2, t -> -q^{-2}."""
    return _theta(p, -1)


def theta_wrong_sign(p):
    """Negative control: same exponents but t -> +q^{-2}."""
    return _theta(p, 1)


def _theta(p, t_sign):
    """Q -> s^2, t -> t_sign * q^{-2}, term by term (the map is injective)."""
    if not isinstance(p, LKBPoly):
        raise TypeError("theta is defined on the LKB parameter ring")
    out = []
    for key, coeff in p.terms.items():
        et, eq_ = unpack(key)
        out.append(((-2 * et, 2 * eq_), t_sign * coeff if et % 2 else coeff))
    return LaurentPoly(out)


def fork_iso_check(n, theta_map=theta):
    """Verify the degree-2 highest-weight action matches the LKB action.

    For every generator the transported matrix D theta(L) D^{-1} (with
    L the inverse-generator LKB matrix and D = diag(s^{i+j})) must equal the
    computed representation matrix, after aligning the two basis orders.
    Both are {col: entry} rows in pair order: theta and the shift touch only
    the nonzeros of L, and the columns of rho (``hwspace._generator_columns``)
    are permuted into pair order as they are transposed.
    """
    reports = []
    pairs = pair_basis(n)
    hw_pos = {el.label: r for r, el in enumerate(hw_basis(n, 2))}
    perm = [hw_pos[pair_label(a, b, n)] for (a, b) in pairs]
    for i in range(1, n):
        transported = [{c: theta_map(x).shifted(0, sum(pairs[r]) - sum(pairs[c]))
                        for c, x in row.items()}
                       for r, row in enumerate(_inverse_rows(n, i))]
        cols = _generator_columns(n, 2, i)
        aligned = _rows_of_columns([cols[h] for h in perm], perm)
        reports.append(matrix_report("fork-isomorphism", {"n": n, "i": i},
                                     transported, aligned))
    return reports


def check_lkb_braid_relations(n):
    """Braid relations and far commutation for the LKB inverse generators."""
    mats = {i: _inverse_rows(n, i) for i in range(1, n)}
    reports = relation_reports("lkb-braid", {"n": n}, mats)
    for i in range(1, n):
        prod = mat_mul(_forward_rows(n, mats[n - i]), mats[i])
        reports.append(matrix_report("lkb-inverse-pair", {"n": n, "i": i}, prod,
                                     [{r: LKBPoly.one()} for r in range(len(prod))]))
    return reports


# -- Burau ----------------------------------------------------------------------


def burau_matrices(n, reduced=True):
    """Generator matrices of the Burau representation with t = s^{-2}.

    Unreduced: n x n matrices on the rescaled one-column basis d_j, realizing

        sigma_i . d_i = (1 - t) d_i + d_{i+1},   sigma_i . d_{i+1} = t d_i,

    with all other basis vectors fixed.  Reduced: (n-1) x (n-1) matrices on
    u_j = t^{-j} d_j - t^{-n} d_n, the kernel basis of the evaluation
    d_j -> t^j; their action is derived from the unreduced one.
    """
    if n < 2:
        raise ValueError("Burau needs n >= 2")
    t = LaurentPoly.monomial(0, -2)
    one = LaurentPoly.one()
    zero = LaurentPoly.zero()
    unreduced = []
    for i in range(1, n):
        mat = [[one if r == c else zero for c in range(n)] for r in range(n)]
        mat[i - 1][i - 1] = one - t
        mat[i][i - 1] = one
        mat[i - 1][i] = t
        mat[i][i] = zero
        unreduced.append(mat)
    if not reduced:
        return unreduced

    # u: the u_j as columns in d-coordinates.  Its top n-1 rows are
    # diag(t^{-j}), so R_i in sigma_i u = u R_i is read off those rows of
    # sigma_i u; u R_i must then give back all n rows exactly
    u = [[LaurentPoly.monomial(0, 2 * (r + 1)) if r == c else zero
          for c in range(n - 1)] for r in range(n - 1)]
    u.append([-LaurentPoly.monomial(0, 2 * n)] * (n - 1))
    out = []
    for mat in unreduced:
        image = mat_mul(mat, u)
        coords = [[x * LaurentPoly.monomial(0, -2 * (r + 1)) for x in image[r]]
                  for r in range(n - 1)]
        if mat_diff_witness(mat_mul(u, coords), image) is not None:
            raise ArithmeticError("reduced Burau image left the kernel basis")
        out.append(coords)
    return out


def check_burau(n):
    """The degree-1 representation is reduced Burau after u_j = s^j w_j.

    hw_basis order at degree 1 is w_{n-1}, ..., w_1, so entries are compared
    through the index reversal and the monomial rescaling.
    """
    reports = []
    reduced = burau_matrices(n, reduced=True)
    # hw element r corresponds to w_{n-1-r}, so rho's column of w_b is the
    # cached column n-1-b, and its row n-1-a is the entry at w_a
    for i in range(1, n):
        cols = _generator_columns(n, 1, i)
        rescaled = _rows_of_columns(
            [{r: x.shifted(0, b + r + 1 - n) for r, x in cols[n - 1 - b].items()}
             for b in range(1, n)], range(n - 2, -1, -1))
        reports.append(matrix_report("burau-degree-one", {"n": n, "i": i},
                                     sparse_rows(reduced[i - 1]), rescaled))
    unred = burau_matrices(n, reduced=False)
    t_powers = [LaurentPoly.monomial(0, -2 * j) for j in range(1, n + 1)]
    # the evaluation d_j -> t^j is a row vector fixed by every generator
    quot_ok = all(mat_mul([t_powers], mat) == [t_powers] for mat in unred)
    reports.append(CheckReport("burau-quotient-map", {"n": n}, quot_ok))
    return reports
