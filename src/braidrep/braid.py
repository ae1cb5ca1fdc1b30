"""Braid group action on tensor powers of the generic Verma module.

The braiding operator on V (x) V acts on pure tensors by

    R.(v_i (x) v_j) = s^{-(i+j)} sum_{m=0}^{i} q^{2(i-m)(j+m)} q^{m(m-1)/2}
                      qbinom(m+j, j) prod_{k<m} (s q^{-k-j} - s^{-1} q^{k+j})
                      v_{j+m} (x) v_{i-m}

and the generator sigma_i of B_n is R applied in tensor slots (i, i+1).
Its inverse is the flipped, bar-conjugated R up to a Cartan factor (bar
inverts q and s): if R.(v_j (x) v_i) = sum c_{x,y} v_x (x) v_y, then

    R^{-1}.(v_i (x) v_j) = sum q^{((j-i)^2 - (x-y)^2)/2} bar(c_{x,y}) v_y (x) v_x.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .linalg import mat_mul
from .report import CheckReport, matrix_report
from .ring import LaurentPoly, mul_add
from .verma import (E, F, K, TensorVec, _e_image, _f_image, act_tensor,
                    f_single_coeff, weight_basis)


@dataclass(frozen=True)
class BraidWord:
    """Word in the braid group B_n; letter k > 0 means sigma_k, k < 0 its inverse."""

    n: int
    letters: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if self.n < 2:
            raise ValueError("braid words need at least 2 strands")
        for k in self.letters:
            if k == 0 or abs(k) > self.n - 1:
                raise ValueError("letter %d out of range for B_%d" % (k, self.n))

    @classmethod
    def parse(cls, n, text):
        """Parse whitespace- or comma-separated signed generator indices."""
        body = text.replace(",", " ").split()
        return cls(n, tuple(int(tok) for tok in body))

    def inverse(self):
        return BraidWord(self.n, tuple(-k for k in reversed(self.letters)))

    def reduced(self):
        """The same braid with its cancellable inverse pairs deleted.

        A pair k ... -k cancels when every letter between them commutes with
        sigma_k, that is has index i with |i - |k|| >= 2.  This is free
        reduction in the partially commutative group of the generators
        (Cartier and Foata, LNM 85, 1969), done in one pass: a letter
        cancels the last kept letter that does not commute with it when that
        letter is its inverse, and is kept otherwise.  The last kept letter
        of each generator index is on top of its own stack, so the pass is
        linear in the word.  A deletion cannot open a new pair:
        the cancelling letter has the deleted letter's index and commutes
        with every kept letter after it.  The result is never longer than
        the word, is its own reduction and has no cancellable pair left.
        """
        kept = {}                                # position -> letter, in order
        last = [[] for _ in range(self.n + 1)]   # kept positions by index
        for pos, k in enumerate(self.letters):
            i = abs(k)
            tops = [last[j][-1] for j in (i - 1, i, i + 1) if last[j]]
            blocker = max(tops, default=None)
            if blocker is not None and kept[blocker] == -k:
                del kept[blocker]
                last[i].pop()
            else:
                kept[pos] = k
                last[i].append(pos)
        return BraidWord(self.n, tuple(kept.values()))

    def __str__(self):
        return " ".join(str(k) for k in self.letters)


@lru_cache(maxsize=None)
def rmatrix_pair(i, j):
    """R applied to the pure tensor v_i (x) v_j (two factors)."""
    if i < 0 or j < 0:
        raise ValueError("basis indices must be nonnegative")
    return TensorVec(2, {(j + m, i - m): f_single_coeff(m, j).shifted(
        2 * (i - m) * (j + m) + m * (m - 1) // 2, -(i + j)) for m in range(i + 1)})


def rmatrix_pair_perturbed(i, j):
    """Negative control: drop the top summand of R.(v_i (x) v_j) when i > 0."""
    full = rmatrix_pair(i, j)
    if i == 0:
        return full
    return full - TensorVec.pure((j + i, 0), full.coeff((j + i, 0)))


@lru_cache(maxsize=None)
def rmatrix_pair_inverse(i, j):
    """R^{-1} applied to v_i (x) v_j, by the bar-and-flip identity above."""
    flipped = {}
    for (x, y), c in rmatrix_pair(j, i).coeffs.items():
        flipped[(y, x)] = c.bar().shifted(((j - i) ** 2 - (x - y) ** 2) // 2, 0)
    return TensorVec(2, flipped)


def apply_letter(vec, k, perturb=False):
    """Apply sigma_k (k > 0) or its inverse (k < 0) to a tensor vector.

    Its own ``ring.mul_add`` loop: through ``linalg.row_product`` each input
    term would need an image dict of its own, which made the ``_sigma_rows``
    builds about 30% slower.  Fraction-field coefficients go by linearity.
    """
    n = vec.n
    i = abs(k) - 1  # 0-based slot of the braided pair
    if not 0 <= i < n - 1:
        raise ValueError("generator %d out of range for %d strands" % (k, n))
    if k > 0:
        pair = rmatrix_pair_perturbed if perturb else rmatrix_pair
    else:
        pair = rmatrix_pair_inverse
    out = {}
    get = out.get
    for idx, coeff in vec.coeffs.items():
        if type(coeff) is not LaurentPoly:
            return TensorVec.combination(n, ((x, apply_letter(TensorVec.pure(j), k, perturb))
                                             for j, x in vec.coeffs.items()))
        for ab, c in pair(idx[i], idx[i + 1]).coeffs.items():
            full = idx[:i] + ab + idx[i + 2:]
            out[full] = mul_add(get(full), coeff, c)
    return TensorVec._of(n, {idx: v for idx, v in out.items() if v.terms})


def apply_word(word, vec):
    """Apply a braid word letter by letter, first letter first.

    Every letter is applied, cancelling pairs included, on purpose: this is
    the reference path that the tests compare ``rho_matrix`` with.
    """
    if word.n != vec.n:
        raise ValueError("word on %d strands applied to %d-strand vector"
                         % (word.n, vec.n))
    for k in word.letters:
        vec = apply_letter(vec, k)
    return vec


def sigma_matrix(n, l, k, perturb=False):
    """Matrix of sigma_k (or its inverse) on the degree-l weight space of n strands.

    Built once per (n, l, k, perturb) in ``_sigma_rows``; each call hands
    out fresh dense row lists, so a caller may change them.
    """
    rows = _sigma_rows(n, l, k, perturb)
    zero = LaurentPoly.zero()
    return [[row.get(c, zero) for c in range(len(rows))] for row in rows]


# Bounded so that a sweep over many (n, l) cannot grow it without limit.  One
# pass of the benchmark's check grid asks for 81 distinct matrices, 88 with
# all five --perturb controls (each generator build in ``hwspace`` reads the
# letter at l and at l - 1), and the default scripts/run_checks.py sweep 50;
# 96 holds either.
@lru_cache(maxsize=96)
def _sigma_rows(n, l, k, perturb):
    """Rows of sigma_matrix as {col: entry} dicts of the nonzeros; read only."""
    basis = weight_basis(n, l)
    return tuple(_rows_of_columns([apply_letter(TensorVec.pure(idx), k, perturb=perturb)
                                   for idx in basis], basis))


def _rows_of_columns(cols, target):
    """{col: entry} rows of the matrix whose c-th column is the vector cols[c]."""
    position = {idx: r for r, idx in enumerate(target)}
    rows = [{} for _ in target]
    for c, col in enumerate(cols):
        for idx, x in col.coeffs.items():
            rows[position[idx]][c] = x
    return rows


def operator_matrix(gen, n, l):
    """{col: entry} rows of a generator from the degree-l block into its target block.

    A column of E or F^(m) is the cached image of its pure tensor
    (``verma._e_image``, ``verma._f_image``), read without a copy; K goes
    through ``act_tensor``.
    """
    basis = weight_basis(n, l)
    if gen.kind == "E" and l == 0:
        return [], basis
    target = weight_basis(n, l + {"E": -1, "F": gen.power}.get(gen.kind, 0))
    if gen.kind == "E":
        cols = [TensorVec._of(n, _e_image(idx)) for idx in basis]
    elif gen.kind == "F":
        cols = [TensorVec._of(n, _f_image(gen.power, idx)) for idx in basis]
    else:
        cols = [act_tensor(gen, TensorVec.pure(idx)) for idx in basis]
    return _rows_of_columns(cols, target), target


# -- structural checks ---------------------------------------------------------


def relation_reports(name, params, mats):
    """``name``-adjacent and ``name``-commute reports of the generators mats[1..n-1]."""
    n = len(mats) + 1
    reports = []
    for i in range(1, n - 1):
        lhs = mat_mul(mat_mul(mats[i], mats[i + 1]), mats[i])
        rhs = mat_mul(mat_mul(mats[i + 1], mats[i]), mats[i + 1])
        reports.append(matrix_report(name + "-adjacent", dict(params, i=i), lhs, rhs))
    for i in range(1, n):
        for j in range(i + 2, n):
            reports.append(matrix_report(
                name + "-commute", dict(params, i=i, j=j),
                mat_mul(mats[i], mats[j]), mat_mul(mats[j], mats[i])))
    return reports


def check_braid_relations(n, l, perturb=False):
    """Exact matrix checks of the defining braid relations on V_{n,l}."""
    return relation_reports("braid", {"n": n, "l": l},
                            {i: _sigma_rows(n, l, i, perturb) for i in range(1, n)})


def check_yang_baxter(l, perturb=False):
    """(R x 1)(1 x R)(R x 1) = (1 x R)(R x 1)(1 x R): the braid relation of V_{3,l}."""
    (report,) = check_braid_relations(3, l, perturb)
    return [CheckReport("yang-baxter", {"l": l}, report.passed, report.witness)]


def check_equivariance(n, l):
    """The braid action commutes with K, E and F^(1) on V_{n,l}."""
    reports = []
    for name, gen, shift in (("K", K, 0), ("E", E, -1), ("F1", F(1), 1)):
        op, _ = operator_matrix(gen, n, l)
        for i in range(1, n):
            params = {"n": n, "l": l, "i": i, "x": name}
            if l + shift < 0:
                reports.append(CheckReport("equivariance", params))
                continue
            reports.append(matrix_report(
                "equivariance", params, mat_mul(_sigma_rows(n, l + shift, i, False), op),
                mat_mul(op, _sigma_rows(n, l, i, False))))
    return reports
