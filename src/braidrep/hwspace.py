"""Highest-weight spaces inside tensor powers and their braid representation.

For n strands and degree l, the weight space V_{n,l} (all pure tensors of
total degree l) splits as A + B:

  * A-tensors: first nonzero index equals 1,
  * B-tensors: first nonzero index is >= 2,

with the usual adjustments at l = 1 (the tensor with the lone 1 in the last
slot is counted as B so that E maps B isomorphically onto V_{n,0}) and the
trivial case l = 0 (everything is A).

E maps B isomorphically onto V_{n,l-1} (``e_inverse_on_B`` inverts it), so
each A-tensor a has exactly one completion in ker E with A-part exactly a,

    Phi(a) = a - E_B^{-1}(E a),

and Phi fixes B pointwise.  The images of the A-tensors are a free basis of
the highest-weight space W_{n,l} = ker(E) cap V_{n,l}.  Each basis vector is
named by its A-tensor a, as a multi-index: it is the only basis vector with
a term at a, so a highest-weight vector's coordinate on it is the vector's
coefficient at a.  The braid action commutes with E, so it preserves W_{n,l},
and conjugating it by Phi yields the integral representation matrices.
Computationally, ``_generator_columns`` checks E sigma_k = sigma_k E on
V_{n,l} as one sparse matrix identity and then reads the coefficients of
sigma_k Phi(a) off at the A-tensors, as the A-label rows of sigma_k times
the basis vectors.  For l >= 1 and an A-tensor whose leading 1 sits in slot
j-1 followed by ``tail``, Phi(a) equals the closed form (checked in the
tests)

    sum_{k >= 0} b_k  v_0^{(j-2)} (x) v_k (x) E^{k-1} v_tail,
    b_k = (-1)^{k-1} s^{(k-1)(j-n-1)} q^{(k-1)(2l-k-2)},

with E_B^{-1} v_tail as the k = 0 term.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import comb

from .braid import BraidWord, _rows_of_columns, _sigma_rows, apply_word, operator_matrix
from .linalg import mat_mul, row_product
from .report import CheckReport, matrix_report
from .ring import LaurentPoly
from .verma import E, TensorVec, _e_image, act_tensor, weight_basis


class IntegralityError(ArithmeticError):
    """A computation that must stay inside the Laurent ring left it."""


def classify_index(idx):
    """Return 'A' or 'B' for a pure-tensor multi-index."""
    total = sum(idx)
    if total == 0:
        return "A"
    first = next(v for v in idx if v)
    if total == 1:
        return "B" if idx[-1] == 1 else "A"
    return "A" if first == 1 else "B"


def _lead(idx):
    """Slot of the first nonzero entry; the zero index reads as its last slot."""
    return next((i for i, v in enumerate(idx) if v), len(idx) - 1)


def label_str(idx):
    """CLI-facing name of the basis vector of the A-tensor ``idx``.

    With the leading 1 in slot j-1 (1-based) and ``tail`` the indices of
    slots j..n, the name is w(j-1,k) when the tail is a lone 1 in slot k,
    and w[tail]@j otherwise.  The zero index of degree 0 reads as w[]@n+1.
    """
    p = _lead(idx)
    tail = idx[p + 1:]
    if sum(tail) == 1:
        return "w(%d,%d)" % (p + 1, p + 2 + tail.index(1))
    return "w[%s]@%d" % (",".join(str(a) for a in tail), p + 2)


def e_inverse_on_B(vec):
    """The unique B-supported preimage of ``vec`` under E.

    Works one residual term at a time, always clearing the term of least
    (first nonzero entry, index): raising that entry by one gives a B-tensor
    whose E-image (``_e_image``) hits the target with a monic monomial
    coefficient, plus junk terms whose first nonzero entry is larger by one
    (so they are cleared later, and the loop terminates).  The keys met
    only grow, so a heap of them yields the terms in that order without a
    rescan of the residual; a term that cancelled is skipped when popped.
    """
    n = vec.n
    result = TensorVec.zero(n)
    residual = TensorVec._of(n, dict(vec.coeffs))   # cleared in place
    heap = [(next((v for v in idx if v), 0), idx) for idx in residual.coeffs]
    heapify(heap)
    while heap:
        lead, idx = heappop(heap)
        coeff = residual.coeffs.pop(idx, None)
        if coeff is None:
            continue
        p = _lead(idx)
        lifted = idx[:p] + (lead + 1,) + idx[p + 1:]
        image = _e_image(lifted)
        # the image at idx is a monomial with coefficient 1 (``_e_image``),
        # so c * image[idx] clears the term just popped
        (e0, e1), _ = image[idx].as_monomial()
        c = coeff.shifted(-e0, -e1)
        result._add_term(lifted, c)
        for i, x in image.items():
            if i != idx:
                if i not in residual.coeffs:
                    heappush(heap, (lead + 1, i))
                residual._add_term(i, -(c * x))
    return result


def phi(idx):
    """Highest-weight basis vector of the A-tensor a = ``idx``: a - E_B^{-1}(E a)."""
    a = TensorVec.pure(idx)
    return a - e_inverse_on_B(act_tensor(E, a))


@dataclass(frozen=True)
class HWBasisElement:
    label: tuple          # the A-tensor multi-index
    vector: TensorVec


@lru_cache(maxsize=None)
def hw_basis(n, l):
    """Ordered basis of the highest-weight space W_{n,l}, one vector per A-tensor.

    Order is by tail length first (the leading 1 furthest right), then
    lexicographically on the tail, so the last element is the maximal
    vector Phi(v_1 (x) v_{l-1} (x) v_0...).
    """
    if n < 2 or l < 0:
        raise ValueError("hw_basis needs n >= 2 and l >= 0")
    labels = sorted((idx for idx in weight_basis(n, l) if classify_index(idx) == "A"),
                    key=lambda idx: (-_lead(idx), idx))
    elements = tuple(HWBasisElement(idx, phi(idx)) for idx in labels)
    assert len(elements) == comb(n + l - 2, l)
    return elements


def is_highest_weight(vec):
    """True when the raising operator annihilates the (homogeneous) vector."""
    vec.weight()
    return act_tensor(E, vec).is_zero()


@dataclass(frozen=True)
class RepMatrix:
    """Square matrix of a braid word on the ordered highest-weight basis."""

    n: int
    l: int
    basis: tuple          # A-tensor labels, in hw_basis order
    entries: tuple        # rows of LaurentPoly, entries[r][c]

    @property
    def size(self):
        return len(self.basis)

    def to_json(self):
        return {
            "basis": [label_str(lab) for lab in self.basis],
            "rows": [[p.to_json() for p in row] for row in self.entries],
        }


def expand_in_hw_basis(vec, n, l):
    """Coefficients of a highest-weight vector on the hw_basis of (n, l).

    Each coefficient is read off at its basis vector's label: that vector
    has A-part exactly its label, and no other basis vector has a term
    there.  The residual against the full expansion is then checked to
    vanish, which certifies membership in the highest-weight space.  The
    generator matrices do not come through here (``_generator_columns``
    certifies a whole letter at once); this is the reference they are
    tested against, and the expansion for any other vector.
    """
    basis = hw_basis(n, l)
    zero = LaurentPoly.zero()
    coeffs = [vec.coeffs.get(el.label, zero) for el in basis]
    for c in coeffs:
        if not isinstance(c, LaurentPoly):
            raise IntegralityError("non-integral coefficient %s" % c)
    residual = vec - TensorVec.combination(n, [(c, el.vector)
                                               for c, el in zip(coeffs, basis) if c])
    if not residual.is_zero():
        raise ValueError("vector does not lie in the highest-weight span")
    return coeffs


# Bounded so that a sweep over many (n, l) cannot grow it without limit.
# The four benchmark workloads and the default scripts/run_checks.py sweep
# touch 74 distinct (n, l, k) between them; 128 holds all of them.
@lru_cache(maxsize=128)
def _generator_columns(n, l, k):
    """Columns of rho_{n,l}(sigma_k), each a {row: entry} dict of its nonzeros.

    Two sparse steps on the letter's cached weight-space matrices
    (``_sigma_rows`` at l and l - 1); no basis vector goes through
    ``apply_letter``.  First E sigma_k = sigma_k E is checked exactly on
    V_{n,l}, and a letter that fails raises ValueError before any column is
    formed: each Phi(a) is in ker E, so sigma_k Phi(a) is then in W_{n,l}.
    Then entry (r, c) is read off as the coefficient of sigma_k Phi(a_c) at
    the label a_r, the A-label rows of sigma_k times the basis vectors.  Two
    highest-weight vectors with one A-part differ by a B-supported vector of
    ker E, which is 0 as E is injective on B; so the read-off is exact.  The
    products call ``row_product``, not ``mat_mul``, which the benchmark
    tracer counts as the word products of ``rho_matrix``.  The tests compare
    the columns with ``expand_in_hw_basis`` of the pushed basis vectors.
    """
    sigma = _sigma_rows(n, l, k, False)
    if l:
        e_rows, _ = operator_matrix(E, n, l)
        if ([row_product(row, e_rows) for row in _sigma_rows(n, l - 1, k, False)]
                != [row_product(row, sigma) for row in e_rows]):
            raise ValueError("sigma_%d does not commute with E on V_{%d,%d}" % (k, n, l))
    tensors = weight_basis(n, l)
    position = {idx: i for i, idx in enumerate(tensors)}
    basis = hw_basis(n, l)
    vectors = _rows_of_columns([el.vector.coeffs for el in basis], tensors)
    cols = [{} for _ in basis]
    for r, el in enumerate(basis):
        for c, x in row_product(sigma[position[el.label]], vectors).items():
            cols[c][r] = x
    return tuple(cols)


def rho_matrix(n, l, word):
    """Representation matrix of a braid word on W_{n,l}.

    Words act left to right (first letter applied first); columns are the
    images of the ordered basis vectors, so rho(w1...wk) = rho(wk)...rho(w1).
    The word is validated as given and then multiplied as
    ``word.reduced()``: rho is a representation of B_n, so a pair
    sigma_k ... sigma_k^-1 whose middle letters commute with sigma_k
    contributes nothing and costs two products; a word that reduces to
    nothing gives the identity.  Column c is the c-th column of the first
    letter's generator matrix, pushed through each later letter g as the
    one-row product ``mat_mul([col], g)``: the row vector times the matrix
    whose rows are g's columns is g applied to the column.  Only one column
    is in flight at a time.  Each generator matrix is built once per
    (n, l, k), as one sparse product certified by the letter's commutation
    with E (``_generator_columns``).  W_{n,l} is invariant under B_n and has
    a free basis over the Laurent ring, so those matrices are integral and a
    product of them is the matrix of the word on W_{n,l}, with entries in
    the ring: no division and no further check is needed.
    """
    if isinstance(word, (list, tuple)):
        word = BraidWord(n, tuple(word))
    if word.n != n:
        raise ValueError("word strand count %d does not match n=%d" % (word.n, n))
    basis = hw_basis(n, l)
    d = len(basis)
    gens = [_generator_columns(n, l, k) for k in word.reduced().letters]
    cols = []
    for c in range(d):
        col = gens[0][c] if gens else {c: LaurentPoly.one()}
        for g in gens[1:]:
            col, = mat_mul([col], g)
        cols.append(col)
    zero = LaurentPoly.zero()
    entries = tuple(tuple(col.get(r, zero) for col in cols) for r in range(d))
    return RepMatrix(n, l, tuple(el.label for el in basis), entries)


# -- structural checks ---------------------------------------------------------


def phi_matrix(n, l):
    """{col: entry} rows of Phi on the full weight space, columns = images.

    The image of an A-tensor is its cached highest-weight basis vector; a
    B-tensor is fixed.
    """
    basis = weight_basis(n, l)
    images = {el.label: el.vector.coeffs for el in hw_basis(n, l)}
    return _rows_of_columns([images.get(i) or {i: LaurentPoly.one()} for i in basis], basis), basis


def check_phi(n, l):
    """(Phi - id)^2 = 0, Phi^{-1} = 2 - Phi, and E Phi kills exactly the A-part."""
    rows, basis = phi_matrix(n, l)
    d = len(basis)
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    # (Phi - 1)^2 = Phi^2 - 2 Phi + 1, and Phi (2 - Phi) - 1 is its negation
    res = [row_product({0: one, 1: LaurentPoly.constant(-2), 2: one}, (p2, p, {r: one}))
           for r, (p, p2) in enumerate(zip(rows, mat_mul(rows, rows)))]
    reports = [
        matrix_report("phi-nilpotent", {"n": n, "l": l}, res, [{}] * d),
        matrix_report("phi-inverse", {"n": n, "l": l},
                      [{c: -x for c, x in row.items()} for row in res], [{}] * d),
    ]
    # E Phi must vanish on the A-part, and Phi must fix the B-part pointwise
    # (so E Phi = E there, which is injective on B)
    e_ok = all(is_highest_weight(el.vector) for el in hw_basis(n, l)) and all(
        rows[r].get(c, zero) == (one if r == c else zero)
        for c, idx in enumerate(basis) if classify_index(idx) == "B" for r in range(d))
    reports.append(CheckReport("phi-e-structure", {"n": n, "l": l}, e_ok))
    return reports


def wmax_eigenvalue(l):
    """Scalar by which the first braid generator acts on the maximal vector."""
    return LaurentPoly.monomial(l * (l - 1), -2 * l, -1 if l % 2 else 1)


def check_wmax(n, l):
    """Does the first generator act on the maximal basis vector by its scalar?

    The scalar is (-1)^l s^{-2l} q^{l(l-1)}.  This genuinely fails at l = 1
    for n >= 3: there the representation is reduced Burau and the maximal
    vector picks up an off-diagonal term, sigma_1 w_1 = s^{-1} w_2 +
    (1 - s^{-2}) w_1.  The check stays faithful and reports the failure,
    with the computed image in the witness.
    """
    el = hw_basis(n, l)[-1]
    image = apply_word(BraidWord(n, (1,)), el.vector)
    ok = image == wmax_eigenvalue(l) * el.vector
    witness = None
    if not ok:
        witness = {"expected_scalar": str(wmax_eigenvalue(l)),
                   "computed_image": str(image)}
    return [CheckReport("wmax-eigenvalue", {"n": n, "l": l}, ok, witness)]


# -- degree-2 closed forms -------------------------------------------------------


def pair_label(a, b, n):
    """Label (A-tensor) of the degree-2 basis vector with 1s in slots a < b."""
    idx = [0] * n
    idx[a - 1] = idx[b - 1] = 1
    return tuple(idx)


def expected_sigma_w(n, i):
    """Predicted action of the i-th generator on the degree-2 basis.

    Encodes the six closed-form lines for sigma_i . w_{a,b}; returns a map
    (a, b) -> list of ((c, d), coefficient) with an extra tag naming the
    line used, for erratum reporting.
    """
    one = LaurentPoly.one()
    s = lambda e: LaurentPoly.monomial(0, e)
    drop = one - LaurentPoly.monomial(0, -2)     # 1 - s^-2
    q2 = LaurentPoly.monomial(2, 0)
    out = {}
    for a in range(1, n):
        for b in range(a + 1, n + 1):
            pair = (a, b)
            if a == i and b == i + 1:
                out[pair] = ("diag", [((i, i + 1), LaurentPoly.monomial(2, -4))])
            elif a == i + 1:                      # (i+1, j), j > i+1
                out[pair] = ("shift-first", [((i, b), s(-1))])
            elif b == i + 1:                      # (j, i+1), j < i
                out[pair] = ("shift-second", [((a, i), s(-1))])
            elif a == i:                          # (i, j), j > i+1
                out[pair] = ("mix-first", [
                    ((i + 1, b), s(-1)),
                    ((i, b), drop),
                    ((i, i + 1), -(s(i - b - 1) * drop * q2)),
                ])
            elif b == i:                          # (j, i), j < i
                out[pair] = ("mix-second", [
                    ((a, i + 1), s(-1)),
                    ((a, i), drop),
                    ((i, i + 1), -(s(i - a - 1) * drop)),
                ])
            else:                                 # disjoint
                out[pair] = ("fix", [(pair, one)])
    return out


def check_sigma_w(n):
    """Compare the computed degree-2 generator matrices to the closed forms.

    The direct computation is ground truth: any disagreement is collected as
    an erratum candidate against the closed-form table rather than silently
    accepted.  The returned report is decisive either way, with the mismatch
    list in the witness.  Each line is compared with its cached generator
    column (``_generator_columns``) on the nonzeros of either side; the
    dense expected and computed lists are formed only for a mismatch.
    """
    basis = hw_basis(n, 2)
    pos = {el.label: r for r, el in enumerate(basis)}
    zero = LaurentPoly.zero()
    mismatches = []
    lines_checked = 0
    for i in range(1, n):
        computed = _generator_columns(n, 2, i)
        for (a, b), (line, combo) in expected_sigma_w(n, i).items():
            lines_checked += 1
            got = computed[pos[pair_label(a, b, n)]]
            want = {pos[pair_label(c, d, n)]: coeff for (c, d), coeff in combo}
            if any(want.get(r, zero) != got.get(r, zero) for r in want.keys() | got.keys()):
                mismatches.append({
                    "i": i, "pair": [a, b], "line": line,
                    "expected": [str(want.get(r, zero)) for r in range(len(basis))],
                    "computed": [str(got.get(r, zero)) for r in range(len(basis))],
                })
    return [CheckReport("sigma-w-closed-form",
                        {"n": n, "lines": lines_checked},
                        passed=not mismatches,
                        witness=mismatches or None)]
