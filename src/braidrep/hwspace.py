"""Highest-weight spaces inside tensor powers and their braid representation.

For n strands and degree l, the weight space V_{n,l} (all pure tensors of
total degree l) splits as A + B:

  * A-tensors: first nonzero index equals 1,
  * B-tensors: first nonzero index is >= 2,

with the usual adjustments at l = 1 (the tensor with the lone 1 in the last
slot is counted as B so that E maps B isomorphically onto V_{n,0}) and the
trivial case l = 0 (everything is A).  An A-tensor is encoded by the label
(j, tail): the leading 1 sits in slot j-1 and ``tail`` is the rest of the
index, of total degree l-1.

E maps B isomorphically onto V_{n,l-1} (``e_inverse_on_B`` inverts it), so
each A-tensor a has exactly one completion in ker E with A-part exactly a,

    Phi(a) = a - E_B^{-1}(E a),

and Phi fixes B pointwise.  The images of the A-tensors are a free basis of
the highest-weight space W_{n,l} = ker(E) cap V_{n,l}, and conjugating the
braid action by Phi (computationally: apply the braid, then project onto A
along B) yields the integral representation matrices.  For l >= 1 and the
label (j, tail), Phi(a) equals the closed form (checked in the tests)

    sum_{k >= 0} b_k  v_0^{(j-2)} (x) v_k (x) E^{k-1} v_tail,
    b_k = (-1)^{k-1} s^{(k-1)(j-n-1)} q^{(k-1)(2l-k-2)},

with E_B^{-1} v_tail as the k = 0 term.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .braid import BraidWord, _rows_of_columns, apply_word
from .linalg import mat_mul
from .report import CheckReport, matrix_report
from .ring import LaurentPoly
from .verma import E, TensorVec, act_tensor, weight_basis


class IntegralityError(ArithmeticError):
    """A computation that must stay inside the Laurent ring left it."""


@dataclass(frozen=True)
class ABLabel:
    """Label of an A- or B-basis tensor of a weight space.

    For kind "A": the leading 1 is in slot j-1 (1-based) and ``tail`` lists
    the indices of slots j..n.  For kind "B": j is the slot of the leading
    entry (which is > 1, or the lone trailing 1 when l = 1) and ``tail``
    lists the indices from that slot on.  The degenerate A-label of the
    one-dimensional space at l = 0 has an empty tail and j = n + 1.
    """

    kind: str
    j: int
    tail: tuple

    def __post_init__(self):
        object.__setattr__(self, "tail", tuple(self.tail))
        if self.kind not in ("A", "B"):
            raise ValueError("label kind must be 'A' or 'B'")


def classify_index(idx):
    """Return 'A' or 'B' for a pure-tensor multi-index."""
    total = sum(idx)
    if total == 0:
        return "A"
    first = next(v for v in idx if v)
    if total == 1:
        return "B" if idx[-1] == 1 else "A"
    return "A" if first == 1 else "B"


def a_label(idx):
    """Label of an A-classified multi-index."""
    n = len(idx)
    if sum(idx) == 0:
        return ABLabel("A", n + 1, ())
    p = next(i for i, v in enumerate(idx) if v)
    return ABLabel("A", p + 2, idx[p + 1:])


def a_index(label, n):
    """Multi-index of an A-label inside an n-fold tensor power."""
    if not label.tail:
        return (0,) * n
    return (0,) * (label.j - 2) + (1,) + label.tail


def label_str(label):
    """CLI-facing name: w(i,j) at degree 2, w[tail]@j otherwise."""
    if sum(label.tail) + 1 == 2 and 1 in label.tail:
        i = label.j - 1
        j = label.j + label.tail.index(1)
        return "w(%d,%d)" % (i, j)
    return "w[%s]@%d" % (",".join(str(a) for a in label.tail), label.j)


def project_A(vec):
    """Projection of a weight space onto its A-part along its B-part."""
    kept = {idx: c for idx, c in vec.coeffs.items() if classify_index(idx) == "A"}
    return TensorVec(vec.n, kept)


def e_inverse_on_B(vec):
    """The unique B-supported preimage of ``vec`` under E.

    Works one residual term at a time, always clearing a term whose first
    nonzero entry is minimal: raising that entry by one gives a B-tensor
    whose E-image hits the target with a monic monomial coefficient, plus
    junk terms whose first nonzero entry is strictly larger (so they are
    cleared later, and the loop terminates).
    """
    n = vec.n
    result = TensorVec.zero(n)
    residual = TensorVec._of(n, dict(vec.coeffs))   # cleared in place
    while not residual.is_zero():
        idx, coeff = min(
            residual.coeffs.items(),
            key=lambda item: (next((v for v in item[0] if v), 0), item[0]))
        p = next((i for i, v in enumerate(idx) if v), n - 1)
        lifted = idx[:p] + (idx[p] + 1,) + idx[p + 1:]
        image = act_tensor(E, TensorVec.pure(lifted))
        unit = image.coeff(idx)
        mono = unit.as_monomial()
        if mono is None or mono[1] != 1:
            raise IntegralityError("expected a monic monomial pivot, got %s" % unit)
        c = coeff.shifted(-mono[0][0], -mono[0][1])
        result._add_term(lifted, c)
        for i, x in image.coeffs.items():
            residual._add_term(i, -(c * x))
    return result


def phi(label):
    """Image of a basis label under the basis-adjusting automorphism.

    B-labels are fixed and an A-label's tensor a maps to a - E_B^{-1}(E a).
    Strand count and degree are recovered from the label itself.
    """
    if label.kind == "B":
        return TensorVec.pure((0,) * (label.j - 1) + label.tail)
    a = TensorVec.pure(a_index(label, label.j - 1 + len(label.tail)))
    return a - e_inverse_on_B(act_tensor(E, a))


@dataclass(frozen=True)
class HWBasisElement:
    label: ABLabel
    vector: TensorVec


@lru_cache(maxsize=None)
def hw_basis(n, l):
    """Ordered basis of the highest-weight space W_{n,l}.

    Order is by tail length first, then lexicographically on the tail, so
    the last element is the maximal vector Phi(v_1 (x) v_{l-1} (x) v_0...).
    """
    if n < 2 or l < 0:
        raise ValueError("hw_basis needs n >= 2 and l >= 0")
    labels = [a_label(idx) for idx in weight_basis(n, l) if classify_index(idx) == "A"]
    labels.sort(key=lambda lab: (len(lab.tail), lab.tail))
    elements = tuple(HWBasisElement(lab, phi(lab)) for lab in labels)
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
    basis: tuple          # ABLabel, in hw_basis order
    entries: tuple        # rows of LaurentPoly, entries[r][c]

    @property
    def size(self):
        return len(self.basis)

    def row_lists(self):
        return [list(row) for row in self.entries]

    def to_json(self):
        return {
            "basis": [label_str(lab) for lab in self.basis],
            "rows": [[p.to_json() for p in row] for row in self.entries],
        }


def expand_in_hw_basis(vec, n, l):
    """Coefficients of a highest-weight vector on the hw_basis of (n, l).

    Reading off the A-components is exact because distinct basis vectors
    have distinct A-leading tensors; the residual against the full
    expansion is then checked to vanish, which certifies membership in the
    highest-weight space.
    """
    basis = hw_basis(n, l)
    position = {el.label: c for c, el in enumerate(basis)}
    coeffs = [LaurentPoly.zero()] * len(basis)
    for idx, c in project_A(vec).coeffs.items():
        lab = a_label(idx)
        if lab not in position:
            raise ValueError("index %r is not an A-basis tensor of W_{%d,%d}"
                             % (idx, n, l))
        if not isinstance(c, LaurentPoly):
            raise IntegralityError("non-integral coefficient %s" % c)
        coeffs[position[lab]] = c
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

    Built once on the full tensor space: column c is the c-th basis vector
    pushed through the letter and expanded with ``expand_in_hw_basis``, whose
    residual check certifies that the image lies in W_{n,l} with Laurent
    coefficients.
    """
    word = BraidWord(n, (k,))
    return tuple({r: x for r, x in enumerate(
                     expand_in_hw_basis(apply_word(word, el.vector), n, l)) if x}
                 for el in hw_basis(n, l))


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
    (n, l, k) on the full tensor space and residual-checked there
    (``_generator_columns``).  W_{n,l} is invariant under B_n and has a free
    basis over the Laurent ring, so those matrices are integral and a
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

    The image of an A-tensor is the cached highest-weight basis vector of
    its label.
    """
    basis = weight_basis(n, l)
    images = {el.label: el.vector for el in hw_basis(n, l)}
    return _rows_of_columns([images[a_label(idx)] if classify_index(idx) == "A"
                             else TensorVec.pure(idx) for idx in basis], basis), basis


def check_phi(n, l):
    """(Phi - id)^2 = 0, Phi^{-1} = 2 - Phi, and E Phi kills exactly the A-part."""
    rows, basis = phi_matrix(n, l)
    d = len(basis)
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    ident = [{r: one} for r in range(d)]
    # (Phi - 1)^2 = Phi^2 - 2 Phi + 1 and Phi (2 - Phi) = 2 Phi - Phi^2, formed
    # only where the entry of Phi, Phi^2 or 1 is nonzero: both are 0 elsewhere
    nil, inv = [], []
    for p, p2, i in zip(rows, mat_mul(rows, rows), ident):
        cols = p.keys() | p2.keys() | i.keys()
        nil.append({c: x for c in cols
                    if (x := p2.get(c, zero) - p.get(c, zero) * 2 + i.get(c, zero))})
        inv.append({c: x for c in cols if (x := p.get(c, zero) * 2 - p2.get(c, zero))})
    reports = [
        matrix_report("phi-nilpotent", {"n": n, "l": l}, nil, [{}] * d),
        matrix_report("phi-inverse", {"n": n, "l": l}, inv, ident),
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
    """Basis label of the degree-2 element with 1s in slots a < b."""
    idx = [0] * n
    idx[a - 1] = idx[b - 1] = 1
    return a_label(tuple(idx))


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
    list in the witness.
    """
    basis = hw_basis(n, 2)
    pos = {el.label: r for r, el in enumerate(basis)}
    mismatches = []
    lines_checked = 0
    for i in range(1, n):
        computed = rho_matrix(n, 2, [i])
        expected = expected_sigma_w(n, i)
        for (a, b), (line, combo) in expected.items():
            lines_checked += 1
            col = pos[pair_label(a, b, n)]
            want = [LaurentPoly.zero()] * len(basis)
            for (c, d), coeff in combo:
                want[pos[pair_label(c, d, n)]] = coeff
            got = [computed.entries[r][col] for r in range(len(basis))]
            if any(x != y for x, y in zip(want, got)):
                mismatches.append({
                    "i": i, "pair": [a, b], "line": line,
                    "expected": [str(x) for x in want],
                    "computed": [str(y) for y in got],
                })
    return [CheckReport("sigma-w-closed-form",
                        {"n": n, "lines": lines_checked},
                        passed=not mismatches,
                        witness=mismatches or None)]
