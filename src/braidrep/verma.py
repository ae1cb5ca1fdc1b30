"""The integral quantum-sl2 action on a generic Verma module and its tensor powers.

The module V is free on basis vectors v_0, v_1, ... over Z[q^{+-1}, s^{+-1}],
where s plays the role of the exponentiated generic highest weight.  The
algebra generators are K, K^{-1}, the raising operator E and the divided
powers F^{(m)} of the lowering operator; their single-factor action is

    K.v_j     = s q^{-2j} v_j
    E.v_j     = v_{j-1}          (E.v_0 = 0)
    F^(m).v_j = qbinom(m+j, j) * prod_{k<m} (s q^{-k-j} - s^{-1} q^{k+j}) v_{j+m}

Tensor powers carry the action through the iterated coproduct

    Delta(K) = K (x) K,   Delta(E) = E (x) K + 1 (x) E,
    Delta(F^(m)) = sum_j q^{-j(m-j)} K^{j-m} F^(j) (x) F^(m-j),

which for an n-fold product expands over compositions (m_1, ..., m_n) of m:
factor i receives K^{-t_i} F^(m_i) with t_i the sum of the m_r to its right,
weighted by q^{- sum_i m_i t_i}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from math import comb

from .linalg import row_product
from .ring import LaurentPoly, RatFunc, qbinom


@dataclass(frozen=True)
class AlgebraGen:
    """One of the generators K, K^{-1}, E or a divided power F^(m)."""

    kind: str          # "K", "Kinv", "E" or "F"
    power: int = 0     # divided-power order, >= 1 when kind == "F"

    def __post_init__(self):
        if self.kind not in ("K", "Kinv", "E", "F"):
            raise ValueError("unknown generator kind %r" % self.kind)
        if self.kind == "F" and self.power < 1:
            raise ValueError("divided power F^(m) needs m >= 1")


K = AlgebraGen("K")
KINV = AlgebraGen("Kinv")
E = AlgebraGen("E")


def F(m):
    return AlgebraGen("F", m)


class TensorVec:
    """Finite linear combination of pure tensors v_{a_1} (x) ... (x) v_{a_n}.

    Keys are length-n tuples of nonnegative ints; coefficients live in the
    Laurent ring, or in its fraction field for the components of a
    decomposition (whose numerators stay in the ring) and for fraction-field
    input to it.  Zero coefficients are never stored.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=None):
        self.n = n
        self.coeffs = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for idx, coeff in items:
                idx = tuple(idx)
                if len(idx) != n:
                    raise ValueError("index %r has wrong length for n=%d" % (idx, n))
                if isinstance(coeff, int):
                    coeff = LaurentPoly.constant(coeff)
                self._add_term(idx, coeff)

    def _add_term(self, idx, coeff):
        """Add ``coeff`` to the coefficient of ``idx`` in place, never storing a zero.

        Only for a vector its caller is still building: values are otherwise
        treated as immutable.
        """
        coeffs = self.coeffs
        if idx in coeffs:
            acc = coeffs[idx] + coeff
            if acc.is_zero():
                del coeffs[idx]
            else:
                coeffs[idx] = acc
        elif not coeff.is_zero():
            coeffs[idx] = coeff

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def pure(cls, idx, coeff=1):
        return cls(len(idx), {tuple(idx): coeff})

    @classmethod
    def _of(cls, n, coeffs):
        """Wrap a {idx: coeff} dict of nonzeros, taking it over unchecked."""
        result = cls.__new__(cls)
        result.n = n
        result.coeffs = coeffs
        return result

    @classmethod
    def combination(cls, n, terms):
        """sum scale * vec over an iterable of (scale, vec) terms."""
        terms = list(terms)
        return cls._of(n, row_product(dict(enumerate(scale for scale, _ in terms)),
                                      [vec.coeffs for _, vec in terms]))

    # -- predicates / structure ---------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def weight(self):
        """Common total degree of all terms; None for the zero vector."""
        totals = {sum(idx) for idx in self.coeffs}
        if not totals:
            return None
        if len(totals) > 1:
            raise ValueError("vector is not weight-homogeneous: %s" % sorted(totals))
        return totals.pop()

    def coeff(self, idx):
        return self.coeffs.get(tuple(idx)) or LaurentPoly.zero()

    def sorted_terms(self):
        return sorted(self.coeffs.items())

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, TensorVec) or other.n != self.n:
            raise ValueError("tensor size mismatch")

    def __add__(self, other):
        self._check(other)
        one = LaurentPoly.one()
        return TensorVec.combination(self.n, ((one, self), (one, other)))

    def __neg__(self):
        return TensorVec._of(self.n, {idx: -c for idx, c in self.coeffs.items()})

    def __sub__(self, other):
        self._check(other)
        one = LaurentPoly.one()
        return TensorVec.combination(self.n, ((one, self), (-one, other)))

    def __mul__(self, scalar):
        return TensorVec._of(self.n, {idx: c for idx, x in self.coeffs.items()
                                      if (c := x * scalar)})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TensorVec) or other.n != self.n:
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def map_coeffs(self, fn):
        return TensorVec(self.n, {idx: fn(c) for idx, c in self.coeffs.items()})

    # -- presentation -------------------------------------------------------

    def __str__(self):
        return " + ".join("(%s)*v%s" % (c, list(idx)) for idx, c in self.sorted_terms()) or "0"

    __repr__ = __str__

    def to_json(self):
        return {
            "n": self.n,
            "terms": [{"idx": list(idx), "coeff": c.to_json()}
                      for idx, c in self.sorted_terms()],
        }

    @classmethod
    def from_json(cls, data):
        coeffs = {}
        for term in data["terms"]:
            raw = term["coeff"]
            if "num" in raw:
                coeffs[tuple(term["idx"])] = RatFunc.from_json(raw)
            else:
                coeffs[tuple(term["idx"])] = LaurentPoly.from_json(raw)
        return cls(data["n"], coeffs)


# -- weight-space enumeration -------------------------------------------------


@lru_cache(maxsize=None)
def weight_basis(n, l):
    """All compositions of l into n nonnegative parts, lex ascending."""
    if n < 1 or l < 0:
        raise ValueError("weight_basis needs n >= 1 and l >= 0")
    # successor: move one unit from the last nonzero slot p to slot p - 1
    # and the rest of slot p to the end; iterative, so any n is fine
    parts = [0] * (n - 1) + [l]
    p = n - 1 if l else 0
    out = [tuple(parts)]
    while p:
        rest = parts[p] - 1
        parts[p] = 0
        parts[p - 1] += 1
        parts[-1] = rest
        p = n - 1 if rest else p - 1
        out.append(tuple(parts))
    assert len(out) == comb(n + l - 1, l)
    return tuple(out)


# -- single-factor action -------------------------------------------------------


@lru_cache(maxsize=None)
def f_single_coeff(m, j):
    """Coefficient of v_{j+m} in F^(m).v_j."""
    acc = qbinom(m + j, j)
    for k in range(m):
        acc = acc * LaurentPoly({(-k - j, 1): 1, (k + j, -1): -1})
    return acc


def act_single(gen, j):
    """Action of a generator on the single basis vector v_j."""
    if j < 0:
        raise ValueError("basis index must be nonnegative")
    return act_tensor(gen, TensorVec.pure((j,)))


# -- tensor action ------------------------------------------------------------


# Bounded so that a sweep over many (n, l) cannot grow it without limit.  One
# pass of the benchmark's check grid makes 223 distinct (m, idx) and the
# default scripts/run_checks.py sweep 309; 512 holds either.
@lru_cache(maxsize=512)
def _f_image(m, idx):
    """F^(m) on the pure tensor v_idx, as a {new_idx: coeff} dict; read only."""
    image = {}
    for parts in weight_basis(len(idx), m):
        tail = m
        factor = LaurentPoly.one()
        shift_q = shift_s = 0
        for a, p in zip(idx, parts):
            tail -= p
            if p:
                factor = factor * f_single_coeff(p, a)
            # the K^{-tail} eigenvalue at v_{a + p}, s^-tail q^{2 tail (a + p)},
            # and the q-twist q^{-p tail}
            shift_q += tail * (2 * a + p)
            shift_s -= tail
        image[tuple(a + p for a, p in zip(idx, parts))] = factor.shifted(shift_q, shift_s)
    return image


# Bounded so that a sweep over many (n, l) cannot grow it without limit.  One
# pass of the benchmark's check grid touches 482 distinct idx and the default
# scripts/run_checks.py sweep 455; 512 holds either.
@lru_cache(maxsize=512)
def _e_image(idx):
    """E on the pure tensor v_idx, as a {new_idx: monomial} dict; read only.

    The coproduct term with E in slot i has K in every slot r > i: slot i
    lowers by one and each slot r > i contributes s q^{-2 idx[r]}.
    """
    n = len(idx)
    return {idx[:i] + (a - 1,) + idx[i + 1:]:
            LaurentPoly.monomial(-2 * sum(idx[i + 1:]), n - 1 - i)
            for i, a in enumerate(idx) if a}


def _image(gen):
    """``gen`` on pure tensors, as idx -> {new_idx: coeff}, by its coproduct.

    E and F^(m) read their cached tables, looked up here at call time so
    that a rebound ``_e_image`` or ``_f_image`` is the one applied; K^{+-1}
    gives the one-entry monomial s^{+-n} q^{-+2|idx|}.
    """
    if gen.kind == "E":
        return _e_image
    if gen.kind == "F":
        return partial(_f_image, gen.power)
    sign = 1 if gen.kind == "K" else -1
    return lambda idx: {idx: LaurentPoly.monomial(-2 * sign * sum(idx), sign * len(idx))}


def _act_images(vec, image):
    """sum_idx c_idx image(idx), with image(idx) a {new_idx: coeff} dict."""
    return TensorVec._of(vec.n, row_product(
        vec.coeffs, {idx: image(idx) for idx in vec.coeffs}))


def act_tensor(gen, vec):
    """Apply a generator to a tensor vector: one ``row_product`` over its ``_image``."""
    return _act_images(vec, _image(gen))
