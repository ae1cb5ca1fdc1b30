"""Exact arithmetic in Z[q^{+-1}, s^{+-1}] and its fraction field.

Everything downstream (tensor actions, representation matrices, the
irreducibility solver) is built on the two classes here.  Coefficients are
arbitrary-precision Python integers: intermediate expression swell is
expected and must never wrap or round.

Canonical forms:
  * ``LaurentPoly`` stores a sparse map (e_q, e_s) -> nonzero int; equal
    polynomials have equal term maps.
  * ``RatFunc`` divides out the common integer content, pulls the monomial
    factor out of the denominator, and makes the lexicographically-leading
    denominator coefficient positive.  No multivariate gcd is attempted;
    equality is decided by cross-multiplication, which is exact.

Term order used for leading-term selection and serialization is
lexicographic on (e_q, e_s).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


class InexactDivisionError(ArithmeticError):
    """Exact polynomial division was required but left a remainder."""


class SpecializationError(ValueError):
    """A numeric substitution was rejected."""


class ZeroSubstitutionError(SpecializationError):
    """q or s was substituted by zero (both variables are units)."""


class PoleError(SpecializationError):
    """The denominator of a rational function vanishes at the point."""


class LaurentPoly:
    """Sparse two-variable Laurent polynomial with integer coefficients.

    Instances are immutable by convention: no method mutates ``terms`` after
    construction, so values can be shared freely between threads.
    """

    __slots__ = ("terms",)

    #: printed variable names, in exponent-tuple order
    variables = ("q", "s")

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exps, coeff in items:
                if not coeff:
                    continue
                key = (int(exps[0]), int(exps[1]))
                acc = cleaned.get(key, 0) + coeff
                if acc:
                    cleaned[key] = acc
                elif key in cleaned:
                    del cleaned[key]
        self.terms = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): int(c)})

    @classmethod
    def monomial(cls, e0, e1, coeff=1):
        return cls({(e0, e1): coeff})

    def _coerce(self, other):
        if isinstance(other, int):
            return self.__class__.constant(other)
        if type(other) is type(self):
            return other
        return None

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_one(self):
        return self.terms == {(0, 0): 1}

    def as_monomial(self):
        """Return ((e0, e1), coeff) if this is a single term, else None."""
        if len(self.terms) != 1:
            return None
        ((exps, coeff),) = self.terms.items()
        return exps, coeff

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = out.get(key, 0) + coeff
            if acc:
                out[key] = acc
            elif key in out:
                del out[key]
        result = self.__class__.__new__(self.__class__)
        result.terms = out
        return result

    __radd__ = __add__

    def __neg__(self):
        result = self.__class__.__new__(self.__class__)
        result.terms = {key: -coeff for key, coeff in self.terms.items()}
        return result

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for (a0, a1), ca in self.terms.items():
            for (b0, b1), cb in other.terms.items():
                key = (a0 + b0, a1 + b1)
                acc = out.get(key, 0) + ca * cb
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
        result = self.__class__.__new__(self.__class__)
        result.terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("polynomial powers must be integers")
        if n < 0:
            mono = self.as_monomial()
            if mono is None or mono[1] not in (1, -1):
                raise ValueError("only unit monomials have negative powers")
            (e0, e1), c = mono
            return self.__class__.monomial(n * e0, n * e1, c if n % 2 else 1)
        result = self.__class__.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self, other)

    def __eq__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self.terms == coerced.terms

    def __ne__(self, other):
        eq = self.__eq__(other)
        if eq is NotImplemented:
            return eq
        return not eq

    __hash__ = None

    # -- structure ---------------------------------------------------------

    def leading(self):
        """Leading (exponents, coeff) under lex order on (e0, e1)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        key = max(self.terms)
        return key, self.terms[key]

    def content(self):
        """Nonnegative gcd of all coefficients (0 for the zero polynomial)."""
        g = 0
        for coeff in self.terms.values():
            g = gcd(g, coeff)
        return g

    def min_exponents(self):
        if not self.terms:
            return (0, 0)
        return (min(e[0] for e in self.terms), min(e[1] for e in self.terms))

    def shifted(self, d0, d1):
        """Multiply by the monomial with exponents (d0, d1)."""
        result = self.__class__.__new__(self.__class__)
        result.terms = {(e0 + d0, e1 + d1): c for (e0, e1), c in self.terms.items()}
        return result

    def bar(self):
        """Invert both variables: the exponents (e0, e1) become (-e0, -e1)."""
        result = self.__class__.__new__(self.__class__)
        result.terms = {(-e0, -e1): c for (e0, e1), c in self.terms.items()}
        return result

    def divexact(self, divisor):
        """Exact division; raises InexactDivisionError when not divisible.

        Both operands are shifted into the positive-exponent cone first so
        that lex-ordered long division terminates.
        """
        divisor = self._coerce(divisor)
        if divisor is None or divisor.is_zero():
            raise InexactDivisionError("division by zero or foreign type")
        if self.is_zero():
            return self.__class__.zero()
        if self.content() % divisor.content():
            # Gauss: the divisor's content must divide the dividend's
            raise InexactDivisionError("content obstruction")
        m_b = divisor.min_exponents()
        b_terms = {(e0 - m_b[0], e1 - m_b[1]): c
                   for (e0, e1), c in divisor.terms.items()}
        lb = max(b_terms)
        lbc = b_terms[lb]
        m_a = self.min_exponents()
        rem = {(e0 - m_a[0], e1 - m_a[1]): c
               for (e0, e1), c in self.terms.items()}
        quotient = {}
        while rem:
            la = max(rem)
            lac = rem[la]
            e0, e1 = la[0] - lb[0], la[1] - lb[1]
            if e0 < 0 or e1 < 0 or lac % lbc:
                raise InexactDivisionError("inexact polynomial division")
            c = lac // lbc
            quotient[(e0, e1)] = c
            for (b0, b1), bc in b_terms.items():
                key = (b0 + e0, b1 + e1)
                acc = rem.get(key, 0) - bc * c
                if acc:
                    rem[key] = acc
                else:
                    rem.pop(key, None)
        result = self.__class__.__new__(self.__class__)
        result.terms = quotient
        return result.shifted(m_a[0] - m_b[0], m_a[1] - m_b[1])

    def divexact_binomial(self, u, w):
        """Exact quotient by the binomial x^u - x^w; raises InexactDivisionError.

        With d = w - u, self = x^u (1 - x^d) Q means Q[e] = P[e] + Q[e - d]
        for P = self / x^u, so Q is a running sum along each chain e + k d of
        P's exponents, and the division is exact iff every chain sums to 0.
        The cost is linear in the sizes of self and Q (plus a sort per chain).
        """
        d0, d1 = w[0] - u[0], w[1] - u[1]
        if not (d0 or d1):
            raise InexactDivisionError("division by zero")
        axis, step = (1, d1) if d1 else (0, d0)
        chains = {}
        for (e0, e1), c in self.terms.items():
            e0, e1 = e0 - u[0], e1 - u[1]
            k = (e0, e1)[axis] // step
            chains.setdefault((e0 - k * d0, e1 - k * d1), []).append((k, c))
        quotient = {}
        for (b0, b1), chain in chains.items():
            chain.sort()
            run = 0
            for k, c in chain:
                if run:
                    for j in range(prev, k):
                        quotient[(b0 + j * d0, b1 + j * d1)] = run
                run += c
                prev = k
            if run:
                raise InexactDivisionError("inexact binomial division")
        result = self.__class__.__new__(self.__class__)
        result.terms = quotient
        return result

    def evaluate(self, v0, v1):
        """Exact value at (v0, v1); both must be nonzero rationals."""
        v0, v1 = Fraction(v0), Fraction(v1)
        if v0 == 0 or v1 == 0:
            raise ZeroSubstitutionError("variables may only take nonzero values")
        total = Fraction(0)
        for (e0, e1), coeff in self.terms.items():
            total += coeff * v0 ** e0 * v1 ** e1
        return total

    # -- presentation ------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __str__(self):
        if not self.terms:
            return "0"
        v0, v1 = self.variables
        chunks = []
        for (e0, e1), coeff in self.sorted_terms():
            factors = []
            if e0:
                factors.append(v0 if e0 == 1 else "%s^%d" % (v0, e0))
            if e1:
                factors.append(v1 if e1 == 1 else "%s^%d" % (v1, e1))
            mag = abs(coeff)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not chunks:
                chunks.append(body if coeff > 0 else "-" + body)
            else:
                chunks.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(chunks)

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__name__, str(self))

    def to_json(self):
        return {"terms": [[e0, e1, str(c)] for (e0, e1), c in self.sorted_terms()]}

    @classmethod
    def from_json(cls, data):
        return cls({(int(e0), int(e1)): int(c) for e0, e1, c in data["terms"]})


class RatFunc:
    """Reduced quotient of two LaurentPoly values over the same variables.

    Reduction first attempts one exact division to collapse the fraction,
    then removes the shared integer content, shifts the denominator's
    monomial factor into the numerator, and normalizes the sign of the
    denominator's lex-leading coefficient.  Full polynomial gcd is
    deliberately not attempted; ``__eq__`` therefore cross-multiplies,
    which is exact.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = LaurentPoly.constant(num)
        if den is None:
            den = num.__class__.one()
        elif isinstance(den, int):
            den = num.__class__.constant(den)
        if type(num) is not type(den):
            raise TypeError("numerator and denominator over different rings")
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = den.__class__.one()
        else:
            if not den.is_one():
                # opportunistic full cancellation; cheap because division
                # bails out early when it cannot be exact
                try:
                    num = num.divexact(den)
                    den = den.__class__.one()
                except InexactDivisionError:
                    pass
            g = gcd(num.content(), den.content())
            shift = den.min_exponents()
            if g != 1 or shift != (0, 0):
                num = num.__class__(
                    {(e0 - shift[0], e1 - shift[1]): c // g
                     for (e0, e1), c in num.terms.items()})
                den = den.__class__(
                    {(e0 - shift[0], e1 - shift[1]): c // g
                     for (e0, e1), c in den.terms.items()})
        if den.leading()[1] < 0:
            num, den = -num, -den
        self.num = num
        self.den = den

    @property
    def ring(self):
        return type(self.num)

    def _coerce(self, other):
        if isinstance(other, int):
            return RatFunc(self.ring.constant(other))
        if isinstance(other, self.ring):
            return RatFunc(other)
        if isinstance(other, RatFunc) and other.ring is self.ring:
            return other
        return None

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        # keep denominators from compounding when one divides the other
        try:
            m = other.den.divexact(self.den)
            return RatFunc(self.num * m + other.num, other.den)
        except InexactDivisionError:
            pass
        try:
            m = self.den.divexact(other.den)
            return RatFunc(self.num + other.num * m, self.den)
        except InexactDivisionError:
            pass
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __ne__(self, other):
        eq = self.__eq__(other)
        if eq is NotImplemented:
            return eq
        return not eq

    __hash__ = None

    def to_poly(self):
        """Clear the denominator; raises InexactDivisionError if impossible."""
        return self.num.divexact(self.den)

    def is_integral(self):
        try:
            self.to_poly()
            return True
        except InexactDivisionError:
            return False

    def evaluate(self, v0, v1):
        d = self.den.evaluate(v0, v1)
        if d == 0:
            raise PoleError("denominator vanishes at the substitution point")
        return self.num.evaluate(v0, v1) / d

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return "(%s) / (%s)" % (self.num, self.den)

    def __repr__(self):
        return "RatFunc(%s)" % str(self)

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data, ring=LaurentPoly):
        return cls(ring.from_json(data["num"]), ring.from_json(data["den"]))


# -- q-combinatorics --------------------------------------------------------


@lru_cache(maxsize=None)
def qint(n):
    """Balanced quantum integer q^{n-1} + q^{n-3} + ... + q^{1-n}."""
    if n < 0:
        raise ValueError("quantum integer needs n >= 0, got %d" % n)
    return LaurentPoly({(n - 1 - 2 * i, 0): 1 for i in range(n)})


@lru_cache(maxsize=None)
def qfactorial(n):
    if n < 0:
        raise ValueError("q-factorial needs n >= 0, got %d" % n)
    acc = LaurentPoly.one()
    for k in range(2, n + 1):
        acc = acc * qint(k)
    return acc


@lru_cache(maxsize=None)
def qbinom(n, j):
    """Gaussian binomial coefficient; exact division is asserted."""
    if not 0 <= j <= n:
        raise ValueError("qbinom(%d, %d) out of range" % (n, j))
    return qfactorial(n).divexact(qfactorial(n - j) * qfactorial(j))


def specialize(value, q0, s0):
    """Evaluate a LaurentPoly or RatFunc at exact rational (q0, s0)."""
    q0, s0 = Fraction(q0), Fraction(s0)
    if q0 == 0 or s0 == 0:
        raise ZeroSubstitutionError("q and s are units; zero is not allowed")
    if isinstance(value, (LaurentPoly, RatFunc)):
        return value.evaluate(q0, s0)
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError("cannot specialize %r" % type(value))
