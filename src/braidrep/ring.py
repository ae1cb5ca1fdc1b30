"""Exact arithmetic in Z[q^{+-1}, s^{+-1}] and its fraction field.

Everything downstream (tensor actions, representation matrices, the
irreducibility solver) is built on the two classes here.  Coefficients are
arbitrary-precision Python integers: intermediate expression swell is
expected and must never wrap or round.

Canonical forms:
  * ``LaurentPoly`` stores a sparse map key -> nonzero int; equal
    polynomials have equal term maps.  The key packs the exponents
    (e_q, e_s) into one int, e_q * 2^KEY_BITS + e_s (``pack``/``unpack``),
    so the key of a product term is the sum of two keys, and integer order
    on keys is lexicographic order on (e_q, e_s).  Both hold while
    |e_s| <= MAX_S_EXPONENT; e_q is unbounded.  Every polynomial carries an
    upper bound on its |e_s|, which each operation updates in O(1) (sum for
    ``*``, max for ``+``).  Only when that bound passes the limit is the
    exact extent computed, and a result with an e_s out of range raises
    ``OverflowError``; a key never aliases into the other exponent.
  * ``mul_add`` adds x * y into an open term map in place, with the same
    range guard: no product or partial sum is allocated; ``*`` is one call.
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

#: width of the e_s field of a packed key; at 20 bits the keys of the
#: polynomials met in practice stay single-digit CPython ints
KEY_BITS = 20
_HALF = 1 << (KEY_BITS - 1)
_MASK = (1 << KEY_BITS) - 1
#: largest |e_s| a term may carry
MAX_S_EXPONENT = _HALF - 1


def pack(e0, e1):
    """The key of the exponents (e0, e1); OverflowError if |e1| is too large."""
    if not -_HALF < e1 < _HALF:
        raise OverflowError("exponent %d of the second variable is outside "
                            "+-%d" % (e1, MAX_S_EXPONENT))
    return (e0 << KEY_BITS) + e1


def unpack(key):
    """The exponents (e0, e1) of a packed key."""
    e1 = ((key + _HALF) & _MASK) - _HALF
    return (key - e1) >> KEY_BITS, e1


def _s_extent(terms):
    """(min, max) of e_s over a nonempty term map."""
    s = [((key + _HALF) & _MASK) - _HALF for key in terms]
    return min(s), max(s)


def _checked_bound(low, high):
    """max |e_s| over [low, high]; OverflowError if it leaves the range."""
    if low < -MAX_S_EXPONENT or high > MAX_S_EXPONENT:
        raise OverflowError("an exponent of the second variable leaves +-%d"
                            % MAX_S_EXPONENT)
    return max(high, -low)


def _product_bound(a, b):
    """Exact max |e_s| of the product of two term maps; OverflowError if too large.

    The extreme e_s of a product is the sum of the operands' extremes: the
    top (bottom) e_s slices of two nonzero polynomials multiply to a nonzero
    slice, so the bound is attained and an OverflowError is never spurious.
    """
    if not a or not b:
        return 0
    low_a, high_a = _s_extent(a)
    low_b, high_b = _s_extent(b)
    return _checked_bound(low_a + low_b, high_a + high_b)


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

    ``terms`` maps packed exponent keys to coefficients and ``s_bound``
    bounds |e_s| from above (see the module docstring).  Instances are
    immutable by convention: no method mutates them after construction, so
    values can be shared freely between threads.
    """

    __slots__ = ("terms", "s_bound")

    #: printed variable names, in exponent-tuple order
    variables = ("q", "s")

    def __init__(self, terms=None):
        """Build from (e0, e1) -> coeff pairs, as a dict or an iterable."""
        cleaned = {}
        bound = 0
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for (e0, e1), coeff in items:
                if not coeff:
                    continue
                e1 = int(e1)
                key = pack(int(e0), e1)
                acc = cleaned.get(key, 0) + coeff
                if acc:
                    cleaned[key] = acc
                    bound = max(bound, abs(e1))
                elif key in cleaned:
                    del cleaned[key]
        self.terms = cleaned
        self.s_bound = bound

    @classmethod
    def _packed(cls, terms, bound):
        """Wrap a term map already in packed form, with its e_s bound."""
        result = cls.__new__(cls)
        result.terms = terms
        result.s_bound = bound
        return result

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls._packed({}, 0)

    @classmethod
    def one(cls):
        return cls._packed({0: 1}, 0)

    @classmethod
    def constant(cls, c):
        c = int(c)
        return cls._packed({0: c} if c else {}, 0)

    @classmethod
    def monomial(cls, e0, e1, coeff=1):
        return cls._packed({pack(e0, e1): coeff} if coeff else {}, abs(e1))

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
        return self.terms == {0: 1}

    def as_monomial(self):
        """Return ((e0, e1), coeff) if this is a single term, else None."""
        if len(self.terms) != 1:
            return None
        ((key, coeff),) = self.terms.items()
        return unpack(key), coeff

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not type(self):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        get = out.get
        for key, coeff in b.items():
            acc = get(key, 0) + coeff
            if acc:
                out[key] = acc
            else:
                del out[key]
        result = self.__class__.__new__(self.__class__)
        result.terms = out
        result.s_bound = max(self.s_bound, other.s_bound)
        return result

    __radd__ = __add__

    def __neg__(self):
        return self._packed({key: -coeff for key, coeff in self.terms.items()},
                            self.s_bound)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is not type(self):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return mul_add(None, self, other)

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
            n >>= 1
            if n:
                base = base * base
        return result

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self, other)

    def __eq__(self, other):
        if type(other) is not type(self):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    # -- structure ---------------------------------------------------------

    def leading(self):
        """Leading (exponents, coeff) under lex order on (e0, e1)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        key = max(self.terms)
        return unpack(key), self.terms[key]

    def content(self):
        """Nonnegative gcd of all coefficients (0 for the zero polynomial)."""
        g = 0
        for coeff in self.terms.values():
            g = gcd(g, coeff)
        return g

    def min_exponents(self):
        if not self.terms:
            return (0, 0)
        return unpack(min(self.terms))[0], _s_extent(self.terms)[0]

    def shifted(self, d0, d1):
        """Multiply by the monomial with exponents (d0, d1)."""
        bound = self.s_bound + abs(d1)
        if bound > MAX_S_EXPONENT:
            if not self.terms:
                return self
            low, high = _s_extent(self.terms)
            bound = _checked_bound(low + d1, high + d1)
        d = (d0 << KEY_BITS) + d1
        return self._packed({key + d: c for key, c in self.terms.items()}, bound)

    def bar(self):
        """Invert both variables: the exponents (e0, e1) become (-e0, -e1)."""
        return self._packed({-key: c for key, c in self.terms.items()},
                            self.s_bound)

    def _content_divided(self, g):
        """The polynomial with every coefficient divided by g, which divides them."""
        return self._packed({key: c // g for key, c in self.terms.items()},
                            self.s_bound)

    def _cone(self):
        """(e0, e1) -> coeff shifted so both minimal exponents are 0, and the shift."""
        decoded = [(unpack(key), c) for key, c in self.terms.items()]
        m0 = unpack(min(self.terms))[0]
        m1 = min(e1 for (_, e1), _ in decoded)
        return {(e0 - m0, e1 - m1): c for (e0, e1), c in decoded}, (m0, m1)

    def divexact(self, divisor):
        """Exact division; raises InexactDivisionError when not divisible.

        Both operands are decoded and shifted into the positive-exponent cone
        first so that lex-ordered long division terminates.
        """
        divisor = self._coerce(divisor)
        if divisor is None or divisor.is_zero():
            raise InexactDivisionError("division by zero or foreign type")
        if self.is_zero():
            return self.__class__.zero()
        if self.content() % divisor.content():
            # Gauss: the divisor's content must divide the dividend's
            raise InexactDivisionError("content obstruction")
        b_terms, m_b = divisor._cone()
        lb = max(b_terms)
        lbc = b_terms[lb]
        rem, m_a = self._cone()
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
        d0, d1 = m_a[0] - m_b[0], m_a[1] - m_b[1]
        return self.__class__({(e0 + d0, e1 + d1): c
                               for (e0, e1), c in quotient.items()})

    def divexact_binomial(self, u, w):
        """Exact quotient by the binomial x^u - x^w; raises InexactDivisionError.

        With d = w - u, self = x^u (1 - x^d) Q means Q[e] = P[e] + Q[e - d]
        for P = self / x^u, so Q is a running sum along each chain e + k d of
        P's exponents, and the division is exact iff every chain sums to 0.
        The chains are walked on packed keys with the stride key of d.  The
        cost is linear in the sizes of self and Q (plus a sort per chain).
        """
        d0, d1 = w[0] - u[0], w[1] - u[1]
        if not (d0 or d1):
            raise InexactDivisionError("division by zero")
        # every exponent met below, and Q's, lies within this bound
        bound = self.s_bound + max(abs(u[1]), abs(w[1]))
        if bound > MAX_S_EXPONENT:
            return self.divexact(self.__class__({u: 1, w: -1}))
        u_key = (u[0] << KEY_BITS) + u[1]
        d_key = (d0 << KEY_BITS) + d1
        chains = {}
        for key, c in self.terms.items():
            key -= u_key
            e1 = ((key + _HALF) & _MASK) - _HALF
            k = e1 // d1 if d1 else ((key - e1) >> KEY_BITS) // d0
            chains.setdefault(key - k * d_key, []).append((k, c))
        quotient = {}
        for base, chain in chains.items():
            chain.sort()
            run = 0
            for k, c in chain:
                if run:
                    key = base + prev * d_key
                    for _ in range(prev, k):
                        quotient[key] = run
                        key += d_key
                run += c
                prev = k
            if run:
                raise InexactDivisionError("inexact binomial division")
        return self._packed(quotient, bound)

    def evaluate(self, v0, v1):
        """Exact value at (v0, v1); both must be nonzero rationals (``specialize``)."""
        return specialize(self, v0, v1)

    def _value_at(self, v0, v1):
        """Exact value at nonzero Fractions (v0, v1).

        With v0 = a/b and v1 = c/d, the terms are summed over the integers
        with exponents shifted to be nonnegative, and divided once at the end.
        """
        if len(self.terms) < 2 and self.terms.keys() <= {0}:
            return Fraction(self.terms.get(0, 0))       # a constant
        a, b = v0.numerator, v0.denominator
        c, d = v1.numerator, v1.denominator
        terms = [(*unpack(key), coeff) for key, coeff in self.terms.items()]
        e0s, e1s = [t[0] for t in terms], [t[1] for t in terms]
        lo0, hi0, lo1, hi1 = min(e0s), max(e0s), min(e1s), max(e1s)
        # v0^e0 v1^e1 = a^(e0-lo0) b^(hi0-e0) c^(e1-lo1) d^(hi1-e1) a^lo0 b^-hi0 c^lo1 d^-hi1
        total = sum(coeff * a ** (e0 - lo0) * b ** (hi0 - e0)
                    * c ** (e1 - lo1) * d ** (hi1 - e1) for e0, e1, coeff in terms)
        num, den = total, 1
        for base, exp in ((a, lo0), (b, -hi0), (c, lo1), (d, -hi1)):
            if exp >= 0:
                num *= base ** exp
            else:
                den *= base ** -exp
        return Fraction(num, den)

    # -- presentation ------------------------------------------------------

    def sorted_terms(self):
        """[((e0, e1), coeff)] in lex order on the exponents."""
        return [(unpack(key), c) for key, c in sorted(self.terms.items())]

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
            if g != 1:
                num, den = num._content_divided(g), den._content_divided(g)
            d0, d1 = den.min_exponents()
            if d0 or d1:
                num, den = num.shifted(-d0, -d1), den.shifted(-d0, -d1)
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
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

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

    __hash__ = None

    def shifted(self, d0, d1):
        """Multiply by the monomial with exponents (d0, d1).

        Monomials are units, so the reduced form just shifts the numerator.
        """
        result = RatFunc.__new__(RatFunc)
        result.num = self.num.shifted(d0, d1)
        result.den = self.den
        return result

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
        return specialize(self, v0, v1)

    def _value_at(self, v0, v1):
        d = self.den._value_at(v0, v1)
        if d == 0:
            raise PoleError("denominator vanishes at the substitution point")
        return self.num._value_at(v0, v1) / d

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


def mul_add(acc, x, y):
    """acc + x * y for x, y of one LaurentPoly class, formed in acc's term map.

    ``acc`` is None, to start a sum, or what an earlier call returned and no
    one else holds; its terms are updated in place, no input's is aliased, a
    row with coefficient +-1 is added without a multiply, and OverflowError
    comes, before any term is added, exactly when x * y would raise it.
    """
    a, b = x.terms, y.terms
    if len(a) > len(b):
        a, b = b, a
    bound = x.s_bound + y.s_bound
    if bound > MAX_S_EXPONENT:
        bound = _product_bound(a, b)
    rows = iter(a.items())
    if acc is None:
        # an empty operand reads as coefficient 0 and adds nothing
        ka, ca = next(rows, (0, 0))
        if ca == 1:
            out = {ka + kb: cb for kb, cb in b.items()} if ka else dict(b)
        else:
            out = {ka + kb: ca * cb for kb, cb in b.items()} if ca else {}
        acc = x.__class__.__new__(x.__class__)
        acc.terms, acc.s_bound = out, bound
    else:
        out = acc.terms
        if bound > acc.s_bound:
            acc.s_bound = bound
    get = out.get
    for ka, ca in rows:
        if ca == 1:
            for kb, cb in b.items():
                key = ka + kb
                if c := get(key, 0) + cb:
                    out[key] = c
                else:
                    del out[key]
        elif ca == -1:
            for kb, cb in b.items():
                key = ka + kb
                if c := get(key, 0) - cb:
                    out[key] = c
                else:
                    del out[key]
        else:
            for kb, cb in b.items():
                key = ka + kb
                if c := get(key, 0) + ca * cb:
                    out[key] = c
                else:
                    del out[key]
    return acc


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


def _fraction(x):
    """x as a Fraction; a Fraction passes through without a rebuild."""
    return x if isinstance(x, Fraction) else Fraction(x)


def specialize(value, q0, s0):
    """Evaluate a LaurentPoly, RatFunc or int at exact rational (q0, s0).

    The one place where q0 and s0 are made Fractions and checked nonzero;
    ``evaluate`` of both classes comes here.
    """
    q0, s0 = _fraction(q0), _fraction(s0)
    if q0 == 0 or s0 == 0:
        raise ZeroSubstitutionError("variables may only take nonzero values")
    if isinstance(value, (LaurentPoly, RatFunc)):
        return value._value_at(q0, s0)
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError("cannot specialize %r" % type(value))
