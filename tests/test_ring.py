"""Exact-arithmetic base layer: Laurent polynomials, fractions, q-combinatorics."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidrep.linalg import mat_mul, row_product
from braidrep.lkb import LKBPoly
from braidrep.ring import (MAX_S_EXPONENT, InexactDivisionError, LaurentPoly,
                           PoleError, RatFunc, ZeroSubstitutionError, mul_add, qbinom,
                           qfactorial, qint, specialize, unpack)

from conftest import kernel_operand, random_poly

Q = LaurentPoly.monomial(1, 0)
QINV = LaurentPoly.monomial(-1, 0)
S = LaurentPoly.monomial(0, 1)
SINV = LaurentPoly.monomial(0, -1)


def poly_strategy():
    term = st.tuples(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        st.integers(-8, 8))
    return st.lists(term, max_size=5).map(LaurentPoly)


class TestLaurentArithmetic:
    def test_additive_cancellation(self):
        assert (Q + S) + (-Q) == S

    def test_difference_of_squares(self):
        assert (Q - QINV) * (Q + QINV) == Q ** 2 - QINV ** 2

    def test_zero_annihilates(self, rnd):
        for _ in range(20):
            p = random_poly(rnd)
            assert (LaurentPoly.zero() * p).is_zero()

    def test_canonical_form_drops_zeros(self):
        p = LaurentPoly({(0, 0): 1, (1, 1): 0})
        assert p.sorted_terms() == [((0, 0), 1)]
        assert (p - p).sorted_terms() == []

    @given(poly_strategy(), poly_strategy(), poly_strategy())
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(poly_strategy(), poly_strategy())
    def test_commutativity(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    @given(poly_strategy(), poly_strategy(), poly_strategy())
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    def test_randomized_ring_axioms_bulk(self, rnd):
        for _ in range(1000):
            a, b, c = (random_poly(rnd) for _ in range(3))
            assert a * (b + c) == a * b + a * c

    def test_int_coercion(self):
        assert Q + 1 == LaurentPoly({(1, 0): 1, (0, 0): 1})
        assert 2 * S == LaurentPoly({(0, 1): 2})
        assert 1 - Q == LaurentPoly({(0, 0): 1, (1, 0): -1})

    def test_pow(self):
        assert Q ** 0 == LaurentPoly.one()
        assert (Q + S) ** 2 == Q * Q + 2 * Q * S + S * S

    def test_str_ordering(self):
        p = S + Q ** 2 - 3
        assert str(p) == "-3 + s + q^2"


class TestDivexact:
    def test_monomial_division(self):
        assert (Q * S).divexact(S) == Q

    def test_exact(self):
        a = (Q - S) * (Q + S) * (1 + Q * S)
        assert a.divexact(Q + S) == (Q - S) * (1 + Q * S)

    def test_laurent_shifts(self):
        a = QINV - SINV
        b = Q - S  # a = -(q s)^{-1} (q - s)... check divisibility
        q = a.divexact(b)
        assert q * b == a

    def test_inexact_raises(self):
        with pytest.raises(InexactDivisionError):
            (Q + 1).divexact(S + 1)
        with pytest.raises(InexactDivisionError):
            (2 * Q).divexact(3 * Q + 3 * S)

    @given(poly_strategy(), poly_strategy())
    def test_product_roundtrip(self, a, b):
        if a.is_zero() or b.is_zero():
            return
        assert (a * b).divexact(b) == a


def beta(a, n):
    return LaurentPoly({(-a, n): 1, (a, -n): -1})


def divexact_or_none(p, b):
    try:
        return p.divexact(b)
    except InexactDivisionError:
        return None


def binomial_or_none(p, a, n):
    try:
        return p.divexact_binomial((-a, n), (a, -n))
    except InexactDivisionError:
        return None


class TestDivexactBinomial:
    @given(poly_strategy(), st.integers(-6, 6), st.integers(1, 5), st.booleans())
    def test_agrees_with_divexact(self, p, a, n, exact):
        b = beta(a, n)
        if exact:
            p = p * b
        expected = divexact_or_none(p, b)
        assert binomial_or_none(p, a, n) == expected
        if exact:
            assert expected is not None

    def test_bulk_against_divexact(self, rnd):
        seen = {True: 0, False: 0}
        for _ in range(400):
            a, n = rnd.randint(-6, 6), rnd.randint(1, 5)
            p = random_poly(rnd, max_terms=6, max_exp=6, max_coeff=9)
            if rnd.random() < 0.5:
                p = p * beta(a, n) * random_poly(rnd, max_terms=2, max_exp=2)
            got = binomial_or_none(p, a, n)
            assert got == divexact_or_none(p, beta(a, n))
            seen[got is not None] += 1
        assert min(seen.values()) > 50

    def test_chain_gaps_are_filled(self):
        # (1 - m^4) / (1 - m) = 1 + m + m^2 + m^3 with m = q^4 s^-6 (a = 2, n = 3)
        m = LaurentPoly.monomial(4, -6)
        quotient = (LaurentPoly.monomial(-2, 3) * (1 - m ** 4)).divexact_binomial(
            (-2, 3), (2, -3))
        assert quotient == 1 + m + m ** 2 + m ** 3

    def test_quotient_times_divisor(self):
        p = (Q ** 3 + 2 * S * SINV ** 4 - QINV * S) * beta(-3, 2) * beta(-3, 2)
        once = p.divexact_binomial((3, 2), (-3, -2))
        assert once * beta(-3, 2) == p
        assert once.divexact_binomial((3, 2), (-3, -2)) * beta(-3, 2) ** 2 == p

    def test_step_along_q_only(self):
        # q^-1 - q: the chains run along q alone
        p = (Q ** 5 - 7 * S) * (QINV - Q)
        assert p.divexact_binomial((-1, 0), (1, 0)) == Q ** 5 - 7 * S
        with pytest.raises(InexactDivisionError):
            (Q ** 5).divexact_binomial((-1, 0), (1, 0))

    def test_inexact_and_zero_divisor_raise(self):
        with pytest.raises(InexactDivisionError):
            (Q + S).divexact_binomial((0, 1), (0, -1))
        with pytest.raises(InexactDivisionError):
            beta(1, 2).divexact_binomial((-2, 2), (2, -2))
        with pytest.raises(InexactDivisionError):
            (Q - S).divexact_binomial((1, 1), (1, 1))
        assert LaurentPoly.zero().divexact_binomial((0, 1), (0, -1)).is_zero()


class TestBar:
    def test_inverts_both_variables(self):
        p = Q ** 2 * SINV - 3 + 5 * QINV * S ** 3
        assert p.bar() == QINV ** 2 * S - 3 + 5 * Q * SINV ** 3
        assert p.bar().bar() == p
        assert LaurentPoly.zero().bar().is_zero()

    def test_keeps_subclass(self):
        p = LKBPoly.monomial(1, -2, 3)
        assert type(p.bar()) is LKBPoly
        assert p.bar() == LKBPoly.monomial(-1, 2, 3)


@pytest.mark.parametrize("ring", [LaurentPoly, LKBPoly])
def test_sympy_cross_check(ring, rnd):
    """*, +, divexact, divexact_binomial and bar agree with sympy."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols(ring.variables)

    def expr(p):
        return sympy.Add(*(c * x ** e0 * y ** e1
                           for (e0, e1), c in p.sorted_terms()))

    def monomial(e):
        return x ** e[0] * y ** e[1]

    for _ in range(40):
        a, b = (ring(random_poly(rnd, max_terms=5, max_exp=4).sorted_terms())
                for _ in range(2))
        ea, eb = expr(a), expr(b)
        assert sympy.expand(expr(a * b) - ea * eb) == 0
        assert sympy.expand(expr(a + b) - (ea + eb)) == 0
        bar = ea.subs({x: 1 / x, y: 1 / y}, simultaneous=True)
        assert sympy.expand(expr(a.bar()) - bar) == 0
        if not b.is_zero():
            product = a * b
            quotient = product.divexact(b)
            assert sympy.cancel(expr(product) / eb - expr(quotient)) == 0
        u, w = (tuple(rnd.randint(-4, 4) for _ in range(2)) for _ in range(2))
        if u != w:
            product = a * ring({u: 1, w: -1})
            quotient = product.divexact_binomial(u, w)
            binomial = monomial(u) - monomial(w)
            assert sympy.cancel(expr(product) / binomial - expr(quotient)) == 0


class TestQCombinatorics:
    def test_qint_base_cases(self):
        assert qint(0).is_zero()
        assert qint(1).is_one()
        assert qint(2) == Q + QINV

    def test_qint_3_expansion(self):
        # independent route: (q^3 - q^-3) / (q - q^-1)
        oracle = (Q ** 3 - QINV ** 3).divexact(Q - QINV)
        assert qint(3) == oracle
        assert qint(3) == LaurentPoly({(2, 0): 1, (0, 0): 1, (-2, 0): 1})

    def test_qint_negative_rejected(self):
        with pytest.raises(ValueError):
            qint(-1)

    def test_qbinom_edges(self):
        for n in range(8):
            assert qbinom(n, 0).is_one()
            assert qbinom(n, n).is_one()
        assert qbinom(2, 1) == qint(2)

    def test_qbinom_4_2(self):
        expected = LaurentPoly({(4, 0): 1, (2, 0): 1, (0, 0): 2,
                                (-2, 0): 1, (-4, 0): 1})
        assert qbinom(4, 2) == expected
        # independent multiply-out of [4][3] / ([2][1])
        assert qbinom(4, 2) == (qint(4) * qint(3)).divexact(qint(2) * qint(1))

    def test_qbinom_range_check(self):
        with pytest.raises(ValueError):
            qbinom(3, 4)
        with pytest.raises(ValueError):
            qbinom(3, -1)

    def test_symmetry_and_pascal(self):
        for n in range(13):
            for j in range(n + 1):
                assert qbinom(n, j) == qbinom(n, n - j)
                if 0 < n:
                    lhs = qbinom(n, j)
                    rhs = LaurentPoly.zero()
                    if j <= n - 1:
                        rhs = rhs + LaurentPoly.monomial(j, 0) * qbinom(n - 1, j)
                    if 1 <= j:
                        rhs = rhs + LaurentPoly.monomial(j - n, 0) * qbinom(n - 1, j - 1)
                    assert lhs == rhs

    def test_pascal_oracle_matches_factorial_route(self):
        # build the triangle bottom-up without any division
        triangle = {(0, 0): LaurentPoly.one()}
        for n in range(1, 10):
            for j in range(n + 1):
                acc = LaurentPoly.zero()
                if j <= n - 1:
                    acc = acc + LaurentPoly.monomial(j, 0) * triangle[(n - 1, j)]
                if 1 <= j:
                    acc = acc + LaurentPoly.monomial(j - n, 0) * triangle[(n - 1, j - 1)]
                triangle[(n, j)] = acc
                assert acc == qbinom(n, j)

    def test_qfactorial(self):
        assert qfactorial(0).is_one()
        assert qfactorial(3) == qint(3) * qint(2)


class TestSpecialize:
    def test_simple_values(self):
        assert specialize(Q * SINV, 2, 3) == Fraction(2, 3)
        assert specialize(qint(2), 2, 7) == Fraction(5, 2)
        assert specialize(S - SINV, 5, 1) == 0

    def test_zero_point_rejected(self):
        with pytest.raises(ZeroSubstitutionError):
            specialize(Q, 0, 1)
        with pytest.raises(ZeroSubstitutionError):
            specialize(Q, 1, 0)

    def test_pole_detected(self):
        r = RatFunc(LaurentPoly.one(), S - SINV)
        with pytest.raises(PoleError):
            specialize(r, 2, 1)
        assert specialize(r, 2, 2) == Fraction(2, 3)

    def test_ring_homomorphism(self, rnd):
        for _ in range(50):
            a, b = random_poly(rnd), random_poly(rnd)
            va = specialize(a, Fraction(3, 2), Fraction(-5, 3))
            vb = specialize(b, Fraction(3, 2), Fraction(-5, 3))
            assert specialize(a * b, Fraction(3, 2), Fraction(-5, 3)) == va * vb
            assert specialize(a + b, Fraction(3, 2), Fraction(-5, 3)) == va + vb


    def test_matches_per_term_fractions(self, rnd):
        points = [(Fraction(3, 2), Fraction(-5, 3)), (Fraction(-7, 11), 4),
                  (1, Fraction(1, 9)), (Fraction(-2), Fraction(-13, 6))]
        for _ in range(60):
            p = random_poly(rnd, max_terms=6, max_exp=7)
            for q0, s0 in points:
                expected = sum((c * Fraction(q0) ** e0 * Fraction(s0) ** e1
                                for (e0, e1), c in p.sorted_terms()), Fraction(0))
                value = p.evaluate(q0, s0)
                assert type(value) is Fraction and value == expected


class TestRatFunc:
    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(Q, LaurentPoly.zero())

    def test_cross_multiplication_equality(self):
        a = RatFunc(Q * (S + 1), S * (S + 1))
        b = RatFunc(Q, S)
        assert a == b

    def test_collapse_to_poly(self):
        r = RatFunc((Q + S) * (Q - S), Q + S)
        assert r.den.is_one()
        assert r.num == Q - S
        assert r.to_poly() == Q - S

    def test_non_integral(self):
        r = RatFunc(Q, S + 1)
        assert not r.is_integral()
        with pytest.raises(InexactDivisionError):
            r.to_poly()

    def test_arithmetic(self):
        half = RatFunc(LaurentPoly.one(), Q + QINV)
        assert half + half == RatFunc(2, Q + QINV)
        assert half * (Q + QINV) == 1
        assert (half - half).is_zero()
        assert 1 / half == Q + QINV

    def test_field_axioms_random(self, rnd):
        for _ in range(40):
            num1, num2 = random_poly(rnd), random_poly(rnd)
            den1, den2 = random_poly(rnd), random_poly(rnd)
            if den1.is_zero() or den2.is_zero():
                continue
            a, b = RatFunc(num1, den1), RatFunc(num2, den2)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) - b == a

    def test_mixing_with_poly(self):
        r = RatFunc(Q, S)
        assert r * S == Q
        assert r + RatFunc(LaurentPoly.zero()) == r


class TestJson:
    def test_poly_roundtrip(self, rnd):
        for _ in range(20):
            p = random_poly(rnd)
            data = p.to_json()
            assert LaurentPoly.from_json(data) == p
            # schema: ascending exponents, decimal-string coefficients
            keys = [(e0, e1) for e0, e1, _ in data["terms"]]
            assert keys == sorted(keys)
            assert all(isinstance(c, str) for _, _, c in data["terms"])

    def test_ratfunc_roundtrip(self):
        r = RatFunc(Q + 1, S + 2)
        assert RatFunc.from_json(r.to_json()) == r
        assert set(r.to_json()) == {"num", "den"}


# -- the packed-key ring against a plain tuple-key implementation ---------------


def o_poly(rnd, q_span, s_span, max_terms=6):
    terms = {}
    for _ in range(rnd.randint(0, max_terms)):
        key = (rnd.randint(-q_span, q_span), rnd.randint(-s_span, s_span))
        terms[key] = terms.get(key, 0) + rnd.randint(-9, 9)
    return {k: c for k, c in terms.items() if c}


def o_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def o_neg(a):
    return {k: -c for k, c in a.items()}


def o_mul(a, b):
    out = {}
    for (a0, a1), ca in a.items():
        for (b0, b1), cb in b.items():
            k = (a0 + b0, a1 + b1)
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def o_shift(a, d0, d1):
    return {(e0 + d0, e1 + d1): c for (e0, e1), c in a.items()}


def o_divexact(a, b):
    """Lex-ordered long division in the positive cone; None when inexact."""
    if not a:
        return {}
    ma = (min(e0 for e0, _ in a), min(e1 for _, e1 in a))
    mb = (min(e0 for e0, _ in b), min(e1 for _, e1 in b))
    rem = o_shift(a, -ma[0], -ma[1])
    div = o_shift(b, -mb[0], -mb[1])
    lb = max(div)
    quotient = {}
    while rem:
        la = max(rem)
        e = (la[0] - lb[0], la[1] - lb[1])
        if e[0] < 0 or e[1] < 0 or rem[la] % div[lb]:
            return None
        quotient[e] = rem[la] // div[lb]
        rem = o_add(rem, o_neg(o_mul(div, {e: quotient[e]})))
    return o_shift(quotient, ma[0] - mb[0], ma[1] - mb[1])


def o_terms(a):
    return sorted(a.items())


@pytest.mark.parametrize("ring", [LaurentPoly, LKBPoly])
def test_packed_ring_matches_tuple_oracle(ring, rnd):
    for _ in range(200):
        # spans from tiny to keys that no longer fit one CPython digit
        q_span, s_span = rnd.choice(((3, 3), (40, 40), (5000, 3), (3, 20000)))
        da, db = o_poly(rnd, q_span, s_span), o_poly(rnd, q_span, s_span)
        a, b = ring(da), ring(db)
        assert type(a * b) is ring
        assert a.sorted_terms() == o_terms(da)
        assert (a * b).sorted_terms() == o_terms(o_mul(da, db))
        assert (a + b).sorted_terms() == o_terms(o_add(da, db))
        assert (a - b).sorted_terms() == o_terms(o_add(da, o_neg(db)))
        assert (-a).sorted_terms() == o_terms(o_neg(da))
        d0, d1 = rnd.randint(-q_span, q_span), rnd.randint(-s_span, s_span)
        assert a.shifted(d0, d1).sorted_terms() == o_terms(o_shift(da, d0, d1))
        assert a.bar().sorted_terms() == o_terms({(-e0, -e1): c
                                                  for (e0, e1), c in da.items()})
        if da:
            top = max(da)
            assert a.leading() == (top, da[top])
        data = a.to_json()
        assert data == {"terms": [[e0, e1, str(c)] for (e0, e1), c in o_terms(da)]}
        assert ring.from_json(data).sorted_terms() == o_terms(da)
        if db:
            # an exact quotient, and a perturbed dividend that may not be one
            prod = o_mul(da, db)
            assert ring(prod).divexact(b).sorted_terms() == o_terms(da)
            noisy = o_add(prod, o_poly(rnd, q_span, s_span, max_terms=1))
            expected = o_divexact(noisy, db)
            if expected is None:
                with pytest.raises(InexactDivisionError):
                    ring(noisy).divexact(b)
            else:
                assert ring(noisy).divexact(b).sorted_terms() == o_terms(expected)
        u = (rnd.randint(-q_span, q_span), rnd.randint(-s_span, s_span))
        w = (rnd.randint(-q_span, q_span), rnd.randint(-s_span, s_span))
        if u != w:
            binomial = {u: 1, w: -1}
            for dividend in (da, o_mul(da, binomial)):
                expected = o_divexact(dividend, binomial)
                if expected is None:
                    with pytest.raises(InexactDivisionError):
                        ring(dividend).divexact_binomial(u, w)
                else:
                    got = ring(dividend).divexact_binomial(u, w)
                    assert got.sorted_terms() == o_terms(expected)


class TestPackedKeyRange:
    """|e_s| <= MAX_S_EXPONENT is representable; beyond it an operation raises."""

    def test_largest_exponent_works(self):
        m = MAX_S_EXPONENT
        for e in (m, -m):
            p = LaurentPoly.monomial(-7, e, 3)
            assert p.sorted_terms() == [((-7, e), 3)]
            assert str(p) == "3*q^-7*s^%d" % e
            assert LaurentPoly.from_json(p.to_json()) == p
            assert p.bar().sorted_terms() == [((7, -e), 3)]
            assert (p * LaurentPoly.monomial(7, -e)).sorted_terms() == [((0, 0), 3)]
            assert p.shifted(0, -e).sorted_terms() == [((-7, 0), 3)]
            assert (p + S).leading() == ((0, 1), 1)
        assert S ** m == LaurentPoly.monomial(0, m)
        assert (S ** m).evaluate(5, -1) == -1
        # a factor at the limit divides out of a sum at the limit exactly
        top = LaurentPoly.monomial(0, m) - LaurentPoly.monomial(0, m - 1)
        assert top.divexact_binomial((0, 1), (0, 0)) == LaurentPoly.monomial(0, m - 1)
        assert top.divexact(S - 1) == LaurentPoly.monomial(0, m - 1)

    def test_crossing_the_limit_raises(self):
        m = MAX_S_EXPONENT
        big = LaurentPoly.monomial(0, m)
        for make in (lambda: LaurentPoly.monomial(0, m + 1),
                     lambda: LaurentPoly.monomial(1, -m - 1),
                     lambda: LaurentPoly({(0, 0): 1, (3, 2 * m): 1}),
                     lambda: big * S,
                     lambda: (Q - big) * (S + Q),
                     lambda: big.bar() * SINV,
                     lambda: big * big,
                     lambda: big.shifted(0, 1),
                     lambda: S ** (m + 1),
                     lambda: SINV ** (m + 1),
                     lambda: (big - S ** (m - 1)).divexact_binomial((0, -1), (0, -2)),
                     lambda: RatFunc(big, SINV + 2),
                     lambda: LKBPoly.monomial(0, m) * LKBPoly.monomial(5, 1)):
            with pytest.raises(OverflowError):
                make()

    def test_no_key_aliases_into_the_first_exponent(self):
        # wrapped around, the key of s^(m+6) would read as q s^(4-m)
        m = MAX_S_EXPONENT
        assert unpack(m + 6) == (1, 4 - m)
        big = LaurentPoly.monomial(0, m)
        with pytest.raises(OverflowError):
            big * LaurentPoly.monomial(0, 6)
        with pytest.raises(OverflowError):
            big.shifted(0, 6)

    def test_alternating_product_stays_in_range(self):
        p = S
        for k in range(2000):
            p = p * (SINV if k % 2 == 0 else S)
        assert p == S
        # operands at the limit trip the bound every time and are rescanned
        m = MAX_S_EXPONENT
        up, down = LaurentPoly.monomial(0, m), LaurentPoly.monomial(1, -m)
        p = 2 + Q
        for _ in range(300):
            p = (p * up) * down
            p = p.shifted(0, m).shifted(0, -m)
        assert p == (2 + Q) * Q ** 300


def summed(pairs):
    """The reference for ``dot``: every product formed, then added in order."""
    products = [x * y for x, y in pairs]
    return sum(products[1:], products[0])


def dot(pairs):
    """sum x * y over a nonempty list of pairs, as one ``row_product`` entry.

    Every pair lands at the key 0; a sum that cancels is dropped there, and
    reads as None here.
    """
    got = row_product(dict(enumerate(x for x, _ in pairs)), [{0: y} for _, y in pairs])
    assert set(got) <= {0}
    return got.get(0)


def ring_poly(ring, rnd, **kwargs):
    return ring(dict(random_poly(rnd, **kwargs).sorted_terms()))


def assert_same_poly(got, want):
    if want.is_zero() and got is None:
        return          # a cancelled row_product entry is not stored
    assert type(got) is type(want)
    assert got.sorted_terms() == want.sorted_terms()
    assert got.s_bound == want.s_bound


class TestDot:
    """One row_product entry, formed by ``mul_add`` in place, against sum(x * y)."""

    @pytest.mark.parametrize("ring", [LaurentPoly, LKBPoly])
    def test_seeded_oracle(self, ring, rnd):
        for _ in range(300):
            pairs = [(ring_poly(ring, rnd), ring_poly(ring, rnd, max_terms=6))
                     for _ in range(rnd.randint(1, 6))]
            got, want = dot(pairs), summed(pairs)
            assert_same_poly(got, want)
            if got is not None:
                assert got.s_bound == max((x * y).s_bound for x, y in pairs)

    @pytest.mark.parametrize("ring", [LaurentPoly, LKBPoly])
    def test_one_pair_is_the_product(self, ring, rnd):
        for _ in range(100):
            x, y = ring_poly(ring, rnd), ring_poly(ring, rnd)
            assert_same_poly(dot([(x, y)]), x * y)

    @pytest.mark.parametrize("ring", [LaurentPoly, LKBPoly])
    def test_exact_cancellation_gives_a_typed_zero(self, ring):
        x = ring({(1, 0): 2, (0, -1): -3})
        y = ring({(2, 1): 1, (0, 0): 5})
        for pairs in ([(x, y), (-x, y)], [(x, y), (y, -x)],
                      [(x, y), (x, x), (-y, x), (-x, x)]):
            # row_product drops the entry; the dense product shows a typed zero
            assert dot(pairs) is None
            (got,), = mat_mul([[x for x, _ in pairs]], [[y] for _, y in pairs])
            assert type(got) is ring
            assert got.is_zero() and got.terms == {}
        # a zero operand, first or later, adds nothing
        zero = ring.zero()
        assert_same_poly(dot([(zero, y), (x, y)]), summed([(zero, y), (x, y)]))
        assert_same_poly(dot([(x, y), (y, zero)]), summed([(x, y), (y, zero)]))
        assert dot([(zero, zero)]) is None

    def test_monomial_pairs(self, rnd):
        for _ in range(200):
            pairs = [(LaurentPoly.monomial(rnd.randint(-5, 5), rnd.randint(-5, 5),
                                           rnd.randint(-3, 3)),
                      LaurentPoly.monomial(rnd.randint(-5, 5), rnd.randint(-5, 5),
                                           rnd.randint(-3, 3)))
                     for _ in range(rnd.randint(1, 8))]
            assert_same_poly(dot(pairs), summed(pairs))

    def test_range_guard_matches_the_product(self, rnd):
        m = MAX_S_EXPONENT
        near = [LaurentPoly.monomial(1, m), LaurentPoly.monomial(0, -m, 2),
                LaurentPoly.monomial(-1, m - 1) + S, S - LaurentPoly.monomial(0, 2 - m),
                S, SINV, S * S, Q + 3, LaurentPoly.zero()]
        raised = passed = 0
        for _ in range(400):
            pairs = [(rnd.choice(near), rnd.choice(near))
                     for _ in range(rnd.randint(1, 4))]
            try:
                want = summed(pairs)
            except OverflowError:
                with pytest.raises(OverflowError):
                    dot(pairs)
                raised += 1
                continue
            got = dot(pairs)
            assert_same_poly(got, want)
            # no key aliased: every exponent decodes inside the range
            assert all(abs(e1) <= m for (_, e1), _ in (got or want).sorted_terms())
            passed += 1
        assert raised and passed

    def test_fraction_field_entries_take_the_fallback(self, rnd):
        half = RatFunc(LaurentPoly.one(), S + 1)
        third = RatFunc(Q, S - 2)
        p = LaurentPoly({(1, 1): 2, (0, 0): -1})
        for pairs in ([(half, third)], [(half, p), (third, half)],
                      [(p, p), (half, p)], [(p, half), (p, p)]):
            got = dot(pairs)
            assert isinstance(got, RatFunc)
            assert got == summed(pairs)
        fracs = [(Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)),
                  Fraction(rnd.randint(-9, 9), rnd.randint(1, 9))) for _ in range(5)]
        assert dot(fracs) == sum(x * y for x, y in fracs)
        assert type(dot(fracs)) is Fraction

    def test_mixed_rings_raise_as_the_product_does(self):
        with pytest.raises(TypeError):
            LaurentPoly.one() * LKBPoly.one()
        with pytest.raises(TypeError):
            dot([(Q, Q), (LaurentPoly.one(), LKBPoly.one())])


class TestMulAdd:
    """The in-place sum-of-products kernel against the tuple-key oracle above."""

    @pytest.mark.parametrize("ring", [LaurentPoly, LKBPoly])
    def test_sums_match_the_tuple_oracle(self, ring, rnd):
        for _ in range(400):
            pairs = [(kernel_operand(rnd, ring), kernel_operand(rnd, ring))
                     for _ in range(rnd.randint(1, 5))]
            if rnd.random() < 0.3:
                # a product that cancels an earlier one term by term
                (dx, x), y = rnd.choice(pairs)
                pairs.append(((o_neg(dx), -x), y))
            acc, want = None, {}
            for (dx, x), (dy, y) in pairs:
                acc = mul_add(acc, x, y)
                want = o_add(want, o_mul(dx, dy))
                assert type(acc) is ring
                assert acc.sorted_terms() == o_terms(want)
                assert all(acc.terms.values()), "a cancelled term was stored as 0"
            assert acc.s_bound == max((x * y).s_bound for (_, x), (_, y) in pairs)
            (dx, x), (dy, y) = pairs[0]
            assert (x * y).sorted_terms() == o_terms(o_mul(dx, dy))

    def test_inputs_are_left_unchanged(self, rnd):
        one = LaurentPoly.one()
        for _ in range(200):
            ops = [kernel_operand(rnd, LaurentPoly)[1] for _ in range(4)] + [one]
            before = [dict(p.terms) for p in ops]
            acc = None
            for _ in range(6):
                x, y = rnd.choice(ops), rnd.choice(ops)
                acc = mul_add(acc, x, y)
                assert acc is not x and acc is not y
                assert all(acc.terms is not p.terms for p in ops)
            assert [p.terms for p in ops] == before
        # the unit copies the other operand's terms, on either side
        y = Q + 2 * S
        for got in (mul_add(None, one, y), mul_add(None, y, one), one * y, y * one):
            assert got == y and got.terms is not y.terms
            mul_add(got, Q, Q)
        assert y.terms == (Q + 2 * S).terms and one.terms == {0: 1}

    def test_overflow_exactly_when_one_product_leaves_the_range(self):
        m = MAX_S_EXPONENT
        one, big = LaurentPoly.one(), LaurentPoly.monomial(0, m)
        # one product past the limit raises, through * and through row_product
        for x, y in ((big, S), (S, big), (big + 1, S + Q), (big.bar(), SINV)):
            with pytest.raises(OverflowError):
                x * y
            with pytest.raises(OverflowError):
                row_product({0: one, 1: x}, [{0: Q}, {0: y}])
        # a bound past the limit that the terms do not reach raises nowhere
        loose = (big + 1) - big
        assert loose.s_bound == m and loose == one
        assert (loose * S).sorted_terms() == [((0, 1), 1)]
        assert (big * SINV).sorted_terms() == [((0, m - 1), 1)]
        (got,) = row_product({0: loose, 1: big}, [{0: S}, {0: SINV}]).values()
        assert got == S + LaurentPoly.monomial(0, m - 1) and got.s_bound == m - 1
        # the guard runs before any term is added
        acc = mul_add(None, Q, S)
        with pytest.raises(OverflowError):
            mul_add(acc, big, S)
        assert acc.terms == (Q * S).terms and acc.s_bound == 1
        # a sum's bound covers each of its products, so the next product sees it
        (total,) = row_product({0: one, 1: big}, [{0: one}, {0: one}]).values()
        assert total.s_bound == m
        with pytest.raises(OverflowError):
            total * S
