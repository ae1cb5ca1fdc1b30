"""Verma module action, coproduct, and weight-space enumeration."""

import itertools
from math import comb

import pytest

from braidrep import verma
from braidrep.braid import (apply_letter, operator_matrix, rmatrix_pair, rmatrix_pair_inverse,
                            rmatrix_pair_perturbed)
from braidrep.hwspace import e_inverse_on_B
from braidrep.ring import LaurentPoly, RatFunc, qbinom
from braidrep.verma import (E, F, K, KINV, AlgebraGen, TensorVec, act_single,
                            act_tensor, weight_basis)

from conftest import random_poly

S = LaurentPoly.monomial(0, 1)


def random_vec(rnd, n, l, nterms=4):
    idxs = weight_basis(n, l)
    picks = rnd.sample(idxs, min(nterms, len(idxs)))
    return TensorVec(n, {idx: random_poly(rnd, max_terms=2, max_exp=2)
                         for idx in picks})


class TestSingleAction:
    def test_k(self):
        assert act_single(K, 2) == LaurentPoly.monomial(-4, 1) * TensorVec.pure((2,))

    def test_kinv_inverts_k(self):
        for j in range(5):
            v = TensorVec.pure((j,))
            assert act_tensor(KINV, act_tensor(K, v)) == v

    def test_e_lowers(self):
        assert act_single(E, 0).is_zero()
        assert act_single(E, 3) == TensorVec.pure((2,))

    def test_f_divided_power(self):
        assert act_single(F(1), 0) == (S - LaurentPoly.monomial(0, -1)) * TensorVec.pure((1,))
        # F^(m) v_j = qbinom(m+j, j) prod_{k<m}(s q^{-k-j} - s^{-1} q^{k+j}) v_{j+m}
        coeff = act_single(F(2), 1).coeff((3,))
        expected = qbinom(3, 1) * LaurentPoly({(-1, 1): 1, (1, -1): -1}) \
            * LaurentPoly({(-2, 1): 1, (2, -1): -1})
        assert coeff == expected

    def test_gen_validation(self):
        with pytest.raises(ValueError):
            AlgebraGen("F", 0)
        with pytest.raises(ValueError):
            AlgebraGen("X")
        with pytest.raises(ValueError):
            act_single(E, -1)


class TestDefiningRelations:
    """Operator identities on single factors, j <= 8 and m <= 4."""

    @pytest.mark.parametrize("j", range(9))
    @pytest.mark.parametrize("m", range(1, 5))
    def test_k_conjugation(self, j, m):
        lhs = act_tensor(K, act_tensor(F(m), act_single(KINV, j)))
        rhs = LaurentPoly.monomial(-2 * m, 0) * act_single(F(m), j)
        assert lhs == rhs

    @pytest.mark.parametrize("j", range(9))
    @pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)])
    def test_divided_power_product(self, j, a, b):
        lhs = act_tensor(F(a), act_single(F(b), j))
        rhs = qbinom(a + b, a) * act_single(F(a + b), j)
        assert lhs == rhs

    @pytest.mark.parametrize("j", range(9))
    @pytest.mark.parametrize("m", range(4))
    def test_e_f_commutator(self, j, m):
        v = TensorVec.pure((j,))
        lhs = act_tensor(E, act_tensor(F(m + 1), v))
        if j > 0:
            lhs = lhs - act_tensor(F(m + 1), act_tensor(E, v))
        inner = LaurentPoly.monomial(-m, 0) * act_tensor(K, v) \
            - LaurentPoly.monomial(m, 0) * act_tensor(KINV, v)
        rhs = act_tensor(F(m), inner) if m else inner
        assert lhs == rhs

    def test_relations_on_tensors(self, rnd):
        # the same identities through the coproduct on two and three factors
        for n, l in [(2, 2), (3, 2)]:
            v = random_vec(rnd, n, l)
            for m in (1, 2):
                lhs = act_tensor(E, act_tensor(F(m + 1), v)) \
                    - act_tensor(F(m + 1), act_tensor(E, v))
                inner = LaurentPoly.monomial(-m, 0) * act_tensor(K, v) \
                    - LaurentPoly.monomial(m, 0) * act_tensor(KINV, v)
                assert lhs == act_tensor(F(m), inner)


class TestTensorAction:
    def test_k_group_like(self):
        assert act_tensor(K, TensorVec.pure((0, 1))) \
            == LaurentPoly.monomial(-2, 2) * TensorVec.pure((0, 1))

    def test_e_two_factors(self):
        assert act_tensor(E, TensorVec.pure((1, 0))) == S * TensorVec.pure((0, 0))
        assert act_tensor(E, TensorVec.pure((0, 0, 0))).is_zero()

    def test_k_eigenvalue_on_weight_space(self):
        for n, l in [(2, 3), (3, 2), (4, 1)]:
            eig = LaurentPoly.monomial(-2 * l, n)
            for idx in weight_basis(n, l):
                v = TensorVec.pure(idx)
                assert act_tensor(K, v) == eig * v

    def test_f_degree_shift(self, rnd):
        v = random_vec(rnd, 3, 2)
        assert act_tensor(F(2), v).weight() == 4
        assert act_tensor(E, v).weight() == 1

    def test_coassociativity_three_factors(self, rnd):
        """(Delta x id) Delta(F^(m)) equals (id x Delta) Delta(F^(m)) on vectors.

        Both sides are expanded from the two-factor coproduct
        Delta(F^(m)) = sum_j q^{-j(m-j)} K^{j-m} F^(j) (x) F^(m-j); the
        elementary factors K^a F^(b) act slotwise.
        """
        def kf(a, b, j):
            # K^a F^(b) . v_j as (coeff, new index)
            out = act_tensor(F(b), TensorVec.pure((j,))) if b else TensorVec.pure((j,))
            ((idx,), coeff), = [(k, v) for k, v in out.coeffs.items()]
            coeff = coeff * LaurentPoly.monomial(-2 * a * idx, a)
            return coeff, idx

        def apply_elementary(v, ops):
            result = TensorVec.zero(v.n)
            for idx, c in v.coeffs.items():
                coeff = c
                new = []
                for slot, (a, b) in enumerate(ops):
                    f, i = kf(a, b, idx[slot])
                    coeff = coeff * f
                    new.append(i)
                result = result + TensorVec.pure(tuple(new), coeff)
            return result

        qm = LaurentPoly.monomial
        for m in (1, 2, 3):
            v = random_vec(rnd, 3, 2)
            left = TensorVec.zero(3)   # (Delta x id) Delta
            right = TensorVec.zero(3)  # (id x Delta) Delta
            for j in range(m + 1):
                outer = qm(-j * (m - j), 0)
                for i in range(j + 1):
                    pref = outer * qm(-i * (j - i), 0)
                    ops = [(j - m + i - j, i), (j - m, j - i), (0, m - j)]
                    left = left + pref * apply_elementary(v, ops)
                for i in range(m - j + 1):
                    pref = outer * qm(-i * (m - j - i), 0)
                    ops = [(j - m, j), (i - (m - j), i), (0, m - j - i)]
                    right = right + pref * apply_elementary(v, ops)
            direct = act_tensor(F(m), v)
            assert left == right
            assert left == direct


class TestWeightBasis:
    def test_base_cases(self):
        assert weight_basis(3, 0) == ((0, 0, 0),)
        assert weight_basis(2, 2) == ((0, 2), (1, 1), (2, 0))

    def test_counts(self):
        for n in range(1, 6):
            for l in range(5):
                assert len(weight_basis(n, l)) == comb(n + l - 1, l)

    def test_lex_order_and_uniqueness(self):
        basis = weight_basis(4, 3)
        assert list(basis) == sorted(set(basis))
        assert all(sum(idx) == 3 and len(idx) == 4 for idx in basis)

    def test_many_strands(self):
        # enumeration is iterative: more strands than the recursion limit
        basis = weight_basis(1500, 1)
        assert len(basis) == 1500
        assert basis[0] == (0,) * 1499 + (1,)
        assert basis[-1] == (1,) + (0,) * 1499

    def test_validation(self):
        with pytest.raises(ValueError):
            weight_basis(0, 1)
        with pytest.raises(ValueError):
            weight_basis(2, -1)


class TestTensorVec:
    def test_zero_and_equality(self):
        z = TensorVec.zero(2)
        assert z.is_zero()
        assert z == TensorVec.pure((1, 1)) - TensorVec.pure((1, 1))

    def test_homogeneity_guard(self):
        v = TensorVec.pure((1, 0)) + TensorVec.pure((1, 1))
        with pytest.raises(ValueError):
            v.weight()

    def test_length_guard(self):
        with pytest.raises(ValueError):
            TensorVec(2, {(1, 2, 3): 1})

    def test_scalar_multiple(self):
        v = TensorVec.pure((1, 0), 2)
        assert 3 * v == TensorVec.pure((1, 0), 6)
        assert (0 * v).is_zero()

    def test_json_roundtrip(self, rnd):
        v = random_vec(rnd, 3, 2)
        data = v.to_json()
        assert TensorVec.from_json(data) == v
        idxs = [tuple(t["idx"]) for t in data["terms"]]
        assert idxs == sorted(idxs)


def assert_no_stored_zero(vec):
    assert all(not c.is_zero() for c in vec.coeffs.values())


class TestProductSites:
    """The sum-of-products sites: cancellation, fraction-field coefficients."""

    def test_combination_stores_no_cancelled_sum(self):
        u = TensorVec(2, {(0, 1): S + 3, (1, 0): S})
        v = TensorVec(2, {(0, 1): S * 2 + 6, (2, 0): 1})
        two = LaurentPoly.constant(2)
        w = TensorVec.combination(2, [(two, u), (-LaurentPoly.one(), v)])
        assert set(w.coeffs) == {(1, 0), (2, 0)}
        assert_no_stored_zero(w)
        assert w == 2 * u - v
        assert TensorVec.combination(2, ((c, vec) for c, vec in [(two, u)])) == 2 * u
        assert TensorVec.combination(2, iter(())).is_zero()

    def test_f_action_cancels_at_an_index(self):
        # F^(1) of a v_(1,0) + b v_(0,1) meets v_(1,1) from both terms;
        # a and b are chosen to cancel it there
        hit_a = act_tensor(F(1), TensorVec.pure((1, 0))).coeff((1, 1))
        hit_b = act_tensor(F(1), TensorVec.pure((0, 1))).coeff((1, 1))
        v = TensorVec(2, {(1, 0): hit_b, (0, 1): -hit_a})
        image = act_tensor(F(1), v)
        assert set(image.coeffs) == {(2, 0), (0, 2)}
        assert_no_stored_zero(image)

    def test_letter_and_inverse_cancel_everywhere_else(self, rnd):
        for k in (1, 2, -1):
            v = random_vec(rnd, 3, 3)
            back = apply_letter(apply_letter(v, k), -k)
            assert set(back.coeffs) == set(v.coeffs)
            assert_no_stored_zero(back)
            assert back == v

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_f_action_on_mixed_coefficients_is_additive(self, rnd, m):
        den = LaurentPoly.monomial(0, 1) + 2
        for _ in range(5):
            idxs = rnd.sample(weight_basis(3, 2), 6)
            poly_part = TensorVec(3, {idx: random_poly(rnd) + 1 for idx in idxs[:3]})
            frac_part = TensorVec(3, {idx: RatFunc(random_poly(rnd) + 1, den)
                                      for idx in idxs[3:]})
            mixed = TensorVec(3, {**poly_part.coeffs, **frac_part.coeffs})
            image = act_tensor(F(m), mixed)
            assert image == act_tensor(F(m), poly_part) + act_tensor(F(m), frac_part)
            assert any(isinstance(c, RatFunc) for c in image.coeffs.values())
            assert_no_stored_zero(image)


class TestFImageCache:
    """F^(m) acts through cached images of pure tensors, keyed by (m, idx)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_image_keys_are_the_compositions_of_m(self, n, m):
        parts = [p for p in itertools.product(range(m + 1), repeat=n) if sum(p) == m]
        for idx in itertools.product(range(2), repeat=n):
            image = verma._f_image(m, idx)
            assert set(image) == {tuple(a + b for a, b in zip(idx, p))
                                  for p in parts}
            assert all(not c.is_zero() for c in image.values())

    @pytest.mark.parametrize("n,l", [(4, 3), (5, 2)])
    def test_image_is_the_sum_of_the_pure_tensor_images(self, rnd, n, l):
        verma._f_image.cache_clear()
        for m in (1, 2, 3):
            for _ in range(3):
                v = random_vec(rnd, n, l, nterms=6)
                want = TensorVec.zero(n)
                for idx, c in v.coeffs.items():
                    want = want + act_tensor(F(m), TensorVec.pure(idx)) * c
                image = act_tensor(F(m), v)
                assert image == want
                assert_no_stored_zero(image)

    @pytest.mark.parametrize("n,l", [(4, 3), (5, 2)])
    def test_divided_powers_multiply_with_a_warm_cache(self, rnd, n, l):
        # F^(a) F^(b) = qbinom(a + b, a) F^(a + b); the cache already holds
        # images of the same pure tensors under other m, so a cache that
        # ignored m would serve them here
        verma._f_image.cache_clear()
        for _ in range(2):
            v = random_vec(rnd, n, l, nterms=6)
            for a, b in ((1, 1), (1, 2), (2, 1)):
                assert act_tensor(F(a), act_tensor(F(b), v)) \
                    == qbinom(a + b, a) * act_tensor(F(a + b), v)


def e_by_slots(vec):
    """E through the iterated coproduct, Delta(E) = E (x) K + 1 (x) E, slot by slot.

    The n-fold coproduct is sum_i 1 (x) ... (x) E (x) K (x) ... (x) K: E
    lowers slot i, and each slot r > i scales by K's eigenvalue on its own
    factor, s q^(-2 a_r).
    """
    result = TensorVec.zero(vec.n)
    for idx, c in vec.coeffs.items():
        for i, a in enumerate(idx):
            if a:
                coeff = c
                for b in idx[i + 1:]:
                    coeff = coeff * LaurentPoly.monomial(-2 * b, 1)
                result = result + TensorVec.pure(idx[:i] + (a - 1,) + idx[i + 1:], coeff)
    return result


def seeded_vectors(rnd, n, l):
    """A Laurent, a RatFunc and a mixed vector of V_{n,l}."""
    den = LaurentPoly.monomial(1, 1) - 3
    laurent = random_vec(rnd, n, l, nterms=5)
    frac = TensorVec(n, {idx: RatFunc(random_poly(rnd) + 1, den)
                         for idx in rnd.sample(weight_basis(n, l),
                                               min(3, comb(n + l - 1, l)))})
    return [laurent, frac, laurent + frac]


class TestKScalar:
    """K^{+-1} scale V_{n,l} by s^{+-n} q^{-+2l}; the oracle reads no image table."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_k_acts_by_its_weight_scalar(self, rnd, n, l):
        for gen, sign in ((K, 1), (KINV, -1)):
            d0, d1 = -2 * sign * l, sign * n
            for v in seeded_vectors(rnd, n, l):
                image = act_tensor(gen, v)
                assert image == TensorVec(n, {idx: c.shifted(d0, d1)
                                              for idx, c in v.coeffs.items()})
                assert_no_stored_zero(image)
            rows, target = operator_matrix(gen, n, l)
            assert target == weight_basis(n, l)
            assert rows == [{r: LaurentPoly.monomial(d0, d1)} for r in range(len(target))]

    def test_a_wrong_k_scalar_is_caught(self, rnd):
        # control: the oracle rejects s^n q^{-2l} in place of s^{-n} q^{2l}
        for v in seeded_vectors(rnd, 3, 2):
            assert act_tensor(KINV, v) != TensorVec(3, {idx: c.shifted(-4, 3)
                                                        for idx, c in v.coeffs.items()})


def mixed_vector(rnd, n, l):
    """Four terms of V_{n,l}: LaurentPoly, RatFunc, LaurentPoly, RatFunc, in key order."""
    den = LaurentPoly.monomial(1, 1) - 3
    # s^4 lies outside random_poly's exponents, so no coefficient is zero
    coeffs = [random_poly(rnd) + LaurentPoly.monomial(0, 4) for _ in range(4)]
    coeffs[1], coeffs[3] = RatFunc(coeffs[1], den), RatFunc(coeffs[3], den)
    vec = TensorVec(n, zip(rnd.sample(weight_basis(n, l), 4), coeffs))
    assert [type(c) for c in vec.coeffs.values()] == [LaurentPoly, RatFunc] * 2
    return vec


def term_maps(vec):
    """Each coefficient's term maps, copied, to show that an operation left them alone."""
    return {idx: (dict(c.num.terms), dict(c.den.terms)) if isinstance(c, RatFunc)
            else dict(c.terms) for idx, c in vec.coeffs.items()}


def summed(terms):
    """sum of the (idx, coeff) terms by plain ring sums, in order, zeros dropped."""
    out = {}
    for idx, c in terms:
        out[idx] = out[idx] + c if idx in out else c
    return {idx: c for idx, c in out.items() if not c.is_zero()}


class TestMixedClasses:
    """A LaurentPoly first coefficient and a later RatFunc: the row product restarts."""

    @pytest.mark.parametrize("k", [1, 2, -1, -2])
    @pytest.mark.parametrize("perturb", [False, True])
    def test_letter_is_the_termwise_pair_image(self, rnd, k, perturb):
        pair = (rmatrix_pair_inverse if k < 0 else
                rmatrix_pair_perturbed if perturb else rmatrix_pair)
        i = abs(k) - 1
        for _ in range(3):
            v = mixed_vector(rnd, 3, 3)
            before = term_maps(v)
            image = apply_letter(v, k, perturb)
            assert image.coeffs == summed(
                (idx[:i] + ab + idx[i + 2:], c * x) for idx, c in v.coeffs.items()
                for ab, x in pair(idx[i], idx[i + 1]).coeffs.items())
            assert any(isinstance(c, RatFunc) for c in image.coeffs.values())
            assert_no_stored_zero(image)
            assert term_maps(v) == before

    def test_sum_difference_and_scalar_are_termwise(self, rnd):
        for _ in range(5):
            u, v = mixed_vector(rnd, 3, 2), mixed_vector(rnd, 3, 2)
            before = term_maps(u), term_maps(v)
            scalars = (random_poly(rnd) + LaurentPoly.monomial(0, 4), 3, 0,
                       RatFunc(S + 1, S - 2))
            cases = [(u + v, summed([*u.coeffs.items(), *v.coeffs.items()])),
                     (u - v, summed([*u.coeffs.items(), *((i, -c) for i, c in v.coeffs.items())])),
                     (u - u, {})]
            cases += [(u * x, summed((i, c * x) for i, c in u.coeffs.items())) for x in scalars]
            cases += [(x * u, summed((i, c * x) for i, c in u.coeffs.items())) for x in scalars]
            for got, want in cases:
                assert got.coeffs == want
                assert_no_stored_zero(got)
            assert (term_maps(u), term_maps(v)) == before


class TestEImageCache:
    """E acts through cached images of pure tensors, keyed by idx."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("l", [0, 1, 2, 3, 4])
    def test_action_matches_the_slotwise_coproduct(self, rnd, n, l):
        for v in seeded_vectors(rnd, n, l):
            image = act_tensor(E, v)
            assert image == e_by_slots(v)
            assert_no_stored_zero(image)

    def test_sign_flipped_k_exponent_is_caught(self, rnd, monkeypatch):
        # control: the images with q^(+2 right) in place of q^(-2 right)
        real = verma._e_image

        def flipped(idx):
            return {i: LaurentPoly.monomial(-e0, e1) for i, x in real(idx).items()
                    for (e0, e1), _ in [x.as_monomial()]}

        monkeypatch.setattr(verma, "_e_image", flipped)
        for n, l in [(2, 2), (3, 3), (4, 4)]:
            for v in seeded_vectors(rnd, n, l):
                assert act_tensor(E, v) != e_by_slots(v)

    def test_images_are_shared_and_left_unchanged(self, rnd):
        idxs = weight_basis(4, 3)
        held = {idx: verma._e_image(idx) for idx in idxs}
        copies = {idx: dict(image) for idx, image in held.items()}
        for v in seeded_vectors(rnd, 4, 3):
            act_tensor(E, v)
        e_inverse_on_B(act_tensor(E, random_vec(rnd, 4, 3)))
        for idx in idxs:
            assert verma._e_image(idx) is held[idx]
            assert held[idx] == copies[idx]
            assert set(held[idx]) == {idx[:i] + (a - 1,) + idx[i + 1:]
                                      for i, a in enumerate(idx) if a}
            assert all(x.as_monomial()[1] == 1 for x in held[idx].values())
