"""Weight-space decomposition, splitting maps, irreducibility certificates."""

import dataclasses
import functools
import random
from collections import Counter
from fractions import Fraction
from math import comb, prod
from operator import mul

import pytest

from braidrep import decomp
from braidrep.braid import BraidWord, apply_letter
from braidrep.decomp import (_CERT_PRIME as CERT_PRIME, GuardedSpecializationError,
                             _cert_prime, _commutant_dim_modp, _krylov,
                             _random_element, _generators_modp, _integerize,
                             _pure_decomposition,
                             _specialized_generators, _sylvester_rows, alpha_map,
                             c_coeff, check_full_twist, check_splitting,
                             commutant_dimension, decompose, ef1_eigencheck,
                             full_twist_scalar, full_twist_word,
                             lambda_const, matrix_commutant_dimension, mu,
                             psi_map, random_specialization,
                             validate_specialization)
from braidrep.hwspace import (hw_basis, is_highest_weight, label_str,
                              rho_matrix)
from braidrep.linalg import fraction_rank, mat_mul, modp_rank
from braidrep.lkb import burau_matrices
from braidrep.report import all_passed
from braidrep.ring import (InexactDivisionError, LaurentPoly, RatFunc, qint,
                           specialize)
from braidrep.verma import E, F, TensorVec, act_tensor, weight_basis

from conftest import (random_poly, ratfunc_decomposition_oracle,
                      ratfunc_splitting_oracle, row_lists)

# a prime whose residues are multi-digit ints; points off it and off
# 2^30 - 35 at once are cases for the per-point prime
MERSENNE_61 = (1 << 61) - 1


def mono(eq, es, c=1):
    return LaurentPoly.monomial(eq, es, c)


def beta_factor_count(den, n, l):
    """How many binomials s^n q^-a - s^-n q^a divide den; a unit monomial must remain."""
    count = 0
    for a in range(-2 * l - 2, 2 * l + 3):
        b = LaurentPoly({(-a, n): 1, (a, -n): -1})
        while True:
            try:
                den = den.divexact(b)
            except InexactDivisionError:
                break
            count += 1
    unit = den.as_monomial()
    assert unit is not None and unit[1] in (1, -1)
    return count


def random_vec(rnd, n, l, nterms=5):
    idxs = weight_basis(n, l)
    picks = rnd.sample(idxs, min(nterms, len(idxs)))
    return TensorVec(n, {idx: random_poly(rnd, max_terms=2, max_exp=1)
                         for idx in picks})


class TestMu:
    def test_empty_product(self):
        assert mu(0, 5, 3, 2).is_one()

    def test_t1_k0(self):
        for n, l in [(2, 1), (3, 2), (4, 0)]:
            assert mu(1, 0, n, l) == LaurentPoly({(-2 * l, n): 1, (2 * l, -n): -1})

    def test_hand_expansion(self):
        expected = LaurentPoly({(-4, 3): 1, (4, -3): -1}) \
            * LaurentPoly({(-3, 3): 1, (3, -3): -1})
        assert mu(2, 1, 3, 2) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            mu(-1, 0, 3, 2)


class TestDecompose:
    def test_highest_weight_input(self):
        w = hw_basis(3, 2)[1].vector
        dec = decompose(w)
        assert dec.components[0] == w
        assert all(c.is_zero() for c in dec.components[1:])

    def test_f_image_input(self):
        w = hw_basis(3, 2)[0].vector
        dec = decompose(act_tensor(F(1), w))
        assert dec.components[0].is_zero()
        assert dec.components[1] == w
        assert dec.components[2].is_zero()

    def test_first_column_vector(self):
        # v_1 (x) v_0^{n-1}: the F^(1)-component is s^{n-1}/(s^n - s^-n) v_0^n
        for n in (2, 3, 4):
            dec = decompose(TensorVec.pure((1,) + (0,) * (n - 1)))
            expected = RatFunc(mono(0, n - 1),
                               LaurentPoly({(0, n): 1, (0, -n): -1}))
            assert dec.components[1].coeff((0,) * n) == expected
            assert not dec.components[0].is_zero()

    def test_components_killed_by_e(self, rnd):
        for n, l in [(3, 2), (4, 3)]:
            v = random_vec(rnd, n, l)
            if v.is_zero():
                continue
            for w in decompose(v).components:
                if not w.is_zero():
                    assert act_tensor(E, w).is_zero()

    @pytest.mark.parametrize("n,l", [(2, 2), (3, 2), (3, 3), (4, 2)])
    def test_reconstruction_random(self, n, l, rnd):
        for _ in range(25):
            v = random_vec(rnd, n, l)
            if v.is_zero():
                continue
            assert decompose(v).reconstruct() == v

    @pytest.mark.parametrize("n,l", [(3, 2), (4, 3), (3, 4)])
    def test_pure_tensors_against_ratfunc_oracle(self, n, l):
        most = 0
        for idx in weight_basis(n, l):
            v = TensorVec.pure(idx)
            components = decompose(v).components
            assert list(components) == ratfunc_decomposition_oracle(v)
            for w in components:
                for c in w.coeffs.values():
                    most = max(most, beta_factor_count(c.den, n, l))
        # the unreduced top-down denominators carry up to l(l+1)/2 binomials
        assert most <= l

    def test_ratfunc_input(self):
        half = RatFunc(LaurentPoly.one(), LaurentPoly.monomial(0, 1) + 1)
        v = half * TensorVec.pure((1, 1, 0))
        dec = decompose(v)
        assert dec.reconstruct() == v

    def test_mixed_ratfunc_input(self):
        # repeated, distinct and absent denominators share one cleared form
        den_a = LaurentPoly.monomial(0, 1) + 1
        den_b = LaurentPoly.monomial(1, 0) - LaurentPoly.monomial(0, 2)
        v = TensorVec(3, {(2, 0, 0): RatFunc(mono(1, 0), den_a),
                          (0, 2, 0): RatFunc(LaurentPoly.constant(3), den_a),
                          (1, 0, 1): RatFunc(mono(0, -1), den_b),
                          (0, 1, 1): mono(2, 1)})
        dec = decompose(v)
        assert dec.reconstruct() == v
        assert list(dec.components) == ratfunc_decomposition_oracle(v)

    @pytest.mark.parametrize("case", ["single", "mixed"])
    def test_reconstruct_returns_the_ratfunc_input(self, case):
        # the fraction-field inputs of the two tests above: reconstruct gives
        # back each coefficient as a RatFunc equal to the input's
        den_a = LaurentPoly.monomial(0, 1) + 1
        if case == "single":
            v = RatFunc(LaurentPoly.one(), den_a) * TensorVec.pure((1, 1, 0))
        else:
            den_b = LaurentPoly.monomial(1, 0) - LaurentPoly.monomial(0, 2)
            v = TensorVec(3, {(2, 0, 0): RatFunc(mono(1, 0), den_a),
                              (0, 2, 0): RatFunc(LaurentPoly.constant(3), den_a),
                              (1, 0, 1): RatFunc(mono(0, -1), den_b),
                              (0, 1, 1): mono(2, 1)})
        got = decompose(v).reconstruct()
        assert set(got.coeffs) == set(v.coeffs)
        for idx, c in got.coeffs.items():
            assert isinstance(c, RatFunc)
            assert c == v.coeffs[idx]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            decompose(TensorVec.zero(3))

    @pytest.mark.parametrize("idx", [(1, -1), (3, -1, 0)])
    def test_negative_index_rejected(self, idx):
        # (1, -1) used to return a split of a vector outside the module, and
        # (3, -1, 0) failed deep inside qbinom; neither may reach the cache
        before = _pure_decomposition.cache_info()
        with pytest.raises(ValueError, match="nonnegative"):
            decompose(TensorVec.pure(idx))
        after = _pure_decomposition.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)


def beta(a, n):
    return LaurentPoly({(-a, n): 1, (a, -n): -1})


def parts(dec):
    """Everything decompose returns, in comparable form."""
    return dec.numerators, dec.factors, dec.denom, dec.to_json()


class TestRecombination:
    """decompose(v) formed by linearity from cached pure-tensor splits."""

    @pytest.mark.parametrize("n,l", [(3, 3), (4, 3)])
    def test_cold_and_warm_cache_agree_with_oracle(self, n, l, rnd):
        vecs = [v for v in (random_vec(rnd, n, l) for _ in range(8))
                if not v.is_zero()]
        cold = []
        for v in vecs:
            _pure_decomposition.cache_clear()
            cold.append(decompose(v))
        for idx in weight_basis(n, l):
            decompose(TensorVec.pure(idx))
        for v, dec in zip(vecs, cold):
            warm = decompose(v)
            assert parts(warm) == parts(dec)
            assert list(warm.components) == ratfunc_decomposition_oracle(v)

    def test_beta_coefficient_is_cancelled(self):
        n, l = 4, 3
        hits = 0
        for idx in weight_basis(n, l):
            pure = decompose(TensorVec.pure(idx))
            for t, factors in enumerate(pure.factors):
                for a in factors:
                    dec = decompose(TensorVec.pure(idx, beta(a, n)))
                    assert dec.factors[t] == factors - Counter({a: 1})
                    assert dec.numerators[t] == pure.numerators[t]
                    hits += 1
        assert hits

    @pytest.mark.parametrize("n,l", [(3, 3), (4, 3)])
    def test_no_kept_factor_divides_its_numerator(self, n, l, rnd):
        vecs = [TensorVec.pure(idx) for idx in weight_basis(n, l)]
        vecs += [random_vec(rnd, n, l) for _ in range(8)]
        kept = 0
        for v in vecs:
            if v.is_zero():
                continue
            dec = decompose(v)
            for num, factors in zip(dec.numerators, dec.factors):
                for a in factors:
                    with pytest.raises(InexactDivisionError):
                        for c in num.coeffs.values():
                            c.divexact_binomial((-a, n), (a, -n))
                    kept += 1
        assert kept

    def test_ratfunc_input_goes_through_cache(self):
        den = LaurentPoly.monomial(0, 1) + 2
        v = TensorVec(4, {(3, 0, 0, 0): RatFunc(mono(1, 0), den),
                          (1, 1, 1, 0): RatFunc(LaurentPoly.constant(3), den),
                          (0, 2, 0, 1): mono(0, -1) + 1})
        _pure_decomposition.cache_clear()
        dec = decompose(v)
        info = _pure_decomposition.cache_info()
        assert (info.hits, info.misses) == (0, 3)
        assert parts(decompose(v)) == parts(dec)
        assert _pure_decomposition.cache_info().hits == 3
        assert dec.reconstruct() == v
        assert list(dec.components) == ratfunc_decomposition_oracle(v)


class TestEF1:
    @pytest.mark.parametrize("n,l", [(2, 2), (3, 2), (3, 3)])
    def test_eigencheck(self, n, l):
        assert all_passed(ef1_eigencheck(n, l))

    def test_wrong_eigenvalue_names_the_first_vector(self, monkeypatch):
        # negative control: [k+1]_q + 1 is no eigenvalue; the first mismatch
        # is at k = 0 on the first basis vector of W_{3,2}
        monkeypatch.setattr(decomp, "qint", lambda k: qint(k) + 1)
        reports = ef1_eigencheck(3, 2)
        w = hw_basis(3, 2)[0]
        assert reports[0].witness == {
            "k": 0, "label": label_str(w.label),
            "diff": str(-mu(1, 0, 3, 2) * w.vector)}
        assert not any(r.passed for r in reports[:3])

    def test_specific_eigenvalue(self):
        # k = 0 at (3, 2): [1]_q mu_{1,0} = s^3 q^-4 - s^-3 q^4
        expected = LaurentPoly({(-4, 3): 1, (4, -3): -1})
        assert qint(1) * mu(1, 0, 3, 2) == expected

    def test_lowest_component_identity(self):
        # k = l: the F^(l)-image of the one-dimensional degree-0 space
        n, l = 3, 2
        w = TensorVec.pure((0,) * n)
        v = act_tensor(F(l), w)
        image = act_tensor(E, act_tensor(F(1), v))
        assert image == (qint(l + 1) * mu(1, l, n, l)) * v

    def test_distinctness(self):
        for n, l in [(3, 3), (4, 2)]:
            values = [qint(k + 1) * mu(1, k, n, l) for k in range(l + 1)]
            for a in range(len(values)):
                for b in range(a + 1, len(values)):
                    assert values[a] != values[b]


class TestSplittingMaps:
    def test_c_start(self):
        for k in (1, 2, 3):
            assert c_coeff(k, 0, 3, 3).is_one()

    def test_alpha_unfold_k1(self):
        n = 3
        w = TensorVec.pure((0,) * n)
        out = alpha_map(1, w)
        ext = TensorVec.pure((0,) * (n + 1))
        expected = c_coeff(1, 0, n, 1) * act_tensor(F(1), ext) \
            + c_coeff(1, 1, n, 1) * TensorVec.pure((1,) + (0,) * n)
        assert out == expected

    @pytest.mark.parametrize("n,l,k", [(3, 3, 2), (2, 2, 1), (3, 2, 2)])
    def test_alpha_highest_weight(self, n, l, k):
        for el in hw_basis(n, l - k):
            assert is_highest_weight(alpha_map(k, el.vector))

    def test_alpha_range_check(self):
        with pytest.raises(ValueError):
            alpha_map(0, TensorVec.pure((0, 0)))

    def test_psi_on_basis(self):
        # labels with their leading 1 in slot 1 map to their tails, embedded
        # labels to zero
        for el in hw_basis(4, 2):
            image = psi_map(el.vector)
            if el.label[0] == 1:
                assert image == TensorVec.pure(el.label[1:])
            else:
                assert image.is_zero()

    def test_psi_alpha_scalar(self):
        # psi(alpha_k w) = lambda_k F^(k-1) w
        for n, l, k in [(3, 2, 1), (3, 3, 2), (2, 2, 2)]:
            for el in hw_basis(n, l - k):
                w = el.vector
                lhs = psi_map(alpha_map(k, w))
                rhs = lambda_const(k, n, l) * (act_tensor(F(k - 1), w)
                                               if k > 1 else w)
                assert lhs == rhs

    def test_lambda_two_routes(self):
        # closed form versus the defining first-order expansion
        for n, l, k in [(2, 2, 1), (3, 2, 1), (3, 3, 2), (4, 3, 3)]:
            s_part = LaurentPoly({(k - 1, 2 - k): 1, (k - 1, -k): -1})
            route2 = s_part + c_coeff(k, 1, n, l) * mono(2 * k - 2, 1 - k)
            assert lambda_const(k, n, l) == route2

    @pytest.mark.parametrize("n,l", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3),
                                     (5, 3), (4, 4), (5, 4)])
    def test_splitting(self, n, l):
        assert all_passed(check_splitting(n, l))

    @pytest.mark.parametrize("n,l", [(2, 3), (3, 2), (3, 3)])
    def test_ratfunc_oracle_is_an_equivariant_section(self, n, l):
        # the direct-sum map, formed over RatFunc apart from check_splitting,
        # satisfies psi alpha = 1 and alpha sigma_i = sigma_{i+1} alpha on
        # every pure tensor of V_{n,l-1}
        for idx in weight_basis(n, l - 1):
            v = TensorVec.pure(idx)
            image = ratfunc_splitting_oracle(v)
            assert psi_map(image) == v
            for i in range(1, n):
                assert (ratfunc_splitting_oracle(apply_letter(v, i))
                        == apply_letter(image, i + 1)), (idx, i)

    def test_forms_no_fraction(self, monkeypatch):
        def no_fraction(self, *args, **kwargs):
            raise AssertionError("RatFunc formed")

        monkeypatch.setattr(RatFunc, "__init__", no_fraction)
        assert all_passed(check_splitting(3, 3))

    @pytest.mark.parametrize("n,l", [(2, 3), (3, 2), (4, 3), (5, 4)])
    def test_unshifted_generator_fails(self, n, l, monkeypatch):
        # negative control: the inclusion must send sigma_i to sigma_{i+1}
        monkeypatch.setattr(decomp, "shifted_generator", lambda i: i)
        reports = [r for r in check_splitting(n, l)
                   if r.check == "splitting-equivariance"]
        assert len(reports) == n - 1
        assert all(not r.passed and r.witness is not None for r in reports)

    def test_wrong_lambda_breaks_section(self, monkeypatch):
        # negative control: doubling every lambda_k scales N by 2^(l-1), D by 2^l
        lam = decomp.lambda_const
        monkeypatch.setattr(decomp, "lambda_const",
                            lambda k, n, l: 2 * lam(k, n, l))
        reports = {r.check: r for r in check_splitting(3, 2)}
        section = reports["splitting-section"]
        assert not section.passed and section.witness is not None

    @pytest.mark.parametrize("n,l", [(3, 2), (4, 4)])
    def test_section_witness_names_the_first_mismatch(self, n, l, monkeypatch):
        # doubling lambda_k leaves psi(alpha_1 w) = lambda_1 w wrong by
        # -lambda_1 w at the first basis vector w of W_{n,l-1}
        lam = decomp.lambda_const
        monkeypatch.setattr(decomp, "lambda_const",
                            lambda k, n, l: 2 * lam(k, n, l))
        section, *equivariance, dims = check_splitting(n, l)
        assert not section.passed
        first = hw_basis(n, l - 1)[0]
        assert section.witness == {
            "k": 1, "label": label_str(first.label),
            "diff": str(-lam(1, n, l) * first.vector)}
        assert all(r.passed and r.witness is None for r in equivariance)
        assert dims.passed and dims.witness is None

    def test_equivariance_witness_names_k_and_the_vector(self, monkeypatch):
        # sigma_1 in place of sigma_2: the first mismatch is at k = 1 on the
        # first basis vector, and the witness is the difference of the sides
        monkeypatch.setattr(decomp, "shifted_generator", lambda i: i)
        reports = check_splitting(3, 2)
        witness = reports[1].witness
        w = hw_basis(3, 1)[0]
        alpha = alpha_map(1, w.vector)
        diff = alpha_map(1, apply_letter(w.vector, 1)) - apply_letter(alpha, 1)
        assert witness == {"k": 1, "label": label_str(w.label), "diff": str(diff)}

    @pytest.mark.parametrize("n,l", [(3, 2), (4, 3), (3, 3)])
    def test_negated_c_at_j2_fails_section(self, n, l, monkeypatch):
        # negative control: psi never sees the j = 2 term of alpha_2, and
        # equivariance holds for any c_{k,j}, so only E alpha_2 = 0 fails
        c = decomp.c_coeff
        monkeypatch.setattr(decomp, "c_coeff", lambda k, j, n, l: (
            -c(k, j, n, l) if j == 2 else c(k, j, n, l)))
        section, *equivariance, dims = check_splitting(n, l)
        assert not section.passed
        first = hw_basis(n, l - 2)[0]
        assert section.witness == {
            "k": 2, "label": label_str(first.label),
            "diff": str(act_tensor(E, alpha_map(2, first.vector)))}
        assert all(r.passed for r in equivariance) and dims.passed

    def test_passing_reports_carry_no_witness(self):
        assert all(r.passed and r.witness is None for r in check_splitting(4, 3))

    def test_dimension_bookkeeping(self):
        for n in range(2, 6):
            for l in range(1, 5):
                assert comb(n + l - 1, l) == sum(
                    comb(n + l - k - 2, l - k) for k in range(l + 1))


class TestOmega:
    def test_omega_nonzero(self):
        # the top component of v_j (x) v_0^{n-1} never vanishes
        for n in range(2, 5):
            for j in range(1, 5):
                nu = TensorVec.pure((j,) + (0,) * (n - 1))
                omega = decompose(nu).components[0]
                assert not omega.is_zero()
                assert is_highest_weight(omega)


def is_garside_half(letters, n):
    """A positive word of n(n-1)/2 letters whose permutation reverses the strands."""
    if len(letters) != n * (n - 1) // 2 or not all(0 < k < n for k in letters):
        return False
    strands = list(range(1, n + 1))
    for k in letters:
        strands[k - 1], strands[k] = strands[k], strands[k - 1]
    return strands == list(range(n, 0, -1))


class TestFullTwist:
    def test_two_strands_squares_generator(self):
        for l in (1, 2, 3):
            gen = rho_matrix(2, l, [1]).entries[0][0]
            assert full_twist_scalar(2, l) == gen * gen

    def test_burau_route(self):
        # multiply the six reduced Burau matrices directly
        mats = burau_matrices(3, reduced=True)
        prod = None
        for k in (1, 2, 1, 2, 1, 2):
            m = mats[k - 1]
            prod = m if prod is None else mat_mul(m, prod)
        for r in range(2):
            for c in range(2):
                expected = mono(0, -6) if r == c else LaurentPoly.zero()
                assert prod[r][c] == expected
        assert full_twist_scalar(3, 1) == mono(0, -6)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_garside_word_is_the_full_twist(self, n):
        # Delta^2 and (sigma_1 ... sigma_{n-1})^n are one braid, so they have
        # one matrix on every W_{n,l}
        word = full_twist_word(n)
        assert len(word.letters) == n * (n - 1)
        for l in range(4):
            want = rho_matrix(n, l, tuple(range(1, n)) * n).entries
            assert rho_matrix(n, l, word).entries == want, l

    @pytest.mark.parametrize("n", range(2, 9))
    def test_each_half_is_delta(self, n):
        # basis-free: each half is a positive word of n(n-1)/2 letters for the
        # strand reversal, a reduced word of the longest permutation, so each
        # is Garside's Delta (Matsumoto, Tits)
        letters = full_twist_word(n).letters
        half = n * (n - 1) // 2
        assert len(letters) == 2 * half
        for part in (letters[:half], letters[half:]):
            assert is_garside_half(part, n)
            # controls: one letter changed, or inverted, breaks it
            for pos, k in enumerate(part):
                for other in [j for j in range(1, n) if j != k] + [-k]:
                    changed = part[:pos] + (other,) + part[pos + 1:]
                    assert not is_garside_half(changed, n), (pos, other)

    def test_non_scalar_matrix_raises_at_the_first_entry(self, monkeypatch):
        real = decomp.rho_matrix

        def altered(n, l, word):
            m = real(n, l, word)
            rows = [list(row) for row in m.entries]
            rows[2][0] = rows[2][0] + mono(1, 0)
            rows[1][2] = rows[1][2] + mono(0, 1)
            return dataclasses.replace(m, entries=tuple(map(tuple, rows)))

        monkeypatch.setattr(decomp, "rho_matrix", altered)
        with pytest.raises(ArithmeticError,
                           match=r"not scalar at \(1, 2\) for n=3 l=2"):
            full_twist_scalar(3, 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_closed_form(self, n):
        # the ribbon value q^(2l(l-1)) s^(-2nl) on every W_{n,l}, l = 0..3
        for l in range(4):
            (report,) = check_full_twist(n, l)
            assert report.passed, (n, l)
            assert full_twist_scalar(n, l) == mono(2 * l * (l - 1), -2 * n * l)
            assert report.witness == str(full_twist_scalar(n, l))

    def test_wrong_twist_fails_the_closed_form(self, monkeypatch):
        # negative control: Delta^4 is central, so its matrix is scalar, but
        # the scalar is the square of the expected one
        twist = decomp.full_twist_word
        monkeypatch.setattr(decomp, "full_twist_word",
                            lambda n: BraidWord(n, twist(n).letters * 2))
        (report,) = check_full_twist(3, 2)
        assert not report.passed
        assert report.witness == str(mono(8, -24))

    def test_3_2_value_two_routes(self):
        # route B: multiply generator matrices of the word
        a = row_lists(rho_matrix(3, 2, [1]))
        b = row_lists(rho_matrix(3, 2, [2]))
        prod = None
        for mat in (a, b, a, b, a, b):
            prod = mat if prod is None else mat_mul(mat, prod)
        scalar = full_twist_scalar(3, 2)
        assert scalar == mono(4, -12)
        for r in range(3):
            for c in range(3):
                expected = scalar if r == c else LaurentPoly.zero()
                assert prod[r][c] == expected


def rref(rows, ncols):
    """Independent plain row-reduction over Fractions (test oracle).

    Returns the reduced rows and the pivot columns; row r has its pivot 1
    in column pivot_cols[r].
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    pivot_cols = []
    for col in range(ncols):
        pivots = len(pivot_cols)
        pivot_row = None
        for r in range(pivots, len(rows)):
            if rows[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pivots], rows[pivot_row] = rows[pivot_row], rows[pivots]
        pv = rows[pivots][col]
        rows[pivots] = [x / pv for x in rows[pivots]]
        for r in range(len(rows)):
            if r != pivots and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pivots])]
        pivot_cols.append(col)
    return rows, pivot_cols


def rref_kernel_dim(rows, ncols):
    return ncols - len(rref(rows, ncols)[1])


def sylvester_rows(mats):
    """Rows of X A - A X = 0 for every A, in the d*d entries of X."""
    d = len(mats[0])
    rows = []
    for a in mats:
        for r in range(d):
            for c in range(d):
                row = [Fraction(0)] * (d * d)
                for k in range(d):
                    row[r * d + k] += a[k][c]
                    row[k * d + c] -= a[r][k]
                rows.append(row)
    return rows


def w32_generators():
    """The two rho_{3,2} generators at (q0, s0) = (2, 3); W_{3,2} has dimension 3."""
    return [[[specialize(x, 2, 3) for x in row]
             for row in rho_matrix(3, 2, [i]).entries] for i in (1, 2)]


def residue_row(row, p):
    """A dense row of p-integral rationals mod p, as {col: residue} with no zero entry."""
    return {c: r for c, x in enumerate(row)
            if (r := x.numerator * pow(x.denominator, -1, p) % p)}


def residue_matrices(mats, p=CERT_PRIME):
    """Square rational matrices, each scaled to an integer one, as {col: residue} rows."""
    return [[residue_row(row, p) for row in _integerize(m)] for m in mats]


def draw(mats, seed=0, p=CERT_PRIME):
    """One certificate draw on square rational matrices."""
    return _commutant_dim_modp(residue_matrices(mats, p), seed, p)


def block_diag(a, b):
    return ([list(row) + [0] * len(b) for row in a]
            + [[0] * len(a) + list(row) for row in b])


class TestCommutant:
    def test_one_dimensional_rep(self, monkeypatch):
        # d = 1 needs no shortcut: the one draw certifies
        monkeypatch.setattr(decomp, "fraction_rank", self.refuse)
        monkeypatch.setattr(decomp, "_specialized_generators", self.refuse)
        assert commutant_dimension(2, 3, 2, 3) == 1
        assert commutant_dimension(2, 5, 2, 3) == 1
        assert commutant_dimension(5, 0, 2, 3) == 1

    def test_3_2_against_oracle(self):
        # independent 9-unknown exact solve
        assert rref_kernel_dim(sylvester_rows(w32_generators()), 9) == 1
        assert commutant_dimension(3, 2, 2, 3) == 1

    def test_unreduced_burau_control(self):
        mats = burau_matrices(3, reduced=False)
        smats = [[[specialize(x, 2, 3) for x in row] for row in m]
                 for m in mats]
        dim = matrix_commutant_dimension(smats)
        assert dim >= 2
        # oracle agrees
        assert rref_kernel_dim(sylvester_rows(smats), 9) == dim

    def test_guard_rejections(self):
        with pytest.raises(GuardedSpecializationError) as exc:
            commutant_dimension(3, 2, 2, 1)
        assert exc.value.factor_name == "s0^2-1"
        with pytest.raises(GuardedSpecializationError):
            validate_specialization(3, 2, 0, 3)
        with pytest.raises(GuardedSpecializationError):
            validate_specialization(3, 2, 1, 3)

    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_one_strand_is_rejected_before_any_work(self, l, monkeypatch):
        # B_1 has no generator: the point is refused by name before a guard
        # factor is formed, and not as a guard hit, which
        # random_specialization would retry for ever
        def no_work(*args):
            raise AssertionError("work started")
        monkeypatch.setattr(decomp, "guard_factors", no_work)
        for call in (lambda: validate_specialization(1, l, 2, 3),
                     lambda: commutant_dimension(1, l, 2, 3),
                     lambda: random_specialization(1, l)):
            with pytest.raises(ValueError, match="n >= 2 strands, got n = 1") as exc:
                call()
            assert not isinstance(exc.value, GuardedSpecializationError)

    def test_random_specialization_avoids_guards(self):
        q0, s0 = random_specialization(3, 2, seed=5)
        assert validate_specialization(3, 2, q0, s0) == (q0, s0)

    def test_certification_deterministic(self):
        assert commutant_dimension(3, 2, 2, 3, seed=1) == 1
        assert commutant_dimension(4, 2, 2, 3) == 1

    def test_derogatory_control(self):
        # every element of the algebra of W + W repeats its spectrum, so no
        # draw finds a cyclic vector; the exact fallback finds End(C^2)
        mats = [block_diag(g, g) for g in w32_generators()]
        assert draw(mats) is None
        assert matrix_commutant_dimension(mats) == 4
        assert rref_kernel_dim(sylvester_rows(mats), 36) == 4

    def test_certificate_makes_one_draw(self, monkeypatch):
        # a draw that does not certify is not followed by another
        mats = [block_diag(g, g) for g in w32_generators()]
        draws = []
        monkeypatch.setattr(decomp, "_random_element",
                            lambda *args: draws.append(args)
                            or _random_element(*args))
        assert draw(mats) is None
        assert len(draws) == 1
        assert matrix_commutant_dimension(mats) == 4

    def test_nonderogatory_reducible_control(self):
        # W + [7]: a cyclic vector exists, yet the commutant is 2, so the draw
        # does not certify and the exact fallback finds 2
        mats = [block_diag(g, [[7]]) for g in w32_generators()]
        assert draw(mats) is None
        assert matrix_commutant_dimension(mats) == 2
        assert rref_kernel_dim(sylvester_rows(mats), 16) == 2

    def test_bound_uses_every_generator(self):
        # a scalar first matrix adds no constraint; the later ones certify
        mats = [[[2 if r == c else 0 for c in range(3)] for r in range(3)]]
        mats += w32_generators()
        assert draw(mats) == 1

    def test_krylov_certificate_5_4(self):
        assert commutant_dimension(5, 4, 2, 3) == 1

    def test_krylov_certificate_any_seed(self):
        for seed in range(5):
            assert commutant_dimension(4, 3, 2, 3, seed=seed) == 1

    @pytest.mark.parametrize("n, l, q0, s0", [
        (3, 2, 2, 3),
        (4, 3, 2, 3),
        (4, 3, Fraction(5, 7), Fraction(-3, 4)),
        (5, 2, Fraction(-9, 2), Fraction(11, 13)),
    ])
    def test_modp_generators_reduce_the_rational_ones(self, n, l, q0, s0):
        # negative exponents of q and s are evaluated through their inverses;
        # the point's prime, and one whose residues are multi-digit ints; rows
        # are {col: residue} dicts with no zero entry
        assert _cert_prime(Fraction(q0), Fraction(s0)) == CERT_PRIME
        for p in (CERT_PRIME, MERSENNE_61):
            expected = [[residue_row(row, p) for row in m]
                        for m in _specialized_generators(n, l, q0, s0)]
            assert _generators_modp(n, l, q0, s0, p) == expected

    @pytest.mark.parametrize("n, l, q0, s0", [
        (4, 3, Fraction(5, 7), Fraction(-3, 4)),
        (5, 2, Fraction(-9, 2), Fraction(11, 13)),
    ])
    def test_modp_generators_match_per_term_fractions(self, n, l, q0, s0):
        p = CERT_PRIME

        def per_term(entry):
            value = sum((c * q0 ** e0 * s0 ** e1
                         for (e0, e1), c in entry.sorted_terms()), Fraction(0))
            return value.numerator * pow(value.denominator, -1, p) % p

        expected = [[residue_row([per_term(x) for x in row], p)
                     for row in rho_matrix(n, l, [i]).entries] for i in range(1, n)]
        assert _generators_modp(n, l, q0, s0, p) == expected

    @pytest.mark.parametrize("q0, s0", [
        (Fraction(CERT_PRIME * MERSENNE_61), 3),
        (2, Fraction(3, CERT_PRIME * MERSENNE_61)),
        (Fraction(2, CERT_PRIME), Fraction(MERSENNE_61, 5)),
    ])
    def test_off_cert_prime_and_m61_certifies_mod_next_prime(
            self, q0, s0, monkeypatch):
        # a point off 2^30 - 35 and 2^61 - 1 is certified mod the next prime
        # below 2^30 - 35 and forms no rational matrix
        q0, s0 = validate_specialization(3, 2, q0, s0)
        assert _cert_prime(q0, s0) == largest_primes_below_2_30(2)[1]
        monkeypatch.setattr(decomp, "fraction_rank", self.refuse)
        monkeypatch.setattr(decomp, "_specialized_generators", self.refuse)
        assert commutant_dimension(3, 2, q0, s0) == 1
        mats = _specialized_generators(3, 2, q0, s0)
        assert rref_kernel_dim(sylvester_rows(mats), 9) == 1

    @pytest.mark.parametrize("n, l, q0, s0", [
        (3, 2, CERT_PRIME, 3),
        (3, 2, 2, Fraction(3, CERT_PRIME)),
        (3, 2, Fraction(2, CERT_PRIME), Fraction(CERT_PRIME, 5)),
        (5, 3, CERT_PRIME, 3),
    ])
    def test_point_off_cert_prime_certifies_mod_the_next_prime(self, n, l, q0, s0,
                                                               monkeypatch):
        # certified mod the next prime below 2^30 - 35
        q0, s0 = validate_specialization(n, l, q0, s0)
        assert _cert_prime(q0, s0) == largest_primes_below_2_30(2)[1]
        monkeypatch.setattr(decomp, "fraction_rank", self.refuse)
        monkeypatch.setattr(decomp, "_specialized_generators", self.refuse)
        assert commutant_dimension(n, l, q0, s0) == 1

    @pytest.mark.parametrize("n, l", [(4, 3), (4, 4), (5, 3), (6, 2), (7, 2)])
    def test_benchmark_classes_certify(self, n, l):
        for seed in range(5):
            q0, s0 = random_specialization(n, l, seed=seed)
            assert commutant_dimension(n, l, q0, s0, seed=seed) == 1

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_unreduced_burau_commutant_is_two(self, n):
        # reduced Burau plus the trivial line: the exact fallback decides
        mats = [[[specialize(x, 2, 3) for x in row] for row in m]
                for m in burau_matrices(n, reduced=False)]
        assert matrix_commutant_dimension(mats) == 2
        assert rref_kernel_dim(sylvester_rows(mats), n * n) == 2

    def test_certified_point_costs_one_elimination(self, monkeypatch):
        # constraint rank d - 1 certifies: the Krylov vectors are not ranked
        ranks = []
        monkeypatch.setattr(decomp, "modp_rank",
                            lambda *args: ranks.append(len(args[0])) or modp_rank(*args))
        assert commutant_dimension(4, 3, 2, 3) == 1
        assert ranks == [10]

    @pytest.mark.parametrize("mats", [
        [],
        [[[1, 2]]],
        [[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]],
        [[[1, 2], [3]]],
    ], ids=["no-matrix", "not-square", "two-sizes", "ragged"])
    def test_malformed_input_raises(self, mats, monkeypatch):
        monkeypatch.setattr(decomp, "_integerize", self.refuse)
        with pytest.raises(ValueError):
            matrix_commutant_dimension(mats)

    @staticmethod
    def refuse(*args):
        raise AssertionError("work started on malformed input")

    @pytest.mark.parametrize("mats", [
        [[[Fraction(3, 2)]]],
        [[[Fraction(3, 2)]], [[Fraction(-5, 7)]]],
        [[[Fraction(0)]], [[Fraction(4)]]],
    ], ids=["one", "two", "with-zero"])
    def test_one_by_one_matrices_certify(self, mats):
        # every certificate row is zero, and rank 0 = d - 1 certifies; the
        # exact rank agrees
        assert draw(mats) == 1
        assert matrix_commutant_dimension(mats) == 1

    @pytest.mark.parametrize("mats", [
        *(pytest.param(lambda n=n: burau_control(n), id="burau-%d" % n) for n in (3, 4, 5, 6)),
        pytest.param(lambda: [block_diag(g, g) for g in w32_generators()], id="w32-doubled"),
        pytest.param(lambda: [block_diag(g, [[7]]) for g in w32_generators()], id="w32-plus-7"),
    ])
    def test_matrices_take_no_draw(self, mats, monkeypatch):
        # matrix_commutant_dimension is the exact rank alone
        mats = mats()
        monkeypatch.setattr(decomp, "_random_element", self.refuse)
        d = len(mats[0])
        assert matrix_commutant_dimension(mats) == rref_kernel_dim(sylvester_rows(mats), d * d)

    @pytest.mark.parametrize("n, l", [(3, 2), (4, 3)])
    def test_fallback_makes_one_draw(self, n, l, monkeypatch):
        # a draw that does not certify goes straight to the exact rank
        draws, exact = [], []
        monkeypatch.setattr(decomp, "modp_rank", lambda *args: 0)
        monkeypatch.setattr(decomp, "_random_element",
                            lambda *args: draws.append(args) or _random_element(*args))
        monkeypatch.setattr(decomp, "fraction_rank",
                            lambda rows, ncols: exact.append(ncols)
                            or fraction_rank(rows, ncols))
        assert commutant_dimension(n, l, 2, 3) == 1
        d = comb(n + l - 2, l)
        assert len(draws) == 1 and exact == [d * d]

    def test_certified_point_forms_no_rational_matrix(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("exact path reached at a certified point")
        monkeypatch.setattr(decomp, "_specialized_generators", refuse)
        monkeypatch.setattr(decomp, "fraction_rank", refuse)
        assert commutant_dimension(4, 3, 2, 3) == 1


def small_matrix(rnd, d):
    return [[rnd.randint(-3, 3) for _ in range(d)] for _ in range(d)]


def block_upper(a, b, c):
    """[[a, c], [0, b]]."""
    return ([list(ra) + list(rc) for ra, rc in zip(a, c)]
            + [[0] * len(a) + list(rb) for rb in b])


def scalar_matrix(k, d):
    return [[k if r == c else 0 for c in range(d)] for r in range(d)]


SWEEP_KINDS = {
    "generic": lambda rnd: [small_matrix(rnd, 4) for _ in range(2)],
    "block-diagonal": lambda rnd: [block_diag(small_matrix(rnd, 2), small_matrix(rnd, 2))
                                   for _ in range(2)],
    # reducible, yet with a trivial commutant, like W_{5,2} at (2, 2)
    "block-upper": lambda rnd: [block_upper(*(small_matrix(rnd, 2) for _ in range(3)))
                                for _ in range(2)],
    "scalar-mix": lambda rnd: ([scalar_matrix(rnd.randint(-3, 3), 3)
                                for _ in range(rnd.randint(1, 2))]
                               + [small_matrix(rnd, 3) for _ in range(rnd.randint(0, 1))]),
    "repeated-blocks": lambda rnd: [block_diag(g, g) for g in
                                    (small_matrix(rnd, 2) for _ in range(2))],
}


def is_prime(m):
    return m > 1 and all(m % k for k in range(2, int(m ** 0.5) + 1))


@functools.lru_cache(maxsize=None)
def largest_primes_below_2_30(k):
    """The k largest primes below 2^30, largest first, by trial division."""
    primes, m = [], 1 << 30
    while len(primes) < k:
        m -= 1
        if is_prime(m):
            primes.append(m)
    return tuple(primes)


class TestSparseCommutantSystem:
    def test_first_prime_is_word_sized(self):
        # below 2^30 every residue is a one-digit CPython int and a product of
        # two stays below 2^60, so mod-p products take the small-int fast path
        assert is_prime(CERT_PRIME) and CERT_PRIME < 1 << 30
        assert not any(is_prime(m) for m in range(CERT_PRIME + 1, 1 << 30))

    @pytest.mark.parametrize("kind", sorted(SWEEP_KINDS))
    def test_sylvester_rows_are_the_oracle_rows(self, kind):
        rnd = random.Random("sylvester %s" % kind)
        for _ in range(6):
            mats = SWEEP_KINDS[kind](rnd)
            want = [{c: x for c, x in enumerate(row) if x} for row in sylvester_rows(mats)]
            assert list(_sylvester_rows(mats)) == [row for row in want if row], mats

    def test_block_diagonal_matrices_take_the_exact_path(self, monkeypatch):
        exact = []
        monkeypatch.setattr(decomp, "fraction_rank",
                            lambda rows, ncols: exact.append(ncols)
                            or fraction_rank(rows, ncols))
        rnd = random.Random("exact path")
        for _ in range(12):
            mats = SWEEP_KINDS["block-diagonal"](rnd)
            want = rref_kernel_dim(sylvester_rows(mats), 16)
            assert want >= 2
            assert matrix_commutant_dimension(mats) == want, mats
        assert exact == [16] * 12


def dense_random_element(pm, rng, p):
    """The certificate's random element over dense d x d lists (test oracle).

    Draws i, j, then one coefficient for each generator and one for a_i a_j,
    and sums coefficient times entry into a dense b; pm holds {col: residue}
    rows.
    """
    d = len(pm[0])
    dense = [[[row.get(c, 0) for c in range(d)] for row in m] for m in pm]
    i, j = rng.randrange(len(pm)), rng.randrange(len(pm))
    product = [[sum(x * dense[j][k][c] for k, x in enumerate(row)) % p for c in range(d)]
               for row in dense[i]]
    coeffs = [rng.randrange(1, p) for _ in range(len(pm) + 1)]
    b = [[0] * d for _ in range(d)]
    for coeff, m in zip(coeffs, dense + [product]):
        for brow, row in zip(b, m):
            for c, x in enumerate(row):
                brow[c] += coeff * x
    return [[x % p for x in row] for row in b]


def generator_residues(n, l):
    q0, s0 = random_specialization(n, l, seed=0)
    p = _cert_prime(q0, s0)
    return _generators_modp(n, l, q0, s0, p), p


def burau_control(n):
    return [[[specialize(x, 2, 3) for x in row] for row in m]
            for m in burau_matrices(n, reduced=False)]


RANDOM_ELEMENT_CASES = {
    **{"%d-%d" % nl: functools.partial(generator_residues, *nl)
       for nl in [(4, 3), (4, 4), (5, 3), (6, 2), (7, 2)]},
    **{"burau-%d" % n: (lambda n=n: (residue_matrices(burau_control(n)), CERT_PRIME))
       for n in (3, 4, 5, 6)},
    "w32-doubled": lambda: (residue_matrices([block_diag(g, g) for g in w32_generators()]),
                            CERT_PRIME),
}


class TestResidueRows:
    """Mod-p matrices as {col: residue} rows, drawn as by the dense formula."""

    @pytest.mark.parametrize("case", list(RANDOM_ELEMENT_CASES))
    def test_random_element_matches_the_dense_oracle(self, case):
        pm, p = RANDOM_ELEMENT_CASES[case]()
        d = len(pm[0])
        for seed in range(20):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            b = _random_element(pm, rng, p)
            want = dense_random_element(pm, oracle_rng, p)
            # b is a mat-vec: its columns are the images of the unit vectors
            columns = [b([int(r == c) for r in range(d)]) for c in range(d)]
            assert [list(row) for row in zip(*columns)] == want, seed
            assert rng.getstate() == oracle_rng.getstate()
            # the Krylov vectors by the dense mat-vec
            u = [rng.randrange(p) for _ in range(d)]
            want_krylov = [u]
            for _ in range(d - 1):
                want_krylov.append([sum(map(mul, row, want_krylov[-1])) % p for row in want])
            assert _krylov(b, u) == want_krylov

    @pytest.mark.parametrize("kind", sorted(SWEEP_KINDS))
    def test_draw_mod_three_is_sound(self, kind):
        # rank mod any prime is at most the rank over Q, so even mod 3, where
        # rows collapse, a draw certifies 1 only where the exact dimension is 1
        rnd = random.Random("rows %s" % kind)
        for _ in range(6):
            mats = SWEEP_KINDS[kind](rnd)
            d = len(mats[0])
            exact = rref_kernel_dim(sylvester_rows(mats), d * d)
            for seed in range(5):
                outcome = draw(mats, seed, 3)
                assert outcome is None or outcome == 1 == exact, (mats, seed)


class TestCertPrime:
    """One word-size prime per point, with no exact path for a point off 2^30 - 35."""

    def test_small_point_takes_the_largest_prime(self):
        assert _cert_prime(Fraction(2), Fraction(3)) == (1 << 30) - 35

    @pytest.mark.parametrize("k", [1, 2, 50])
    @pytest.mark.parametrize("where", ["q0", "s0-denominator"])
    def test_primes_of_the_point_are_passed_over(self, k, where):
        primes = largest_primes_below_2_30(k + 1)
        product = prod(primes[:k])
        q0, s0 = ((Fraction(product), Fraction(3)) if where == "q0"
                  else (Fraction(2), Fraction(3, product)))
        assert _cert_prime(q0, s0) == primes[k]

    @pytest.mark.parametrize("n, l", [(5, 3), (4, 4)])
    def test_point_off_two_word_primes_certifies_mod_p(self, n, l, monkeypatch):
        # off 2^30 - 35 and 2^61 - 1; the exact rank would take 400 and 225 unknowns
        def refuse(*args):
            raise AssertionError("exact path reached at a certified point")
        monkeypatch.setattr(decomp, "fraction_rank", refuse)
        monkeypatch.setattr(decomp, "_specialized_generators", refuse)
        assert commutant_dimension(n, l, CERT_PRIME * MERSENNE_61, 3) == 1


class TestCertificateSoundness:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind", sorted(SWEEP_KINDS))
    def test_bound_never_below_the_exact_dimension(self, kind, seed):
        rnd = random.Random("%s %d" % (kind, seed))
        outcomes = Counter()
        for _ in range(6):
            mats = SWEEP_KINDS[kind](rnd)
            d = len(mats[0])
            exact = rref_kernel_dim(sylvester_rows(mats), d * d)
            for draw_seed in range(14):
                # one draw: it certifies 1 only where the exact dimension is 1
                outcome = draw(mats, draw_seed)
                assert outcome is None or outcome == 1 == exact, (mats, draw_seed)
                outcomes[outcome] += 1
        if kind in ("generic", "block-upper"):
            assert outcomes[1]
        if kind == "repeated-blocks":
            assert not outcomes[1]


def eigenvectors(mat, lam):
    """A basis of the rational kernel of mat - lam, one vector per free column."""
    d = len(mat)
    rows, pivots = rref([[x - (lam if r == c else 0) for c, x in enumerate(row)]
                         for r, row in enumerate(mat)], d)
    basis = []
    for free in (c for c in range(d) if c not in pivots):
        x = [Fraction(0)] * d
        x[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            x[pc] = -rows[r][free]
        basis.append(x)
    return basis


def spin_dimension(mats, v):
    """Dimension of the smallest subspace that holds v and every mats[i] image.

    Each matrix is invertible, so that subspace is invariant under the group
    they generate.  Columns are images: (M x)[r] = sum_c M[r][c] x[c].
    """
    echelon = []                       # (pivot column, row with 1 there)
    queue = [v]
    while queue:
        w = queue.pop()
        for col, row in echelon:
            if w[col]:
                f = w[col]
                w = [x - f * y for x, y in zip(w, row)]
        col = next((c for c, x in enumerate(w) if x), None)
        if col is None:
            continue
        echelon.append((col, [x / w[col] for x in w]))
        queue += [[sum(m[r][c] * x for c, x in enumerate(w) if x)
                   for r in range(len(w))] for m in mats]
    return len(echelon)


class TestCommutantGap:
    """A commutant of dimension 1 at a point does not make W_{n,l} irreducible there.

    At these points off the guard loci, s0 = q0^(l-1), the commutant is the
    scalars, yet an exact rational eigenvector of rho(sigma_1) for
    lambda_1 = -s0^-2 spans a proper invariant subspace.  End = scalars
    holds at the point and generically; irreducibility is the paper's
    theorem, not what ``commutant_dimension`` certifies.
    """

    @pytest.mark.parametrize("n, l, q0, s0, spin, dim", [
        (5, 2, 2, 2, 5, 10),
        (6, 2, 3, 3, 9, 15),
        (3, 4, 2, 8, 2, 5),
    ])
    def test_trivial_commutant_at_a_reducible_point(self, n, l, q0, s0, spin, dim):
        assert validate_specialization(n, l, q0, s0) == (q0, s0)
        assert commutant_dimension(n, l, q0, s0) == 1
        mats = _specialized_generators(n, l, q0, s0)
        assert len(mats[0]) == dim
        v = eigenvectors(mats[0], Fraction(-1, s0 * s0))[0]
        assert spin_dimension(mats, v) == spin < dim

    def test_lambda_1_eigenvectors_span_everything_at_a_certified_point(self):
        mats = _specialized_generators(5, 2, 2, 3)
        vectors = eigenvectors(mats[0], Fraction(-1, 9))
        assert len(vectors) == 3
        assert [spin_dimension(mats, v) for v in vectors] == [10] * 3
