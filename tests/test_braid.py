"""Braiding operator, braid words, and the relation/equivariance checkers."""

import random

import pytest

from braidrep import braid
from braidrep.braid import (BraidWord, apply_letter, apply_word,
                            check_braid_relations, check_equivariance,
                            check_yang_baxter, operator_matrix, rmatrix_pair,
                            rmatrix_pair_inverse, sigma_matrix)
from braidrep.decomp import full_twist_word
from braidrep.linalg import mat_identity, mat_mul, poly_matrix_inverse
from braidrep.report import all_passed
from braidrep.ring import LaurentPoly, RatFunc
from braidrep.verma import E, F, K, TensorVec, act_tensor, weight_basis

from conftest import random_poly

S = LaurentPoly.monomial(0, 1)
SINV = LaurentPoly.monomial(0, -1)


class TestBraidWord:
    def test_parse_formats(self):
        assert BraidWord.parse(3, "1 -2 1").letters == (1, -2, 1)
        assert BraidWord.parse(3, "1,-2,1").letters == (1, -2, 1)
        assert BraidWord.parse(4, "").letters == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            BraidWord(3, (3,))
        with pytest.raises(ValueError):
            BraidWord(3, (0,))
        with pytest.raises(ValueError):
            BraidWord(1, ())

    def test_inverse(self):
        w = BraidWord(4, (1, -2, 3))
        assert w.inverse().letters == (-3, 2, -1)

    @pytest.mark.parametrize("n,word,expected", [
        (4, (1, 3, -1), (3,)),
        (4, (1, 2, -2, 3, -1), (3,)),
        (5, (2, 4, 1, -4, -2, 3), (2, 1, -2, 3)),
        (4, (1, 3, -3, -1), ()),
        (3, (1, 2, -1), (1, 2, -1)),
        (3, (1, -2, 1), (1, -2, 1)),
        (2, (1, 1, -1, -1), ()),
    ])
    def test_reduced_hand_words(self, n, word, expected):
        w = BraidWord(n, word).reduced()
        assert (w.n, w.letters) == (n, expected)

    @staticmethod
    def cancellable_pairs(letters):
        """Pairs (i, j), i < j, with w[i] = -w[j] and every letter between
        them commuting with w[j]: the definition, checked pair by pair."""
        return [(i, j) for j in range(len(letters)) for i in range(j)
                if letters[i] == -letters[j]
                and all(abs(abs(x) - abs(letters[j])) >= 2
                        for x in letters[i + 1:j])]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_reduced_properties(self, n):
        rng = random.Random(n)
        letters = [k for i in range(1, n) for k in (i, -i)]
        for length in range(25):
            for _ in range(20):
                word = BraidWord(n, [rng.choice(letters) for _ in range(length)])
                red = word.reduced()
                assert len(red.letters) <= length
                assert red.reduced() == red
                assert self.cancellable_pairs(red.letters) == []
                # a word with no cancellable pair comes back unchanged
                if not self.cancellable_pairs(word.letters):
                    assert red == word

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_full_twist_is_reduced(self, n):
        full = full_twist_word(n)
        assert full.reduced() == full
        assert full.inverse().reduced() == full.inverse()


class TestRMatrix:
    def test_lowest_values(self):
        assert rmatrix_pair(0, 0) == TensorVec.pure((0, 0))
        assert rmatrix_pair(0, 1) == SINV * TensorVec.pure((1, 0))
        expected = SINV * TensorVec.pure((0, 1)) \
            + (1 - SINV * SINV) * TensorVec.pure((1, 0))
        assert rmatrix_pair(1, 0) == expected

    def test_degree_two_cross_terms(self):
        # components on v_1 (x) v_1 of the degree-2 block
        q2 = LaurentPoly.monomial(2, 0)
        assert rmatrix_pair(2, 0).coeff((1, 1)) == q2 * (SINV - SINV ** 3)
        assert rmatrix_pair(1, 1).coeff((1, 1)) == q2 * SINV * SINV
        assert rmatrix_pair(0, 2).coeff((1, 1)).is_zero()

    def test_weight_preserved(self):
        for i in range(4):
            for j in range(4):
                out = rmatrix_pair(i, j)
                assert out.weight() == i + j

    def test_integral_coefficients(self):
        for i in range(5):
            for j in range(5):
                assert all(isinstance(c, LaurentPoly)
                           for c in rmatrix_pair(i, j).coeffs.values())


class TestRMatrixInverse:
    def test_degree_zero_identity(self):
        assert rmatrix_pair_inverse(0, 0) == TensorVec.pure((0, 0))

    def test_hand_inverted_block(self):
        # inverting [[0, s^-1], [s^-1, 1 - s^-2]] on the degree-1 block
        assert rmatrix_pair_inverse(1, 0) == S * TensorVec.pure((0, 1))
        expected = (1 - S * S) * TensorVec.pure((0, 1)) + S * TensorVec.pure((1, 0))
        assert rmatrix_pair_inverse(0, 1) == expected

    @pytest.mark.parametrize("i,j", [(0, 0), (1, 0), (1, 1), (2, 1), (0, 3)])
    def test_roundtrip_both_ways(self, i, j):
        v = TensorVec.pure((i, j))
        w = BraidWord(2, (1, -1))
        assert apply_word(w, v) == v
        w = BraidWord(2, (-1, 1))
        assert apply_word(w, v) == v

    def test_integrality(self):
        for i in range(4):
            for j in range(4):
                out = rmatrix_pair_inverse(i, j)
                assert all(isinstance(c, LaurentPoly)
                           for c in out.coeffs.values())


def r_block(d, pair):
    """Matrix of pair on the degree-d block of V (x) V, columns = images."""
    basis = weight_basis(2, d)
    cols = [pair(i, j) for (i, j) in basis]
    return [[col.coeff(idx) for col in cols] for idx in basis]


class TestClosedFormRInverse:
    @pytest.mark.parametrize("d", range(9))
    def test_block_inverts_both_ways(self, d):
        r, r_inv = r_block(d, rmatrix_pair), r_block(d, rmatrix_pair_inverse)
        one = mat_identity(d + 1, LaurentPoly.one())
        assert mat_mul(r, r_inv) == one
        assert mat_mul(r_inv, r) == one

    @pytest.mark.parametrize("d", range(7))
    def test_matches_gauss_jordan(self, d):
        assert r_block(d, rmatrix_pair_inverse) \
            == poly_matrix_inverse(r_block(d, rmatrix_pair))


class TestApplyWord:
    def test_identity_word(self, rnd):
        for idx in weight_basis(3, 2):
            v = TensorVec.pure(idx, random_poly(rnd, max_terms=2))
            assert apply_word(BraidWord(3, ()), v) == v

    def test_third_strand_untouched(self):
        v = TensorVec.pure((0, 1, 0))
        assert apply_word(BraidWord(3, (1,)), v) == SINV * TensorVec.pure((1, 0, 0))

    def test_strand_mismatch(self):
        with pytest.raises(ValueError):
            apply_word(BraidWord(3, (1,)), TensorVec.pure((0, 1)))

    def test_weight_preservation(self, rnd):
        for _ in range(10):
            idxs = weight_basis(3, 3)
            v = TensorVec(3, {idx: random_poly(rnd, max_terms=2)
                              for idx in rnd.sample(idxs, 3)})
            if v.is_zero():
                continue
            out = apply_word(BraidWord(3, (1, 2, -1)), v)
            assert out.weight() == 3

    def test_random_word_roundtrip(self, rnd):
        for _ in range(12):
            length = rnd.randint(1, 6)
            letters = tuple(rnd.choice((1, -1, 2, -2)) for _ in range(length))
            w = BraidWord(3, letters)
            idxs = weight_basis(3, rnd.randint(0, 3))
            v = TensorVec(3, {idx: random_poly(rnd, max_terms=2)
                              for idx in rnd.sample(idxs, min(3, len(idxs)))})
            assert apply_word(w.inverse(), apply_word(w, v)) == v

    def test_integrality_on_integral_input(self, rnd):
        # mixed positive and negative letters keep Laurent coefficients
        v = TensorVec.pure((2, 1, 0))
        out = apply_word(BraidWord(3, (1, -2, 2, -1, 1)), v)
        assert all(isinstance(c, LaurentPoly) for c in out.coeffs.values())

    def test_ratfunc_coefficients_supported(self):
        half = RatFunc(LaurentPoly.one(), LaurentPoly.monomial(0, 1) + 1)
        v = half * TensorVec.pure((1, 0))
        out = apply_word(BraidWord(2, (1,)), v)
        assert out == half * rmatrix_pair(1, 0)


class TestRelationChecks:
    @pytest.mark.parametrize("n,l", [(3, 2), (4, 2)])
    def test_braid_relations_pass(self, n, l):
        reports = check_braid_relations(n, l)
        assert all_passed(reports)

    def test_commuting_pair_present(self):
        reports = check_braid_relations(4, 2)
        kinds = {(r.check, tuple(sorted(r.params.items()))) for r in reports}
        assert ("braid-commute",
                tuple(sorted({"n": 4, "l": 2, "i": 1, "j": 3}.items()))) in kinds

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_adjacent_relation_takes_three_products(self, monkeypatch, n):
        # cost guard: a b a = b a b is checked as P a = b P with P = a b, so
        # each adjacent pair costs three products and each commuting pair two
        calls = []
        real = braid.mat_mul
        monkeypatch.setattr(braid, "mat_mul", lambda a, b: calls.append(1) or real(a, b))
        assert all_passed(check_braid_relations(n, 2))
        assert len(calls) == 3 * (n - 2) + (n - 2) * (n - 3)

    def test_perturbed_r_fails(self):
        reports = check_braid_relations(3, 2, perturb=True)
        assert not all_passed(reports)
        bad = [r for r in reports if not r.passed]
        assert bad[0].witness is not None  # pinpoints (row, col, difference)

    @pytest.mark.parametrize("l", range(5))
    def test_yang_baxter(self, l):
        assert all_passed(check_yang_baxter(l))

    def test_yang_baxter_perturbed(self):
        assert not all_passed(check_yang_baxter(2, perturb=True))

    @pytest.mark.parametrize("n,l", [(3, 2), (4, 3)])
    def test_equivariance(self, n, l):
        reports = check_equivariance(n, l)
        assert all_passed(reports)
        assert {r.params["x"] for r in reports} == {"K", "E", "F1"}

    @pytest.mark.parametrize("n,l", [(2, 0), (3, 1), (3, 2), (4, 3)])
    def test_operator_matrix_is_the_tensor_action(self, n, l):
        # E and F^(m) read their columns off the cached pure-tensor images;
        # the oracle is act_tensor on each pure tensor
        for gen, shift in ((E, -1), (F(1), 1), (F(2), 2), (K, 0)):
            if l + shift < 0:
                continue
            rows, target = operator_matrix(gen, n, l)
            assert target == weight_basis(n, l + shift)
            want = [{} for _ in target]
            for c, idx in enumerate(weight_basis(n, l)):
                for i, x in act_tensor(gen, TensorVec.pure(idx)).coeffs.items():
                    want[target.index(i)][c] = x
            assert rows == want, gen


class TestSigmaMatrix:
    def test_columns_are_images(self):
        basis = weight_basis(2, 2)
        mat = sigma_matrix(2, 2, 1)
        for c, idx in enumerate(basis):
            image = apply_letter(TensorVec.pure(idx), 1)
            for r, target in enumerate(basis):
                assert mat[r][c] == image.coeff(target)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rows_match_the_letter_path(self, n):
        # the uncached body, so the grid evicts nothing from the bounded cache
        build = braid._sigma_rows.__wrapped__
        for l in range(4):
            basis = weight_basis(n, l)
            for k in [k for i in range(1, n) for k in (i, -i)]:
                for perturb in (False, True):
                    want = braid._rows_of_columns(
                        [apply_letter(TensorVec.pure(idx), k, perturb).coeffs for idx in basis], basis)
                    got = build(n, l, k, perturb)
                    assert list(got) == want, (n, l, k, perturb)
                    assert [list(row) for row in got] == [list(row) for row in want]
                    assert all(type(x) is LaurentPoly for row in got for x in row.values())

    def test_entries_are_the_pair_tables_objects(self):
        basis = weight_basis(4, 3)
        for k, pair in ((2, rmatrix_pair), (-2, rmatrix_pair_inverse)):
            for row in braid._sigma_rows(4, 3, k, False):
                for c, x in row.items():
                    image = pair(basis[c][1], basis[c][2])
                    assert any(x is y for y in image.coeffs.values())

    @pytest.mark.parametrize("n, k", [(3, 0), (3, 3), (3, -3), (2, 2), (4, -5)])
    def test_out_of_range_letter_raises_and_caches_nothing(self, n, k):
        before = braid._sigma_rows.cache_info().currsize
        with pytest.raises(ValueError, match="out of range"):
            braid._sigma_rows(n, 2, k, False)
        with pytest.raises(ValueError, match="out of range"):
            braid._sigma_rows(n, 2, k, True)
        assert braid._sigma_rows.cache_info().currsize == before

    def test_each_call_hands_out_fresh_lists(self):
        first = sigma_matrix(3, 2, 1)
        want = [list(row) for row in first]
        first[0][0] = first[0][0] + 1
        first[1].append(LaurentPoly.one())
        first.pop()
        assert sigma_matrix(3, 2, 1) == want
        assert sigma_matrix(3, 2, 1) is not sigma_matrix(3, 2, 1)


class TestPerturbedAndCleanMatrices:
    """The cached generator matrices keep the perturbed R apart from the real one."""

    def test_perturbed_checks_fail_after_clean_ones(self):
        braid._sigma_rows.cache_clear()
        assert all_passed(check_braid_relations(3, 2))
        assert all_passed(check_yang_baxter(2))
        assert not all_passed(check_braid_relations(3, 2, perturb=True))
        assert not all_passed(check_yang_baxter(2, perturb=True))

    def test_clean_checks_pass_after_perturbed_ones(self):
        braid._sigma_rows.cache_clear()
        assert not all_passed(check_braid_relations(3, 2, perturb=True))
        assert not all_passed(check_yang_baxter(2, perturb=True))
        assert all_passed(check_braid_relations(3, 2))
        assert all_passed(check_yang_baxter(2))
        assert all_passed(check_equivariance(3, 2))
        assert sigma_matrix(3, 2, 1) != sigma_matrix(3, 2, 1, perturb=True)
