"""LKB matrices, the parameter identification, and the Burau representations."""

import json

import pytest

from braidrep import lkb
from braidrep.braid import rmatrix_pair
from braidrep.hwspace import rho_matrix
from braidrep.linalg import (mat_diff_witness, mat_identity, mat_mul,
                             poly_matrix_inverse)
from braidrep.lkb import (LKBPoly, burau_matrices, check_burau,
                          check_lkb_braid_relations, fork_iso_check,
                          lkb_sigma, lkb_sigma_inverse, pair_basis, theta,
                          theta_wrong_sign)
from braidrep.report import all_passed
from braidrep.ring import LaurentPoly

from conftest import row_lists

T = LKBPoly.monomial(1, 0)
QQ = LKBPoly.monomial(0, 1)


class TestLKBMatrices:
    def test_pair_basis_order(self):
        assert pair_basis(3) == ((1, 2), (1, 3), (2, 3))
        assert len(pair_basis(6)) == 15

    def test_inverse_generator_entries(self):
        m = lkb_sigma_inverse(4, 2)
        pos = {p: r for r, p in enumerate(m.basis)}
        # diagonal of the braided pair
        assert m.entries[pos[(2, 3)]][pos[(2, 3)]] == -(T ** -1) * QQ ** -2
        # F_{i+1,j} -> F_{i,j} with unit coefficient
        assert m.entries[pos[(2, 4)]][pos[(3, 4)]].is_one()
        # F_{j,i+1} -> F_{j,i}
        assert m.entries[pos[(1, 2)]][pos[(1, 3)]].is_one()
        # disjoint pairs give identity rows
        assert m.entries[pos[(1, 4)]][pos[(1, 4)]].is_one()
        col = [m.entries[r][pos[(1, 4)]] for r in range(m.size)]
        assert sum(1 for x in col if not x.is_zero()) == 1
        # mixing column for F_{i,j}, j > i+1
        assert m.entries[pos[(3, 4)]][pos[(2, 4)]] == QQ ** -1
        assert m.entries[pos[(2, 4)]][pos[(2, 4)]] == 1 - QQ ** -1
        assert m.entries[pos[(2, 3)]][pos[(2, 4)]] == (T ** -1) * (QQ ** -1 - QQ ** -2)
        # mixing column for F_{j,i}, j < i
        assert m.entries[pos[(1, 3)]][pos[(1, 2)]] == QQ ** -1
        assert m.entries[pos[(1, 2)]][pos[(1, 2)]] == 1 - QQ ** -1
        assert m.entries[pos[(2, 3)]][pos[(1, 2)]] == -(QQ ** -1 - QQ ** -2)

    def test_generator_index_range(self):
        with pytest.raises(ValueError):
            lkb_sigma_inverse(3, 3)

    def test_sigma_inverts(self):
        for n in (3, 4):
            for i in range(1, n):
                prod = mat_mul(row_lists(lkb_sigma(n, i)),
                               row_lists(lkb_sigma_inverse(n, i)))
                for r in range(len(prod)):
                    for c in range(len(prod)):
                        assert prod[r][c] == (LKBPoly.one() if r == c
                                              else LKBPoly.zero())

    def test_sigma_diagonal_value(self):
        m = lkb_sigma(3, 1)
        assert m.entries[0][0] == -T * QQ ** 2

    def test_sigma_entries_integral(self):
        m = lkb_sigma(5, 2)
        assert all(isinstance(x, LKBPoly) for row in m.entries for x in row)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_braid_relations(self, n):
        assert all_passed(check_lkb_braid_relations(n))

    def test_type_separation(self):
        with pytest.raises(TypeError):
            T + LaurentPoly.monomial(1, 0)
        with pytest.raises(TypeError):
            QQ * LaurentPoly.one()


class TestClosedFormSigma:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_inverts_both_ways(self, n):
        d = len(pair_basis(n))
        one = mat_identity(d, LKBPoly.one())
        one_rows = [{r: LKBPoly.one()} for r in range(d)]
        for i in range(1, n):
            sigma = row_lists(lkb_sigma(n, i))
            sigma_inv = row_lists(lkb_sigma_inverse(n, i))
            assert mat_mul(sigma, sigma_inv) == one
            assert mat_mul(sigma_inv, sigma) == one
            # the dict rows the checks use: no stored zero, the same
            # matrices once dense, and inverse to each other
            inv_rows = lkb._inverse_rows(n, i)
            rows = lkb._forward_rows(n, lkb._inverse_rows(n, n - i))
            for sparse, dense in ((rows, sigma), (inv_rows, sigma_inv)):
                assert all(x for row in sparse for x in row.values())
                assert [[row.get(c, LKBPoly.zero()) for c in range(d)]
                        for row in sparse] == dense
            assert mat_mul(rows, inv_rows) == one_rows
            assert mat_mul(inv_rows, rows) == one_rows

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_gauss_jordan(self, n):
        for i in range(1, n):
            assert row_lists(lkb_sigma(n, i)) \
                == poly_matrix_inverse(row_lists(lkb_sigma_inverse(n, i)))

    def test_index_range_names_callers_index(self):
        with pytest.raises(ValueError, match="index 3 out of range for n=3"):
            lkb_sigma(3, 3)
        with pytest.raises(ValueError, match="index 0 out of range for n=3"):
            lkb_sigma(3, 0)


class TestTheta:
    def test_generators(self):
        assert theta(T) == LaurentPoly.monomial(-2, 0, -1)
        assert theta(QQ) == LaurentPoly.monomial(0, 2)

    def test_multiplicative(self):
        assert theta(T * QQ ** 2) == LaurentPoly.monomial(-2, 4, -1)
        a, b = 1 + T, QQ + T ** -1
        assert theta(a * b) == theta(a) * theta(b)

    def test_injective_on_monomials(self):
        seen = {}
        for et in range(-3, 4):
            for eq in range(-3, 4):
                image = theta(LKBPoly.monomial(et, eq))
                key = tuple(image.sorted_terms())
                assert key not in seen
                seen[key] = (et, eq)

    def test_domain_restriction(self):
        with pytest.raises(TypeError):
            theta(LaurentPoly.one())


# Row of the (i, i+1) pair in pair_basis(n), i = 1..n-1: where each
# theta_wrong_sign report of fork_iso_check(n) names its first mismatch.
WRONG_SIGN_WITNESSES = {
    3: [0, 2],
    4: [0, 3, 5],
    5: [0, 4, 7, 9],
    6: [0, 5, 9, 12, 14],
    7: [0, 6, 11, 15, 18, 20],
}


class TestForkIsomorphism:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_passes(self, n):
        reports = fork_iso_check(n)
        assert len(reports) == n - 1
        assert all_passed(reports)

    def test_wrong_sign_fails(self):
        # the full reports, witnesses included, recorded from the dense
        # transport; each fails at the diagonal entry of the braided pair
        for n, witnesses in WRONG_SIGN_WITNESSES.items():
            expected = [{"check": "fork-isomorphism", "params": {"n": n, "i": i},
                         "pass": False, "witness": [k, k, "-2*q^2*s^-4"]}
                        for i, k in enumerate(witnesses, start=1)]
            got = [r.to_json() for r in fork_iso_check(n, theta_map=theta_wrong_sign)]
            assert json.dumps(got) == json.dumps(expected)


class TestRDegreeTwoBridge:
    def test_r2_components_match_rmatrix(self):
        # the degree-2 cross components that feed the closed forms
        q2 = LaurentPoly.monomial(2, 0)
        s = LaurentPoly.monomial(0, 1)
        sinv = LaurentPoly.monomial(0, -1)
        assert rmatrix_pair(2, 0).coeff((1, 1)) == q2 * (sinv - sinv ** 3)
        assert rmatrix_pair(1, 1).coeff((1, 1)) == q2 * sinv ** 2
        assert rmatrix_pair(0, 2).coeff((1, 1)).is_zero()


class TestBurau:
    def test_reduced_n2(self):
        mats = burau_matrices(2, reduced=True)
        assert len(mats) == 1
        assert mats[0][0][0] == LaurentPoly.monomial(0, -2, -1)  # -t at t = s^-2

    def test_shapes(self):
        assert len(burau_matrices(5, reduced=True)[0]) == 4
        assert len(burau_matrices(5, reduced=False)[0]) == 5

    def test_unreduced_quotient_invariance(self):
        # the evaluation d_j -> t^j intertwines the action with the identity
        for n in (3, 5):
            t = LaurentPoly.monomial(0, -2)
            for mat in burau_matrices(n, reduced=False):
                for c in range(n):
                    image = sum((mat[r][c] * t ** (r + 1) for r in range(n)),
                                LaurentPoly.zero())
                    assert image == t ** (c + 1)

    def test_reduced_braid_relations(self):
        mats = burau_matrices(4, reduced=True)
        for i in range(2):
            lhs = mat_mul(mat_mul(mats[i], mats[i + 1]), mats[i])
            rhs = mat_mul(mat_mul(mats[i + 1], mats[i]), mats[i + 1])
            assert mat_diff_witness(lhs, rhs) is None
        assert mat_diff_witness(mat_mul(mats[0], mats[2]),
                                mat_mul(mats[2], mats[0])) is None

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_degree_one_isomorphism(self, n):
        assert all_passed(check_burau(n))

    def test_quotient_map_control_fails_on_an_altered_generator(self, monkeypatch):
        real = lkb.burau_matrices

        def altered(n, reduced=True):
            mats = real(n, reduced)
            if not reduced:
                mats[-1][0][0] = mats[-1][0][0] + LaurentPoly.one()
            return mats

        monkeypatch.setattr(lkb, "burau_matrices", altered)
        reports = {r.check: r for r in check_burau(4)}
        assert not reports["burau-quotient-map"].passed
        assert all(r.passed for r in check_burau(4)
                   if r.check == "burau-degree-one")

    def test_degree_one_matches_by_hand(self):
        # sigma_1 on the single basis vector of W_{2,1} is -s^-2
        assert rho_matrix(2, 1, [1]).entries[0][0] \
            == LaurentPoly.monomial(0, -2, -1)
