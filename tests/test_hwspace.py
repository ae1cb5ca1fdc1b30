"""Highest-weight bases, the basis-adjusting automorphism, representation matrices."""

import random
from math import comb

import pytest

from braidrep import hwspace
from braidrep.braid import BraidWord, apply_word
from braidrep.decomp import full_twist_word
from braidrep.hwspace import (check_phi, check_sigma_w, check_wmax,
                              classify_index, e_inverse_on_B,
                              expand_in_hw_basis, hw_basis, is_highest_weight,
                              label_str, pair_label, phi, rho_matrix,
                              wmax_eigenvalue)
from braidrep.linalg import mat_identity, mat_mul, sparse_rows
from braidrep.report import all_passed
from braidrep.ring import LaurentPoly
from braidrep.verma import E, K, TensorVec, act_tensor, weight_basis

from conftest import random_poly, row_lists

S = LaurentPoly.monomial(0, 1)
Q = LaurentPoly.monomial(1, 0)


def mono(eq, es, c=1):
    return LaurentPoly.monomial(eq, es, c)


class TestClassification:
    def test_generic_split(self):
        assert classify_index((0, 1, 1)) == "A"
        assert classify_index((0, 2, 0)) == "B"
        assert classify_index((1, 2, 0)) == "A"

    def test_degree_one_special_case(self):
        assert classify_index((1, 0, 0)) == "A"
        assert classify_index((0, 1, 0)) == "A"
        assert classify_index((0, 0, 1)) == "B"

    def test_degree_zero(self):
        assert classify_index((0, 0)) == "A"

    def test_counts(self):
        # |A| = C(n+l-2, l) for l >= 2; |A| = n-1 at l = 1
        for n in range(2, 6):
            for l in range(5):
                a_count = sum(1 for idx in weight_basis(n, l)
                              if classify_index(idx) == "A")
                if l == 0:
                    assert a_count == 1
                elif l == 1:
                    assert a_count == n - 1
                else:
                    assert a_count == comb(n + l - 2, l)


class TestEInverse:
    def test_zero_tail(self):
        for m in (1, 2, 4):
            v = TensorVec.pure((0,) * m)
            eta = e_inverse_on_B(v)
            assert eta == TensorVec.pure((0,) * (m - 1) + (1,))

    def test_leading_entry_lift(self):
        # target v_2 (x) v_0 (x) v_0 lifts through v_3 with unit s^2
        eta = e_inverse_on_B(TensorVec.pure((2, 0, 0)))
        assert eta.coeff((3, 0, 0)) == mono(0, -2)
        assert act_tensor(E, eta) == TensorVec.pure((2, 0, 0))

    @pytest.mark.parametrize("n,l", [(2, 2), (3, 2), (3, 3), (4, 3)])
    def test_roundtrip_random(self, n, l, rnd):
        idxs = weight_basis(n, l - 1)
        for _ in range(6):
            v = TensorVec(n, {idx: random_poly(rnd, max_terms=2)
                              for idx in rnd.sample(idxs, min(4, len(idxs)))})
            if v.is_zero():
                continue
            before = dict(v.coeffs)
            eta = e_inverse_on_B(v)
            assert v.coeffs == before        # the residual is cleared on a copy
            assert act_tensor(E, eta) == v
            assert all(classify_index(idx) == "B" for idx in eta.coeffs)
            assert all(isinstance(c, LaurentPoly) for c in eta.coeffs.values())


def j_tail(idx):
    """(j, tail) of an A-tensor: its leading 1 in slot j-1, ``tail`` on slots j..n.

    The zero index of degree 0 maps to (n + 1, ()).  This is the (j, tail)
    naming of the highest-weight basis, kept as an oracle for ``label_str``,
    the ``hw_basis`` order and ``closed_form_phi``.
    """
    if not any(idx):
        return len(idx) + 1, ()
    p = next(i for i, v in enumerate(idx) if v)
    assert idx[p] == 1, idx
    return p + 2, idx[p + 1:]


def j_tail_str(j, tail):
    """Printed name of (j, tail): w(i,j) at degree 2, w[tail]@j otherwise."""
    if sum(tail) + 1 == 2 and 1 in tail:
        return "w(%d,%d)" % (j - 1, j + tail.index(1))
    return "w[%s]@%d" % (",".join(str(a) for a in tail), j)


def closed_form_phi(idx):
    """Phi of an A-tensor by the b_k sum of the hwspace module docstring.

    sum_k b_k v_0^{(j-2)} (x) v_k (x) E^{k-1} v_tail, with E_B^{-1} v_tail as
    the k = 0 term and b_k = (-1)^{k-1} s^{(k-1)(j-n-1)} q^{(k-1)(2l-k-2)};
    the degree-0 index is the lone tensor v_0^{(n)}.
    """
    n = len(idx)
    j, tail = j_tail(idx)
    if not tail:
        return TensorVec.pure((0,) * n)
    l = 1 + sum(tail)
    tail_vec = TensorVec.pure(tail)
    total = TensorVec.zero(n)
    part = e_inverse_on_B(tail_vec)
    for k in range(l + 1):
        if k == 1:
            part = tail_vec
        elif k >= 2:
            part = act_tensor(E, part)         # E^{k-1} v_tail
        b_k = mono((k - 1) * (2 * l - k - 2), (k - 1) * (j - n - 1),
                   -1 if (k - 1) % 2 else 1)
        shifted = TensorVec(n, {(0,) * (j - 2) + (k,) + i: c
                                for i, c in part.coeffs.items()})
        total = total + b_k * shifted
    return total


class TestPhi:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_the_closed_form_at_every_a_label(self, n):
        for l in range(5):
            for idx in weight_basis(n, l):
                if classify_index(idx) == "A":
                    assert phi(idx) == closed_form_phi(idx), idx

    def test_closed_form_oracle_sees_a_wrong_weight(self):
        # the k = 2 term of w(1,2) at n = 3 is b_2 E v_(1,0) = -s^-1 v_(2,0,0);
        # with b_2 of the opposite sign the sum is no longer Phi
        lab = pair_label(1, 2, 3)
        assert closed_form_phi(lab).coeff((2, 0, 0)) == mono(0, -1, -1)
        bad = closed_form_phi(lab) + mono(0, -1, 2) * TensorVec.pure((2, 0, 0))
        assert phi(lab) != bad

    def test_degree_one(self):
        # c_i - s^{n-i} c_n
        n = 4
        for i in range(1, n):
            c_i = [0] * n
            c_i[i - 1] = 1
            c_n = [0] * n
            c_n[-1] = 1
            expected = TensorVec.pure(tuple(c_i)) \
                - mono(0, n - i) * TensorVec.pure(tuple(c_n))
            assert phi(tuple(c_i)) == expected

    def test_degree_two_closed_form(self):
        # a_{i,j} - s^{j-i} q^{-2} b_j - s^{i-j} b_i
        n = 4
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                lab = pair_label(i, j, n)
                a = [0] * n
                a[i - 1] = a[j - 1] = 1
                b_i = [0] * n
                b_i[i - 1] = 2
                b_j = [0] * n
                b_j[j - 1] = 2
                expected = TensorVec.pure(tuple(a)) \
                    - mono(-2, j - i) * TensorVec.pure(tuple(b_j)) \
                    - mono(0, i - j) * TensorVec.pure(tuple(b_i))
                assert phi(lab) == expected

    def test_image_is_highest_weight(self):
        for n, l in [(3, 3), (4, 2), (2, 4)]:
            for el in hw_basis(n, l):
                assert is_highest_weight(el.vector)

    def test_leading_coefficient_one(self):
        # Phi(a) = a + B-part: the A-part of each basis vector is its label
        for el in hw_basis(4, 3):
            assert el.vector.coeff(el.label).is_one()
            rest = el.vector - TensorVec.pure(el.label)
            assert all(classify_index(i) == "B" for i in rest.coeffs)


class TestHwBasis:
    def test_rank_formula(self):
        for n in range(2, 7):
            for l in range(5):
                assert len(hw_basis(n, l)) == comb(n + l - 2, l)

    def test_degenerate_cases(self):
        assert hw_basis(2, 2)[0].vector.coeff((1, 1)).is_one()
        b = hw_basis(3, 0)
        assert len(b) == 1 and b[0].vector == TensorVec.pure((0, 0, 0))

    def test_dimension_bookkeeping(self):
        # |W_{n,l}| + |V_{n,l-1}| = |V_{n,l}|
        for n in range(2, 6):
            for l in range(1, 5):
                assert len(hw_basis(n, l)) + len(weight_basis(n, l - 1)) \
                    == len(weight_basis(n, l))

    def test_k_eigenvalue(self):
        for n, l in [(3, 2), (4, 3), (6, 4)]:
            eig = mono(-2 * l, n)
            for el in hw_basis(n, l):
                assert act_tensor(K, el.vector) == eig * el.vector

    def test_order_ends_at_wmax(self):
        for n, l in [(3, 2), (4, 3)]:
            assert hw_basis(n, l)[-1].label == (1, l - 1) + (0,) * (n - 2)

    def test_label_strings(self):
        assert label_str(pair_label(1, 2, 3)) == "w(1,2)"
        assert label_str((0, 1, 0, 2)) == "w[0,2]@3"
        assert label_str((0, 0, 0)) == "w[]@4"

    def test_validation(self):
        with pytest.raises(ValueError):
            hw_basis(1, 1)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_labels_are_the_j_tail_enumeration(self, n):
        # the leading 1 in slot j-1 followed by any tail of degree l-1 on the
        # remaining n-j+1 slots; at l = 1 this leaves out the last slot's 1.
        # Ordered by (len(tail), tail), and printed by the (j, tail) rule.
        for l in range(5):
            if l == 0:
                expected = [(n + 1, ())]
            else:
                expected = [(j, tail) for j in range(2, n + 1)
                            for tail in weight_basis(n - j + 1, l - 1)]
            expected.sort(key=lambda jt: (len(jt[1]), jt[1]))
            basis = hw_basis(n, l)
            assert [j_tail(el.label) for el in basis] == expected
            assert [label_str(el.label) for el in basis] \
                == [j_tail_str(j, tail) for j, tail in expected]


class TestRho:
    def test_one_dimensional_values(self):
        assert rho_matrix(2, 2, [1]).entries[0][0] == mono(2, -4)
        assert rho_matrix(2, 1, [1]).entries[0][0] == mono(0, -2, -1)

    def test_identity_word(self):
        m = rho_matrix(3, 2, [])
        for r in range(m.size):
            for c in range(m.size):
                assert m.entries[r][c] == (LaurentPoly.one() if r == c
                                           else LaurentPoly.zero())

    def test_strand_mismatch(self):
        with pytest.raises(ValueError):
            rho_matrix(3, 2, BraidWord(4, (1,)))

    def test_action_convention_composition(self):
        # words act first letter first, so concatenation composes right-to-left
        from braidrep.linalg import mat_mul
        a = row_lists(rho_matrix(3, 2, [1]))
        b = row_lists(rho_matrix(3, 2, [2]))
        ab = row_lists(rho_matrix(3, 2, [1, 2]))
        assert ab == mat_mul(b, a)

    def test_braid_relations_on_w(self):
        for n, l in [(3, 2), (4, 2), (4, 3)]:
            assert rho_matrix(n, l, [1, 2, 1]) == rho_matrix(n, l, [2, 1, 2])
        assert rho_matrix(4, 2, [1, 3]) == rho_matrix(4, 2, [3, 1])

    def test_inverse_letters(self):
        # the identity by the braid relation, with no pair that cancels freely:
        # the product of all six generator matrices must give the identity
        word = BraidWord(3, (1, 2, 1, -2, -1, -2))
        assert word.reduced() == word
        assert rho_matrix(3, 2, word) == rho_matrix(3, 2, [])

    def test_entries_integral(self):
        m = rho_matrix(4, 2, [1, -2, 3])
        assert all(isinstance(x, LaurentPoly) for row in m.entries for x in row)

    def test_determinant_is_unit(self):
        # cofactor expansion on small sizes: det must be +-q^a s^b
        def det(mat):
            d = len(mat)
            if d == 1:
                return mat[0][0]
            total = LaurentPoly.zero()
            for c in range(d):
                minor = [row[:c] + row[c + 1:] for row in mat[1:]]
                term = mat[0][c] * det(minor)
                total = total + (term if c % 2 == 0 else -term)
            return total

        for n, l, word in [(2, 3, [1]), (3, 1, [1]), (3, 2, [2]),
                           (4, 1, [2]), (3, 2, [1, -2])]:
            value = det(row_lists(rho_matrix(n, l, word)))
            mono = value.as_monomial()
            assert mono is not None and mono[1] in (1, -1)

    def test_expand_rejects_outside_vectors(self):
        with pytest.raises(ValueError):
            expand_in_hw_basis(TensorVec.pure((1, 0, 1)), 3, 2)

    def test_json_schema(self):
        data = rho_matrix(3, 2, [1]).to_json()
        assert set(data) == {"basis", "rows"}
        assert data["basis"] == ["w(2,3)", "w(1,3)", "w(1,2)"]
        assert len(data["rows"]) == 3 and len(data["rows"][0]) == 3

    @pytest.mark.parametrize("n,l,twist", [
        (2, 3, False), (3, 1, False), (3, 4, False), (4, 0, False),
        (4, 3, False), (5, 3, False), (4, 2, True)])
    def test_word_matches_tensor_path(self, n, l, twist):
        # Oracle: every basis vector pushed through the whole word on the
        # full tensor space, then expanded, with no generator matrix formed.
        letters = [k for i in range(1, n) for k in (i, -i)]
        if twist:
            full = full_twist_word(n)
            words = [full.letters, full.inverse().letters]
        else:
            rng = random.Random(100 * n + l)
            words = [tuple(rng.choice(letters) for _ in range(length))
                     for length in range(11)]
        # Fill the generator cache at another n and another l first, so a
        # cache that ignored either would serve those matrices below.  One
        # letter per call: rho_matrix cancels a word such as [1, -1] whole.
        hwspace._generator_columns.cache_clear()
        for k in (1, -1):
            rho_matrix(3 if n == 2 else 2, l, [k])
        for k in letters:
            rho_matrix(n, 1 if l == 0 else 0, [k])
        assert hwspace._generator_columns.cache_info().currsize == 2 + len(letters)
        basis = hw_basis(n, l)
        for word in words:
            cols = [expand_in_hw_basis(apply_word(BraidWord(n, word), el.vector), n, l)
                    for el in basis]
            want = [[col[r] for col in cols] for r in range(len(basis))]
            assert row_lists(rho_matrix(n, l, word)) == want, word

    @pytest.mark.parametrize("n,l", [(3, 0), (3, 1), (4, 2)])
    def test_cached_generators_are_not_aliased(self, n, l):
        before = {w: rho_matrix(n, l, w).to_json()
                  for w in ((1,), (1, 1), (2,), (1, -2))}
        rows = row_lists(rho_matrix(n, l, [1]))
        for row in rows:
            row[0] = row[0] + 1
            row.append(LaurentPoly.one())
        rows.clear()
        for w, data in before.items():
            m = rho_matrix(n, l, w)
            assert m.to_json() == data, w
            assert all(type(x) is LaurentPoly for row in m.entries for x in row)
        ident = rho_matrix(n, l, [])
        assert all(type(x) is LaurentPoly for row in ident.entries for x in row)

    @pytest.mark.parametrize("n,l", [(2, 0), (3, 1), (4, 2), (5, 3)])
    def test_generator_columns_are_the_expanded_images(self, n, l):
        # Dict equality also pins that no zero entry is stored.
        for k in [k for i in range(1, n) for k in (i, -i)]:
            want = tuple(
                {r: x for r, x in enumerate(expand_in_hw_basis(
                    apply_word(BraidWord(n, (k,)), el.vector), n, l)) if x}
                for el in hw_basis(n, l))
            assert hwspace._generator_columns(n, l, k) == want, k

    @pytest.mark.parametrize("n,l", [(3, 2), (4, 3), (5, 3)])
    def test_generator_times_inverse_is_identity(self, n, l):
        # rho_matrix cancels [i, -i] before multiplying, so the inverse pair
        # is checked on the one-letter matrices through mat_mul
        ident = mat_identity(len(hw_basis(n, l)), LaurentPoly.one())
        for i in range(1, n):
            fwd = row_lists(rho_matrix(n, l, [i]))
            inv = row_lists(rho_matrix(n, l, [-i]))
            assert mat_mul(fwd, inv) == ident, i
            assert mat_mul(inv, fwd) == ident, i

    @pytest.mark.parametrize("n,l,word,cancels", [
        (n, l, word, cancels) for n, l in [(4, 2), (5, 3)]
        for word, cancels in [((1, 3, -1), True), ((1, 2, -2, 3, -1), True),
                              ((2, 4, 1, -4, -2, 3), True), ((1, 2, -1), False),
                              ((1, -2, 1), False)]
        if max(map(abs, word)) < n])
    def test_reduced_word_matches_tensor_path(self, n, l, word, cancels):
        # Oracle: apply_word applies every letter, cancelling pairs included.
        braid_word = BraidWord(n, word)
        assert (len(braid_word.reduced().letters) < len(word)) == cancels
        basis = hw_basis(n, l)
        cols = [expand_in_hw_basis(apply_word(braid_word, el.vector), n, l)
                for el in basis]
        want = [[col[r] for col in cols] for r in range(len(basis))]
        assert row_lists(rho_matrix(n, l, word)) == want

    @pytest.mark.parametrize("word", [[5, -5], [1, 5, -5, -1], [-4, 2, 4]])
    def test_out_of_range_letter_in_a_cancelling_pair_raises(self, word):
        with pytest.raises(ValueError, match="out of range"):
            rho_matrix(3, 2, word)


class TestStructure:
    @pytest.mark.parametrize("n,l", [(2, 2), (3, 2), (3, 3), (4, 2), (5, 2)])
    def test_phi_checks(self, n, l):
        assert all_passed(check_phi(n, l))

    @pytest.mark.parametrize("n,l", [(2, 0), (3, 1), (4, 2), (5, 3)])
    def test_phi_matrix_rows_are_the_images(self, n, l):
        # Column c holds Phi of the c-th weight tensor: its hw_basis vector if
        # the tensor is an A-tensor, the tensor itself if it is a B-tensor.
        rows, basis = hwspace.phi_matrix(n, l)
        assert basis == weight_basis(n, l)
        images = [phi(idx) if classify_index(idx) == "A"
                  else TensorVec.pure(idx) for idx in basis]
        assert rows == [{c: x for c, image in enumerate(images) if (x := image.coeff(idx))}
                        for idx in basis]

    @staticmethod
    def e_structure(n, l):
        return next(r for r in check_phi(n, l) if r.check == "phi-e-structure")

    def test_e_structure_fails_for_a_basis_vector_not_highest_weight(self, monkeypatch):
        n, l = 3, 2
        assert self.e_structure(n, l).passed
        basis = list(hw_basis(n, l))
        last = basis[-1]
        # a B-tensor of the same weight: E maps B injectively, so E no longer kills it
        basis[-1] = hwspace.HWBasisElement(
            last.label, last.vector + TensorVec.pure((0, 0, 2)))
        monkeypatch.setattr(hwspace, "hw_basis", lambda n_, l_: tuple(basis))
        assert not is_highest_weight(basis[-1].vector)
        assert not self.e_structure(n, l).passed

    @pytest.mark.parametrize("offset", [0, 1])
    def test_e_structure_fails_for_an_altered_b_column(self, monkeypatch, offset):
        n, l = 3, 2
        real = hwspace.phi_matrix

        def altered(n_, l_):
            rows, basis = real(n_, l_)
            c = next(c for c, idx in enumerate(basis) if classify_index(idx) == "B")
            r = (c + offset) % len(basis)        # the diagonal, or one below it
            rows[r][c] = rows[r].get(c, LaurentPoly.zero()) + S
            return rows, basis

        monkeypatch.setattr(hwspace, "phi_matrix", altered)
        assert not self.e_structure(n, l).passed

    @staticmethod
    def dense_phi_identities(mat):
        """(Phi - 1)^2 and Phi (2 - Phi), every entry formed (test oracle)."""
        from braidrep.linalg import mat_mul
        d = len(mat)
        sq = mat_mul(mat, mat)
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
        ident = [[one if r == c else zero for c in range(d)] for r in range(d)]
        nil = [[sq[r][c] - mat[r][c] * 2 + ident[r][c] for c in range(d)]
               for r in range(d)]
        inv = [[mat[r][c] * 2 - sq[r][c] for c in range(d)] for r in range(d)]
        return sq, ident, nil, inv

    @pytest.mark.parametrize("n,l", [(3, 2), (4, 2), (4, 3)])
    def test_phi_fails_at_an_entry_zero_in_phi_its_square_and_1(self, monkeypatch, n, l):
        # check_phi forms (Phi - 1)^2 and Phi (2 - Phi) only where Phi, Phi^2
        # or 1 is nonzero.  Damage Phi where all three are zero, at the first
        # spot whose first mismatch lies where only the new Phi^2 is nonzero,
        # so that a formation blind to Phi^2 would report another witness.
        real = hwspace.phi_matrix
        rows, basis = real(n, l)
        d = len(basis)
        mat = [[row.get(c, LaurentPoly.zero()) for c in range(d)] for row in rows]
        sq = self.dense_phi_identities(mat)[0]

        def damaged(spot):
            r, c = spot
            bad = [list(row) for row in mat]
            bad[r][c] = bad[r][c] + S
            return bad

        def first_mismatch(lhs, rhs):
            return next(([r, c, str(lhs[r][c] - rhs[r][c])] for r in range(d)
                         for c in range(d) if lhs[r][c] != rhs[r][c]), None)

        def only_in_square(spot):
            bad = damaged(spot)
            _, _, nil, _ = self.dense_phi_identities(bad)
            first = first_mismatch(nil, [[LaurentPoly.zero()] * d] * d)
            return first is not None and first[0] != first[1] \
                and not bad[first[0]][first[1]]

        spot = next(spot for spot in ((r, c) for r in range(d) for c in range(d))
                    if spot[0] != spot[1] and not mat[spot[0]][spot[1]]
                    and not sq[spot[0]][spot[1]] and only_in_square(spot))
        bad = damaged(spot)
        _, ident, nil, inv = self.dense_phi_identities(bad)
        monkeypatch.setattr(hwspace, "phi_matrix",
                            lambda n_, l_: (sparse_rows(bad), basis))
        reports = {rep.check: rep for rep in check_phi(n, l)}
        zero = [[LaurentPoly.zero()] * d] * d
        for name, lhs, rhs in (("phi-nilpotent", nil, zero),
                               ("phi-inverse", inv, ident)):
            assert not reports[name].passed, name
            assert reports[name].witness == first_mismatch(lhs, rhs), name

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sigma_w_closed_forms(self, n):
        report, = check_sigma_w(n)
        assert report.passed, report.witness

    @pytest.mark.parametrize("n,l", [(2, 1), (2, 4), (3, 3), (4, 2)])
    def test_wmax(self, n, l):
        assert all_passed(check_wmax(n, l))

    def test_wmax_eigenvalue_form(self):
        assert wmax_eigenvalue(2) == mono(2, -4)
        assert wmax_eigenvalue(3) == mono(6, -6, -1)

    def test_wmax_direct(self):
        n, l = 3, 4
        el = hw_basis(n, l)[-1]
        image = apply_word(BraidWord(n, (1,)), el.vector)
        assert image == wmax_eigenvalue(l) * el.vector

    @pytest.mark.parametrize("n", [3, 4])
    def test_wmax_degenerate_at_degree_one(self, n):
        """At l = 1 the scalar claim genuinely fails for n >= 3.

        The degree-one action is reduced Burau; directly,
        sigma_1 w_1 = s^-1 w_2 + (1 - s^-2) w_1.  check_wmax stays a
        faithful verifier, so it must report the failure with a witness.
        """
        basis = hw_basis(n, 1)
        w = {n - 1 - r: el.vector for r, el in enumerate(basis)}
        image = apply_word(BraidWord(n, (1,)), w[1])
        s_inv = LaurentPoly.monomial(0, -1)
        expected = s_inv * w[2] + (1 - s_inv * s_inv) * w[1]
        assert image == expected
        assert image != wmax_eigenvalue(1) * w[1]
        report, = check_wmax(n, 1)
        assert not report.passed
        assert report.witness is not None
