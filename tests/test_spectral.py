"""Basis-free checks of rho_{n,l}(sigma_1): its trace and its minimal polynomial.

V (x) V splits into Verma modules, the k-th of which is generated in
degree k and carries sigma_1 as the scalar lambda_k = ``wmax_eigenvalue(k)``.
Tensored with the other n - 2 factors, the k-th one contributes the
highest-weight vectors of degree l - k of n - 1 factors to W_{n,l}, which
are C(n-3+l-k, l-k) = dim W_{n-1,l-k} many.  So

    tr rho_{n,l}(sigma_1) = sum_k C(n-3+l-k, l-k) lambda_k,
    prod_{k=0..l} (rho_{n,l}(sigma_1) - lambda_k) = 0.

Neither identity depends on the order or the scaling of the basis, so a
wrong convention cannot pass them by accident of basis choice.
"""

from math import comb

import pytest

from braidrep.hwspace import rho_matrix, wmax_eigenvalue
from braidrep.linalg import mat_mul
from braidrep.ring import LaurentPoly

from conftest import row_lists

CELLS = [(3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2)]


def eigenvalues(l):
    return [wmax_eigenvalue(k) for k in range(l + 1)]


def trace_formula(n, l, lams):
    return sum((comb(n - 3 + l - k, l - k) * lam for k, lam in enumerate(lams)),
               LaurentPoly.zero())


def annihilates(mat, lams):
    """Whether prod_k (mat - lam_k) is the zero matrix."""
    def minus(lam):
        return [[x - lam if r == c else x for c, x in enumerate(row)]
                for r, row in enumerate(mat)]
    prod = minus(lams[0])
    for lam in lams[1:]:
        prod = mat_mul(prod, minus(lam))
    return not any(x for row in prod for x in row)


@pytest.mark.parametrize("n,l", CELLS)
def test_trace_of_sigma_1(n, l):
    mat = row_lists(rho_matrix(n, l, [1]))
    trace = sum((mat[i][i] for i in range(len(mat))), LaurentPoly.zero())
    assert trace == trace_formula(n, l, eigenvalues(l))


@pytest.mark.parametrize("n,l", CELLS)
def test_minimal_polynomial_of_sigma_1(n, l):
    assert annihilates(row_lists(rho_matrix(n, l, [1])), eigenvalues(l))


@pytest.mark.parametrize("n,l", CELLS)
def test_a_negated_eigenvalue_fails_both(n, l):
    mat = row_lists(rho_matrix(n, l, [1]))
    trace = sum((mat[i][i] for i in range(len(mat))), LaurentPoly.zero())
    for k in range(l + 1):
        lams = eigenvalues(l)
        lams[k] = -lams[k]
        assert trace != trace_formula(n, l, lams), k
        assert not annihilates(mat, lams), k
