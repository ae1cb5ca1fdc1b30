import random

import pytest
from hypothesis import HealthCheck, settings

from braidrep.decomp import alpha_map, lambda_const, mu
from braidrep.ring import LaurentPoly, RatFunc
from braidrep.verma import E, F, TensorVec, act_tensor

settings.register_profile(
    "exact",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


def random_poly(rnd, max_terms=4, max_exp=3, max_coeff=6):
    terms = {}
    for _ in range(rnd.randint(0, max_terms)):
        key = (rnd.randint(-max_exp, max_exp), rnd.randint(-max_exp, max_exp))
        terms[key] = rnd.randint(-max_coeff, max_coeff)
    return LaurentPoly(terms)


def row_lists(matrix):
    """The rows of a RepMatrix or LKBMatrix as lists."""
    return [list(row) for row in matrix.entries]


def kernel_operand(rnd, ring):
    """((e0, e1) -> coeff dict, the same polynomial of ``ring``) for the product kernel.

    Zero, the unit 1, a monomial or a sum of up to five terms, with
    coefficients +-1 (as in the generator matrices) or +-2..+-5.
    """
    kind = rnd.choice(("zero", "one", "monomial", "monomial", "sum", "sum", "sum"))
    terms = {(0, 0): 1} if kind == "one" else {}
    for _ in range({"monomial": 1, "sum": rnd.randint(2, 5)}.get(kind, 0)):
        key = (rnd.randint(-3, 3), rnd.randint(-3, 3))
        terms[key] = terms.get(key, 0) + rnd.choice((1, -1) * 4 + (2, -2, 3, -3, 4, -4, 5, -5))
    terms = {key: c for key, c in terms.items() if c}
    return terms, ring(terms)


@pytest.fixture
def rnd():
    return random.Random(20240817)


def ratfunc_decomposition_oracle(vec):
    """Highest-weight components of vec, solved top-down over RatFunc.

    w_t = (E^t v - sum_{i>=1} mu_{t,i}(n, l-t) F^(i) w_{t+i}) / mu_{t,0}(n, l-t),
    with each division done in the fraction field.
    """
    n, l = vec.n, vec.weight()
    e_powers = [vec]
    for _ in range(l):
        e_powers.append(act_tensor(E, e_powers[-1]))
    components = [None] * (l + 1)
    for t in range(l, -1, -1):
        acc = e_powers[t]
        for i in range(1, l - t + 1):
            if not components[t + i].is_zero():
                acc = acc - mu(t, i, n, l - t) * act_tensor(F(i), components[t + i])
        pivot = mu(t, 0, n, l - t)
        components[t] = acc.map_coeffs(
            lambda c: c / pivot if isinstance(c, RatFunc) else RatFunc(c, pivot))
    return components


def ratfunc_splitting_oracle(vec):
    """The direct-sum splitting map of vec, over RatFunc.

    alpha(v) = sum_t alpha_{t+1}(w_t) / lambda_{t+1}(n, l), with the w_t of
    ``ratfunc_decomposition_oracle`` and l one more than the degree of v.
    """
    n, l = vec.n, vec.weight() + 1
    result = TensorVec.zero(n + 1)
    for t, w in enumerate(ratfunc_decomposition_oracle(vec)):
        if not w.is_zero():
            lam = lambda_const(t + 1, n, l)
            result = result + alpha_map(t + 1, w).map_coeffs(lambda c: c / lam)
    return result
