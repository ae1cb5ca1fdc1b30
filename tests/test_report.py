"""The shared matrix-identity report and the comparison behind it."""

import pytest

from braidrep.report import matrix_report
from braidrep.ring import LaurentPoly

ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()
Q = LaurentPoly.monomial(1, 0)


def test_equal_matrices_pass_without_witness():
    report = matrix_report("id", {"n": 2}, [[ONE, ZERO], [ZERO, Q]],
                           [[ONE, ZERO], [ZERO, Q]])
    assert report.to_json() == {"check": "id", "params": {"n": 2},
                                "pass": True, "witness": None}


def test_first_mismatch_is_the_witness():
    lhs = [[ONE, Q], [Q, Q]]
    rhs = [[ONE, ONE], [ZERO, Q]]
    report = matrix_report("m", {}, lhs, rhs)
    assert not report.passed
    assert report.witness == [0, 1, str(Q - ONE)]


@pytest.mark.parametrize("rhs", [[[ONE, ZERO]], [[ONE], [ZERO]]])
def test_shape_mismatch_raises(rhs):
    with pytest.raises(ValueError):
        matrix_report("m", {}, [[ONE, ZERO], [ZERO, ONE]], rhs)
