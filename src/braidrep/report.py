"""Uniform pass/fail reporting for the structural check suites."""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import mat_diff_witness


@dataclass
class CheckReport:
    """Outcome of one exact check.

    ``witness`` carries whatever pinpoints a failure (for a matrix identity
    the [row, column, difference-string] of ``matrix_report``); it stays
    None on success.
    """

    check: str
    params: dict = field(default_factory=dict)
    passed: bool = True
    witness: object = None

    def to_json(self):
        return {
            "check": self.check,
            "params": self.params,
            "pass": self.passed,
            "witness": self.witness,
        }


def all_passed(reports):
    return all(r.passed for r in reports)


def matrix_report(check, params, lhs, rhs):
    """Report on the exact identity lhs == rhs of two matrices.

    The witness is [row, col, str(lhs - rhs)] at the first mismatch.
    """
    witness = mat_diff_witness(lhs, rhs)
    if witness is not None:
        r, c, diff = witness
        witness = [r, c, str(diff)]
    return CheckReport(check, params, witness is None, witness)
