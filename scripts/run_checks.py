#!/usr/bin/env python3
"""Run every ``braidrep check`` suite over a small grid and print a summary table.

Each row is one suite at one (n, l), or the commutant certificate at
the rational point (q, s) = (2, 3), and names the checks that failed.  The
certificate makes one mod-p draw at the point of W_{n,l}, and takes the
exact rank only if the draw does not certify.  For each n, one more row is
the certificate's negative control: the unreduced Burau representation is
reducible, so its commutant at (2, 3) must have dimension at least 2, and
the row fails if the exact rank (``matrix_commutant_dimension``, which
makes no draw) gives 1.  The summary line gives the row count, the failed
rows and the sweep's wall time.

The splitting suite also runs at l = lmax + 1.

--nmax and --lmax are validated before any row runs: --nmax must be at
least 2, --lmax at least 0, and the largest spaces the sweep builds,
V_{nmax+1,lmax} (splitting), V_{nmax,lmax+1} (equivariance) and
V_{nmax+1,lmax+1} (splitting at lmax + 1), must be within ``braidrep
check``'s size limit, and so must the generator matrices the lkb and burau
rows build at nmax.  A bad request prints ``error: ...`` and exits 2.

Usage: python scripts/run_checks.py [--nmax 5] [--lmax 3]
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from braidrep.cli import SUITES, UsageError, _require, _require_weight_space_dim
from braidrep.decomp import commutant_dimension, matrix_commutant_dimension
from braidrep.lkb import burau_matrices
from braidrep.ring import specialize


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--nmax", type=int, default=5)
    parser.add_argument("--lmax", type=int, default=3)
    args = parser.parse_args()
    try:
        _require(args.nmax >= 2, "run_checks requires --nmax >= 2")
        _require(args.lmax >= 0, "run_checks requires --lmax >= 0")
        _require_weight_space_dim("run_checks", args.nmax + 1, args.lmax)
        _require_weight_space_dim("run_checks", args.nmax, args.lmax + 1)
        for suite in SUITES.values():
            if suite.bound:
                suite.bound("run_checks", args.nmax)
        _require_weight_space_dim("run_checks", args.nmax + 1, args.lmax + 1)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    sweep_start = time.perf_counter()
    rows = []
    for n in range(2, args.nmax + 1):
        for l in range(args.lmax + 2):
            top = l > args.lmax
            for name, suite in SUITES.items():
                if l < suite.min_l or (top and name != "splitting"):
                    continue
                start = time.perf_counter()
                failed = [r.check for r in suite.run(n, l, False) if not r.passed]
                rows.append((name, n, l, failed, time.perf_counter() - start))
            if top:
                continue
            start = time.perf_counter()
            failed = [] if commutant_dimension(n, l, 2, 3) == 1 else ["irreducible"]
            rows.append(("irreducible", n, l, failed, time.perf_counter() - start))
        start = time.perf_counter()
        mats = [[[specialize(x, 2, 3) for x in row] for row in mat]
                for mat in burau_matrices(n, reduced=False)]
        failed = [] if matrix_commutant_dimension(mats) >= 2 else ["certified-irreducible"]
        rows.append(("burau-unred", n, 1, failed, time.perf_counter() - start))

    failures = 0
    for name, n, l, failed, dt in rows:
        print(("%-12s n=%d l=%d  %-4s  %6.2fs  %s" % (
            name, n, l, "FAIL" if failed else "pass", dt,
            " ".join(dict.fromkeys(failed)))).rstrip())
        failures += bool(failed)
    print("\n%d rows, %d failures, %.2f s" % (
        len(rows), failures, time.perf_counter() - sweep_start))
    print("(phi fails at l=1 for n>=3 by design: its wmax-eigenvalue check")
    print(" tests the scalar claim where it is false, a documented erratum;")
    print(" see README \"Acceptance status\" and test_acceptance.py)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
