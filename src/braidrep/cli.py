"""Command-line front end: generation, verification and export workflows.

Subcommands
-----------
basis        print the highest-weight basis labels and expansions
matrix       representation matrix of a braid word (JSON or text)
check        run one of the structural check suites, exit 0/1
irreducible  commutant dimension at an exact rational point
decompose    highest-weight components of a pure tensor
burau        Burau generator matrices (reduced or unreduced)
lkb-matrix   LKB generator matrices over Z[t, Q]
twist        scalar of the central full twist

Exit codes: 0 = success / all checks pass, 1 = a mathematical check failed,
2 = usage, validation or exponent-range error, or an unwritable --output.
Output is deterministic: fixed orderings everywhere and randomness only
through an explicit --seed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, NamedTuple

from . import braid as braid_mod
from . import decomp as decomp_mod
from . import hwspace as hw_mod
from . import lkb as lkb_mod
from .report import all_passed
from .verma import TensorVec


class UsageError(Exception):
    pass


def _emit(args, payload, text_renderer):
    """Write text_renderer() or the JSON of payload(); only the form asked for is built."""
    out = text_renderer() if args.format == "text" else json.dumps(payload())
    stream = open(args.output, "w") if args.output else sys.stdout
    try:
        stream.write(out + "\n")
    finally:
        if args.output:
            stream.close()


def _require(cond, message):
    if not cond:
        raise UsageError(message)


#: Largest weight-space dimension C(n+l-1, l) a command accepts.  Exact
#: arithmetic on V_{n,l} is out of reach long before this size.
MAX_WEIGHT_SPACE_DIM = 100_000

#: Most decimal digits the numerator or denominator of --q0/--s0 may have:
#: the output prints them, and Python converts at most 4,300 digits to str.
MAX_RATIONAL_DIGITS = 4_300


def _weight_space_dim_capped(n, l, cap):
    """C(n+l-1, l), or a partial product over ``cap`` as soon as one is.

    The partial products C(m, 1), C(m+1, 2), ... (m = max(n-1, l)) are the
    binomials on the way to the full one and never decrease, so stopping
    early never lets an oversized request through.
    """
    m, k = max(n - 1, l), min(n - 1, l)
    dim = 1
    for i in range(1, k + 1):
        dim = dim * (m + i) // i
        if dim > cap:
            break
    return dim


def _require_size(command, size, what):
    """Reject a request of ``size`` entries over the limit; ``what`` names them."""
    _require(size <= MAX_WEIGHT_SPACE_DIM, "%s: %s, over the limit of %d"
             % (command, what, MAX_WEIGHT_SPACE_DIM))


def _require_weight_space_dim(command, n, l):
    _require_size(command, _weight_space_dim_capped(n, l, MAX_WEIGHT_SPACE_DIM),
                  "the weight space V_{%d,%d} has dimension C(%d, %d)"
                  % (n, l, n + l - 1, l))


def _require_weight_space(args, command):
    """Validate --n and --l, and reject a weight space over the size limit."""
    _require(args.n >= 2, "%s requires --n >= 2" % command)
    _require(args.l >= 0, "%s requires --l >= 0" % command)
    _require_weight_space_dim(command, args.n, args.l)


def _parse_rational(text, flag):
    """``text`` as a Fraction with at most MAX_RATIONAL_DIGITS digits each way.

    Each run of digits and a decimal exponent are bounded before ``Fraction``
    sees them: int() refuses a longer run, and building 10^10000000 alone
    takes seconds.
    """
    too_large = UsageError("%s: numerator and denominator are limited to %d digits"
                           % (flag, MAX_RATIONAL_DIGITS))
    if any(len(run.replace("_", "")) > MAX_RATIONAL_DIGITS
           for run in re.findall(r"\d+(?:_\d+)*", text)):
        raise too_large
    exponent = re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", text, re.IGNORECASE)
    if exponent and abs(int(exponent.group(1))) > MAX_RATIONAL_DIGITS:
        raise too_large
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError("%s expects a rational number, got %r" % (flag, text))
    if max(abs(value.numerator), value.denominator) >= 10 ** MAX_RATIONAL_DIGITS:
        raise too_large
    return value


def _matrix_text(rows, labels):
    width = max([len(l) for l in labels] + [1])
    lines = ["  ".join(l.ljust(width) for l in labels)]
    for row in rows:
        lines.append("  ".join(str(x) for x in row))
    return "\n".join(lines)


# -- subcommands -----------------------------------------------------------------


def cmd_basis(args):
    _require_weight_space(args, "basis")
    # every basis vector is printed over tensors of n slots each
    _require_size("basis", args.n * _weight_space_dim_capped(
        args.n, args.l, MAX_WEIGHT_SPACE_DIM),
        "the basis vectors have n * C(n+l-1, l) = %d * C(%d, %d) tensor slots"
        % (args.n, args.n + args.l - 1, args.l))
    basis = hw_mod.hw_basis(args.n, args.l)
    _emit(args, lambda: {"n": args.n, "l": args.l,
                         "labels": [hw_mod.label_str(el.label) for el in basis],
                         "vectors": [el.vector.to_json() for el in basis]},
          lambda: "\n".join("%s = %s" % (hw_mod.label_str(el.label), el.vector)
                            for el in basis))
    return 0


def cmd_matrix(args):
    _require_weight_space(args, "matrix")
    try:
        word = braid_mod.BraidWord.parse(args.n, args.word)
    except ValueError as exc:
        raise UsageError(str(exc))
    rep = hw_mod.rho_matrix(args.n, args.l, word)
    _emit(args, rep.to_json, lambda: _matrix_text(
        rep.entries, [hw_mod.label_str(l) for l in rep.basis]))
    return 0


def _generator_count(count):
    return "%d generator %s" % (count, "matrix" if count == 1 else "matrices")


def _require_burau_size(command, n):
    """Reject the n - 1 Burau generators, n^2 entries each, over the limit."""
    _require_size(command, (n - 1) * n ** 2, "%s of n^2 = %d^2 entries each"
                  % (_generator_count(n - 1), n))


def _require_lkb_size(command, n, count):
    """Reject ``count`` LKB generators, C(n,2)^2 entries each, over the limit."""
    _require_size(command, count * comb(n, 2) ** 2,
                  "%s of C(n,2)^2 = C(%d, 2)^2 entries each"
                  % (_generator_count(count), n))


class Suite(NamedTuple):
    run: Callable          # (n, l, perturb) -> [CheckReport]
    perturb: bool = False  # whether --perturb damages what the suite checks
    min_l: int = 0
    bound: Callable = None  # (command, n): rejects an n too large to build


# The runners look each check up on its module when called, so that a
# rebound module attribute (a profiler's wrapper, say) is the one that runs.
SUITES = {
    "braid": Suite(lambda n, l, p: braid_mod.check_braid_relations(n, l, perturb=p),
                   perturb=True),
    "yangbaxter": Suite(lambda n, l, p: braid_mod.check_yang_baxter(l, perturb=p),
                        perturb=True),
    "equivariance": Suite(lambda n, l, p: braid_mod.check_equivariance(n, l)),
    "phi": Suite(lambda n, l, p: hw_mod.check_phi(n, l) + hw_mod.check_wmax(n, l)
                 + (hw_mod.check_sigma_w(n) if l == 2 else [])),
    "lkb": Suite(lambda n, l, p: lkb_mod.fork_iso_check(n)
                 + lkb_mod.check_lkb_braid_relations(n),
                 bound=lambda command, n: _require_lkb_size(command, n, n - 1)),
    "burau": Suite(lambda n, l, p: lkb_mod.check_burau(n), bound=_require_burau_size),
    "splitting": Suite(lambda n, l, p: decomp_mod.check_splitting(n, l), min_l=1),
    "eigen": Suite(lambda n, l, p: decomp_mod.ef1_eigencheck(n, l)),
    "twist": Suite(lambda n, l, p: decomp_mod.check_full_twist(n, l)),
}
_PERTURB_SUITES = " and ".join(name for name, s in SUITES.items() if s.perturb)


def cmd_check(args):
    _require(args.suite in SUITES,
             "unknown suite %r (choose from %s)" % (args.suite, ", ".join(SUITES)))
    suite = SUITES[args.suite]
    _require_weight_space(args, "check")
    if suite.bound:
        suite.bound("check", args.n)
    _require(args.l >= suite.min_l,
             "%s requires --l >= %d" % (args.suite, suite.min_l))
    _require(suite.perturb or not args.perturb,
             "--perturb applies only to the %s suites" % _PERTURB_SUITES)
    reports = suite.run(args.n, args.l, args.perturb)
    _emit(args, lambda: [r.to_json() for r in reports],
          lambda: "\n".join("%-28s %-30s %s" % (
              r.check, json.dumps(r.params), "pass" if r.passed else "FAIL")
              for r in reports))
    return 0 if all_passed(reports) else 1


def cmd_irreducible(args):
    _require_weight_space(args, "irreducible")
    if (args.q0 is None) != (args.s0 is None):
        raise UsageError("provide both --q0 and --s0, or neither")
    if args.q0 is None:
        q0, s0 = decomp_mod.random_specialization(args.n, args.l, seed=args.seed)
    else:
        q0 = _parse_rational(args.q0, "--q0")
        s0 = _parse_rational(args.s0, "--s0")
    try:
        dim = decomp_mod.commutant_dimension(args.n, args.l, q0, s0,
                                             seed=args.seed)
    except decomp_mod.GuardedSpecializationError as exc:
        raise UsageError("specialization rejected: guard factor %s vanishes"
                         % exc.factor_name)
    certified = dim == 1
    verdict = ("End = scalars over Q(q,s): certified" if certified
               else "commutant has dimension > 1")
    _emit(args, lambda: {
        "check": "irreducible",
        "params": {"n": args.n, "l": args.l, "q0": str(q0), "s0": str(s0)},
        "pass": certified,
        "witness": {"commutant_dimension": dim, "verdict": verdict},
    }, lambda: "commutant dimension at (q0=%s, s0=%s): %d -> %s" % (q0, s0, dim, verdict))
    return 0 if certified else 1


def cmd_decompose(args):
    _require(args.n >= 2, "decompose requires --n >= 2")
    try:
        idx = tuple(int(tok) for tok in args.idx.replace(",", " ").split())
    except ValueError:
        raise UsageError("--idx expects integers like '1,0,2'")
    _require(len(idx) == args.n, "--idx must list exactly n entries")
    _require(all(a >= 0 for a in idx), "--idx entries must be >= 0")
    _require_weight_space_dim("decompose", args.n, sum(idx))
    dec = decomp_mod.decompose(TensorVec.pure(idx))
    _emit(args, dec.to_json, lambda: "\n".join(
        "F^(%d) component: %s" % (t, comp) for t, comp in enumerate(dec.components)))
    return 0


def cmd_burau(args):
    _require(args.n >= 2, "burau requires --n >= 2")
    # all n - 1 generators are printed, each with at most n^2 entries
    _require_burau_size("burau", args.n)
    mats = lkb_mod.burau_matrices(args.n, reduced=not args.unreduced)
    labels = ["u%d" % j for j in range(1, args.n)] if not args.unreduced \
        else ["d%d" % j for j in range(1, args.n + 1)]

    def text():
        blocks = []
        for i, mat in enumerate(mats):
            blocks.append("sigma_%d:\n%s" % (i + 1, _matrix_text(mat, labels)))
        return "\n\n".join(blocks)

    _emit(args, lambda: [{"generator": i + 1, "basis": labels,
                          "rows": [[x.to_json() for x in row] for row in mat]}
                         for i, mat in enumerate(mats)], text)
    return 0


def cmd_lkb_matrix(args):
    _require(args.n >= 2, "lkb-matrix requires --n >= 2")
    _require_lkb_size("lkb-matrix", args.n, args.n - 1 if args.i is None else 1)
    gens = range(1, args.n) if args.i is None else [args.i]
    for i in gens:
        _require(1 <= i <= args.n - 1, "--i out of range")
    build = lkb_mod.lkb_sigma if args.positive else lkb_mod.lkb_sigma_inverse
    mats = [build(args.n, i) for i in gens]

    def text():
        blocks = []
        for i, m in zip(gens, mats):
            name = "sigma_%d" % i if args.positive else "sigma_%d^-1" % i
            blocks.append("%s:\n%s" % (
                name, _matrix_text(m.entries, ["F(%d,%d)" % p for p in m.basis])))
        return "\n\n".join(blocks)

    _emit(args, lambda: [dict(m.to_json(), generator=i) for i, m in zip(gens, mats)], text)
    return 0


def cmd_twist(args):
    _require_weight_space(args, "twist")
    try:
        scalar = decomp_mod.full_twist_scalar(args.n, args.l)
    except decomp_mod._NotScalarError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    _emit(args, lambda: {"n": args.n, "l": args.l, "scalar": scalar.to_json()},
          lambda: str(scalar))
    return 0


# -- parser ----------------------------------------------------------------------


# Built on first use, not at import; parse_args keeps no state between calls.
@lru_cache(maxsize=1)
def build_parser():
    parser = argparse.ArgumentParser(
        prog="braidrep",
        description="Exact braid group representations from quantum sl2 "
                    "Verma modules")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, l_default=None, word=False):
        p.add_argument("--n", type=int, required=True, help="strand count")
        if l_default is not None:
            p.add_argument("--l", type=int, default=l_default,
                           help="weight-space degree")
        if word:
            p.add_argument("--word", default="",
                           help="braid word, e.g. '1 -2 1'")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--output", default=None, help="write to file")

    p = sub.add_parser("basis", help="highest-weight basis")
    common(p, l_default=0)
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("matrix", help="representation matrix of a braid word")
    common(p, l_default=0, word=True)
    p.set_defaults(fn=cmd_matrix)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("--suite", required=True, help=", ".join(SUITES))
    common(p, l_default=2)
    p.add_argument("--perturb", action="store_true",
                   help="negative control: damage the braiding operator "
                        "(%s suites only)" % _PERTURB_SUITES)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("irreducible", help="commutant dimension at a point")
    common(p, l_default=2)
    p.add_argument("--q0", default=None)
    p.add_argument("--s0", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_irreducible)

    p = sub.add_parser("decompose", help="highest-weight components of a tensor")
    common(p, l_default=None)
    p.add_argument("--idx", required=True, help="multi-index, e.g. '1,0,2'")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("burau", help="Burau generator matrices (t = s^-2)")
    common(p, l_default=None)
    p.add_argument("--unreduced", action="store_true")
    p.set_defaults(fn=cmd_burau)

    p = sub.add_parser("lkb-matrix", help="LKB generator matrices over Z[t,Q]")
    common(p, l_default=None)
    p.add_argument("--i", type=int, default=None, help="single generator index")
    p.add_argument("--positive", action="store_true",
                   help="emit sigma_i instead of sigma_i^-1")
    p.set_defaults(fn=cmd_lkb_matrix)

    p = sub.add_parser("twist", help="full twist scalar")
    common(p, l_default=2)
    p.set_defaults(fn=cmd_twist)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ValueError, OverflowError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
