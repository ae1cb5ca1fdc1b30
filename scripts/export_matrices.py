#!/usr/bin/env python3
"""Write every generator matrix of a representation to a JSON file.

--n and --l are validated as ``braidrep matrix`` validates them: a bad or
oversized request prints ``error: ...`` and exits 2 before any work, and
so does an --out file that cannot be written.

Usage: python scripts/export_matrices.py --n 4 --l 2 --out matrices_4_2.json
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from braidrep.cli import UsageError, _require_weight_space
from braidrep.hwspace import hw_basis, label_str, rho_matrix


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--l", type=int, required=True)
    parser.add_argument("--inverses", action="store_true",
                        help="also export the inverse generators")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    try:
        _require_weight_space(args, "export_matrices")
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    gens = list(range(1, args.n))
    if args.inverses:
        gens += [-i for i in range(1, args.n)]
    payload = {
        "n": args.n,
        "l": args.l,
        "basis": [label_str(el.label) for el in hw_basis(args.n, args.l)],
        "generators": {str(i): rho_matrix(args.n, args.l, [i]).to_json()["rows"]
                       for i in gens},
    }
    text = json.dumps(payload)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
