"""The four benchmark workloads: seeded inputs, the timed call, the exact check.

Each workload hands out its inputs one *cycle* at a time.  A cycle is a
balanced block of items (one word per length, one point per (n, l) class,
one full check grid), so a run that stops after whole cycles has the same
mix of item classes whatever the seed, and its median and tail do not jump
between cost classes.

``run(item)`` is the only code timed; it calls the library exactly as a
user would.  ``check(item, output)`` runs off the clock and returns None for
a correct output or a one-line reason for a wrong one.  Inputs come only
from the ``random.Random(seed)`` each workload owns.
"""

from __future__ import annotations

import json
import os
import random

import braidrep
from braidrep import cli, decomp, hwspace, lkb
from braidrep.ring import LaurentPoly, specialize
from braidrep.verma import TensorVec, weight_basis


def lru_caches():
    """Every functools cache of the package, found from the module globals."""
    seen = {}
    for mod in package_modules():
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_clear") and obj.__module__ == mod.__name__:
                seen[name] = obj
    return seen


def package_modules():
    return [braidrep] + [getattr(braidrep, name) for name in
                         ("ring", "verma", "braid", "hwspace", "lkb", "decomp",
                          "linalg", "report", "cli")]


def _poly_add(a, b, scale_exp=0, scale=1):
    out = dict(a)
    for e, c in b.items():
        e += scale_exp
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def burau_terms(word, n):
    """Terms of the unreduced Burau matrix of ``word`` over Z[t^+-1].

    A cheap, exact stand-in for how large rho(word) grows; it only orders
    candidate inputs and never reaches the library.
    """
    columns = [[{0: 1} if r == c else {} for r in range(n)] for c in range(n)]
    total = 0
    for k in word:
        i = abs(k) - 1
        for v in columns:
            a, b = v[i], v[i + 1]
            if k > 0:   # e_i -> (1-t) e_i + e_{i+1},  e_{i+1} -> t e_i
                v[i] = _poly_add(_poly_add(a, a, 1, -1), b, 1)
                v[i + 1] = a
            else:       # e_i -> t^-1 e_{i+1},  e_{i+1} -> e_i + (1-t^-1) e_{i+1}
                v[i] = b
                v[i + 1] = _poly_add(_poly_add(b, b, -1, -1), a, -1)
        total += sum(len(p) for v in columns for p in v)
    return total


class RhoWords:
    """rho_{5,3}(w) for seeded random B_5 words, dimension 20.

    Words of one length differ in cost by up to 30 times, so a cycle is a
    stratified sample: for each length, ``candidates`` words are drawn and
    ordered by ``burau_terms``, and the cycle keeps two of them, one from
    the cheaper and one from the costlier half, at ranks that come round in
    turn.  Every rank is kept equally often, so a kept word is distributed
    like one uniform draw; runs of different seeds just see more alike mixes
    of cheap and costly words.
    """

    name = "rho_words"
    n, l = 5, 3
    lengths = range(4, 15)
    letters = (1, 2, 3, 4, -1, -2, -3, -4)
    candidates = 8

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.cycles = 0
        self._generators = None

    def warm_up(self):
        hwspace.hw_basis(self.n, self.l)
        for k in self.letters:           # fills rmatrix_pair and the R^-1 blocks
            hwspace.rho_matrix(self.n, self.l, [k])

    def begin_cycle(self):
        pass

    def next_cycle(self):
        half = self.candidates // 2
        cycle = []
        for length in self.lengths:
            words = sorted((tuple(self.rng.choice(self.letters) for _ in range(length))
                            for _ in range(self.candidates)),
                           key=lambda w: burau_terms(w, self.n))
            rank = (self.cycles + length) % half
            cycle += [words[rank], words[rank + half]]
        self.cycles += 1
        self.rng.shuffle(cycle)
        return cycle

    def run(self, word):
        return hwspace.rho_matrix(self.n, self.l, word)

    def generators(self):
        """Nonzero entries of each generator matrix, row by row."""
        if self._generators is None:
            self._generators = {
                k: [[(c, x) for c, x in enumerate(row) if x]
                    for row in hwspace.rho_matrix(self.n, self.l, [k]).entries]
                for k in self.letters}
        return self._generators

    def check(self, word, rep):
        # Columns are images, so rho(w1...wk) = rho(wk) ... rho(w1): column c
        # is the c-th unit vector pushed through the letters in order.  Only
        # about a ninth of the generator entries are nonzero, so the product
        # is formed sparsely, one column at a time.
        gens = self.generators()
        d = len(gens[word[0]])
        labels = tuple(el.label for el in hwspace.hw_basis(self.n, self.l))
        if rep.basis != labels:
            return "basis labels differ from hw_basis(%d, %d)" % (self.n, self.l)
        if len(rep.entries) != d or any(len(row) != d for row in rep.entries):
            return "matrix is not %d x %d" % (d, d)
        zero = LaurentPoly.zero()
        for c in range(d):
            column = [zero] * d
            column[c] = LaurentPoly.one()
            for k in word:
                column = [sum((x * column[j] for j, x in row), zero) for row in gens[k]]
            for r in range(d):
                if rep.entries[r][c] != column[r]:
                    return "entry (%d, %d) differs from the generator product" % (r, c)
        return None


class Decompose:
    """decompose(v).reconstruct() for criterion-8-style vectors on V_{4,3}."""

    name = "decompose"
    n, l = 4, 3
    cycle_size = 10
    support = 5

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def warm_up(self):
        decomp.decompose(TensorVec.pure((self.l,) + (0,) * (self.n - 1))).reconstruct()

    def begin_cycle(self):
        pass

    def _coeff(self):
        terms = {}
        while not terms:
            for _ in range(self.rng.randint(1, 2)):
                key = (self.rng.randint(-1, 1), self.rng.randint(-1, 1))
                terms[key] = self.rng.choice((-3, -2, -1, 1, 2, 3))
        return terms

    def next_cycle(self):
        idxs = weight_basis(self.n, self.l)
        return [tuple((idx, tuple(sorted(self._coeff().items())))
                      for idx in self.rng.sample(idxs, self.support))
                for _ in range(self.cycle_size)]

    def vector(self, item):
        return TensorVec(self.n, {idx: LaurentPoly(dict(t)) for idx, t in item})

    def run(self, item):
        return decomp.decompose(self.vector(item)).reconstruct()

    def check(self, item, rebuilt):
        v = self.vector(item)
        if set(rebuilt.coeffs) != set(v.coeffs):
            return "reconstructed support differs from the input"
        for idx, c in v.coeffs.items():
            if rebuilt.coeffs[idx] != c:
                return "reconstructed coefficient at %s differs" % (idx,)
        return None


class Irreducible:
    """Commutant dimensions at seeded points, with unreduced-Burau controls."""

    name = "irreducible"
    classes = ((4, 3), (4, 4), (5, 3), (6, 2), (7, 2))
    controls = (3, 4, 5, 6)

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def warm_up(self):
        for n, l in self.classes:
            hwspace.hw_basis(n, l)

    def begin_cycle(self):
        pass

    def next_cycle(self):
        cycle = []
        for n, l in self.classes:
            point = decomp.random_specialization(n, l, seed=self.rng.randrange(1 << 30))
            cycle.append(("rep", n, l, point, self.rng.randrange(1 << 30)))
        for n in self.controls:
            point = decomp.random_specialization(n, 1, seed=self.rng.randrange(1 << 30))
            cycle.append(("burau", n, 1, point, self.rng.randrange(1 << 30)))
        self.rng.shuffle(cycle)
        return cycle

    def run(self, item):
        kind, n, l, (q0, s0), seed = item
        if kind == "rep":
            return decomp.commutant_dimension(n, l, q0, s0, seed=seed)
        mats = [[[specialize(x, q0, s0) for x in row] for row in mat]
                for mat in lkb.burau_matrices(n, reduced=False)]
        return decomp.matrix_commutant_dimension(mats, seed=seed)

    def check(self, item, dim):
        kind, n, l = item[:3]
        if kind == "rep" and dim != 1:
            return "W_{%d,%d} commutant dimension %r, expected 1" % (n, l, dim)
        if kind == "burau" and not (isinstance(dim, int) and dim >= 2):
            return "unreduced Burau n=%d commutant dimension %r, expected >= 2" % (n, dim)
        return None


class CheckSweep:
    """In-process ``braidrep check`` runs over a fixed grid; one pass per cycle.

    The grid runs in a fixed order, suite by suite as a ``run_checks.py``
    user would, because the order decides which item pays for each cache
    fill and so moves the per-item latencies by up to a third between
    orders.  The seed picks the negative-control cell, one ``--perturb`` run
    that must exit 1.  The library caches are cleared at the start of every
    pass, so each pass costs what one fresh process would; within a pass they
    stay warm from item to item.  braid and equivariance skip (6, 3): those
    two cells alone take 28 s, more than the rest of the grid.
    """

    name = "check_sweep"
    controls = (("braid", 3, 2), ("braid", 3, 3), ("braid", 4, 2),
                ("yangbaxter", 3, 2), ("yangbaxter", 3, 3))

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.caches = lru_caches()

    @staticmethod
    def grid():
        cells = []
        for suite in ("braid", "equivariance", "phi", "eigen", "twist"):
            for n in range(3, 7):
                for l in (2, 3):
                    if suite in ("braid", "equivariance") and (n, l) == (6, 3):
                        continue
                    cells.append((suite, n, l, False))
        for n, l in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
            cells.append(("splitting", n, l, False))
        for suite in ("lkb", "burau"):
            for n in range(4, 8):
                cells.append((suite, n, 2, False))
        return cells

    def warm_up(self):
        cli.build_parser()

    def begin_cycle(self):
        for cache in self.caches.values():
            cache.cache_clear()

    def next_cycle(self):
        return self.grid() + [self.rng.choice(self.controls) + (True,)]

    def run(self, item):
        suite, n, l, perturb = item
        path = os.path.join(self.workdir, "%s-%d-%d%s.json"
                            % (suite, n, l, "-perturb" if perturb else ""))
        argv = ["check", "--suite", suite, "--n", str(n), "--l", str(l),
                "--output", path] + (["--perturb"] if perturb else [])
        return cli.main(argv), path

    def check(self, item, output):
        code, path = output
        perturb = item[3]
        want = 1 if perturb else 0
        try:
            with open(path) as fh:
                reports = json.load(fh)
        except (OSError, ValueError) as exc:
            return "output file unreadable: %s" % exc
        if code != want:
            return "exit code %r, expected %d" % (code, want)
        if not reports or all(r["pass"] for r in reports) != (want == 0):
            return "report pass flags disagree with exit code %d" % want
        return None


WORKLOADS = {cls.name: cls for cls in (RhoWords, Decompose, Irreducible, CheckSweep)}


def make(name, seed, workdir):
    cls = WORKLOADS[name]
    return cls(seed, workdir) if cls is CheckSweep else cls(seed)
