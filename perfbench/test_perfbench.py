"""Tests of the benchmark itself: inputs, checkers, negative controls, tracing.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from braidrep import cli, decomp, hwspace, linalg, verma  # noqa: E402
from braidrep.hwspace import RepMatrix  # noqa: E402
from braidrep.ring import LaurentPoly  # noqa: E402
from braidrep.verma import TensorVec  # noqa: E402


def first(cycle, kind):
    return next(item for item in cycle if item[0] == kind)


# -- inputs ---------------------------------------------------------------------


@pytest.mark.parametrize("name", ["rho_words", "decompose", "irreducible", "check_sweep"])
def test_inputs_depend_only_on_seed(name, tmp_path):
    def cycles(seed):
        wl = workloads.make(name, seed, str(tmp_path))
        return [wl.next_cycle() for _ in range(3)]

    assert cycles(7) == cycles(7)
    assert cycles(7) != cycles(9)


def test_cycles_are_balanced(tmp_path):
    words = workloads.RhoWords(3).next_cycle()
    assert sorted(map(len, words)) == sorted(list(range(4, 15)) * 2)
    assert all(k != 0 and abs(k) <= 4 for w in words for k in w)

    points = workloads.Irreducible(3).next_cycle()
    assert sorted((kind, n, l) for kind, n, l, _, _ in points) == sorted(
        [("rep", n, l) for n, l in workloads.Irreducible.classes]
        + [("burau", n, 1) for n in workloads.Irreducible.controls])

    vectors = workloads.Decompose(3).next_cycle()
    assert len(vectors) == workloads.Decompose.cycle_size
    assert all(len(v) == 5 and all(sum(idx) == 3 for idx, _ in v) for v in vectors)

    grid = workloads.CheckSweep(3, str(tmp_path)).next_cycle()
    assert grid[:-1] == workloads.CheckSweep.grid()
    assert grid[-1][:3] in workloads.CheckSweep.controls and grid[-1][3]


def test_burau_proxy_matches_the_library_and_inverts():
    from braidrep.lkb import burau_matrices
    for k, mat in enumerate(burau_matrices(5, reduced=False), start=1):
        terms = sum(len(x.terms) for row in mat for x in row)
        assert workloads.burau_terms((k,), 5) == terms
        # sigma_k then its inverse is the identity again: 5 one-term entries
        assert workloads.burau_terms((k, -k), 5) == terms + 5


# -- checkers and their negative controls ---------------------------------------


def test_rho_check_rejects_one_changed_entry():
    wl = workloads.RhoWords(0)
    word = (1, -2, 3, 4, -1)
    rep = wl.run(word)
    assert wl.check(word, rep) is None
    rows = [list(row) for row in rep.entries]
    rows[3][5] = rows[3][5] + 1
    damaged = RepMatrix(rep.n, rep.l, rep.basis, tuple(map(tuple, rows)))
    assert "entry (3, 5)" in wl.check(word, damaged)


def test_decompose_check_rejects_one_changed_coefficient():
    wl = workloads.Decompose(0)
    item = wl.next_cycle()[0]
    rebuilt = wl.run(item)
    assert wl.check(item, rebuilt) is None
    coeffs = dict(rebuilt.coeffs)
    idx = sorted(coeffs)[0]
    coeffs[idx] = coeffs[idx] + LaurentPoly.monomial(1, 0)
    assert "coefficient" in wl.check(item, TensorVec(rebuilt.n, coeffs))


def test_irreducible_check_rejects_wrong_dimensions():
    wl = workloads.Irreducible(0)
    cycle = wl.next_cycle()
    control = first(cycle, "burau")
    assert wl.run(control) >= 2
    assert wl.check(control, wl.run(control)) is None
    assert "expected >= 2" in wl.check(control, 1)
    rep = next(item for item in cycle if item[:3] == ("rep", 4, 3))
    assert wl.check(rep, wl.run(rep)) is None
    assert "expected 1" in wl.check(rep, 2)


def test_check_sweep_rejects_wrong_exit_codes(tmp_path):
    wl = workloads.CheckSweep(0, str(tmp_path))
    for cell, good in ((("braid", 3, 2, False), 0), (("braid", 3, 2, True), 1)):
        code, path = wl.run(cell)
        assert code == good
        assert wl.check(cell, (code, path)) is None
        code, path = wl.run(cell)
        assert "exit code" in wl.check(cell, (1 - good, path))
    assert "unreadable" in wl.check(("phi", 3, 2, False), (0, str(tmp_path / "none")))


# -- the harness ------------------------------------------------------------------


class FakeWorkload:
    """Cycles of four items: 2 raises and 3 fails its check."""

    def __init__(self):
        self.cycles_begun = 0

    def next_cycle(self):
        return [0, 1, 2, 3]

    def begin_cycle(self):
        self.cycles_begun += 1

    def run(self, item):
        if item == 2:
            raise ArithmeticError("boom")
        return item

    def check(self, item, output):
        return "wrong" if item == 3 else None


def test_measure_runs_whole_cycles_and_counts_failures():
    wl = FakeWorkload()
    items = bench.measure(wl, seconds=0)
    cycles = wl.cycles_begun
    assert cycles * 4 >= bench.MIN_ITEMS > (cycles - 1) * 4
    assert items.attempts == len(items.times) == 4 * cycles
    assert len(items.errors) == 2 * cycles
    assert any("ArithmeticError: boom" in e for e in items.errors)
    assert [len(ts) for ts in items.times[:4]] == [1, 1, 0, 0]
    assert len(items.scales) == cycles


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rho_words", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


# -- tracing ----------------------------------------------------------------------


@pytest.fixture
def tracer():
    t = tracing.Tracer(workloads.lru_caches())
    t.install()
    yield t
    t.uninstall()


def test_tracer_patches_every_binding_and_restores_them():
    originals = {mod: mod.act_tensor for mod in (verma, hwspace, decomp)}
    mul = LaurentPoly.__dict__["__mul__"]
    t = tracing.Tracer(workloads.lru_caches())
    t.install()
    try:
        for mod in originals:
            assert mod.act_tensor is verma.act_tensor is not originals[mod]
        assert LaurentPoly.__dict__["__rmul__"] is LaurentPoly.__dict__["__mul__"] is not mul
    finally:
        t.uninstall()
    assert all(mod.act_tensor is fn for mod, fn in originals.items())
    assert LaurentPoly.__dict__["__mul__"] is LaurentPoly.__dict__["__rmul__"] is mul


def test_tracer_counts_only_inside_items(tracer):
    p = LaurentPoly({(1, 0): 1, (0, 1): 2})
    p * p                                   # outside an item: not recorded
    tracer.begin_item(0)
    p * p
    3 * p                                   # __rmul__
    p * TensorVec.pure((1, 0))              # NotImplemented, then TensorVec.__rmul__
    tracer.end_item()
    assert tracer.stats["ring.mul"][0] == 3
    assert tracer.counts["ring.mul.term_pairs"] == 4 + 2 + 2
    assert tracer.gauges["ring.terms_max"] == 3


def test_tracer_spans_nest_and_self_time_is_consistent(tracer, tmp_path):
    tracer.begin_item(5)
    assert cli.main(["check", "--suite", "braid", "--n", "3", "--l", "2",
                     "--output", str(tmp_path / "out.json")]) == 0
    tracer.end_item()
    spans = {sid: (parent, item, name) for sid, parent, item, name, _, _ in tracer.spans}
    top = [sid for sid, (parent, _, name) in spans.items() if name == "cli.main"]
    assert len(top) == 1 and spans[top[0]][0] is None
    muls = [v for v in spans.values() if v[2] == "linalg.mat_mul"]
    assert muls and all(parent == top[0] and item == 5 for parent, item, _ in muls)
    start, end = next((t0, t1) for sid, _, _, name, t0, t1 in tracer.spans
                      if name == "cli.main")
    self_total = sum(s for _, s in tracer.stats.values())
    assert all(s >= 0 for _, s in tracer.stats.values())
    assert 0 < tracer.overhead_s < end - start
    assert self_total + tracer.overhead_s == pytest.approx(end - start, rel=0.05)
    metrics = bench.named(tracer.metrics(1.0, 1.0, 1.0), "per_layer")
    assert len(metrics) == len(bench.SPEC["per_layer"])
    assert metrics["cli.output_bytes"]["value"] == (tmp_path / "out.json").stat().st_size
    assert metrics["linalg.mat_mul.entry_products"]["value"] > 0
