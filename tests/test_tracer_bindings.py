"""The benchmark tracer wraps library names; renaming one must fail here.

``perfbench/tracer.py`` looks its targets up by name, so a renamed function
makes ``install`` raise.  The Tier-1 suite collects only ``tests/``, so
this repeats the install check of ``perfbench/test_perfbench.py`` there.
"""

import importlib
from pathlib import Path

import pytest

from braidrep import decomp, hwspace, verma
from braidrep.ring import LaurentPoly

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


def test_every_traced_name_resolves_and_is_restored(tracing):
    tracer, workloads = tracing
    originals = {mod: mod.act_tensor for mod in (verma, hwspace, decomp)}
    mul = LaurentPoly.__dict__["__mul__"]
    t = tracer.Tracer(workloads.lru_caches(), costs=(0.0, 0.0))
    targets = {(owner, attr): getattr(owner, attr)
               for owner, attrs, _, _ in t._targets() for attr in attrs}
    t.install()
    try:
        for (owner, attr), fn in targets.items():
            assert getattr(owner, attr) is not fn, (owner, attr)
        for mod in originals:
            assert mod.act_tensor is verma.act_tensor is not originals[mod]
        t.begin_item(0)
        hwspace.rho_matrix(3, 1, [1])
        t.end_item()
        assert t.stats["hwspace.rho_matrix"][0] == 1
        assert t.stats["linalg.mat_mul"][0] == 0
        t.begin_item(1)
        hwspace.rho_matrix(3, 1, [1, 2])
        t.end_item()
        # the second letter costs one one-row product per column
        assert t.stats["linalg.mat_mul"][0] == len(hwspace.hw_basis(3, 1))
    finally:
        t.uninstall()
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in targets.items())
    assert all(mod.act_tensor is fn for mod, fn in originals.items())
    assert LaurentPoly.__dict__["__mul__"] is LaurentPoly.__dict__["__rmul__"] is mul

