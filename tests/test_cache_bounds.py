"""Every functools.lru_cache in braidrep is bounded, or listed here with a reason.

An unbounded cache keyed by (n, l) grows with every class a long sweep
visits.  A cache may stay unbounded only when its keys are few for any one
class; each such cache is listed in UNBOUNDED with the reason its size stays
small.  There l is the largest degree in use and n the largest strand count.
"""

import importlib
import pkgutil
from pathlib import Path

import braidrep

UNBOUNDED = {
    "braid.rmatrix_pair":
        "one two-slot vector per index pair (i, j) with i + j <= l",
    "braid.rmatrix_pair_inverse":
        "one two-slot vector per index pair (i, j) with i + j <= l",
    "hwspace.hw_basis":
        "one entry per (n, l); the CLI bounds each space at MAX_WEIGHT_SPACE_DIM",
    "lkb.pair_basis":
        "one tuple of n(n-1)/2 pairs per strand count n",
    "ring.qint":
        "one polynomial per argument, which is at most l + 1",
    "ring.qfactorial":
        "one polynomial per argument, which is at most l",
    "ring.qbinom":
        "one polynomial per argument pair (m, j) with 0 <= j <= m <= l",
    "verma.weight_basis":
        "one entry per (n, l); the CLI bounds each at MAX_WEIGHT_SPACE_DIM indices",
    "verma.f_single_coeff":
        "one polynomial per (m, j) with m + j <= l",
}


def lru_caches():
    """(module.name, function) for every lru_cache in the package's modules."""
    found = {}
    for info in pkgutil.iter_modules(braidrep.__path__):
        mod = importlib.import_module("braidrep." + info.name)
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == mod.__name__:
                found["%s.%s" % (info.name, name)] = obj
    return found


def test_walk_finds_every_lru_cache_in_the_source():
    # a cache the walk cannot see (a method, a nested function) would escape
    # the audit, so the count must match the decorators in the source
    src = Path(braidrep.__file__).parent
    decorators = sum(path.read_text().count("@lru_cache(")
                     for path in src.glob("*.py"))
    assert len(lru_caches()) == decorators


def test_unbounded_caches_are_listed():
    unbounded = {name for name, fn in lru_caches().items()
                 if fn.cache_parameters()["maxsize"] is None}
    assert unbounded <= set(UNBOUNDED), sorted(unbounded - set(UNBOUNDED))


def test_list_has_no_stale_entries():
    caches = lru_caches()
    for name in UNBOUNDED:
        assert name in caches, name
        assert caches[name].cache_parameters()["maxsize"] is None, name


def test_pure_decomposition_cache_is_bounded():
    assert "decomp._pure_decomposition" not in UNBOUNDED
    maxsize = lru_caches()["decomp._pure_decomposition"].cache_parameters()["maxsize"]
    assert maxsize is not None
