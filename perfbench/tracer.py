"""Per-layer tracing of braidrep from outside the library.

``Tracer.install`` replaces the public functions of each layer with timing
wrappers, in every module that binds them (``from .verma import act_tensor``
gives ``braid``, ``hwspace`` and ``decomp`` their own binding) and under every
alias (``__rmul__`` is ``__mul__``).  ``uninstall`` puts the originals back.

Cheap, frequent operations (ring arithmetic, ``TensorVec`` addition) are
aggregated into counters and self time only.  The coarse calls listed in
``SPANS`` also leave a span ``(id, parent, item, name, start, end)``, kept in
memory and written out with the run.  Self time is a call's duration minus
the time of the wrapped calls it made; time spent in unwrapped helpers
counts towards the nearest wrapped caller.

A wrapped call is charged to its caller from the wrapper's first clock
reading to its last, so the wrapper's own bookkeeping (counters, spans,
``on_exit`` callbacks) is nobody's self time.  Two fixed costs per call
that the readings cannot separate are measured once by ``wrapper_costs``:
the part of the wrapper outside its readings (the call into it, the
``active`` test), which is taken off the caller's self time, and the part
between the callee's two readings that is not the callee's (passing the
arguments on, reading the clock), which is taken off the callee's.  Self
times therefore estimate the untraced split of the work.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

from braidrep import braid, cli, decomp, hwspace, linalg, lkb, verma
from braidrep.ring import LaurentPoly, RatFunc
from braidrep.verma import TensorVec

import workloads

SPANS = ("hwspace.rho_matrix", "decomp.decompose", "decomp.reconstruct",
         "decomp.commutant_dimension", "linalg.modp_rank", "linalg.mat_mul",
         "cli.main")
SPAN_LIMIT = 200_000

# caches whose size is reported one by one; any others go into the total
CACHES = ("qint", "qfactorial", "qbinom", "weight_basis", "f_single_coeff",
          "_compositions", "rmatrix_pair", "_rblock", "_rblock_inverse",
          "hw_basis", "pair_basis", "lkb_sigma")


class Tracer:
    """Counters, self times, cache deltas and spans for the items it brackets.

    Wrappers record only between ``begin_item`` and ``end_item``, so checks
    that run off the clock (and call the same library functions) leave the
    figures alone.
    """

    def __init__(self, caches, costs=None):
        self.caches = caches
        # seconds per wrapped call outside its readings, and inside the
        # callee's readings but not the callee's
        self.outside, self.inside = wrapper_costs() if costs is None else costs
        self.overhead_s = 0.0     # all the time tracing added to the items
        self.active = False
        self.stats = defaultdict(lambda: [0, 0.0])     # name -> [calls, self_s]
        self.counts = defaultdict(int)
        self.gauges = {"ring.terms_max": 0, "ring.coeff_bits_max": 0,
                       "ring.den_terms_max": 0}
        self.cache_hits = defaultdict(int)
        self.cache_misses = defaultdict(int)
        self.cache_peak = defaultdict(int)
        self.frames = []          # [child_time] per open wrapped call
        self.open_spans = []
        self.spans = []
        self.item = None
        self.items = 0
        self.item_s = 0.0         # unscaled seconds inside begin_item/end_item
        self._item_start = 0.0
        self._cache_base = {}
        self._largest = None
        self._undo = []

    # -- installation ----------------------------------------------------------

    def _targets(self):
        return [
            (LaurentPoly, ("__mul__", "__rmul__"), "ring.mul", self._on_mul),
            (LaurentPoly, ("__add__", "__radd__"), "ring.add", None),
            (LaurentPoly, ("divexact",), "ring.divexact", self._on_divexact),
            (RatFunc, ("__init__",), "ring.ratfunc_new", self._on_ratfunc),
            (TensorVec, ("__add__",), "verma.tensorvec_add", self._on_tensorvec_add),
            (verma, ("act_tensor",), "verma.act_tensor", None),
            (braid, ("apply_letter",), "braid.apply_letter", None),
            (braid, ("sigma_matrix",), "braid.sigma_matrix", None),
            (hwspace, ("rho_matrix",), "hwspace.rho_matrix", None),
            (hwspace, ("expand_in_hw_basis",), "hwspace.expand_in_hw_basis", None),
            (hwspace, ("hw_basis",), "hwspace.hw_basis", None),
            (decomp, ("decompose",), "decomp.decompose", None),
            (decomp.HWDecomposition, ("reconstruct",), "decomp.reconstruct", None),
            (decomp, ("commutant_dimension",), "decomp.commutant_dimension", None),
            (decomp, ("_commutant_dim_modp",), "decomp.commutant_modp", self._on_modp_certificate),
            (linalg, ("modp_rank",), "linalg.modp_rank", self._on_modp_rank),
            (linalg, ("fraction_rank",), "linalg.fraction_rank", None),
            (linalg, ("mat_mul",), "linalg.mat_mul", self._on_mat_mul),
            (linalg, ("poly_matrix_inverse",), "linalg.poly_matrix_inverse", None),
            (lkb, ("fork_iso_check",), "lkb.fork_iso_check", None),
            (lkb, ("lkb_sigma",), "lkb.lkb_sigma", None),
            (cli, ("main",), "cli.main", None),
            (cli, ("_emit",), "cli.emit", self._on_emit),
        ]

    def install(self):
        modules = workloads.package_modules()
        for owner, attrs, name, on_exit in self._targets():
            original = getattr(owner, attrs[0])
            wrapper = self._wrap(name, original, on_exit)
            if isinstance(owner, type):
                bindings = [(owner, attr) for attr in attrs]
            else:
                bindings = [(mod, attrs[0]) for mod in modules
                            if vars(mod).get(attrs[0]) is original]
            for target, attr in bindings:
                self._undo.append((target, attr, getattr(target, attr)))
                setattr(target, attr, wrapper)

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def _wrap(self, name, fn, on_exit):
        stat = self.stats[name]
        frames = self.frames
        open_spans = self.open_spans
        spans = self.spans
        is_span = name in SPANS
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            enter = clock()
            if is_span:
                sid = tracer.counts["spans.opened"]
                tracer.counts["spans.opened"] += 1
                parent = open_spans[-1] if open_spans else None
                open_spans.append(sid)
            frame = [0.0]
            frames.append(frame)
            result = None
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dt = clock() - t0
                frames.pop()
                if is_span:
                    open_spans.pop()
                    if len(spans) < SPAN_LIMIT:
                        spans.append((sid, parent, tracer.item, name, t0, t0 + dt))
                if result is not NotImplemented:
                    stat[0] += 1
                    stat[1] += dt - frame[0] - tracer.inside
                    if on_exit is not None:
                        on_exit(args, result, ok)
                    charged = dt - tracer.inside
                else:                   # the caller's own attempt stays its own
                    charged = 0.0
                overhead = clock() - enter - charged + tracer.outside
                tracer.overhead_s += overhead
                if frames:
                    frames[-1][0] += charged + overhead

        return wrapper

    # -- per-call counters -------------------------------------------------------

    def _on_mul(self, args, result, ok):
        if not ok:
            return
        a, b = args[0], args[1]
        self.counts["ring.mul.term_pairs"] += len(a.terms) * (
            len(b.terms) if isinstance(b, LaurentPoly) else 1)
        if self._largest is None or len(result.terms) > len(self._largest.terms):
            self._largest = result

    def _on_divexact(self, args, result, ok):
        self.counts["ring.divexact.exact"] += ok

    def _on_ratfunc(self, args, result, ok):
        if ok:
            den_terms = len(args[0].den.terms)
            if den_terms > self.gauges["ring.den_terms_max"]:
                self.gauges["ring.den_terms_max"] = den_terms

    def _on_tensorvec_add(self, args, result, ok):
        self.counts["verma.tensorvec_add.copied_entries"] += len(args[0].coeffs)

    def _on_modp_certificate(self, args, result, ok):
        self.counts["decomp.modp_certified"] += ok and result == 1

    def _on_modp_rank(self, args, result, ok):
        self.counts["linalg.modp_rank.rows"] += len(args[0])

    def _on_mat_mul(self, args, result, ok):
        a, b = args[0], args[1]
        self.counts["linalg.mat_mul.entry_products"] += len(a) * len(b) * len(b[0])

    def _on_emit(self, args, result, ok):
        path = args[0].output
        if ok and path:
            self.counts["cli.output_bytes"] += os.path.getsize(path)

    # -- items ---------------------------------------------------------------------

    def begin_item(self, item_id):
        self.item = item_id
        self._largest = None
        self._cache_base = {name: cache.cache_info()
                            for name, cache in self.caches.items()}
        self.active = True
        self._item_start = time.perf_counter()

    def end_item(self):
        self.item_s += time.perf_counter() - self._item_start
        self.active = False
        self.items += 1
        for name, cache in self.caches.items():
            info, base = cache.cache_info(), self._cache_base[name]
            self.cache_hits[name] += info.hits - base.hits
            self.cache_misses[name] += info.misses - base.misses
            self.cache_peak[name] = max(self.cache_peak[name], info.currsize)
        if self._largest is not None:
            largest = self._largest
            self.gauges["ring.terms_max"] = max(self.gauges["ring.terms_max"],
                                                len(largest.terms))
            bits = max((abs(c).bit_length() for c in largest.terms.values()), default=0)
            self.gauges["ring.coeff_bits_max"] = max(self.gauges["ring.coeff_bits_max"], bits)

    # -- results -------------------------------------------------------------------

    def _hit_ratio(self, name):
        total = self.cache_hits[name] + self.cache_misses[name]
        return self.cache_hits[name] / total if total else 0.0

    def metrics(self, untraced_s, traced_s, scale):
        """Every per-layer value, by metric name.

        ``untraced_s`` and ``traced_s`` are the on-clock totals of the two
        plays, already in reference-host seconds; ``scale`` converts this
        host's self times the same way.
        """
        items = max(self.items, 1)
        values = {}
        for name, (calls, self_s) in self.stats.items():
            values[name + ".calls"] = calls / items
            values[name + ".self_s"] = self_s * scale / items
        for name in ("ring.mul.term_pairs", "verma.tensorvec_add.copied_entries",
                     "linalg.modp_rank.rows", "linalg.mat_mul.entry_products",
                     "cli.output_bytes"):
            values[name] = self.counts[name] / items
        values.update(self.gauges)
        divexact_calls = self.stats["ring.divexact"][0]
        values["ring.divexact.exact_ratio"] = (
            self.counts["ring.divexact.exact"] / divexact_calls if divexact_calls else 0.0)
        certificates = self.stats["decomp.commutant_modp"][0]
        values["decomp.modp_certified_ratio"] = (
            self.counts["decomp.modp_certified"] / certificates if certificates else 0.0)
        values["braid.rmatrix_pair.hit_ratio"] = self._hit_ratio("rmatrix_pair")
        values["hwspace.hw_basis.hit_ratio"] = self._hit_ratio("hw_basis")
        for name in CACHES:
            values["cache.%s.entries" % name.lstrip("_")] = self.cache_peak[name]
        values["cache.total_entries"] = sum(self.cache_peak.values())
        values["trace.untraced_items_per_s"] = self.items / untraced_s
        values["trace.traced_items_per_s"] = self.items / traced_s
        values["trace.overhead_ratio"] = traced_s / untraced_s
        return values

    def layer_shares(self):
        """Self time per layer as a share of the traced items' time net of
        the tracing overhead."""
        by_layer = defaultdict(float)
        for name, (_, self_s) in self.stats.items():
            by_layer[name.split(".")[0]] += self_s
        total = self.net_item_s() or 1.0
        shares = {layer: t / total for layer, t in sorted(by_layer.items())}
        shares["unattributed"] = 1.0 - sum(shares.values())
        return shares

    def net_item_s(self):
        """Time inside traced items less the tracing overhead: an estimate of
        the same items' untraced time, in this host's seconds."""
        return self.item_s - self.overhead_s

    def span_records(self, origin):
        return [[sid, parent, item, name, round(t0 - origin, 6), round(t1 - origin, 6)]
                for sid, parent, item, name, t0, t1 in sorted(self.spans)]


def _noop(a, b):
    pass


def wrapper_costs(calls=20_000, blocks=7):
    """(outside, inside): seconds per wrapped call spent outside the
    wrapper's clock readings, and between the callee's readings beyond what
    the bare call costs.

    Measured on a two-argument no-op, the shape of the ring operations
    that make most wrapped calls.  Each figure is the minimum over blocks,
    as the costs are fixed and load only adds to them.
    """
    probe = Tracer({}, costs=(0.0, 0.0))
    wrapped = probe._wrap("noop", _noop, None)
    stat = probe.stats["noop"]
    clock = time.perf_counter
    loop_s, bare_s, outside_s, dt_s = [], [], [], []
    for _ in range(blocks):
        t0 = clock()
        for _ in range(calls):
            pass
        loop_s.append(clock() - t0)
        t0 = clock()
        for _ in range(calls):
            _noop(1, 2)
        bare_s.append(clock() - t0)
        frame, stat[1] = [0.0], 0.0
        probe.frames.append(frame)
        probe.active = True
        t0 = clock()
        for _ in range(calls):
            wrapped(1, 2)
        outside_s.append(clock() - t0 - frame[0])
        probe.active = False
        probe.frames.pop()
        dt_s.append(stat[1])
    loop = min(loop_s)
    outside = (min(outside_s) - loop) / calls
    inside = (min(dt_s) - (min(bare_s) - loop)) / calls
    return max(0.0, outside), max(0.0, inside)
