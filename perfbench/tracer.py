"""Per-layer tracing of foliage from outside the program.

``Tracer.install`` replaces public functions of the foliage modules with
wrappers, in every foliage module namespace that holds them, so that calls
made through ``from .x import f`` names are caught too.  A timed wrapper
is a span: it counts the call and adds its self time, its duration minus
the time covered by the wrapped calls inside it.  A counted wrapper only
counts; its time stays in the enclosing span.  The spans all nest inside
``cli.main``, so the self times add up to the traced op time.

Only the traced worker installs a tracer; the untraced run is another
process.  A function the program no longer has is skipped and reads 0.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, function) pairs traced as spans.
TIMED = (
    ("model", ("parse_scenario", "validate", "emit_scenario")),
    ("decompose", ("reduce_scenario", "common_subpath", "crossed_set")),
    (
        "relations",
        (
            "compare_left",
            "compare_right",
            "weak_transverse",
            "classic_transverse",
            "plus_asymptotic",
            "minus_asymptotic",
            "standard_order",
            "adaptive_order",
        ),
    ),
    (
        "realize",
        ("all_port_plans", "crossing_matrix", "weak_matrix", "boundary_order", "interleaving_matrix", "one_sided_order"),
    ),
    (
        "geometry",
        ("layout", "route", "exact_crossings", "emit_svg", "chord_diagram", "emit_chord_svg", "crossing_points"),
    ),
    ("generator", ("generate_scenario",)),
    ("cli", ("main",)),
)
# Called too often, or too cheap, to time: counted only.
COUNTED = (
    ("model", ("index",)),
    ("relations", ("standard_cmp", "adaptive_cmp")),
    ("geometry", ("segment_relation",)),
    ("checks", ("shrink",)),
)
# The property suite, timed one property at a time through checks.PROPERTIES.
PROPERTIES = (
    "preorder-totality",
    "preorder-transitivity",
    "mutual-iff-asymptotic",
    "classic-implies-weak",
    "order-totality",
    "restriction-consistency",
    "hand-off",
    "one-sided-extension",
    "crossing-minimality",
    "oracle-agreement",
    "chord-law",
    "boundary-ends",
    "embedding",
    "forward-disjointness",
    "decompose-invariants",
    "emission-roundtrip",
)
CALLS_REPORTED = (
    "model.index",
    "decompose.reduce_scenario",
    "decompose.common_subpath",
    "relations.compare_left",
    "relations.compare_right",
    "relations.weak_transverse",
    "relations.standard_cmp",
    "relations.adaptive_cmp",
    "realize.all_port_plans",
    "geometry.crossing_points",
    "geometry.segment_relation",
    "generator.generate_scenario",
    "checks.shrink",
)
SIZES = ("domains", "orbits", "maxdomains", "critical_leaves", "orbit_pairs", "segment_pairs")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for mod, names in TIMED:
        for name in names:
            units[f"{mod}.{name}.ms"] = "ms"
    for prop in PROPERTIES:
        units[f"checks.{prop}.ms"] = "ms"
    for name in CALLS_REPORTED:
        units[f"{name}.calls"] = "count"
    units["model.index.hit_ratio"] = "ratio"
    units["geometry.crossing_yield"] = "ratio"
    units["geometry.max_den_bits"] = "bits"
    units["trace_overhead"] = "ratio"
    for size in SIZES:
        units[f"size.{size}"] = "count"
    return units


def _den_bits(points) -> int:
    return max((c.denominator.bit_length() for pt in points for c in pt), default=0)


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = Counter()
        self.calls: Counter = Counter()
        self.sizes: Counter = Counter()
        self.crossings = 0
        self.max_den_bits = 0
        self._open = [0.0]  # per open span: time covered by its finished child spans
        self._op_sizes: dict[str, int] = {}
        self._undo: list = []
        self._index_cache = None
        self._index_base = (0, 0)

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name: str, fn, after=None):
        calls, self_s, open_ = self.calls, self.self_s, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            calls[name] += 1
            open_.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - open_.pop()
                open_[-1] += dt
            if after is not None:
                after(result, *args)
            return result

        return span

    def _counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def count(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return count

    # -- size hooks ----------------------------------------------------------

    def _main(self, fn):
        span = self._timed("cli.main", fn)

        @functools.wraps(fn)
        def main(*args, **kwargs):
            self._op_sizes = {}
            try:
                return span(*args, **kwargs)
            finally:
                self.sizes.update(self._op_sizes)

        return main

    def _after_reduce(self, r, s, *_rest):
        n = len(s.orbits)
        for key, value in (
            ("domains", len(s.domains)),
            ("orbits", n),
            ("orbit_pairs", n * (n - 1) // 2),
            ("maxdomains", len(r.maxdomains)),
            ("critical_leaves", len(r.critical)),
        ):
            self._op_sizes.setdefault(key, value)

    def _after_route(self, routed, *_args):
        segs = [len(p.points) - 1 for p in routed.polylines]
        self._op_sizes.setdefault("segment_pairs", (sum(segs) ** 2 - sum(x * x for x in segs)) // 2)
        self.max_den_bits = max(self.max_den_bits, max((_den_bits(p.points) for p in routed.polylines), default=0))

    def _after_crossings(self, found, *_args):
        self.crossings += len(found)
        self.max_den_bits = max(self.max_den_bits, _den_bits(point for _a, _b, point in found))

    # -- install -------------------------------------------------------------

    def _patch(self, mod, name: str, make) -> None:
        orig = getattr(mod, name, None)
        if orig is None:
            return
        wrapped = make(orig)
        for m in [m for key, m in sys.modules.items() if key == "foliage" or key.startswith("foliage.")]:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, wrapped)
                    self._undo.append((m, attr, orig))

    def install(self) -> "Tracer":
        import foliage.checks  # noqa: F401  (loads every traced module)

        # model.index is an lru_cache today; its hit ratio is read while it is.
        self._index_cache = getattr(getattr(sys.modules["foliage.model"], "index", None), "cache_info", None)
        if self._index_cache is not None:
            info = self._index_cache()
            self._index_base = (info.hits, info.misses)
        after = {
            "decompose.reduce_scenario": self._after_reduce,
            "geometry.route": self._after_route,
            "geometry.crossing_points": self._after_crossings,
        }
        for mod_name, names in TIMED:
            mod = sys.modules[f"foliage.{mod_name}"]
            for name in names:
                key = f"{mod_name}.{name}"
                if key == "cli.main":
                    self._patch(mod, name, self._main)
                else:
                    self._patch(mod, name, lambda fn, key=key: self._timed(key, fn, after.get(key)))
        for mod_name, names in COUNTED:
            mod = sys.modules[f"foliage.{mod_name}"]
            for name in names:
                self._patch(mod, name, lambda fn, key=f"{mod_name}.{name}": self._counted(key, fn))
        checks = sys.modules["foliage.checks"]
        props = getattr(checks, "PROPERTIES", None)
        if props is not None:
            checks.PROPERTIES = tuple((name, self._timed(f"checks.{name}", fn)) for name, fn in props)
            self._undo.append((checks, "PROPERTIES", props))
        return self

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._undo):
            setattr(m, attr, orig)
        self._undo.clear()

    # -- report --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values; ``trace_overhead`` is filled in by the caller."""
        out: dict[str, float] = {}
        for name, unit in metric_units().items():
            if unit == "ms":
                out[name] = self.self_s[name[: -len(".ms")]] * 1000.0
            elif name.endswith(".calls"):
                out[name] = self.calls[name[: -len(".calls")]]
        hit_ratio = 0.0
        if self._index_cache is not None:
            info = self._index_cache()
            hits, misses = info.hits - self._index_base[0], info.misses - self._index_base[1]
            hit_ratio = hits / (hits + misses) if hits + misses else 0.0
        out["model.index.hit_ratio"] = hit_ratio
        tests = self.calls["geometry.segment_relation"]
        out["geometry.crossing_yield"] = self.crossings / tests if tests else 0.0
        out["geometry.max_den_bits"] = self.max_den_bits
        for size in SIZES:
            out[f"size.{size}"] = self.sizes[size]
        return out
