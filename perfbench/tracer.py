"""Per-layer spans for the traced run, installed from outside the library.

`Tracer.install()` replaces the public functions of each supersym module (its
`__all__`) and the public methods of `SuperPolynomial` with wrappers that
time every call.  A span's self time is its duration minus the durations of
the spans it encloses; a layer's self time is the sum over its spans.

Where a wrapper must sit, because names are bound before any call:
  * `inner` imports `change_basis` and `expand_in_monomials` by name, and
    every module imports `enumerate_superpartitions` by name, so each
    wrapped function is rebound wherever any supersym module (or the
    package namespace) holds the original object.
  * `bases._GENERATORS` holds the generator functions in tuples, which
    `multiplicative`, `generator_functions` (and so `_basis_in_monomials`)
    and `generating_check` read; those tuples are rebuilt with the wrappers.
  * The generators and `multiplicative` sit behind `functools.cache`.  The
    wrapper goes outside the cache, so a span counts hits and misses alike;
    the hit ratio comes from the original function's `cache_info()`.
What the spans cannot see is listed in perfbench/design.json.

Timed runs never import this module.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Spans that several functions share, so the metrics name one kind of work.
_GROUP = {
    "superpartition.enumerate_superpartitions": "superpartition.enumerate",
    "superpartition.bruhat_leq": "superpartition.order",
    "superpartition.dominance_leq": "superpartition.order",
    "bases.elementary": "bases.generator",
    "bases.elementary_tilde": "bases.generator",
    "bases.complete": "bases.generator",
    "bases.complete_tilde": "bases.generator",
    "bases.powersum": "bases.generator",
    "bases.powersum_tilde": "bases.generator",
    "transform.determinant_formulas": "transform.determinant",
    "transform.verify_recursions": "transform.recursions",
    "superpoly.__add__": "superpoly.add",
    "superpoly.__eq__": "superpoly.eq",
    "superpoly.mul_restricted": "superpoly.mul",
    "superpoly.mul_truncated": "superpoly.mul",
}
_POLY_DUNDERS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__eq__")


def _terms(poly) -> int:
    # not poly.num_terms(): that method is wrapped too
    return sum(len(t) for t in poly.blocks.values())


class Tracer:
    """Span aggregates of one process: per span name, calls, inclusive and
    self seconds; plus work counters recorded at the same boundaries."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []
        self._cold: set = set()
        self._caches: dict[str, list] = {"bases.generator": [], "bases.multiplicative": []}
        self._cache_start: dict[str, tuple[int, int]] = {}

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        """`name` is a span name, or a function of the call's arguments
        that returns one."""
        stack = self._stack
        calls, total, self_s = self.calls, self.total, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[span] += 1
                total[span] += dt
                self_s[span] += dt - frame[0]
            if after is not None:
                after(args, out)
            return out

        return traced

    def _count_mul(self, args, out):
        a, b = args[0], args[1]
        if hasattr(b, "blocks"):
            self.counts["mul_pairs"] += _terms(a) * _terms(b)
            self.counts["mul_out_terms"] += _terms(out)

    def _count_add(self, args, out):
        self.counts["add_terms"] += _terms(args[0]) + _terms(args[1])

    def _count_monomial(self, args, out):
        self.counts["monomial_terms"] += _terms(out)

    def _change_basis_span(self, args):
        x, to = args[0], args[1]
        key = (x.basis, to, x.n, x.m)
        if key in self._cold:
            return "transform.change_basis"
        self._cold.add(key)
        return "transform.cold_change_basis"

    @staticmethod
    def _mul_span(args):
        return "superpoly.mul" if hasattr(args[1], "blocks") else "superpoly.scale_mul"

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        from supersym import bases, inner, superpartition, superpoly, transform

        replaced = {}
        for layer, module in (
            ("superpartition", superpartition), ("bases", bases),
            ("transform", transform), ("inner", inner),
        ):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) and not hasattr(fn, "cache_info"):
                    continue  # classes and constants
                span = _GROUP.get(f"{layer}.{attr}", f"{layer}.{attr}")
                after = None
                if span == "transform.change_basis":
                    span = self._change_basis_span
                elif span == "bases.monomial":
                    after = self._count_monomial
                if span in self._caches:
                    self._caches[span].append(fn)
                replaced[id(fn)] = self._wrap(fn, span, after)
        self._rebind(replaced)
        self._wrap_poly_methods(superpoly.SuperPolynomial)
        for span, fns in self._caches.items():
            self._cache_start[span] = self._cache_totals(fns)

    @staticmethod
    def _rebind(replaced: dict) -> None:
        """Point every supersym module global, and every function tuple in a
        module-level dict, at the wrapper of the object it held."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "supersym" and not mod_name.startswith("supersym."):
                continue
            for key, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, key, replaced[id(value)])
                elif isinstance(value, dict):
                    for dk, dv in list(value.items()):
                        if isinstance(dv, tuple) and any(id(e) in replaced for e in dv):
                            value[dk] = tuple(replaced.get(id(e), e) for e in dv)

    def _wrap_poly_methods(self, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _POLY_DUNDERS:
                continue
            span = _GROUP.get(f"superpoly.{attr}", f"superpoly.{attr}")
            after = self._count_add if attr == "__add__" else None
            if attr in ("__mul__", "__rmul__", "mul_restricted", "mul_truncated"):
                after = self._count_mul
                if attr in ("__mul__", "__rmul__"):
                    span = self._mul_span
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(raw.__func__, span)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                setattr(cls, attr, self._wrap(raw, span, after))

    @staticmethod
    def _cache_totals(fns) -> tuple[int, int]:
        hits = misses = 0
        for fn in fns:
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
        return hits, misses

    # -- results ------------------------------------------------------------------

    def raw(self) -> dict:
        """JSON-able aggregates; `merge_raw` adds up those of many processes."""
        counts = dict(self.counts)
        for span, (h0, m0) in self._cache_start.items():
            hits, misses = self._cache_totals(self._caches[span])
            counts[f"{span}.hits"] = hits - h0
            counts[f"{span}.misses"] = misses - m0
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_s),
            "counts": counts,
        }


def merge_raw(items) -> dict:
    out = {"calls": Counter(), "total": Counter(), "self": Counter(), "counts": Counter()}
    for raw in items:
        for part in out:
            out[part].update(raw.get(part, {}))
    return {k: dict(v) for k, v in out.items()}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# (metric, unit, better): the per-layer metrics of BENCHMARK.json, in order.
PER_LAYER = (
    ("transform.cold_change_basis_calls", "count", "lower"),
    ("transform.cold_change_basis_s", "s", "lower"),
    ("transform.change_basis_calls", "count", "lower"),
    ("transform.change_basis_s", "s", "lower"),
    ("transform.expand_in_monomials_s", "s", "lower"),
    ("transform.mono_product_s", "s", "lower"),
    ("transform.determinant_s", "s", "lower"),
    ("transform.recursions_s", "s", "lower"),
    ("transform.self_s", "s", "lower"),
    ("superpoly.mul_calls", "count", "lower"),
    ("superpoly.mul_s", "s", "lower"),
    ("superpoly.mul_pairs", "count", "lower"),
    ("superpoly.mul_out_terms", "count", "lower"),
    ("superpoly.mul_yield", "ratio", "higher"),
    ("superpoly.mul_pairs_per_s", "1/s", "higher"),
    ("superpoly.add_calls", "count", "lower"),
    ("superpoly.add_s", "s", "lower"),
    ("superpoly.add_terms", "count", "lower"),
    ("superpoly.eq_s", "s", "lower"),
    ("superpoly.coefficient_calls", "count", "lower"),
    ("superpoly.coefficient_s", "s", "lower"),
    ("superpoly.term_calls", "count", "lower"),
    ("superpoly.term_s", "s", "lower"),
    ("superpoly.self_s", "s", "lower"),
    ("bases.generator_calls", "count", "lower"),
    ("bases.generator_s", "s", "lower"),
    ("bases.generator_hit_ratio", "ratio", "higher"),
    ("bases.multiplicative_calls", "count", "lower"),
    ("bases.multiplicative_s", "s", "lower"),
    ("bases.multiplicative_hit_ratio", "ratio", "higher"),
    ("bases.monomial_calls", "count", "lower"),
    ("bases.monomial_s", "s", "lower"),
    ("bases.monomial_terms", "count", "lower"),
    ("bases.self_s", "s", "lower"),
    ("inner.scalar_product_calls", "count", "lower"),
    ("inner.scalar_product_s", "s", "lower"),
    ("inner.omega_calls", "count", "lower"),
    ("inner.omega_s", "s", "lower"),
    ("inner.kernel_check_s", "s", "lower"),
    ("inner.self_s", "s", "lower"),
    ("superpartition.enumerate_calls", "count", "lower"),
    ("superpartition.enumerate_s", "s", "lower"),
    ("superpartition.order_s", "s", "lower"),
    ("superpartition.self_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.main_calls", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_metrics(raw: dict, overhead_s: float) -> dict[str, float]:
    """Per-layer metric values from merged span aggregates.  `<span>_calls`
    counts calls and `<span>_s` sums their inclusive time; `<layer>.self_s`
    sums the self time of every span of the layer."""
    calls, total, counts = raw["calls"], raw["total"], raw["counts"]
    values = {}
    for name, _, _ in PER_LAYER:
        span, _, field = name.rpartition("_")
        if name.endswith(".self_s"):
            layer = name.split(".", 1)[0]
            values[name] = sum(v for k, v in raw["self"].items() if k.split(".", 1)[0] == layer)
        elif field == "calls":
            values[name] = calls.get(span, 0)
        elif field == "s":
            values[name] = total.get(span, 0.0)
    for span in ("bases.generator", "bases.multiplicative"):
        hits, misses = counts.get(f"{span}.hits", 0), counts.get(f"{span}.misses", 0)
        values[f"{span}_hit_ratio"] = _ratio(hits, hits + misses)
    pairs = counts.get("mul_pairs", 0)
    values["superpoly.mul_pairs"] = pairs
    values["superpoly.mul_out_terms"] = counts.get("mul_out_terms", 0)
    values["superpoly.mul_yield"] = _ratio(counts.get("mul_out_terms", 0), pairs)
    values["superpoly.mul_pairs_per_s"] = _ratio(pairs, total.get("superpoly.mul", 0.0))
    values["superpoly.add_terms"] = counts.get("add_terms", 0)
    values["bases.monomial_terms"] = counts.get("monomial_terms", 0)
    values["trace.overhead_s"] = overhead_s
    return {name: values[name] for name, _, _ in PER_LAYER}
