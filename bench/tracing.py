"""Spans and counters recorded around qp3's public functions, from outside.

`install` rebinds each traced function in every qp3 module that holds it
(for example `line_scheme` imports `minor` from `polylinalg`), so calls
made inside qp3 are traced too.  Spans stay in memory; the benchmark
writes them out when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List, NamedTuple

# (module, function) pairs timed with a span
SPANNED = (
    ("cli", "main"),
    ("fixtures", "load_fixtures"),
    ("groebner", "buchberger"),
    ("groebner", "normal_form"),
    ("groebner", "is_unit_mod"),
    ("groebner", "radical_member"),
    ("groebner", "intersect"),
    ("groebner", "hilbert_dimension_degree"),
    ("groebner", "invert_mod"),
    ("polylinalg", "minor"),
    ("line_scheme", "line_scheme_ideal"),
    ("line_scheme", "component_catalog"),
    ("line_scheme", "verify_decomposition"),
    ("plucker", "lines_through_point"),
    ("point_scheme", "count_points"),
    ("point_scheme", "verify_rho_derivation"),
    ("point_scheme", "sigma_orbit_certificates"),
    ("numeric", "enumerate_points"),
    ("numeric", "six_lines_numeric"),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int   # index of the enclosing span, -1 at the top of a job
    job: int


class Tracer:
    """Collects spans and counts for the jobs run in this process."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.job = 0              # id stamped on new spans
        self._stack: List[int] = []
        self._returned: Dict[int, object] = {}   # keeps returns alive

    def timed(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1,
                          self.job])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def basis_stats(self, fn):
        """buchberger: returned basis sizes, and returns of an earlier object."""
        counts, returned = self.counts, self._returned

        def wrapper(*args, **kwargs):
            gb = fn(*args, **kwargs)
            counts["groebner.buchberger.basis_len"] += len(gb.basis)
            if id(gb) in returned:
                counts["groebner.buchberger.cache_hits"] += 1
            else:
                returned[id(gb)] = gb
            return gb
        return wrapper


def qp3_modules() -> Dict[str, object]:
    return {name: mod for name, mod in sys.modules.items()
            if (name == "qp3" or name.startswith("qp3.")) and mod is not None}


def _rebind(original, replacement) -> None:
    for mod in qp3_modules().values():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def lru_caches() -> List[object]:
    """Every functools.lru_cache wrapper defined in a qp3 module."""
    seen = {}
    for mod in qp3_modules().values():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_info", None)):
                seen[id(value)] = value
    return list(seen.values())


def lru_counts(caches) -> Dict[str, int]:
    infos = [c.cache_info() for c in caches]
    return {"cache.lru.hits": sum(i.hits for i in infos),
            "cache.lru.misses": sum(i.misses for i in infos)}


def install(tracer: Tracer) -> None:
    """Wrap the traced functions and constructors in this process."""
    mods = qp3_modules()
    for mod_name, fn_name in SPANNED:
        original = getattr(mods[f"qp3.{mod_name}"], fn_name)
        wrapped = tracer.timed(f"{mod_name}.{fn_name}", original)
        if fn_name == "buchberger":
            wrapped = tracer.basis_stats(wrapped)
        _rebind(original, wrapped)
    parse = mods["qp3.multipoly"].parse_poly
    _rebind(parse, tracer.counted("multipoly.parse_poly.calls", parse))
    poly = mods["qp3.multipoly"].Polynomial
    poly.__init__ = tracer.counted("multipoly.Polynomial.made", poly.__init__)
    gauss = mods["qp3.gaussian"].GaussianRational
    gauss.__init__ = tracer.counted("gaussian.GaussianRational.made",
                                    gauss.__init__)
    gauss._make = staticmethod(tracer.counted("gaussian.GaussianRational.made",
                                              gauss._make))


class LayerTime(NamedTuple):
    calls: int
    self_s: float
    total_s: float


def layer_times(spans: List[Span]) -> Dict[str, LayerTime]:
    """Per span name: calls, self time and total time.

    A span's self time is its duration minus the part of it that its
    child spans cover.  Total time adds the durations of the spans that
    have no ancestor of the same name, so recursion is not counted twice.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(s)
    calls: Counter = Counter()
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        calls[s.name] += 1
        self_s[s.name] += (s.end - s.start) - covered
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            total_s[s.name] += s.end - s.start
    return {n: LayerTime(calls[n], self_s[n], total_s[n]) for n in calls}
