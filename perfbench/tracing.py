"""Spans and counters for the traced run, taken from outside interarr.

`Tracer.install()` replaces each wrap point (a name on the module whose
code looks it up) with a wrapper that records a span: name, start, end,
parent span and item id.  Spans stay in memory and are written when the
pass ends.  Counts come from the values the wrapped calls return: lattice
sizes, labeler calls, chambers and walls of fresh walks, oracle calls and
witnesses, and the walk cache's own statistics.

A wrap point that a later version of interarr no longer has is recorded as
missing, and a count that cannot be read from a changed return value as
broken; every metric that depends on either is then reported as absent.
"""

from __future__ import annotations

import importlib
import json
import time

# (module, attribute, span name).  A name is wrapped in every namespace a
# caller looks it up from, so a split stays valid if work moves between them.
SPANS = (
    ("interarr.chow", "enumerate_lattice", "signed_partitions.enumerate_lattice"),
    ("interarr.cli", "enumerate_lattice", "signed_partitions.enumerate_lattice"),
    ("interarr.chow", "chow_via_chains", "labeling.chow_via_chains"),
    ("interarr.cli", "chow_via_chains", "labeling.chow_via_chains"),
    ("interarr.cli", "verify_el", "labeling.verify_el"),
    ("interarr.cli", "count_chains_with_word", "labeling.count_chains_with_word"),
    ("interarr.chow", "chow_recursive", "chow.chow_recursive"),
    ("interarr.cli", "chow_recursive", "chow.chow_recursive"),
    ("interarr.chow", "characteristic_poly", "chow.characteristic_poly"),
    ("interarr.cli", "characteristic_poly", "chow.characteristic_poly"),
    ("interarr.chow", "char_poly_bruteforce", "chow.char_poly_bruteforce"),
    ("interarr.cli", "char_poly_bruteforce", "chow.char_poly_bruteforce"),
    ("interarr.cli", "chow_type_a", "chow.closed"),
    ("interarr.cli", "chow_type_b", "chow.closed"),
    ("interarr.arrangement", "chamber_complex", "arrangement.chamber_complex"),
    ("interarr.topegraph", "chamber_complex", "arrangement.chamber_complex"),
    ("interarr.arrangement", "intersection_lattice", "arrangement.intersection_lattice"),
    ("interarr.cli", "intersection_lattice", "arrangement.intersection_lattice"),
    ("interarr.arrangement", "f_vector", "arrangement.f_vector"),
    ("interarr.arrangement", "parse_arrangement_text", "arrangement.parse_arrangement_text"),
    ("interarr.arrangement", "feasible_strict", "feasibility.feasible_strict"),
    ("interarr.topegraph", "build_tope_graph", "topegraph.build_tope_graph"),
    ("interarr.topegraph", "h_via_indegree", "topegraph.h_via_indegree"),
    ("interarr.chow", "h_via_indegree", "topegraph.h_via_indegree"),
    ("interarr.topegraph", "h_via_separation", "topegraph.h_via_separation"),
    ("interarr.permstats", "h_d_closed", "permstats.closed"),
    ("interarr.permstats", "h_b_closed", "permstats.closed"),
    ("interarr.permstats", "increment_closed", "permstats.closed"),
    ("interarr.chow", "maxima_census", "permstats.closed"),
    ("interarr.cli", "lattice_isomorphic", "lattice.lattice_isomorphic"),
    ("interarr.cli", "main", "cli.main"),
)

# Edge labelers, counted and timed per call but not recorded as spans: one
# Chow row of n = 7 makes 150 000 to 250 000 calls.
LABELERS = (
    ("interarr.labeling", "el_label"),
    ("interarr.chow", "el_label"),
    ("interarr.cli", "el_label"),
)
# Functions that return a labeler; the returned labeler is counted.
LABELER_FACTORIES = (
    ("interarr.labeling", "min_atom_label"),
    ("interarr.cli", "min_atom_label"),
)

WALK = "arrangement.chamber_complex"

# per-layer metric -> (unit, better, span names and counters it needs)
METRICS = {
    "signed_partitions.enumerate_s": ("s", "lower", ("signed_partitions.enumerate_lattice",)),
    "signed_partitions.elements": ("count", "lower", ("signed_partitions.enumerate_lattice",)),
    "signed_partitions.covers": ("count", "lower", ("signed_partitions.enumerate_lattice",)),
    "labeling.label_s": ("s", "lower", ("labeler",)),
    "labeling.label_calls": ("count", "lower", ("labeler",)),
    "labeling.labels_per_cover": ("ratio", "lower", ("labeler", "signed_partitions.enumerate_lattice",
                                                     "arrangement.intersection_lattice")),
    "labeling.sweep_s": ("s", "lower", ("labeler", "labeling.chow_via_chains")),
    "labeling.verify_el_s": ("s", "lower", ("labeling.verify_el",)),
    "labeling.chain_count_s": ("s", "lower", ("labeling.count_chains_with_word",)),
    "chow.recursive_s": ("s", "lower", ("chow.chow_recursive",)),
    "chow.charpoly_s": ("s", "lower", ("chow.characteristic_poly",)),
    "chow.charpoly_oracle_s": ("s", "lower", ("chow.char_poly_bruteforce",)),
    "chow.closed_s": ("s", "lower", ("chow.closed",)),
    "arrangement.walk_s": ("s", "lower", (WALK,)),
    "arrangement.chambers": ("count", "lower", (WALK,)),
    "arrangement.walls": ("count", "lower", (WALK,)),
    "arrangement.walk_cache_hits": ("count", "higher", ("walk_cache",)),
    "arrangement.walk_cache_misses": ("count", "lower", ("walk_cache",)),
    "arrangement.flats_s": ("s", "lower", ("arrangement.intersection_lattice",)),
    "arrangement.flats": ("count", "lower", ("arrangement.intersection_lattice",)),
    "arrangement.fvector_s": ("s", "lower", ("arrangement.f_vector",)),
    "arrangement.parse_s": ("s", "lower", ("arrangement.parse_arrangement_text",)),
    "feasibility.strict_calls": ("count", "lower", ("feasibility.feasible_strict",)),
    "feasibility.strict_s": ("s", "lower", ("feasibility.feasible_strict",)),
    "feasibility.witness_ratio": ("ratio", "higher", ("feasibility.feasible_strict",)),
    "topegraph.certify_s": ("s", "lower", ("topegraph.build_tope_graph",)),
    "topegraph.h_indegree_s": ("s", "lower", ("topegraph.h_via_indegree",)),
    "topegraph.h_separation_s": ("s", "lower", ("topegraph.h_via_separation",)),
    "permstats.closed_s": ("s", "lower", ("permstats.closed",)),
    "lattice.iso_s": ("s", "lower", ("lattice.lattice_isomorphic",)),
    "cli.self_s": ("s", "lower", ("cli.main",)),
}
# Computed by run.py from a traced and an untraced pass.
OVERHEAD = "trace.overhead_s"

# Counts that must repeat exactly between passes with the same inputs.
COUNTS = tuple(m for m, (unit, _, _) in METRICS.items() if unit == "count")


class Tracer:
    """Spans as lists [name, start, end, parent, item, excluded]; `excluded`
    is time spent in counted labeler calls inside the span."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item: str | None = None
        self.counts = {"elements": 0, "covers": 0, "flats": 0, "flat_covers": 0,
                       "chambers": 0, "walls": 0, "label_calls": 0,
                       "strict_calls": 0, "witnesses": 0}
        self.label_s = 0.0
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self.broken: set[str] = set()
        self._restore: list[tuple] = []
        self._walk_cache = None
        self._cache_start = None

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for modname, attr, name in SPANS:
            fn = self._lookup(modname, attr)
            if fn is not None:
                if name == WALK and self._walk_cache is None:
                    self._walk_cache = getattr(fn, "cache_info", None)
                self._replace(modname, attr, self._span_wrapper(fn, name, _POST.get(name)))
                self.installed.add(name)
        for modname, attr in LABELERS:
            fn = self._lookup(modname, attr)
            if fn is not None:
                self._replace(modname, attr, self._counting_labeler(fn))
                self.installed.add("labeler")
        for modname, attr in LABELER_FACTORIES:
            fn = self._lookup(modname, attr)
            if fn is not None:
                def factory(*args, _fn=fn, **kwargs):
                    return self._counting_labeler(_fn(*args, **kwargs))
                self._replace(modname, attr, factory)
        if self._walk_cache is not None:
            self.installed.add("walk_cache")
            self._cache_start = self._walk_cache()

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def _lookup(self, modname: str, attr: str):
        try:
            mod = importlib.import_module(modname)
        except ImportError:
            mod = None
        fn = getattr(mod, attr, None)
        if not callable(fn):
            self.missing.append(f"{modname}.{attr}")
            return None
        return fn

    def _replace(self, modname: str, attr: str, wrapper) -> None:
        mod = importlib.import_module(modname)
        self._restore.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def _span_wrapper(self, fn, name: str, post):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            state = post[0](fn) if post and post[0] else None
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.item, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if post:
                try:
                    post[1](self, fn, state, result)
                except Exception:  # a changed return type loses the count, not the item
                    self.broken.add(name)
            return result
        return wrapper

    def _counting_labeler(self, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def labeler(x, y):
            t0 = clock()
            try:
                return fn(x, y)
            finally:
                dt = clock() - t0
                self.label_s += dt
                counts["label_calls"] += 1
                if stack:
                    spans[stack[-1]][5] += dt
        return labeler

    # -- results ---------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """Inclusive and self time per span name.  A span nested in one of
        the same name counts only toward self time, never twice."""
        incl: dict[str, float] = {}
        self_t: dict[str, float] = {}
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] is not None:
                child[span[3]] += span[2] - span[1]
        for i, (name, start, end, parent, _, excluded) in enumerate(self.spans):
            dur = end - start
            self_t[name] = self_t.get(name, 0.0) + dur - child[i] - excluded
            p = parent
            while p is not None and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p is None:
                incl[name] = incl.get(name, 0.0) + dur
        return incl, self_t

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric whose wrap points exist at this version."""
        incl, self_t = self.totals()
        c = self.counts
        built_covers = c["covers"] + c["flat_covers"]
        hits = misses = 0
        if self._walk_cache is not None:
            end = self._walk_cache()
            hits = end.hits - self._cache_start.hits
            misses = end.misses - self._cache_start.misses
        values = {
            "signed_partitions.enumerate_s": incl.get("signed_partitions.enumerate_lattice", 0.0),
            "signed_partitions.elements": c["elements"],
            "signed_partitions.covers": c["covers"],
            "labeling.label_s": self.label_s,
            "labeling.label_calls": c["label_calls"],
            "labeling.labels_per_cover": c["label_calls"] / built_covers if built_covers else 0.0,
            "labeling.sweep_s": self_t.get("labeling.chow_via_chains", 0.0),
            "labeling.verify_el_s": incl.get("labeling.verify_el", 0.0),
            "labeling.chain_count_s": incl.get("labeling.count_chains_with_word", 0.0),
            "chow.recursive_s": incl.get("chow.chow_recursive", 0.0),
            "chow.charpoly_s": incl.get("chow.characteristic_poly", 0.0),
            "chow.charpoly_oracle_s": incl.get("chow.char_poly_bruteforce", 0.0),
            "chow.closed_s": incl.get("chow.closed", 0.0),
            "arrangement.walk_s": incl.get(WALK, 0.0),
            "arrangement.chambers": c["chambers"],
            "arrangement.walls": c["walls"],
            "arrangement.walk_cache_hits": hits,
            "arrangement.walk_cache_misses": misses,
            "arrangement.flats_s": incl.get("arrangement.intersection_lattice", 0.0),
            "arrangement.flats": c["flats"],
            "arrangement.fvector_s": self_t.get("arrangement.f_vector", 0.0),
            "arrangement.parse_s": incl.get("arrangement.parse_arrangement_text", 0.0),
            "feasibility.strict_calls": c["strict_calls"],
            "feasibility.strict_s": incl.get("feasibility.feasible_strict", 0.0),
            "feasibility.witness_ratio": c["witnesses"] / c["strict_calls"] if c["strict_calls"] else 0.0,
            "topegraph.certify_s": self_t.get("topegraph.build_tope_graph", 0.0),
            "topegraph.h_indegree_s": self_t.get("topegraph.h_via_indegree", 0.0),
            "topegraph.h_separation_s": self_t.get("topegraph.h_via_separation", 0.0),
            "permstats.closed_s": incl.get("permstats.closed", 0.0),
            "lattice.iso_s": incl.get("lattice.lattice_isomorphic", 0.0),
            "cli.self_s": self_t.get("cli.main", 0.0),
        }
        absent = set(self.absent())
        return {m: v for m, v in values.items() if m not in absent}

    def absent(self) -> list[str]:
        return [m for m, (_, _, needs) in METRICS.items()
                if not all(need in self.installed and need not in self.broken for need in needs)]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item", "labeler_s"],
                       "spans": self.spans, "missing_wrap_points": self.missing}, fh)


def _lattice_sizes(tracer, fn, state, lat):
    tracer.counts["elements"] += len(lat)
    tracer.counts["covers"] += sum(len(c) for c in lat.covers)


def _flat_sizes(tracer, fn, state, lat):
    tracer.counts["flats"] += len(lat)
    tracer.counts["flat_covers"] += sum(len(c) for c in lat.covers)


def _misses(fn):
    try:
        return fn.cache_info().misses
    except (AttributeError, TypeError):  # no cache, or a different one
        return None


def _walk_sizes(tracer, fn, misses_before, cc):
    # a cache hit returns a complex already counted
    if misses_before is None or fn.cache_info().misses > misses_before:
        tracer.counts["chambers"] += len(cc.masks)
        tracer.counts["walls"] += len(cc.edges)


def _oracle(tracer, fn, state, witness):
    tracer.counts["strict_calls"] += 1
    tracer.counts["witnesses"] += witness is not None


# span name -> (pre hook returning state or None, post hook)
_POST = {
    "signed_partitions.enumerate_lattice": (None, _lattice_sizes),
    "arrangement.intersection_lattice": (None, _flat_sizes),
    WALK: (_misses, _walk_sizes),
    "feasibility.feasible_strict": (None, _oracle),
}
