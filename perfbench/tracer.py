"""Traced pass: spans around calls into each layer, recorded from outside.

``install`` wraps the library's public functions at the point of use: the
CLI, ``commutator`` and ``fid`` bind names with ``from .x import y``, so a
wrapper is set on every ``freecommutant`` module that holds the function,
including the defining module, whose own calls (``fock.apply`` from the
vacuum moments, ``cumulant_of_word_products`` from the expansion,
``iter_partitions`` from ``enumerate_partitions``) resolve through its
globals.  ``iter_partitions`` returns a generator, so each ``next()`` is its
own span.

Spans stay in memory during the pass; ``Tracer.write`` stores them once the
pass is over.  A span's self time is its duration minus the time its direct
children cover (the program is single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import statistics
import sys
from array import array
from time import perf_counter

# (module, function, span name, how the span's value is taken)
#   "slots":  the number of polynomial arguments (the order of the call)
#   "hit":    1 when the call's word tuple is already in its cache
#   "states": the number of basis tensors in the returned state
#   "pivots": the number of pivots in the returned verdict
TARGETS = (
    ("cumulants", "cumulant_of_polynomials", "cumulants.expand", "slots"),
    ("cumulants", "cumulant_of_word_products", "cumulants.walk", "hit"),
    ("cumulants", "moments_from_cumulants", "cumulants.transform", None),
    ("cumulants", "cumulants_from_moments", "cumulants.transform", None),
    ("commutator", "cumulant_sequence_of", "commutator.sequence", None),
    ("commutator", "cancellation_sum", "commutator.cancellation", None),
    ("commutator", "closed_form_cumulant", "commutator.closed_form", None),
    ("fock", "apply", "fock.apply", "states"),
    ("fock", "inner_product", "fock.inner", None),
    ("fock", "composition_formula_cumulant", "fock.composition", None),
    ("fock", "verify_adjointness", "fock.adjoint", None),
    ("partitions", "compose_interval", "partitions.compose", None),
    ("fid", "hankel_fid_check", "fid.hankel", "pivots"),
    ("cli", "parse_spec", "cli.parse_spec", None),
    # Entry points with no metric of their own: their spans keep library
    # work out of cli.self_s.
    ("commutator", "verify_additivity", "commutator.additivity", None),
    ("commutator", "freeness_witness", "commutator.witness", None),
    ("commutator", "expansion_cumulant", "commutator.expansion", None),
    ("fock", "model_cumulant", "fock.model", None),
    ("fid", "compound_poisson_from_rho", "fid.compound", None),
)
GENERATORS = (("partitions", "iter_partitions", "partitions.enum"),)
OP_SPAN = "cli.main"  # opened by the benchmark around each op

# name, unit, better
PER_LAYER = (
    ("cumulants.expand_s", "s", "lower"),
    ("cumulants.walk_s", "s", "lower"),
    ("cumulants.walk_calls", "count", "lower"),
    ("cumulants.walk_misses", "count", "lower"),
    ("cumulants.walk_hit_ratio", "ratio", "higher"),
    ("cumulants.transform_s", "s", "lower"),
    ("commutator.sequence_s", "s", "lower"),
    ("commutator.cancellation_s", "s", "lower"),
    ("commutator.order8_s", "s", "lower"),
    ("commutator.order_growth", "ratio", "lower"),
    ("commutator.closed_form_s", "s", "lower"),
    ("fock.apply_s", "s", "lower"),
    ("fock.apply_calls", "count", "lower"),
    ("fock.peak_states", "count", "lower"),
    ("fock.inner_s", "s", "lower"),
    ("fock.composition_s", "s", "lower"),
    ("fock.adjoint_s", "s", "lower"),
    ("partitions.enum_s", "s", "lower"),
    ("partitions.yielded", "count", "lower"),
    ("partitions.compose_s", "s", "lower"),
    ("fid.hankel_s", "s", "lower"),
    ("fid.pivots", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.parse_spec_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
# Counts that must repeat exactly across traced runs of one seed.
EXACT_COUNTS = ("cumulants.walk_calls", "cumulants.walk_misses", "fock.apply_calls",
                "fock.peak_states", "partitions.yielded", "fid.pivots")


class Tracer:
    """Spans as parallel arrays: name, start, end, parent index, value."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.value = array("q")
        self._open: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._open[-1] if self._open else -1)
        self.value.append(0)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int, value: int = 0) -> None:
        self.end[idx] = perf_counter()
        self.value[idx] = value
        self._open.pop()

    def __len__(self) -> int:
        return len(self.names)

    def write(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent, value."""
        with open(path, "w") as out:
            for i, name in enumerate(self.names):
                out.write(f"{name}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                          f"\t{self.parent[i]}\t{self.value[i]}\n")


def _measure(kind, args, result) -> int:
    if kind == "slots":
        return len(args[0])
    if kind == "states":
        return len(result.terms)
    if kind == "pivots":
        return len(result.pivots)
    return 0


def _wrap(tracer: Tracer, fn, name: str, kind):
    if kind == "hit":
        @functools.wraps(fn)
        def walk(words, *args, **kwargs):
            cache = kwargs.get("cache")
            idx = tracer.open(name)
            hit = int(cache is not None and tuple(words) in cache)
            try:
                return fn(words, *args, **kwargs)
            finally:
                tracer.close(idx, hit)
        return walk

    @functools.wraps(fn)
    def call(*args, **kwargs):
        idx = tracer.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(idx, _measure(kind, args, result) if result is not None else 0)
    return call


def _wrap_generator(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def gen(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            idx = tracer.open(name)
            try:
                item = next(inner)
            except StopIteration:
                tracer.close(idx, 0)
                return
            except BaseException:
                tracer.close(idx, 0)
                raise
            tracer.close(idx, 1)
            yield item
    return gen


def install(tracer: Tracer):
    """Wrap every binding of the target functions; returns an undo list."""
    package = [m for name, m in sys.modules.items()
               if name == "freecommutant" or name.startswith("freecommutant.")]
    undo = []
    wrapped = {}
    for mod, fname, span, kind in TARGETS:
        fn = getattr(sys.modules[f"freecommutant.{mod}"], fname)
        wrapped[id(fn)] = (fn, _wrap(tracer, fn, span, kind))
    for mod, fname, span in GENERATORS:
        fn = getattr(sys.modules[f"freecommutant.{mod}"], fname)
        wrapped[id(fn)] = (fn, _wrap_generator(tracer, fn, span))
    for module in package:
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped and wrapped[id(value)][0] is value:
                undo.append((module, attr, value))
                setattr(module, attr, wrapped[id(value)][1])
    return undo


def uninstall(undo) -> None:
    for module, attr, value in undo:
        setattr(module, attr, value)


def layer_metrics(tracer: Tracer, bounds: list[tuple[int, int]]) -> dict[str, float]:
    """Per-layer values of every round (the spans in bounds[r]), reduced to
    the median over rounds.  Times are inclusive unless named self."""
    per_round = [_round_metrics(tracer, lo, hi) for lo, hi in bounds]
    return {name: statistics.median(r[name] for r in per_round)
            for name, _unit, _better in PER_LAYER if name != "trace.overhead_s"}


def _round_metrics(t: Tracer, lo: int, hi: int) -> dict[str, float]:
    child = {}
    for i in range(lo, hi):
        p = t.parent[i]
        if p >= 0:
            child[p] = child.get(p, 0.0) + t.end[i] - t.start[i]
    total = {}
    self_time = {}
    count = {}
    value_sum = {}
    value_max = {}
    by_order = {}
    for i in range(lo, hi):
        name = t.names[i]
        dur = t.end[i] - t.start[i]
        total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur - child.get(i, 0.0)
        count[name] = count.get(name, 0) + 1
        value_sum[name] = value_sum.get(name, 0) + t.value[i]
        value_max[name] = max(value_max.get(name, 0), t.value[i])
        p = t.parent[i]
        if name == "cumulants.expand" and p >= 0 and t.names[p] == "commutator.sequence":
            by_order[t.value[i]] = by_order.get(t.value[i], 0.0) + dur
    walk_calls = count.get("cumulants.walk", 0)
    walk_hits = value_sum.get("cumulants.walk", 0)
    return {
        "cumulants.expand_s": self_time.get("cumulants.expand", 0.0),
        "cumulants.walk_s": total.get("cumulants.walk", 0.0),
        "cumulants.walk_calls": walk_calls,
        "cumulants.walk_misses": walk_calls - walk_hits,
        "cumulants.walk_hit_ratio": walk_hits / walk_calls if walk_calls else 0.0,
        "cumulants.transform_s": total.get("cumulants.transform", 0.0),
        "commutator.sequence_s": total.get("commutator.sequence", 0.0),
        "commutator.cancellation_s": total.get("commutator.cancellation", 0.0),
        "commutator.order8_s": by_order.get(8, 0.0),
        "commutator.order_growth": (by_order[8] / by_order[7]
                                    if by_order.get(7) and 8 in by_order else 0.0),
        "commutator.closed_form_s": total.get("commutator.closed_form", 0.0),
        "fock.apply_s": total.get("fock.apply", 0.0),
        "fock.apply_calls": count.get("fock.apply", 0),
        "fock.peak_states": value_max.get("fock.apply", 0),
        "fock.inner_s": total.get("fock.inner", 0.0),
        "fock.composition_s": total.get("fock.composition", 0.0),
        "fock.adjoint_s": total.get("fock.adjoint", 0.0),
        "partitions.enum_s": total.get("partitions.enum", 0.0),
        "partitions.yielded": value_sum.get("partitions.enum", 0),
        "partitions.compose_s": total.get("partitions.compose", 0.0),
        "fid.hankel_s": total.get("fid.hankel", 0.0),
        "fid.pivots": value_sum.get("fid.hankel", 0),
        "cli.self_s": self_time.get(OP_SPAN, 0.0),
        "cli.parse_spec_s": total.get("cli.parse_spec", 0.0),
    }
