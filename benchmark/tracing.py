"""Per-layer tracing of cwlab from outside the program.

`Tracer.install()` replaces each traced cwlab function, at every module
attribute (or class attribute) that refers to it, by a wrapper that records
a span: name, start, end and parent span.  Spans are kept in memory in flat
arrays and written as JSON lines when the run ends.  `layer_metrics` turns
spans and counters into the per-layer metrics listed in BENCHMARK.json.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the traced wall time.
The recorder keeps one stack and assumes one thread, which holds for every
traced call the benchmark makes (in-process workloads use workers=1; under
the CLI's thread pool only untraced kernel internals run in threads).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name, counter) -- the names callers resolve.
# A class attribute is written "Class.method".
TRACED = [
    ("cwlab.counting", "fast_count", "counting.count", "points"),
    ("cwlab.counting", "zero_set", "counting.zero_set", None),
    ("cwlab.counting", "lift_system", "counting.lift", None),
    ("cwlab.geometry", "_lift_poly", "counting.lift", None),
    ("cwlab.laws", "check_congruence", "laws.congruence", None),
    ("cwlab.laws", "_coset_residue_check", "laws.coset", None),
    ("cwlab.laws", "lower_bound_audit", "laws.audit", None),
    ("cwlab.laws", "homogenization_identity", "laws.identity", None),
    ("cwlab.subspaces", "direction_spaces", "subspaces.direction", "generator"),
    ("cwlab.subspaces", "affine_span", "subspaces.span", None),
    ("cwlab.polynomials", "restrict_polys", "polynomials.restrict", None),
    ("cwlab.polynomials", "PolySystem.leading_system", "polynomials.homogenize", None),
    ("cwlab.polynomials", "PolySystem.homogenized_system", "polynomials.homogenize", None),
    ("cwlab.polynomials", "parse_poly", "polynomials.parse", None),
    ("cwlab.geometry", "linear_factor_test", "geometry.factor", "forms"),
    ("cwlab.geometry", "estimate_dimension", "geometry.estimate", None),
    ("cwlab.fields", "build_field", "fields.build", "builds"),
    ("cwlab.fields", "embed_subfield", "fields.embed", None),
    ("cwlab.formats", "read_sys", "formats.read", None),
    ("cwlab.formats", "read_sub", "formats.read", None),
    ("cwlab.cli", "main", "cli.main", None),
] + [("cwlab.suite", f"criterion_{i}", "suite.criterion", None) for i in range(1, 12)]

# per-layer metric -> (unit, better); the order of BENCHMARK.json
LAYER_METRICS = {
    "counting.points_per_s": ("1/s", "higher"),
    "counting.count_s": ("s", "lower"),
    "counting.calls": ("count", "lower"),
    "counting.points": ("count", "lower"),
    "counting.zero_set_s": ("s", "lower"),
    "counting.lift_s": ("s", "lower"),
    "laws.classes_per_s": ("1/s", "higher"),
    "laws.congruence_s": ("s", "lower"),
    "laws.classes": ("count", "lower"),
    "laws.audit_s": ("s", "lower"),
    "laws.identity_s": ("s", "lower"),
    "subspaces.direction_s": ("s", "lower"),
    "subspaces.direction_spaces": ("count", "lower"),
    "subspaces.span_s": ("s", "lower"),
    "polynomials.restrict_s": ("s", "lower"),
    "polynomials.restrict_calls": ("count", "lower"),
    "polynomials.homogenize_s": ("s", "lower"),
    "polynomials.parse_s": ("s", "lower"),
    "geometry.factor_s": ("s", "lower"),
    "geometry.forms": ("count", "lower"),
    "geometry.forms_per_s": ("1/s", "higher"),
    "geometry.estimate_s": ("s", "lower"),
    "fields.build_s": ("s", "lower"),
    "fields.builds": ("count", "lower"),
    "fields.embed_s": ("s", "lower"),
    "formats.read_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "suite.criterion_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

# span name -> the self-time metric it feeds
SELF_TIME = {
    "counting.count": "counting.count_s",
    "counting.zero_set": "counting.zero_set_s",
    "counting.lift": "counting.lift_s",
    "laws.congruence": "laws.congruence_s",
    "laws.coset": "laws.congruence_s",
    "laws.audit": "laws.audit_s",
    "laws.identity": "laws.identity_s",
    "subspaces.direction": "subspaces.direction_s",
    "subspaces.span": "subspaces.span_s",
    "polynomials.restrict": "polynomials.restrict_s",
    "polynomials.homogenize": "polynomials.homogenize_s",
    "polynomials.parse": "polynomials.parse_s",
    "geometry.factor": "geometry.factor_s",
    "geometry.estimate": "geometry.estimate_s",
    "fields.build": "fields.build_s",
    "fields.embed": "fields.embed_s",
    "formats.read": "formats.read_s",
    "cli.import": "cli.import_s",
    "cli.main": "cli.main_s",
    "suite.criterion": "suite.criterion_s",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def record(self, name: str, start: float, end: float) -> None:
        """A finished span measured by the caller (e.g. an import)."""
        self.name_id.append(self._name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(start)
        self.end.append(end)

    def _wrap(self, fn, name: str, counter: str | None):
        # locals instead of attribute lookups: the wrappers sit on hot paths
        nid = self._name_id(name)
        names, starts, ends, parents, stack = self.name_id, self.start, self.end, self.parent, self.stack
        counts = self.counts
        clock = time.perf_counter

        if counter == "generator":
            items = name + ".items"

            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = len(starts)
                    names.append(nid)
                    parents.append(stack[-1] if stack else -1)
                    ends.append(0.0)
                    stack.append(idx)
                    starts.append(clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        stack.pop()
                    counts[items] += 1
                    yield item

            return traced_gen

        cache_info = getattr(fn, "cache_info", None)

        def traced(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter == "points":
                system = args[0]
                counts["counting.points"] += system.field.q**system.nvars
            elif counter == "forms":
                counts["geometry.forms"] += result.forms_checked
            elif counter == "builds":
                counts["fields.builds"] += cache_info().misses - misses
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at each name that refers to it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "cwlab" or n.startswith("cwlab.")]
        for modname, attr, name, counter in TRACED:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                self._patches.append((owner, meth, orig))
                setattr(owner, meth, self._wrap(orig, name, counter))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(orig, name, counter)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def self_times(self) -> Counter:
        n = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        out: Counter = Counter()
        for i in range(n):
            out[self.names[self.name_id[i]]] += own[i]
        return out

    def calls(self) -> Counter:
        return Counter(self.names[i] for i in self.name_id)

    def write(self, fh, proc: int = 0, t0: float = 0.0) -> None:
        for i in range(len(self.start)):
            fh.write(
                json.dumps(
                    {
                        "proc": proc,
                        "name": self.names[self.name_id[i]],
                        "start": round(self.start[i] - t0, 6),
                        "end": round(self.end[i] - t0, 6),
                        "parent": self.parent[i],
                    }
                )
                + "\n"
            )

    def summary(self) -> dict:
        """Self time and calls per span name, and the counters: the form
        that is merged across processes."""
        counts = self.calls()
        counts.update(self.counts)
        return {"self": dict(self.self_times()), "counts": dict(counts)}


def layer_metrics(summaries: list[dict], overhead_pct: float) -> dict:
    own: Counter = Counter()
    counts: Counter = Counter()
    for s in summaries:
        own.update(s["self"])
        counts.update(s["counts"])
    values = {name: 0.0 for name in LAYER_METRICS}
    for span, metric in SELF_TIME.items():
        values[metric] += own.get(span, 0.0)
    values["counting.calls"] = counts["counting.count"]
    values["counting.points"] = counts["counting.points"]
    values["laws.classes"] = counts["laws.coset"]
    values["subspaces.direction_spaces"] = counts["subspaces.direction.items"]
    values["polynomials.restrict_calls"] = counts["polynomials.restrict"]
    values["geometry.forms"] = counts["geometry.forms"]
    values["fields.builds"] = counts["fields.builds"]

    def rate(work: str, secs: str) -> float:
        return values[work] / values[secs] if values[secs] > 0 else 0.0

    values["counting.points_per_s"] = rate("counting.points", "counting.count_s")
    values["laws.classes_per_s"] = rate("laws.classes", "laws.congruence_s")
    values["geometry.forms_per_s"] = rate("geometry.forms", "geometry.factor_s")
    values["trace.overhead_pct"] = overhead_pct
    return {k: {"value": values[k], "unit": LAYER_METRICS[k][0]} for k in LAYER_METRICS}
