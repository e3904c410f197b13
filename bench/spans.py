"""Spans and counters for the traced run, and the per-layer metrics from them.

A traced op installs timing wrappers around obscon's public functions as
bound in the modules that call them (``obscon.constraints.v_to_h``, not
``obscon.polyhedra.v_to_h``), so every call the pipeline makes is seen. A
span records its name, start, end and parent; spans stay in memory, in flat
arrays, and are written out once at the end of the run. A layer's self time
is its span time minus the time its child spans cover.
"""

from __future__ import annotations

import json
import statistics
from array import array
from contextlib import contextmanager, nullcontext
from time import perf_counter

import obscon
import obscon.constraints
import obscon.independence
import obscon.polyhedra
import obscon.response
import obscon.tables

# (module, attribute, span name): the call sites the pipeline goes through
WRAPPED = (
    (obscon.constraints, "parse_graph", "graph.parse"),
    (obscon.constraints, "validate_conditions", "graph.validate"),
    (obscon.response, "validate_conditions", "graph.validate"),
    (obscon.constraints, "merge_district_latents", "transform.merge"),
    (obscon.constraints, "enumerate_ci", "independence.enumerate_ci"),
    (obscon.independence, "d_separated", "independence.d_separated"),
    (obscon.constraints, "build_functional_system", "response.build"),
    (obscon.constraints, "v_to_h", "polyhedra.v_to_h"),
    (obscon.polyhedra, "affine_hull", "polyhedra.affine_hull"),
    (obscon.polyhedra, "extreme_rays", "polyhedra.dd"),
    (obscon.constraints, "flag_nontrivial", "constraints.flag"),
    (obscon.constraints, "render", "constraints.render"),
    (obscon.constraints, "star_probability", "response.star"),
    (obscon.tables.JointTable, "prob", "tables.prob"),
)


class Tracer:
    """In-memory span store: one row per span in four parallel arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        # counter events: (index of the innermost span, key, value)
        self.counters: list[tuple[int, str, float]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def count(self, key: str, value: float) -> None:
        self.counters.append((len(self.name) - 1, key, value))

    def wrap(self, fn, name: str, on_result=None):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _dd(self, fn):
        """``extreme_rays`` with its progress hook counting steps and rays."""
        nid = self.name_id("polyhedra.dd")

        def extreme_rays(rows, progress=None):
            steps, peak = 0, 0

            def hook(done, total, n_rays, n_cut):
                nonlocal steps, peak
                steps += 1
                peak = max(peak, n_rays)
                if progress is not None:
                    progress(done, total, n_rays, n_cut)

            idx = self.open(nid)
            try:
                rays = fn(rows, progress=hook)
            finally:
                self.close(idx)
            self.count("polyhedra.dd_steps", steps)
            self.count("polyhedra.dd_peak_rays", max(peak, len(rays)))
            return rays

        return extreme_rays

    def _hooks(self):
        def hrep(h):
            self.count("polyhedra.facets", len(h.ineq))
            self.count("polyhedra.equalities", len(h.eq))

        def system(s):
            self.count("response.columns", s.n_cols)
            self.count("response.rows", s.n_rows)

        return {
            "polyhedra.v_to_h": hrep,
            "response.build": system,
            "independence.enumerate_ci": lambda ci: self.count(
                "independence.ci_statements", len(ci)),
        }

    @contextmanager
    def installed(self):
        """Wrap every function in ``WRAPPED`` for the duration of the block."""
        hooks = self._hooks()
        saved = []
        try:
            for owner, attr, name in WRAPPED:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                if name == "polyhedra.dd":
                    wrapper = self._dd(original)
                else:
                    wrapper = self.wrap(original, name, hooks.get(name))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: str, meta: dict) -> None:
        """Header line (JSON) followed by the raw name/parent/start/end arrays."""
        header = dict(meta, names=self.names, spans=len(self.name),
                      arrays=["name:i", "parent:i", "start:d", "end:d"])
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


SPAN = nullcontext()


class NoTracer:
    """Stands in for a Tracer in untraced ops; records nothing."""

    def span(self, name):
        return SPAN


# -- per-op profiles -----------------------------------------------------------

MAX_COUNTERS = {"polyhedra.dd_peak_rays"}


def child_times(tracer: Tracer) -> list[float]:
    """Per span, the time its direct children cover (they never overlap)."""
    covered = [0.0] * len(tracer.name)
    for k, p in enumerate(tracer.parent):
        if p >= 0:
            covered[p] += tracer.end[k] - tracer.start[k]
    return covered


def op_profiles(tracer: Tracer):
    """One profile per top-level span (an op), in order.

    A profile holds the op's name and wall time, and per span name within
    it: total time, self time and call count, plus the op's counters (summed,
    or the maximum for peaks) and the time its direct children cover.
    """
    n = len(tracer.name)
    child_time = child_times(tracer)
    roots = [k for k in range(n) if tracer.parent[k] < 0] + [n]
    counters = sorted(tracer.counters, key=lambda c: c[0])
    profiles, ci = [], 0
    for root, stop in zip(roots, roots[1:]):
        prof = {
            "op": tracer.names[tracer.name[root]],
            "wall": tracer.end[root] - tracer.start[root],
            "top_level": child_time[root],
            "total": {}, "self": {}, "calls": {}, "counts": {},
        }
        for k in range(root + 1, stop):
            name = tracer.names[tracer.name[k]]
            dur = tracer.end[k] - tracer.start[k]
            prof["total"][name] = prof["total"].get(name, 0.0) + dur
            prof["self"][name] = prof["self"].get(name, 0.0) + dur - child_time[k]
            prof["calls"][name] = prof["calls"].get(name, 0) + 1
        while ci < len(counters) and counters[ci][0] < stop:
            _, key, value = counters[ci]
            counts = prof["counts"]
            if key in MAX_COUNTERS:
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
            ci += 1
        profiles.append(prof)
    return profiles


# -- per-layer metrics -----------------------------------------------------------

# (metric, unit, better, op kind, source, key): the median over that kind of
# op of the per-op value; source is total or self span time, call count, or a
# counter
LAYER_METRICS = (
    ("polyhedra.dd_s", "s", "lower", "derive", "total", "polyhedra.dd"),
    ("polyhedra.dd_steps", "count", "lower", "derive", "counts", "polyhedra.dd_steps"),
    ("polyhedra.dd_peak_rays", "count", "lower", "derive", "counts", "polyhedra.dd_peak_rays"),
    ("polyhedra.affine_hull_s", "s", "lower", "derive", "total", "polyhedra.affine_hull"),
    ("polyhedra.v_to_h_self_s", "s", "lower", "derive", "self", "polyhedra.v_to_h"),
    ("polyhedra.facets", "count", "lower", "derive", "counts", "polyhedra.facets"),
    ("polyhedra.equalities", "count", "lower", "derive", "counts", "polyhedra.equalities"),
    ("independence.enumerate_ci_s", "s", "lower", "derive", "total", "independence.enumerate_ci"),
    ("independence.dsep_calls", "count", "lower", "derive", "calls", "independence.d_separated"),
    ("independence.ci_statements", "count", "lower", "derive", "counts", "independence.ci_statements"),
    ("constraints.serialize_s", "s", "lower", "derive", "total", "constraints.serialize"),
    ("constraints.render_calls", "count", "lower", "derive", "calls", "constraints.render"),
    ("constraints.render_s", "s", "lower", "derive", "total", "constraints.render"),
    ("constraints.dumps_s", "s", "lower", "derive", "total", "json.dumps"),
    ("response.build_s", "s", "lower", "derive", "total", "response.build"),
    ("response.columns", "count", "lower", "derive", "counts", "response.columns"),
    ("response.rows", "count", "lower", "derive", "counts", "response.rows"),
    ("graph.parse_s", "s", "lower", "derive", "total", "graph.parse"),
    ("graph.validate_calls", "count", "lower", "derive", "calls", "graph.validate"),
    ("graph.validate_s", "s", "lower", "derive", "total", "graph.validate"),
    ("transform.merge_s", "s", "lower", "derive", "total", "transform.merge"),
    ("constraints.flag_s", "s", "lower", "derive", "total", "constraints.flag"),
    ("constraints.derive_self_s", "s", "lower", "derive", "self", "constraints.derive"),
    ("constraints.evaluate_s", "s", "lower", "check", "total", "constraints.evaluate"),
    ("constraints.evaluate_self_s", "s", "lower", "check", "self", "constraints.evaluate"),
    ("constraints.evaluate_render_calls", "count", "lower", "check", "calls", "constraints.render"),
    ("constraints.evaluate_render_s", "s", "lower", "check", "total", "constraints.render"),
    ("constraints.report_json_s", "s", "lower", "check", "total", "constraints.report_json"),
    ("tables.parse_s", "s", "lower", "check", "total", "tables.parse"),
    ("tables.prob_calls", "count", "lower", "check", "calls", "tables.prob"),
    ("tables.prob_s", "s", "lower", "check", "total", "tables.prob"),
    ("response.star_calls", "count", "lower", "check", "calls", "response.star"),
    ("response.star_s", "s", "lower", "check", "total", "response.star"),
)

# metrics about the trace itself and the check-op sample
TRACE_METRICS = (
    ("trace.overhead", "ratio", "lower"),
    ("trace.derive_coverage", "ratio", "higher"),
    ("check.ops", "count", "higher"),
    ("check.tail_percentile", "pct", "higher"),
)


def layer_metrics(profiles, untraced_derive_walls) -> dict[str, dict]:
    by_kind = {"derive": [], "check": []}
    for prof in profiles:
        by_kind[prof["op"].removeprefix("op.")].append(prof)
    out = {}
    for metric, unit, _better, kind, source, key in LAYER_METRICS:
        values = [prof[source].get(key, 0) for prof in by_kind[kind]]
        out[metric] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
    derives = by_kind["derive"]
    traced = statistics.median(p["wall"] for p in derives)
    out["trace.overhead"] = {
        "value": traced / statistics.median(untraced_derive_walls), "unit": "ratio"}
    out["trace.derive_coverage"] = {
        "value": statistics.median(p["top_level"] / p["wall"] for p in derives),
        "unit": "ratio"}
    return out
