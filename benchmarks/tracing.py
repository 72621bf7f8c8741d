"""Spans around the library's public functions, recorded from outside it.

``Tracer.installed`` rebinds the names each module uses to call the next
layer (``dynamics.demyanov_convert``, ``converter.test_directions``,
``converter.convex_hull`` and so on) to wrappers that record a span per
call, and restores the originals on exit. Spans stay in memory; the run
writes them out once it ends. Nothing in the library changes, and with the
tracer not installed no wrapper is on any path.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns

from demyanov import cli, converter, dynamics, familyio, geometry, render
from demyanov.converter import CellKind


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "children_ns", "attrs")

    def __init__(self, name, op, parent):
        self.name = name
        self.op = op
        self.parent = parent
        self.children_ns = 0
        self.attrs = None

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.children_ns


def _fan(args, cells):
    return {"cells": len(cells), "rays": sum(1 for c in cells if c.kind is CellKind.RAY)}


def _convert(args, image):
    omega = args[0]
    return {
        "members_in": len(omega.members),
        "member_vertices": sum(len(m.vertices) for m in omega.members),
        "vertices_in": len({v for m in omega.members for v in m.vertices}),
        "members_out": len(image.members),
    }


def _parse(args, result):
    return {"bytes": len(args[0])}


def _text_out(args, text):
    return {"bytes": len(text)}


# (namespace, attribute, span name, annotation). A name imported into
# several modules is rebound in each one that calls it.
BINDINGS = (
    (converter, "test_directions", "converter.fan", _fan),
    (converter, "convex_hull", "geometry.hull", None),
    (dynamics, "convex_hull", "geometry.hull", None),
    (familyio, "convex_hull", "geometry.hull", None),
    (geometry, "convex_hull", "geometry.hull", None),
    (geometry.Polytope, "__post_init__", "geometry.polytope_check", None),
    (dynamics, "demyanov_convert", "converter.convert", _convert),
    (cli, "demyanov_convert", "converter.convert", _convert),
    (dynamics, "collection_digest", "converter.digest", None),
    (dynamics, "iterate_until_cycle", "dynamics.iterate", None),
    (cli, "iterate_until_cycle", "dynamics.iterate", None),
    (dynamics, "random_family", "dynamics.generate", None),
    (familyio, "parse_family", "familyio.parse", _parse),
    (cli, "parse_family", "familyio.parse", _parse),
    (familyio, "serialize_family", "familyio.serialize", _text_out),
    (cli, "serialize_family", "familyio.serialize", _text_out),
    (render, "render_svg", "render.svg", _text_out),
    (cli, "render_svg", "render.svg", _text_out),
    (cli, "cli_dispatch", "cli.dispatch", None),
)


class Tracer:
    """Records spans while installed and enabled; ``op`` tags each span
    with the orbit or document it belongs to."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self.enabled = True
        self._stack: list[Span] = []

    def wrap(self, name, fn, annotate):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            entered = perf_counter_ns()
            stack = self._stack
            parent = stack[-1] if stack else None
            span = Span(name, self.op, parent)
            stack.append(span)
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                stack.pop()
                self.spans.append(span)
            if annotate is not None:
                span.attrs = annotate(args, result)
            if parent is not None:
                # The wrapper's own bookkeeping is tracing overhead, not
                # the parent's work, so the parent does not keep it.
                parent.children_ns += perf_counter_ns() - entered
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in BINDINGS]
        try:
            for (owner, attr, original), (_, _, name, annotate) in zip(saved, BINDINGS):
                setattr(owner, attr, self.wrap(name, original, annotate))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines, in start order."""
        spans = sorted(self.spans, key=lambda s: s.start)
        ids = {id(span): i for i, span in enumerate(spans)}
        with open(path, "w", encoding="utf-8") as out:
            for span in spans:
                row = {
                    "id": ids[id(span)],
                    "parent": None if span.parent is None else ids[id(span.parent)],
                    "name": span.name,
                    "op": span.op,
                    "start_ns": span.start,
                    "end_ns": span.end,
                }
                row.update(span.attrs or {})
                out.write(json.dumps(row) + "\n")


# Layer figures derived from one traced pass. Times are seconds; the rest
# are exact counts that must repeat between passes and between runs.
TIMES = (
    "converter.convert.self_s",
    "converter.fan.s",
    "converter.digest.s",
    "geometry.hull.s",
    "geometry.polytope_check.s",
    "dynamics.iterate.self_s",
    "dynamics.generate.s",
    "familyio.parse.s",
    "familyio.serialize.s",
    "render.svg.s",
    "cli.dispatch.s",
)
COUNTS = (
    "converter.vertex_evals",
    "converter.fan.rays",
    "converter.fan.cells",
    "converter.convert.hull_calls",
    "converter.members_in",
    "converter.members_out",
    "converter.vertices_in",
    "geometry.hull.calls",
    "geometry.polytope_check.calls",
    "dynamics.steps",
    "familyio.bytes",
    "render.bytes",
    "trace.spans",
)


def layer_figures(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counts of one traced pass."""
    ns = dict.fromkeys(TIMES, 0)
    n = dict.fromkeys(COUNTS, 0)
    n["trace.spans"] = len(spans)
    convert_cells = 0
    for span in spans:
        name = span.name
        parent = span.parent.name if span.parent is not None else None
        attrs = span.attrs or {}
        if name == "converter.convert":
            ns["converter.convert.self_s"] += span.self_ns
            for key in ("members_in", "members_out", "vertices_in"):
                n["converter." + key] += attrs[key]
            if parent == "dynamics.iterate":
                n["dynamics.steps"] += 1
        elif name == "converter.fan":
            ns["converter.fan.s"] += span.duration_ns
            n["converter.fan.rays"] += attrs["rays"]
            n["converter.fan.cells"] += attrs["cells"]
            if parent == "converter.convert":
                convert_cells += attrs["cells"]
                n["converter.vertex_evals"] += attrs["cells"] * span.parent.attrs["member_vertices"]
        elif name == "geometry.hull":
            ns["geometry.hull.s"] += span.duration_ns
            n["geometry.hull.calls"] += 1
            if parent == "converter.convert":
                n["converter.convert.hull_calls"] += 1
        elif name == "geometry.polytope_check":
            ns["geometry.polytope_check.s"] += span.duration_ns
            n["geometry.polytope_check.calls"] += 1
        elif name == "converter.digest":
            ns["converter.digest.s"] += span.duration_ns
        elif name == "dynamics.iterate":
            ns["dynamics.iterate.self_s"] += span.self_ns
        elif name == "dynamics.generate":
            ns["dynamics.generate.s"] += span.duration_ns
        elif name in ("familyio.parse", "familyio.serialize"):
            ns[name + ".s"] += span.duration_ns
            n["familyio.bytes"] += attrs["bytes"]
        elif name == "render.svg":
            ns["render.svg.s"] += span.duration_ns
            n["render.bytes"] += attrs["bytes"]
        elif name == "cli.dispatch":
            ns["cli.dispatch.s"] += span.duration_ns
    figures = {key: value / 1e9 for key, value in ns.items()}
    figures.update(n)
    self_s = figures["converter.convert.self_s"]
    figures["converter.vertex_evals_per_s"] = n["converter.vertex_evals"] / self_s if self_s else 0.0
    hulls = n["converter.convert.hull_calls"]
    figures["converter.hull_reuse_ratio"] = 1 - hulls / convert_cells if convert_cells else 0.0
    return figures
