"""Spans around the calls into cantorlab's layers, recorded from outside the package.

A traced pass rebinds the layer entry points that ``cantorlab.lab`` and
``cantorlab.potential`` look up as module globals, and wraps ``field`` on each
resolved shape instance (not through a proxy: the lab checks
``isinstance(shape, Repeller)``).  Every call then leaves one span: name,
start, end, the span that caused it and a work count.  Spans are kept in
memory and reduced into per-layer metrics after the pass.

Field queries in the sampler run on its worker threads while the calling
thread waits; they are attributed to the innermost layer span open on the
calling thread.  At two threads those query spans overlap, so self time is
taken against the union of the child intervals, and busy time is reported
separately as the plain sum of durations.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import itertools
import time

#: span tuple fields
ID, NAME, START, END, PARENT, COUNT = range(6)

SAMPLE = "potential.sample_harmonic_measure"
RUN = "lab.run_experiment"


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.kept: dict[int, object] = {}
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._fields: dict[int, object] = {}

    def call(self, name, fn, count=None, keep=False):
        """fn recorded as span ``name``; count(bound_args, result) is its work."""
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                # a call that raised still leaves its span, with no work counted
                self._stack.pop()
                self.spans.append((sid, name, t0, time.perf_counter(), parent, 0))
                raise
            t1 = time.perf_counter()
            self._stack.pop()
            n = 0
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                n = count(bound.arguments, out)
            if keep:
                self.kept[sid] = out
            self.spans.append((sid, name, t0, t1, parent, n))
            return out

        return traced

    def _leaf(self, name, query):
        # may run on a sampler worker thread: list.append is atomic, and the
        # calling thread's stack does not change while it waits on the pool
        def traced(z):
            parent = self._stack[-1] if self._stack else None
            t0 = time.perf_counter()
            out = query(z)
            t1 = time.perf_counter()
            self.spans.append((next(self._ids), name, t0, t1, parent, int(out[0].size)))
            return out

        return traced

    def watch_shape(self, shape, layer: str):
        """Wrap ``shape.field`` and the ``query`` of every field it returns."""
        build = shape.field

        def field(resolution):
            t0 = time.perf_counter()
            fld = build(resolution)
            t1 = time.perf_counter()
            new = id(fld) not in self._fields
            if new:
                self._fields[id(fld)] = fld
                fld.query = self._leaf(f"{layer}.field_query", fld.query)
            parent = self._stack[-1] if self._stack else None
            leaves = fld.leaf_count if new else 0
            self.spans.append((next(self._ids), f"{layer}.field_build", t0, t1, parent, leaves))
            return fld

        # object.__setattr__ also reaches frozen dataclass shapes
        object.__setattr__(shape, "field", field)

    @contextlib.contextmanager
    def installed(self, cantorlab):
        """Rebind the layer names lab and potential call, for the with-block only."""
        lab, potential = cantorlab.lab, cantorlab.potential
        Repeller = cantorlab.geometry.Repeller
        saved = []

        def rebind(module, attr, name, **kw):
            orig = getattr(module, attr)
            saved.append((module, attr, orig))
            setattr(module, attr, self.call(name, orig, **kw))

        rebind(lab, "sample_harmonic_measure", SAMPLE,
               count=lambda a, out: a["cfg"].samples, keep=True)
        rebind(lab, "green_model", "potential.green_model")
        rebind(lab, "comparability_fit", "potential.comparability_fit")
        rebind(potential, "log_potential", "potential.log_potential",
               count=lambda a, out: getattr(out, "size", 1) * a["em"].atom_count)
        rebind(lab, "manning_dimension", "dynamics.manning_dimension",
               count=lambda a, out: a["n_boot"] if a["em"].samples is not None else 0,
               keep=True)
        rebind(lab, "curvature_profile", "curvature.curvature_profile",
               count=lambda a, out: sum(e.triples for e in out.estimates))
        rebind(lab, "cauchy_truncations", "curvature.cauchy_truncations")
        rebind(lab, "cauchy_transform", "curvature.cauchy_transform")
        rebind(lab, "covering_counts", "geometry.covering_counts")
        rebind(lab, "shell_integral_sums", "geometry.shell_integral_sums")

        resolve = lab.resolve_shape

        def resolve_shape(name):
            shape = resolve(name)
            self.watch_shape(shape, "geometry" if isinstance(shape, Repeller) else "shapes")
            return shape

        saved.append((lab, "resolve_shape", resolve))
        lab.resolve_shape = resolve_shape
        try:
            yield self.call(RUN, lab.run_experiment)
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


class Spans:
    """Queries over the spans of one traced pass."""

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        self.kept = tracer.kept
        self.by_id = {s[ID]: s for s in self.spans}
        self.children: dict[int, list] = {}
        for s in self.spans:
            self.children.setdefault(s[PARENT], []).append(s)
        self.runs = sorted((s for s in self.spans if s[NAME] == RUN), key=lambda s: s[START])
        self._root: dict[int, int] = {}

    def root(self, s) -> int:
        """Id of the run_experiment span that s descends from."""
        sid = s[ID]
        if sid not in self._root:
            parent = s[PARENT]
            self._root[sid] = sid if parent is None else self.root(self.by_id[parent])
        return self._root[sid]

    def named(self, name, under=None, parent_name=None):
        for s in self.spans:
            if s[NAME] != name:
                continue
            if under is not None and self.root(s) != under:
                continue
            if parent_name is not None and (
                s[PARENT] is None or self.by_id[s[PARENT]][NAME] != parent_name
            ):
                continue
            yield s

    def busy(self, name, **kw) -> float:
        return sum(s[END] - s[START] for s in self.named(name, **kw))

    def count(self, name, **kw) -> int:
        return sum(s[COUNT] for s in self.named(name, **kw))

    def self_time(self, name) -> float:
        """Span time not covered by the union of its children's intervals."""
        total = 0.0
        for s in self.named(name):
            kids = [
                (max(c[START], s[START]), min(c[END], s[END]))
                for c in self.children.get(s[ID], ())
            ]
            total += (s[END] - s[START]) - union_length(k for k in kids if k[1] > k[0])
        return total

    def steps(self, under=None) -> int:
        """Field points the sampler queried: one per live walk per step."""
        return sum(
            self.count(f"{layer}.field_query", under=under, parent_name=SAMPLE)
            for layer in ("geometry", "shapes")
        )

    def measures(self, under=None):
        spans = sorted(self.named(SAMPLE, under=under), key=lambda s: s[START])
        return [self.kept[s[ID]] for s in spans if s[ID] in self.kept]

    def counters(self, run_id) -> dict:
        """Exact work counters of one experiment run; equal for equal seeds."""
        ems = self.measures(under=run_id)
        return {
            "walks": self.count(SAMPLE, under=run_id),
            "steps": self.steps(under=run_id),
            "atoms": sum(em.atom_count for em in ems),
            "atoms_sha256": [
                hashlib.sha256(em.codes.tobytes() + em.weights.tobytes()).hexdigest() for em in ems
            ],
            "discarded": sum(em.discarded for em in ems),
            "triples": self.count("curvature.curvature_profile", under=run_id),
            "shell_cells": self.count(
                "geometry.field_query", under=run_id, parent_name="geometry.shell_integral_sums"
            ),
            "field_leaves": self.count("geometry.field_build", under=run_id),
        }
