"""Span tracing around the public layer boundaries of the ``shapes`` package.

The tracer lives entirely in the benchmark: it replaces each boundary
function with a wrapper that records a span (name, start, end, parent) and
updates counters, and puts the originals back afterwards.  ``from .x import
y`` copies a function into every importing module, so a wrapper is installed
on every binding of the original object (module globals and class
attributes, aliases such as ``__rmul__`` included), not only where it is
defined.

Hot leaf helpers (``orbital_key``, ``monomial_rows``, ``ExactPolynomial.
__add__``) are deliberately not wrapped: a wrapper on a function called
millions of times would dominate what it measures.  Their time lands in the
self time of the wrapped caller.
"""

from __future__ import annotations

import functools
import sys
import time

ROOT_SPAN = "bench"

# span name -> (module, attribute path) of every boundary it covers.
SPANS = {
    "counting": [
        ("shapes.counting", "shape_polynomial"),
        ("shapes.counting", "level_dimension"),
        ("shapes.counting", "total_shape_count"),
        ("shapes.counting", "dimension_series"),
        ("shapes.counting", "euler_series"),
    ],
    "polycore.mul": [("shapes.polycore", "ExactPolynomial.__mul__")],
    "polycore.expand": [("shapes.polycore", "SlaterState.expand")],
    "polycore.euler": [("shapes.polycore", "EulerMonomial.materialize")],
    "deflation.level_basis": [("shapes.deflation", "LevelBasis.__init__")],
    "deflation.materialize": [("shapes.deflation", "LevelBasis.materialize")],
    "deflation.deflate": [("shapes.deflation", "deflate_sparse")],
    "shapegen": [("shapes.shapegen", "generate_shapes")],
    "shapegen.load_catalog": [("shapes.shapegen", "ShapeCatalog.from_json_obj")],
    "realize.one_particle": [("shapes.realize", "one_particle_density")],
    "realize.two_particle": [("shapes.realize", "two_particle_density_cut")],
    "coulomb.expectation": [("shapes.coulomb", "coulomb_expectation")],
    "cli": [("shapes.cli", "main")],
}


class Tracer:
    """In-memory span log plus counters, filled by the installed wrappers.

    ``spans`` holds ``[name, start, end, parent]`` lists in start order;
    ``parent`` is the index of the enclosing span or None for a root.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = {}
        self.max_level_dim = 0
        self._stack = []
        self._patches = []

    # -- recording ----------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return parent

    def end(self):
        self.spans[self._stack.pop()][2] = self.clock()

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def parent_name(self, parent):
        return None if parent is None else self.spans[parent][0]

    # -- installing wrappers ------------------------------------------------

    def install(self):
        """Wrap every binding of every boundary in SPANS."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "shapes" or name.startswith("shapes."))
        ]
        for span, targets in SPANS.items():
            for module_name, path in targets:
                self._wrap_target(span, sys.modules[module_name], path, modules)

    def uninstall(self):
        """Put every original object back where it was found."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap_target(self, span, module, path, modules):
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            cls = getattr(module, owner_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrapper(span, raw.__func__))
            else:
                wrapped = self._wrapper(span, raw)
            for name, value in list(cls.__dict__.items()):
                if value is raw:
                    self._patches.append((cls, name, raw))
                    setattr(cls, name, wrapped)
            return
        raw = getattr(module, attr)
        wrapped = self._wrapper(span, raw)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is raw:
                    self._patches.append((mod, name, raw))
                    setattr(mod, name, wrapped)

    def _wrapper(self, span, func):
        on_return = _ON_RETURN.get(span)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = tracer.begin(span)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end()
            if on_return is not None:
                on_return(tracer, parent, args, result)
            return result

        return traced


def _mul_done(tracer, parent, args, result):
    tracer.count("polycore.mul.terms_out", len(result.terms))


def _deflate_done(tracer, parent, args, result):
    tracer.count("deflation.deflate.terms_in", len(args[0].terms))
    tracer.count("deflation.deflate.nnz_out", len(result))
    if tracer.parent_name(parent) == "shapegen":
        tracer.count("shapegen.trivial_vectors")


def _level_basis_done(tracer, parent, args, result):
    tracer.max_level_dim = max(tracer.max_level_dim, len(args[0]))


def _generate_done(tracer, parent, args, catalog):
    # Rank of the trivial span at a grade is the level dimension minus the
    # new shapes there; the ground grade has no trivial products.
    ground = catalog.shape_poly.lowest_degree()
    for grade in range(ground + 1, catalog.max_grade + 1):
        rank = len(catalog.level_basis(grade)) - len(catalog.shapes_at(grade))
        tracer.count("shapegen.rank", rank)


def _density_done(tracer, parent, args, result):
    tracer.count("realize.terms", len(args[0].terms))


_ON_RETURN = {
    "polycore.mul": _mul_done,
    "deflation.deflate": _deflate_done,
    "deflation.level_basis": _level_basis_done,
    "shapegen": _generate_done,
    "realize.one_particle": _density_done,
    "realize.two_particle": _density_done,
}


def covered(intervals, lo, hi):
    """Length of the part of [lo, hi] that the union of intervals covers."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans):
    """Aggregate a span list into {name: {"calls", "s", "self_s"}}.

    Self time is a span's duration minus the part of it that its direct
    children cover.  Inclusive time ("s") counts only spans with no
    enclosing span of the same name, so recursion is not counted twice.
    """
    children = {}
    for _, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - covered(children.get(idx, ()), start, end)
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            row["s"] += end - start
    return out


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass, by benchmark metric name."""
    s = summarize(tracer.spans)
    counts = tracer.counts

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    vectors = counts.get("shapegen.trivial_vectors", 0)
    rank = counts.get("shapegen.rank", 0)
    return {
        "polycore.mul.calls": get("polycore.mul", "calls"),
        "polycore.mul.self_s": get("polycore.mul", "self_s"),
        "polycore.mul.terms_out": counts.get("polycore.mul.terms_out", 0),
        "polycore.expand.calls": get("polycore.expand", "calls"),
        "polycore.expand.s": get("polycore.expand", "s"),
        "polycore.euler.s": get("polycore.euler", "s"),
        "deflation.deflate.calls": get("deflation.deflate", "calls"),
        "deflation.deflate.self_s": get("deflation.deflate", "self_s"),
        "deflation.deflate.terms_in": counts.get("deflation.deflate.terms_in", 0),
        "deflation.deflate.nnz_out": counts.get("deflation.deflate.nnz_out", 0),
        "deflation.level_basis.s": get("deflation.level_basis", "s"),
        "deflation.materialize.s": get("deflation.materialize", "s"),
        "shapegen.self_s": get("shapegen", "self_s"),
        "shapegen.trivial_vectors": vectors,
        "shapegen.rank": rank,
        "shapegen.independent_ratio": rank / vectors if vectors else 0.0,
        "shapegen.max_level_dim": tracer.max_level_dim,
        "shapegen.load_catalog.s": get("shapegen.load_catalog", "s"),
        "realize.one_particle.self_s": get("realize.one_particle", "self_s"),
        "realize.two_particle.self_s": get("realize.two_particle", "self_s"),
        "realize.terms": counts.get("realize.terms", 0),
        "coulomb.expectation.calls": get("coulomb.expectation", "calls"),
        "coulomb.expectation.self_s": get("coulomb.expectation", "self_s"),
        "counting.s": get("counting", "s"),
        "cli.self_s": get("cli", "self_s"),
        "bench.self_s": get(ROOT_SPAN, "self_s"),
        "trace.wall_s": get(ROOT_SPAN, "s"),
        "trace.self_sum_s": sum(row["self_s"] for row in s.values()),
    }
