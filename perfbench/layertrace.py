"""Per-layer tracing from outside the program.

The layers are the ``ccx`` modules.  ``Tracer.install`` replaces each
public function of a module (and a few methods and constructors) with a
wrapper, then rebinds every by-name import of the original across the
``ccx`` package, dict values included (``invariants.METHODS``), so no
call slips past the wrapper.

Each wrapped call adds its duration to its caller's covered time, so a
function's self time is its duration minus the calls it made into other
wrapped functions; a module's self time is the sum over its functions.
A span is recorded when a call crosses into another module (or starts
an item): id, parent span id, item, name, start, end and self time,
where the self time of a span excludes only its child spans.  Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("cli", "diagram", "exactmath", "rootsys", "gcc", "formulas", "polygon",
          "invariants")

# Leaf helpers cheaper than the wrapper itself, called per pair of
# chords when the polygon models build their compatibility matrices;
# their time stays with the caller.
SKIP = {"polygon.crossing", "polygon.is_allowable", "polygon.rotate_diag"}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total, self, max]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.item = -1
        self._stack: list[list] = []  # [covered, module, span id, span acc]
        self._next_id = 1
        self._vertex_sets: set = set()

    # -- wrappers -------------------------------------------------------

    def timed(self, name: str, fn, after=None):
        """Wrap fn so each call is timed under ``name``; ``after(args,
        result)`` runs outside the timed interval to update counts."""
        module = name.split(".")[0]
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None or parent[1] != module:
                sid = self._next_id
                self._next_id += 1
                frame = [0.0, module, sid, [0.0]]
            else:
                frame = [0.0, module, parent[2], parent[3]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if dur > stats[3]:
                    stats[3] = dur
                if parent is not None:
                    parent[0] += dur
                if parent is None or frame[2] != parent[2]:
                    if parent is not None:
                        parent[3][0] += dur
                    spans.append((frame[2], parent[2] if parent else 0, self.item,
                                  name, t0, t1, dur - frame[3][0]))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn, amount=None):
        """Wrap fn to count calls (or ``amount(args, result)``), untimed."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1 if amount is None else amount(args, result)
            return result

        return wrapper

    def item_span(self, index: int, fn, *args):
        """Run fn(*args) as the root span of item ``index``."""
        self.item = index
        self._vertex_sets.clear()
        try:
            return self.timed("bench.item", fn)(*args)
        finally:
            self.counts["diagram.induced_subdiagram.distinct"] += len(self._vertex_sets)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import ccx.cli  # noqa: F401  (loads every layer)
        from ccx import diagram, exactmath, gcc, polygon, rootsys

        replaced: dict[int, object] = {}
        c = self.counts

        def vertex_set(args, result):
            self._vertex_sets.add(result.vertices)

        def complex_size(args, cx):
            c["gcc.vertices"] += cx.num_vertices()
            c["gcc.edges"] += sum(a.bit_count() for a in cx.adj) // 2

        hooks = {
            "diagram.induced_subdiagram": vertex_set,
            "gcc.build_complex": complex_size,
        }
        for layer in LAYERS:
            mod = sys.modules[f"ccx.{layer}"]
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    replaced[id(obj)] = self.timed(name, obj, hooks.get(name))

        D, P, R = diagram.CoxeterDiagram, exactmath.Poly, exactmath.RatFun
        D.__init__ = self.counted("diagram.constructions", D.__init__)
        P.__init__ = self.counted("exactmath.poly_constructions", P.__init__)
        R.__init__ = self.timed("exactmath.RatFun", R.__init__)
        RS = rootsys.RootSystem
        RS.__init__ = self.timed("rootsys.RootSystem", RS.__init__,
                                 lambda args, _: c.update({"rootsys.roots": args[0].size}))
        RS.compatible = self.timed("rootsys.compatible", RS.compatible)
        RS.parabolic_embeddings = self.timed("rootsys.parabolic_embeddings",
                                             RS.parabolic_embeddings)
        CC = gcc.CliqueComplex
        CC.f_vector = self.timed("gcc.f_vector", CC.f_vector,
                                 lambda args, fv: c.update({"gcc.cliques": sum(fv[1:])}))
        for attr in ("positive_facet_count", "audit_pure", "audit_ridge_degree"):
            setattr(CC, attr, self.timed(f"gcc.{attr}", getattr(CC, attr)))
        # the ridge audit lists the (n-1)-cliques; facets() lists n-cliques
        CC.cliques_of_size = self.counted(
            "gcc.ridges", CC.cliques_of_size,
            lambda args, out: len(out) if args[1] == args[0].n - 1 else 0)
        for model in (polygon.TypeAModel, polygon.TypeBModel, polygon.TypeDModel):
            model.__init__ = self.timed(f"polygon.{model.__name__}", model.__init__)
        for model in (polygon.TypeBModel, polygon.TypeDModel):
            model.faces = self.timed(
                "polygon.faces", model.faces,
                lambda args, out: c.update({"polygon.faces_returned": len(out)}))

        # rebind by-name imports, including dict entries such as METHODS
        for modname, mod in list(sys.modules.items()):
            if modname != "ccx" and not modname.startswith("ccx."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in replaced:
                            obj[k] = replaced[id(v)]

    # -- results --------------------------------------------------------

    def _stat(self, name: str, field: int) -> float:
        return self.stats.get(name, [0, 0.0, 0.0, 0.0])[field]

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer figures per traced pass."""
        per = 1.0 / passes
        calls = lambda n: self._stat(n, 0) * per  # noqa: E731
        own = lambda n: self._stat(n, 2) * per  # noqa: E731
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s[2] for n, s in self.stats.items() if n.split(".")[0] == layer
            ) * per
        inv = {"euler": "euler_method", "symmetry": "symmetry_method",
               "reciprocity_simple": "reciprocity_simple_method",
               "reciprocity_general": "reciprocity_general_method",
               "mg": "mg_method", "exponents": "exponents_from_facet_poly"}
        for short, fn in inv.items():
            out[f"invariants.{short}.self_s"] = own(f"invariants.{fn}")
        ind = self._stat("diagram.induced_subdiagram", 0)
        out.update({
            "diagram.constructions": self.counts["diagram.constructions"] * per,
            "diagram.induced_subdiagram.calls": ind * per,
            "diagram.induced_subdiagram.distinct_ratio":
                self.counts["diagram.induced_subdiagram.distinct"] / ind if ind else 0.0,
            "diagram.connected_components.calls": calls("diagram.connected_components"),
            "diagram.classify.calls": calls("diagram.classify"),
            "formulas.f_polys_recursive.calls": calls("formulas.f_polys_recursive"),
            "formulas.f_polys_recursive.self_s": own("formulas.f_polys_recursive"),
            "exactmath.poly_constructions": self.counts["exactmath.poly_constructions"] * per,
            "exactmath.ratfun.calls": calls("exactmath.RatFun"),
            "exactmath.ratfun.self_s": own("exactmath.RatFun"),
            "exactmath.rational_roots.calls": calls("exactmath.rational_roots"),
            "exactmath.rational_roots.self_s": own("exactmath.rational_roots"),
            "exactmath.rational_roots.max_s": self._stat("exactmath.rational_roots", 3),
            "rootsys.root_systems": calls("rootsys.RootSystem"),
            "rootsys.roots": self.counts["rootsys.roots"] * per,
            "gcc.build.self_s": own("gcc.build_complex"),
            "gcc.f_vector.self_s": own("gcc.f_vector"),
            "gcc.positive_facets.self_s": own("gcc.positive_facet_count"),
            "gcc.audit_pure.self_s": own("gcc.audit_pure"),
            "gcc.audit_ridge_degree.self_s": own("gcc.audit_ridge_degree"),
            "gcc.vertices": self.counts["gcc.vertices"] * per,
            "gcc.edges": self.counts["gcc.edges"] * per,
            "gcc.cliques": self.counts["gcc.cliques"] * per,
            "gcc.ridges": self.counts["gcc.ridges"] * per,
            "polygon.models": sum(calls(f"polygon.Type{k}Model") for k in "ABD"),
            "polygon.faces.calls": calls("polygon.faces"),
            "polygon.faces.self_s": own("polygon.faces"),
            "polygon.faces_returned": self.counts["polygon.faces_returned"] * per,
        })
        return out
