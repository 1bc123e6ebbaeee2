"""Spans around the program's public functions, recorded from outside it.

`Tracer.install` wraps every public module-level function of the traced
modules, plus the hot methods named in `TRACED_METHODS`, and rebinds each
wrapper wherever the package holds the original: module globals (which
covers every `from ... import`) and class attributes (which covers aliases
such as `__radd__ = __add__`).  The per-term exponent helpers (`mono_*`,
`ym_*`) stay unwrapped: they only do tuple arithmetic, and wrapping them
would multiply the span count for no layer information.

A span is (name, start, end, parent), kept in flat arrays until the run
ends.  Self time is a span's duration minus the durations of its direct
children; spans nest strictly because the benchmark runs on one thread.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array
from typing import Dict, List, Tuple

TRACED_MODULES = ("determinant", "matrices", "lp", "sparse", "sympoly",
                  "diffsys", "monomials", "certificate", "oracle", "cli")
TRACED_METHODS = (
    ("sympoly", "SymPoly", ("evaluate", "__add__", "__mul__", "substitute",
                            "derivative", "exact_div")),
    ("matrices", "PolyMatrix", ("specialize", "to_json")),
    ("diffsys", "DiffPoly", ("evaluate_point",)),
)
PER_TERM_PREFIXES = ("mono_", "ym_")

# metric name -> span name, for the self-time and call-count metrics
SELF_MS = {
    "determinant.det_rational.self_ms": "determinant.det_rational",
    "matrices.specialize.self_ms": "matrices.PolyMatrix.specialize",
    "sympoly.SymPoly.evaluate.self_ms": "sympoly.SymPoly.evaluate",
    "determinant.random_specialization.self_ms": "determinant.random_specialization",
    "determinant.common_zero_specialization.self_ms":
        "determinant.common_zero_specialization",
    "diffsys.DiffPoly.evaluate_point.self_ms": "diffsys.DiffPoly.evaluate_point",
    "lp.simplex.self_ms": "lp.simplex",
    "lp.verify_basis.self_ms": "lp.verify_basis",
    "sparse.lattice_points.self_ms": "sparse.lattice_points",
    "sparse.grc_partition.self_ms": "sparse.grc_partition",
    "sympoly.SymPoly.substitute.self_ms": "sympoly.SymPoly.substitute",
    "sympoly.SymPoly.derivative.self_ms": "sympoly.SymPoly.derivative",
    "diffsys.delta.self_ms": "diffsys.delta",
    "sympoly.SymPoly.exact_div.self_ms": "sympoly.SymPoly.exact_div",
    "determinant.det_symbolic.self_ms": "determinant.det_symbolic",
    "monomials.column_set.self_ms": "monomials.column_set",
    "monomials.closed_form_sets.self_ms": "monomials.closed_form_sets",
    "matrices.build_square_matrix.self_ms": "matrices.build_square_matrix",
    "matrices.to_json.self_ms": "matrices.PolyMatrix.to_json",
    "certificate.transform_12.self_ms": "certificate.transform_12",
    "certificate.eliminate.self_ms": "certificate.eliminate",
    "oracle.sylvester_resultant.self_ms": "oracle.sylvester_resultant",
}
CALLS = {
    "determinant.det_rational.calls": "determinant.det_rational",
    "sympoly.SymPoly.evaluate.calls": "sympoly.SymPoly.evaluate",
    "lp.simplex.calls": "lp.simplex",
    "lp.feasible.calls": "lp.feasible",
    "lp.verify_basis.calls": "lp.verify_basis",
    "lp.solve_square.calls": "lp.solve_square",
    "sympoly.SymPoly.__add__.calls": "sympoly.SymPoly.__add__",
    "sympoly.SymPoly.__mul__.calls": "sympoly.SymPoly.__mul__",
}


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        span_name, start, end = self.span_name, self.start, self.end
        parent, stack = self.parent, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_id)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self, package: str) -> None:
        """Wrap the traced functions of `package` wherever it holds them."""
        originals = []
        for short in TRACED_MODULES:
            module = sys.modules[f"{package}.{short}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")
                        and not attr.startswith(PER_TERM_PREFIXES)):
                    originals.append((obj, f"{short}.{attr}"))
        for short, cls_name, methods in TRACED_METHODS:
            cls = getattr(sys.modules[f"{package}.{short}"], cls_name)
            for method in methods:
                originals.append((vars(cls)[method], f"{short}.{cls_name}.{method}"))
        wrappers = {id(fn): (fn, self.wrap(name, fn)) for fn, name in originals}

        def rebind(namespace_owner) -> None:
            for attr, obj in list(vars(namespace_owner).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(namespace_owner, attr, hit[1])

        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            rebind(module)
            for obj in list(vars(module).values()):
                if inspect.isclass(obj) and obj.__module__.startswith(package):
                    rebind(obj)

    # -- analysis ------------------------------------------------------------

    def summary(self) -> Tuple[Dict[str, List[int]], Dict[Tuple[str, str], int]]:
        """Per name [calls, self_ns]; and span counts per (name, parent name)."""
        child_ns = [0] * len(self.span_name)
        for p, s, e in zip(self.parent, self.start, self.end):
            if p >= 0:
                child_ns[p] += e - s
        per_name = [[0, 0] for _ in self.names]
        edges: Dict[Tuple[int, int], int] = {}
        for i, (nid, p, s, e) in enumerate(zip(self.span_name, self.parent,
                                              self.start, self.end)):
            row = per_name[nid]
            row[0] += 1
            row[1] += e - s - child_ns[i]
            key = (nid, self.span_name[p] if p >= 0 else -1)
            edges[key] = edges.get(key, 0) + 1
        stats = {self.names[k]: v for k, v in enumerate(per_name)}
        by_parent = {(self.names[a], self.names[b] if b >= 0 else ""): c
                     for (a, b), c in edges.items()}
        return stats, by_parent

    def layer_metrics(self, overhead_s: float) -> Dict[str, Tuple[float, str]]:
        stats, by_parent = self.summary()

        def calls(name: str) -> int:
            return stats.get(name, [0, 0])[0]

        def self_ms(name: str) -> float:
            return stats.get(name, [0, 0])[1] / 1e6

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        out: Dict[str, Tuple[float, str]] = {}
        for metric, span in SELF_MS.items():
            out[metric] = (self_ms(span), "ms")
        for metric, span in CALLS.items():
            out[metric] = (calls(span), "count")
        points = by_parent.get(("sparse.build_lp", "sparse.grc_partition"), 0)
        searched = by_parent.get(("sparse.simplex_solve", "sparse.grc_partition"), 0)
        scans = by_parent.get(("sparse.verify_basis", "sparse.grc_partition"), 0)
        feasibility = by_parent.get(("lp.feasible", "sparse.lattice_points"), 0)
        out["sparse.lattice_points.kept_ratio"] = (ratio(points, feasibility), "ratio")
        out["sparse.catalog_hit_ratio"] = (ratio(points - searched, points), "ratio")
        out["sparse.catalog_scans_per_point"] = (ratio(scans, points), "ratio")
        out["cli.self_ms"] = (sum(v[1] for k, v in stats.items()
                                  if k.startswith("cli.")) / 1e6, "ms")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out

    def write(self, path_stem: str) -> None:
        """Spans as four native-endian arrays plus a JSON header."""
        os.makedirs(os.path.dirname(path_stem), exist_ok=True)
        with open(path_stem + ".bin", "wb") as fh:
            for column in (self.span_name, self.start, self.end, self.parent):
                column.tofile(fh)
        header = {"names": self.names, "spans": len(self.span_name),
                  "layout": ["name_id int32", "start_ns int64", "end_ns int64",
                             "parent int32 (-1 for a root span)"],
                  "byteorder": sys.byteorder}
        with open(path_stem + ".json", "w") as fh:
            json.dump(header, fh, indent=1)
