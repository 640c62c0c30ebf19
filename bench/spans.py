"""Spans recorded from outside the program.

`install` replaces layer entry points with wrappers that record one span
per call: name, start, end, the enclosing span and a few counters read
from the result.  The wrapper is rebound everywhere the original function
object is bound (the defining module, every `from ... import` of it in
other clusterfan modules, and aliases such as `__rmul__`), so calls made
inside the library are traced too.  Spans stay in memory until the pass
ends; `summarize` turns them into per-layer metrics, where a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


def _terms(result, args):
    return {"terms": len(result)} if hasattr(result, "_terms") else {}


def _graph(result, args):
    return {"seeds": len(result.seeds), "variables": len(result.variables)}


# span name -> (module, attribute path, counters read from the result)
ENTRY_POINTS = {
    "cli.main": ("cli", "main", None),
    "verify.run_battery": ("verify", "run_battery", lambda r, a: {"passed": sum(x.passed for x in r)}),
    "verify.render_report": ("verify", "render_report", None),
    "laurent.mul": ("laurent", "LaurentPoly.__mul__", _terms),
    "laurent.exact_div": ("laurent", "LaurentPoly.exact_div", _terms),
    "linalg.solve_linear": ("linalg", "solve_linear", None),
    "linalg.det": ("linalg", "det", None),
    "linalg.matrix_rank": ("linalg", "matrix_rank", None),
    "linalg.leading_principal_minors": ("linalg", "leading_principal_minors", None),
    "cartan.cartan_for_type": ("cartan", "cartan_for_type", None),
    "cartan.b_matrix": ("cartan", "b_matrix", None),
    "cartan.classify": ("cartan", "classify", None),
    "cartan.validate_finite_type": ("cartan", "validate_finite_type", None),
    "cartan.parse_cartan_text": ("cartan", "parse_cartan_text", None),
    "roots.root_system": ("roots", "root_system", None),
    "roots.coxeter_data": ("roots", "coxeter_data", None),
    "roots.to_json_dict": ("roots", "to_json_dict", None),
    "coxeter.build_group": ("coxeter", "build_group", lambda r, a: {"elements": len(r.elements)}),
    "coxeter.count_reduced_words": ("coxeter", "count_reduced_words", None),
    "coxeter.weak_order": ("coxeter", "weak_order", lambda r, a: {"pairs": r.checked_pairs}),
    "coxeter.hasse_dot": ("coxeter", "hasse_dot", None),
    "coxeter.absolute_interval": ("coxeter", "absolute_interval", None),
    "coxeter.coxeter_element": ("coxeter", "coxeter_element", None),
    "mutation.explore": ("mutation", "explore", _graph),
    "mutation.seed_mutate": ("mutation", "seed_mutate", None),
    "mutation.canonical_key": ("mutation", "canonical_key", None),
    "mutation.detect_finite_type": ("mutation", "detect_finite_type", None),
    "mutation.initial_seed": ("mutation", "initial_seed", None),
    "mutation.alternating_chain": ("mutation", "alternating_chain", None),
    "mutation.observe_positivity": ("mutation", "observe_positivity", None),
    "mutation.graph_to_dot": ("mutation", "graph_to_dot", None),
    "mutation.graph_to_dict": ("mutation", "graph_to_dict", None),
    "assoc.almost_positive": ("assoc", "almost_positive", None),
    "assoc.compatibility": ("assoc", "compatibility", None),
    "assoc.cluster_complex": ("assoc", "cluster_complex", lambda r, a: {"facets": len(r.facets)}),
    "assoc.support_function": ("assoc", "support_function", None),
    "assoc.build_polytope": ("assoc", "build_polytope", lambda r, a: {"vertices": len(r.vertices)}),
    "assoc.fan_checks": ("assoc", "fan_checks", None),
    "assoc.wall_pairing": ("assoc", "wall_pairing", None),
    "assoc.refinement_check": ("assoc", "refinement_check", None),
    "assoc.tau_orbits": ("assoc", "tau_orbits", None),
    "assoc.tau_order": ("assoc", "tau_order", None),
    "assoc.n_phi": ("assoc", "n_phi", None),
    "assoc.narayana": ("assoc", "narayana", None),
    "assoc.polytope_json": ("assoc", "polytope_json", None),
    "assoc.polytope_off": ("assoc", "polytope_off", None),
    "catalan.enumeration_report": ("catalan", "enumeration_report", lambda r, a: {"rows": len(r)}),
    "catalan.report_csv": ("catalan", "report_csv", None),
    "polygon.ptolemy_values": ("polygon", "ptolemy_values", None),
    "polygon.standard_chart": ("polygon", "standard_chart", None),
    "polygon.enumerate_triangulations": ("polygon", "enumerate_triangulations", None),
    "polygon.adjacency_matrix": ("polygon", "adjacency_matrix", None),
    "polygon.plucker_verify": ("polygon", "plucker_verify", None),
    "wiring.enumerate_classes": ("wiring", "enumerate_classes", None),
    "wiring.verify_move_identities": ("wiring", "verify_move_identities", None),
    "wiring.gl3_cell": ("wiring", "gl3_cell", None),
    "wiring.hidden_polynomials": ("wiring", "hidden_polynomials", None),
    "wiring.report_json": ("wiring", "report_json", None),
}

# Spans that are grouped under one metric name.
GROUPS = {
    "assoc.fan_checks": ("assoc.fan_checks", "assoc.wall_pairing", "assoc.refinement_check"),
    "assoc.export": ("assoc.polytope_json", "assoc.polytope_off"),
}

LAYERS = (
    "cli", "verify", "laurent", "linalg", "cartan", "roots", "coxeter",
    "mutation", "assoc", "catalan", "polygon", "wiring",
)


class Tracer:
    """Collects spans as lists [name, start, end, parent index, counters]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name, fn, counters=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, None]
            if counters is not None:
                spans[index][4] = counters(result, args)
            return result

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items() if key.startswith("clusterfan")]
        for name, (module_name, path, counters) in ENTRY_POINTS.items():
            owner = importlib.import_module(f"clusterfan.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original, counters)
            for namespace in [owner, *modules]:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapped)

    def write(self, path: str, meta: dict):
        with open(path, "w") as handle:
            handle.write(json.dumps(meta) + "\n")
            for index, (name, start, end, parent, counters) in enumerate(self.spans):
                record = {"id": index, "name": name, "start": start, "end": end, "parent": parent}
                if counters:
                    record["counters"] = counters
                handle.write(json.dumps(record) + "\n")


def read(path: str) -> tuple[dict, list[dict]]:
    with open(path) as handle:
        meta = json.loads(handle.readline())
        return meta, [json.loads(line) for line in handle]


def summarize(spans: list[dict], pass_s: float) -> dict[str, float]:
    """Per-layer totals and per-entry-point figures for one traced pass.

    Returns `<span>.calls`, `<span>.self_s`, `<layer>.self_s`, counter sums
    `<span>.<counter>`, `trace.pass_s` and `trace.unspanned_s`; by
    construction the layer self times plus the unspanned time add up to
    the pass time.
    """
    children = defaultdict(float)
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]] += span["end"] - span["start"]
    out: dict[str, float] = defaultdict(float)
    top = 0.0
    under_explore = {}
    for span in spans:
        name, duration = span["name"], span["end"] - span["start"]
        own = duration - children[span["id"]]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own
        out[f"{name.split('.')[0]}.self_s"] += own
        for key, value in span.get("counters", {}).items():
            out[f"{name}.{key}"] += value
        parent = span["parent"]
        if parent < 0:
            top += duration
        under_explore[span["id"]] = parent >= 0 and (
            spans[parent]["name"] == "mutation.explore" or under_explore[parent]
        )
        if name == "laurent.exact_div" and under_explore[span["id"]]:
            out["mutation.explore.exact_div_calls"] += 1
    for group, members in GROUPS.items():
        out[f"{group}.self_s"] = sum(out.get(f"{m}.self_s", 0.0) for m in members)
    out["trace.pass_s"] = pass_s
    out["trace.unspanned_s"] = pass_s - top
    return dict(out)
