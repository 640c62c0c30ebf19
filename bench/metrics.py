"""Metric names, units and the layer-to-metric map.

END_TO_END metrics come from untraced passes and are gated by `bound`,
the share of the parent's median by which each may worsen.  PER_LAYER
metrics come from traced passes: each names the key of `spans.summarize`
it reads and the end-to-end metric and workloads it should move.
"""

from __future__ import annotations

# name, unit, bound
END_TO_END = (
    ("setup_s", "s", 0.25),
    ("wall_ref", "slices", 0.25),
    ("slowest_task_ref", "slices", 0.25),
    ("peak_rss_mb", "MB", 0.15),
)

_LAURENT = "wall_s on exchange and battery; no change on polytope and weyl"
_MUTATION = "wall_s and slowest_task_s on exchange"
_COXETER = "wall_s and peak_rss_mb on weyl, and on polytope through E6's w0"
_ASSOC = "wall_s on polytope (and battery for the fan checks)"
_CATALAN = "wall_s on weyl"
_BATTERY = "wall_s on battery"
_CONTROL = "control: small on every workload"
_TRACE = "tracing itself: pass time, time outside every span, overhead in seconds and in slices"

# Counts of results rather than of work: more is not worse.
OUTCOMES = {
    "mutation.seeds", "mutation.variables", "assoc.facets", "assoc.vertices",
    "catalan.rows", "verify.criteria_passed",
}

# name, unit, summary key (None: derived below), what it should move
PER_LAYER = (
    ("laurent.exact_div.calls", "count", "laurent.exact_div.calls", _LAURENT),
    ("laurent.exact_div.self_s", "s", "laurent.exact_div.self_s", _LAURENT),
    ("laurent.mul.calls", "count", "laurent.mul.calls", _LAURENT),
    ("laurent.mul.self_s", "s", "laurent.mul.self_s", _LAURENT),
    ("laurent.terms_out", "count", None, _LAURENT),
    ("laurent.self_s", "s", "laurent.self_s", _LAURENT),
    ("mutation.explore.self_s", "s", "mutation.explore.self_s", _MUTATION),
    ("mutation.seed_mutate.calls", "count", "mutation.seed_mutate.calls", _MUTATION),
    ("mutation.canonical_key.self_s", "s", "mutation.canonical_key.self_s", _MUTATION),
    ("mutation.detect_finite_type.self_s", "s", "mutation.detect_finite_type.self_s", _MUTATION),
    ("mutation.seeds", "count", "mutation.explore.seeds", _MUTATION),
    ("mutation.variables", "count", "mutation.explore.variables", _MUTATION),
    ("mutation.exact_div_per_variable", "ratio", None, _MUTATION),
    ("mutation.self_s", "s", "mutation.self_s", _MUTATION),
    ("coxeter.build_group.calls", "count", "coxeter.build_group.calls", _COXETER),
    ("coxeter.build_group.self_s", "s", "coxeter.build_group.self_s", _COXETER),
    ("coxeter.group_elements", "count", "coxeter.build_group.elements", _COXETER),
    ("coxeter.weak_order.self_s", "s", "coxeter.weak_order.self_s", _COXETER),
    ("coxeter.weak_order.pairs", "count", "coxeter.weak_order.pairs", _COXETER),
    ("coxeter.count_reduced_words.self_s", "s", "coxeter.count_reduced_words.self_s", _COXETER),
    ("coxeter.absolute_interval.self_s", "s", "coxeter.absolute_interval.self_s", _COXETER),
    ("coxeter.self_s", "s", "coxeter.self_s", _COXETER),
    ("assoc.compatibility.self_s", "s", "assoc.compatibility.self_s", _ASSOC),
    ("assoc.cluster_complex.self_s", "s", "assoc.cluster_complex.self_s", _ASSOC),
    ("assoc.support_function.self_s", "s", "assoc.support_function.self_s", _ASSOC),
    ("assoc.build_polytope.self_s", "s", "assoc.build_polytope.self_s", _ASSOC),
    ("assoc.fan_checks.self_s", "s", "assoc.fan_checks.self_s", _ASSOC),
    ("assoc.export.self_s", "s", "assoc.export.self_s", _ASSOC),
    ("assoc.facets", "count", "assoc.cluster_complex.facets", _ASSOC),
    ("assoc.vertices", "count", "assoc.build_polytope.vertices", _ASSOC),
    ("assoc.self_s", "s", "assoc.self_s", _ASSOC),
    ("linalg.solve_linear.calls", "count", "linalg.solve_linear.calls", _ASSOC),
    ("linalg.self_s", "s", "linalg.self_s", _ASSOC),
    ("catalan.enumeration_report.self_s", "s", "catalan.enumeration_report.self_s", _CATALAN),
    ("catalan.rows", "count", "catalan.enumeration_report.rows", _CATALAN),
    ("catalan.self_s", "s", "catalan.self_s", _CATALAN),
    ("polygon.ptolemy_values.calls", "count", "polygon.ptolemy_values.calls", _BATTERY),
    ("polygon.ptolemy_values.self_s", "s", "polygon.ptolemy_values.self_s", _BATTERY),
    ("polygon.self_s", "s", "polygon.self_s", _BATTERY),
    ("wiring.self_s", "s", "wiring.self_s", _BATTERY),
    ("verify.run_battery.self_s", "s", "verify.run_battery.self_s", _BATTERY),
    ("verify.criteria_passed", "count", "verify.run_battery.passed", _BATTERY),
    ("verify.self_s", "s", "verify.self_s", _BATTERY),
    ("roots.self_s", "s", "roots.self_s", _CONTROL),
    ("cartan.self_s", "s", "cartan.self_s", _CONTROL),
    ("cli.main.self_s", "s", "cli.main.self_s", _CONTROL),
    ("trace.pass_s", "s", "trace.pass_s", _TRACE),
    ("trace.unspanned_s", "s", "trace.unspanned_s", _TRACE),
    ("trace.overhead_s", "s", None, _TRACE),
    ("trace.overhead_ref", "slices", None, _TRACE),
)


def per_layer_values(summary: dict[str, float]) -> dict[str, float]:
    """Every PER_LAYER metric except the tracing overheads, for one traced pass."""
    values = {name: summary.get(key, 0.0) for name, _, key, _ in PER_LAYER if key}
    values["laurent.terms_out"] = summary.get("laurent.mul.terms", 0) + summary.get("laurent.exact_div.terms", 0)
    found = summary.get("mutation.explore.variables", 0)
    values["mutation.exact_div_per_variable"] = (
        summary.get("mutation.explore.exact_div_calls", 0) / found if found else 0.0
    )
    return values


def better(name: str) -> str:
    return "higher" if name in OUTCOMES else "lower"
