"""The acceptance battery: thirteen numbered checks shared by the `verify`
CLI command and the test suite.

Every check recomputes its claims, sharing one root system, Weyl group and
cluster complex per type, and raises VerificationError (through `check`,
which python -O keeps) on the first discrepancy; the runner turns
exceptions into FAIL lines so a broken criterion is reported rather than
hidden.  All detail strings are deterministic (no timing, no
addresses), which is what the final determinism check relies on.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .laurent import LaurentPoly
from .cartan import (
    UnrecognizedDiagram,
    b_matrix,
    cartan_for_type,
    classify,
    dynkin_name,
    validate_finite_type,
)
from .roots import RootSystem, coxeter_data, root_system
from .coxeter import (
    WeylGroup,
    build_group,
    count_elements,
    count_reduced_words,
    hasse_dot,
    stanley_formula,
    weak_order,
)
from .mutation import (
    alternating_chain,
    explore,
    graph_to_dot,
    initial_seed,
    matrix_mutate,
    observe_positivity,
)
from . import polygon
from .polygon import (
    LabeledTriangulation,
    adjacency_matrix,
    adjacency_rows,
    enumerate_triangulations,
    plucker_verify,
    ptolemy_values,
    standard_chart,
)
from .assoc import (
    ClusterComplexData,
    almost_positive,
    build_polytope,
    cluster_complex,
    compatibility,
    fan_checks,
    n_phi,
    narayana,
    polytope_json,
    polytope_off,
    refinement_check,
    tau_orbits,
    tau_order,
    wall_pairing,
)
from .catalan import enumeration_report, report_csv
from . import wiring

QUICK_TYPES = (
    "A1", "A2", "A3", "A4", "A5",
    "B2", "B3", "B4", "C3", "D4", "F4", "G2",
)

GROUP_TABLE = {
    "A1": (1, 2, (1,), 2),
    "A2": (3, 3, (1, 2), 6),
    "A3": (6, 4, (1, 2, 3), 24),
    "A4": (10, 5, (1, 2, 3, 4), 120),
    "A5": (15, 6, (1, 2, 3, 4, 5), 720),
    "B2": (4, 4, (1, 3), 8),
    "B3": (9, 6, (1, 3, 5), 48),
    "B4": (16, 8, (1, 3, 5, 7), 384),
    "C3": (9, 6, (1, 3, 5), 48),
    "D4": (12, 6, (1, 3, 3, 5), 192),
    "F4": (24, 12, (1, 5, 7, 11), 1152),
    "G2": (6, 6, (1, 5), 12),
    "E6": (36, 12, (1, 4, 5, 7, 8, 11), 51840),
}

FACET_TABLE = {
    "A1": 2, "A2": 5, "A3": 14, "A4": 42, "A5": 132,
    "B2": 6, "B3": 20, "B4": 70, "C3": 20, "D4": 50,
    "F4": 105, "G2": 8, "E6": 833, "E7": 4160,
}


class VerificationError(Exception):
    """A criterion found a discrepancy."""


def check(condition: bool, message) -> None:
    """Raise VerificationError(message) unless condition holds.  Unlike
    the assert statement, this survives python -O."""
    if not condition:
        raise VerificationError(message)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:02d} {self.name:<24} {status}  {self.detail}"


@lru_cache(maxsize=None)
def _rs(name: str) -> RootSystem:
    return root_system(name)


@lru_cache(maxsize=None)
def _grp(name: str) -> WeylGroup:
    return build_group(_rs(name))


def _chain_texts(type_name: str) -> tuple[int, list[LaurentPoly]]:
    seeds, variables = alternating_chain(b_matrix(cartan_for_type(type_name)))
    return len(seeds), variables


def criterion_rank2_periodicity() -> str:
    lengths = {}
    for name, expected in (("A2", 5), ("B2", 6), ("G2", 8)):
        count, _ = _chain_texts(name)
        check(count == expected, f"{name} chain closed after {count} seeds")
        lengths[name] = count
    _, variables = _chain_texts("A2")
    texts = [v.fraction_text() for v in variables]
    check(texts == ["x", "y", "(y+1)/x", "(x+y+1)/(xy)", "(x+1)/y"], texts)
    return (
        "periods A2:5 B2:6 G2:8; A2 chain x, y, (y+1)/x, (x+y+1)/(xy), (x+1)/y"
    )


def _abel6_chain() -> list[LaurentPoly]:
    x, y = LaurentPoly.ring(("x", "y"))
    one = LaurentPoly.one(("x", "y"))
    chain = [x, y]
    exponent = 1
    for _ in range(6):
        nxt = (chain[-1] ** exponent + one).exact_div(chain[-2])
        chain.append(nxt)
        exponent = 3 - exponent
    check(chain[6] == x and chain[7] == y, "window recurrence must be 6-periodic")
    return chain[:6]


def criterion_laurent_positivity() -> str:
    total = 0
    for name in ("A2", "B2", "G2"):
        _, variables = _chain_texts(name)
        report = observe_positivity(variables)
        check(report["all_positive"], report)
        total += report["variables"]
    x, y = LaurentPoly.ring(("x", "y"))
    one = LaurentPoly.one(("x", "y"))
    window = _abel6_chain()
    expected = [
        x,
        y,
        (y + one).exact_div(x),
        (x**2 + (y + one) ** 2).exact_div(x**2 * y),
        (x**2 + y + one).exact_div(x * y),
        (x**2 + one).exact_div(y),
    ]
    check(window == expected, [v.fraction_text() for v in window])
    report = observe_positivity(window)
    check(report["all_positive"], report)
    total += report["variables"]
    return f"{total} variables, all Laurent with positive integer coefficients"


def criterion_cartan_table() -> str:
    printed = {
        "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
        "B4": [[2, -2, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
        "C4": [[2, -1, 0, 0], [-2, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
        "D4": [[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]],
        "A1+A1": [[2, 0], [0, 2]],
        "A2": [[2, -1], [-1, 2]],
        "B2": [[2, -2], [-1, 2]],
        "G2": [[2, -3], [-1, 2]],
    }
    for name, rows in printed.items():
        check(validate_finite_type(rows), name)
        check(dynkin_name(classify(rows)) == name, name)
    affine = [[2, -2], [-2, 2]]
    check(not validate_finite_type(affine), "[[2,-2],[-2,2]] passed as finite type")
    try:
        classify(affine)
    except UnrecognizedDiagram:
        pass
    else:
        raise VerificationError("the affine rank-2 matrix must be rejected")
    return f"{len(printed)} matrices classified, [[2,-2],[-2,2]] rejected"


def criterion_group_data(extended: bool = False) -> str:
    names = QUICK_TYPES + (("E6",) if extended else ())
    for name in names:
        rs = _rs(name)
        data = coxeter_data(rs)
        positives, h, exponents, order = GROUP_TABLE[name]
        check(rs.num_positive == positives, name)
        check(data.coxeter_number == h, name)
        check(tuple(data.exponents) == exponents, name)
        check(data.group_order == order, name)
        check(count_elements(rs) == order, name)
    return f"{len(names)} types match on positives, h, exponents, |W|"


def criterion_reduced_words() -> str:
    counts = {}
    for rank in (1, 2, 3, 4):
        count = count_reduced_words(_rs(f"A{rank}"))
        check(count == stanley_formula(rank), (rank, count))
        counts[rank] = count
    check(counts[3] == 16 and counts[4] == 768, counts)
    return "reduced word counts A1..A4: " + " ".join(
        str(counts[r]) for r in (1, 2, 3, 4)
    )


def _pentagon() -> LabeledTriangulation:
    return LabeledTriangulation(5, ((0, 3), (1, 3)), polygon.polygon_sides(5))


def criterion_polygon_oracle() -> str:
    counts = [len(enumerate_triangulations(n)) for n in (1, 2, 3)]
    check(counts == [2, 5, 14], counts)

    commuted = 0
    for n in range(1, 5):
        for tri in enumerate_triangulations(n):
            lt = LabeledTriangulation.default(tri)
            matrix = adjacency_matrix(lt)
            for k in range(1, n + 1):
                # equal to a mutation of a validated matrix, so valid too
                flipped = adjacency_rows(lt.flip(k))
                check(flipped == matrix_mutate(matrix.rows, k - 1), (tri, k))
                commuted += 1

    lt = _pentagon()
    diag_vals, side_vals = standard_chart(lt.underlying())
    values = ptolemy_values(lt.underlying(), diag_vals, side_vals)

    def value_of(edge):
        edge = tuple(sorted(edge))
        return side_vals[edge] if edge in side_vals else values[edge]

    relations = 0
    current = lt
    for step in range(5):
        k = 1 + step % 2
        old = current.diagonals[k - 1]
        new = polygon.flipped_diagonal(current.underlying(), old)
        p, q, r, s = current.underlying().quad_around(old)
        left = value_of(old) * value_of(new)
        right = value_of((p, q)) * value_of((r, s)) + value_of(
            (q, r)
        ) * value_of((p, s))
        check(left == right, (old, new))
        relations += 1
        current = current.flip(k)
    check(current.underlying() == lt.underlying(), "the flip cycle left the pentagon")
    check(current.diagonals == (lt.diagonals[1], lt.diagonals[0]), current.diagonals)
    check(relations == 5, relations)

    for n in range(1, 5):
        for tri in enumerate_triangulations(n):
            ptolemy_values(tri, *standard_chart(tri))

    for n in range(1, 5):
        report = plucker_verify(n)
        check(report["identity_holds"] and report["all_equal_minors"], (n, report))
    return (
        f"counts 2/5/14; {commuted} flip-mutation checks; pentagon cycle closes"
        f" after 5 relations; monodromy-free n<=4; Plucker n<=4"
    )


@lru_cache(maxsize=None)
def _complex(name: str) -> ClusterComplexData:
    return cluster_complex(compatibility(almost_positive(_rs(name))))


def criterion_cluster_complexes(extended: bool = False) -> str:
    names = QUICK_TYPES + (("E6", "E7") if extended else ())
    counts = {}
    for name in names:
        data = _complex(name)
        rs = _rs(name)
        check(len(data.facets) == n_phi(rs) == FACET_TABLE[name], name)
        check(data.h_vector == narayana(rs), name)
        counts[name] = len(data.facets)
    a3 = _complex("A3")
    check((a3.f_vector, a3.h_vector) == ((1, 9, 21, 14), (1, 6, 6, 1)), "A3")
    b3 = _complex("B3")
    check((b3.f_vector, b3.h_vector) == ((1, 12, 30, 20), (1, 9, 9, 1)), "B3")
    return "facets " + " ".join(f"{k}:{counts[k]}" for k in sorted(counts))


def criterion_tau_machinery() -> str:
    orders = {}
    for name in QUICK_TYPES:
        ap = almost_positive(_rs(name))
        for sign in (1, -1):
            for idx in ap.indices:
                check(ap.tau(sign, ap.tau(sign, idx)) == idx, (name, sign, idx))
        for orbit in tau_orbits(ap):
            check(
                any(ap.negative_simple(idx) is not None for idx in orbit),
                f"{name} orbit misses -Pi",
            )
        orders[name] = tau_order(ap)

    rs = _rs("A2")
    ap = almost_positive(rs)

    def step(sign, coords):
        return rs.roots[ap.tau(sign, rs.index[coords])].coords

    chain = [(-1, 0)]
    for sign in (1, -1, 1, -1):
        chain.append(step(sign, chain[-1]))
    check(chain == [(-1, 0), (1, 0), (1, 1), (0, 1), (0, -1)], chain)
    check(step(-1, (-1, 0)) == (-1, 0) and step(1, (0, -1)) == (0, -1), "fixed points")
    return "orders " + " ".join(f"{k}:{orders[k]}" for k in sorted(orders))


def criterion_polytopes(extended: bool = False) -> str:
    def negated_simple_values(poly):
        rs = poly.ap.rs
        return [poly.support(rs.negate(rs.simple_index[i])) for i in range(rs.n)]

    a3 = build_polytope(_complex("A3"))
    values = negated_simple_values(a3)
    check(values == [Fraction(3, 2), Fraction(2), Fraction(3, 2)], values)
    check(len(a3.vertices) == 14, len(a3.vertices))

    c3 = build_polytope(_complex("C3"))
    values = negated_simple_values(c3)
    check(values == [Fraction(5, 2), Fraction(4), Fraction(9, 2)], values)
    check(len(c3.vertices) == 20, len(c3.vertices))

    a2 = build_polytope(_complex("A2"))
    check(len(a2.vertices) == 5, len(a2.vertices))
    polys = [a2, a3, c3]
    detail = "A3 constants 3/2,2 with 14 vertices; C3 constants 5/2,4,9/2 with 20; A2 pentagon"
    if extended:
        e7 = build_polytope(_complex("E7"))
        check(len(e7.vertices) == FACET_TABLE["E7"], len(e7.vertices))
        polys.append(e7)
        detail += f"; E7 with {len(e7.vertices)} vertices"
    for poly in polys:
        check(len(poly.facets) == len(set(poly.vertices)), poly.ap.rs.dynkin)
        for facet in poly.facets:
            check(len(facet) == poly.ap.rs.n, facet)
    return detail + "; all simple"


def criterion_fan_checks() -> str:
    wall_totals = {}
    for name in QUICK_TYPES:
        report = wall_pairing(_complex(name))
        check(report["all_paired"], name)
        wall_totals[name] = report["walls"]
    regions = {}
    for name in ("A2", "A3", "B2", "B3", "G2"):
        report = refinement_check(_complex(name), _grp(name))
        check(report["regions"] == GROUP_TABLE[name][3], name)
        regions[name] = report["regions"]
    return (
        "walls " + " ".join(f"{k}:{wall_totals[k]}" for k in sorted(wall_totals))
        + "; Coxeter fan refines into all chambers for A2 A3 B2 B3 G2"
    )


def criterion_enumerative() -> str:
    spot = {
        "A2": (5, (1, 3, 1)),
        "A3": (14, (1, 6, 6, 1)),
        "B2": (6, (1, 4, 1)),
        "B3": (20, (1, 9, 9, 1)),
        "G2": (8, (1, 6, 1)),
    }
    rows_by_type = {}
    for name in spot:
        rows = enumeration_report(_rs(name))
        mismatches = [row for row in rows if not row["match"]]
        check(not mismatches, mismatches)
        rows_by_type[name] = rows
        total, profile = spot[name]
        totals = {
            row["interpretation"]: row["observed"]
            for row in rows
            if row["k"] == "total"
        }
        for interpretation, observed in totals.items():
            check(observed == total, (name, interpretation, observed))
        antichain_profile = tuple(
            row["observed"]
            for row in rows
            if row["interpretation"] == "antichains" and row["k"] != "total"
        )
        check(antichain_profile == profile, (name, antichain_profile))
    torus = {
        name: next(
            row["observed"]
            for row in rows_by_type[name]
            if row["interpretation"] == "torus_orbits"
        )
        for name in ("A2", "B2")
    }
    check(torus == {"A2": 5, "B2": 6}, torus)
    checked = sum(len(rows) for rows in rows_by_type.values())
    return (
        f"{checked} rows agree; totals A2:5 A3:14 B2:6 B3:20 G2:8;"
        " torus A2/Q4:5 B2/Q5:6"
    )


@lru_cache(maxsize=None)
def _wiring_graph() -> wiring.MoveGraph:
    return wiring.enumerate_classes(3)


@lru_cache(maxsize=None)
def _gl3_report() -> dict:
    """The GL(3) cell report, shared by criteria 12 and 13."""
    return wiring.gl3_cell(graph=_wiring_graph())


def criterion_wiring() -> str:
    graph = _wiring_graph()
    check(len(graph.classes) == 34, len(graph.classes))
    degrees = sorted(graph.degree(i) for i in range(34))
    check(degrees == [3] * 16 + [4] * 18, degrees)
    checked = wiring.verify_move_identities(graph)
    report = _gl3_report()
    check(report["cluster_variable_count"] == 16, "cluster_variable_count")
    check(report["cluster_count"] == 50, "cluster_count")
    check(report["detected_type"] == "D4", "detected_type")
    check(report["wiring_clusters_embedded"] == 34, "wiring_clusters_embedded")
    check(report["jacobian_rank"] == 9, "jacobian_rank")
    first, second = wiring.hidden_polynomials()
    check(report["hidden_variables"] == [first.text(), second.text()], "hidden")
    return (
        f"34 classes (18x4+16x3), {checked} move identities;"
        " GL3: 16 variables, 50 clusters, type D4"
    )


def deterministic_artifacts() -> str:
    """Seeded and exported text whose bytes must not vary between runs."""
    pieces = []
    for name in ("A2", "B2"):
        pieces.append(report_csv(enumeration_report(_rs(name))))
    a3 = build_polytope(_complex("A3"))
    pieces.append(polytope_json(a3))
    pieces.append(polytope_off(a3))
    pieces.append(repr(fan_checks(_complex("A2"), _grp("A2"))))
    seed = initial_seed(b_matrix(cartan_for_type("A2")), ("x", "y"))
    pieces.append(graph_to_dot(explore(seed)))
    pieces.append(hasse_dot(_grp("A2"), weak_order(_grp("A2"))))
    pieces.append(wiring.report_json(_gl3_report()))
    return "\n".join(pieces)


# Length in bytes and zlib.crc32 of deterministic_artifacts().  Each build is
# held to them, so a change between runs is caught whichever process, and
# whichever PYTHONHASHSEED, makes the build.
ARTIFACTS_PIN = (4187, 0x384354C2)


def criterion_determinism() -> str:
    data = deterministic_artifacts().encode()
    pin = (len(data), zlib.crc32(data))
    check(pin == ARTIFACTS_PIN, "artifacts differ from the pinned reference")
    return f"{len(data)} bytes of seeded artifacts reproduced exactly"


def run_battery(extended: bool = False) -> list[CriterionResult]:
    plan = [
        (1, "rank2-periodicity", criterion_rank2_periodicity),
        (2, "laurent-positivity", criterion_laurent_positivity),
        (3, "cartan-table", criterion_cartan_table),
        (4, "group-data", lambda: criterion_group_data(extended)),
        (5, "reduced-words", criterion_reduced_words),
        (6, "polygon-oracle", criterion_polygon_oracle),
        (7, "cluster-complexes", lambda: criterion_cluster_complexes(extended)),
        (8, "tau-machinery", criterion_tau_machinery),
        (9, "polytopes", lambda: criterion_polytopes(extended)),
        (10, "fan-checks", criterion_fan_checks),
        (11, "enumerative", criterion_enumerative),
        (12, "wiring", criterion_wiring),
        (13, "determinism", criterion_determinism),
    ]
    results = []
    for number, name, fn in plan:
        try:
            detail = fn()
            results.append(CriterionResult(number, name, True, detail))
        except Exception as exc:
            results.append(
                CriterionResult(number, name, False, f"{type(exc).__name__}: {exc}")
            )
    return results


def render_report(results: list[CriterionResult], extended: bool = False) -> str:
    suite = "extended" if extended else "quick"
    lines = [f"clusterfan acceptance battery ({suite})"]
    lines.extend(result.line() for result in results)
    passed = sum(result.passed for result in results)
    lines.append(f"{passed}/{len(results)} criteria passed")
    return "\n".join(lines)
