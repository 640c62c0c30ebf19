"""Double wiring diagrams: chamber minors, local moves, the three-term
determinant identity, and the totally positive cell report."""

import subprocess
import sys

import networkx as nx
import pytest

from clusterfan.cartan import dynkin_name
from clusterfan.laurent import LaurentPoly
from clusterfan.wiring import (
    FOUR_MOVE_WORD,
    THREE_MOVE_WORD,
    DoubleWiringDiagram,
    NoMoveAvailable,
    all_words,
    chamber_collection,
    chamber_minors,
    chamber_name,
    chambers,
    check_move_identity,
    diagram,
    enumerate_classes,
    gl3_cell,
    hidden_polynomials,
    jacobian_rank,
    label_text,
    local_move,
    minor_poly,
    parse_word,
    report_json,
    verify_move_identities,
    word_moves,
    word_text,
)


def test_parse_word_roundtrip():
    word = parse_word("T2 t1 t2 T1 T2 t1")
    assert word == FOUR_MOVE_WORD
    assert word_text(word) == "T2 t1 t2 T1 T2 t1"


def test_word_validation():
    with pytest.raises(ValueError):
        DoubleWiringDiagram(3, parse_word("T1 T2 T1 t1 t2 t2"))  # thin not reduced
    with pytest.raises(ValueError):
        DoubleWiringDiagram(3, parse_word("T1 T2 t1 t2 t1"))  # thick too short


def test_four_move_chamber_rows():
    d = diagram(FOUR_MOVE_WORD)
    by_level = {1: [], 2: [], 3: []}
    for c in chambers(d):
        by_level[c.level].append((c.start, c.label))
    bottom = [label for _, label in sorted(by_level[1])]
    middle = [label for _, label in sorted(by_level[2])]
    top = [label for _, label in sorted(by_level[3])]
    assert bottom == [((3,), (1,)), ((3,), (2,)), ((1,), (2,)), ((1,), (3,))]
    assert middle == [
        ((2, 3), (1, 2)),
        ((1, 3), (1, 2)),
        ((1, 3), (2, 3)),
        ((1, 2), (2, 3)),
    ]
    assert top == [((1, 2, 3), (1, 2, 3))]


def test_three_move_chamber_rows():
    d = diagram(THREE_MOVE_WORD)
    by_level = {1: [], 2: [], 3: []}
    for c in chambers(d):
        by_level[c.level].append((c.start, c.label))
    bottom = [label for _, label in sorted(by_level[1])]
    middle = [label for _, label in sorted(by_level[2])]
    assert bottom == [
        ((3,), (1,)),
        ((2,), (1,)),
        ((1,), (1,)),
        ((1,), (2,)),
        ((1,), (3,)),
    ]
    assert middle == [((2, 3), (1, 2)), ((1, 2), (1, 2)), ((1, 2), (2, 3))]


def test_unbounded_chambers_shared_by_every_diagram():
    expected = {
        ((3,), (1,)),
        ((1,), (3,)),
        ((2, 3), (1, 2)),
        ((1, 2), (2, 3)),
        ((1, 2, 3), (1, 2, 3)),
    }
    for word in (FOUR_MOVE_WORD, THREE_MOVE_WORD):
        unbounded = {c.label for c in chambers(diagram(word)) if not c.bounded}
        assert unbounded == expected


def test_isotopic_words_share_chambers():
    variant = parse_word("t1 T2 t2 T1 t1 T2")
    assert chamber_collection(diagram(variant)) == chamber_collection(
        diagram(FOUR_MOVE_WORD)
    )


def test_minor_poly_values():
    det2 = minor_poly((1, 2), (1, 2), 2)
    ambient = det2.variables
    x = {
        (i, j): LaurentPoly.variable(ambient, f"x{i}{j}")
        for i in (1, 2)
        for j in (1, 2)
    }
    assert det2 == x[(1, 1)] * x[(2, 2)] - x[(1, 2)] * x[(2, 1)]
    assert minor_poly((), (), 2) == LaurentPoly.one(ambient)


def test_chamber_minors_rows_are_thick_labels():
    minors = chamber_minors(diagram(FOUR_MOVE_WORD))
    ambient = next(iter(minors.values())).variables
    x31 = LaurentPoly.variable(ambient, "x31")
    assert minors[((3,), (1,))] == x31
    det3 = minor_poly((1, 2, 3), (1, 2, 3), 3)
    assert minors[((1, 2, 3), (1, 2, 3))] == det3


def test_direct_moves_of_the_figures():
    # the four-move word exposes its moves only after isotopy slides,
    # the three-move word has all three directly available
    assert word_moves(FOUR_MOVE_WORD) == []
    moves = word_moves(THREE_MOVE_WORD)
    assert sorted((m.kind, m.position) for m in moves) == [
        ("braid", 0),
        ("braid", 3),
        ("swap", 2),
    ]


def test_move_identities_on_direct_moves():
    d = diagram(THREE_MOVE_WORD)
    for move in word_moves(THREE_MOVE_WORD):
        record = check_move_identity(d, move)
        assert record["holds"], move


def test_enumerate_classes_n3():
    graph = enumerate_classes(3)
    assert len(graph.classes) == 34
    degrees = sorted(graph.degree(i) for i in range(34))
    assert degrees.count(3) == 16
    assert degrees.count(4) == 18
    g = nx.Graph(graph.edges)
    assert nx.is_connected(g)
    assert g.number_of_nodes() == 34


def test_class_lookup_and_identities():
    graph = enumerate_classes(3)
    four = graph.class_of(FOUR_MOVE_WORD)
    three = graph.class_of(THREE_MOVE_WORD)
    assert graph.degree(four) == 4
    assert graph.degree(three) == 3
    assert verify_move_identities(graph) > 0


def test_enumerate_classes_n2_lewis_carroll():
    graph = enumerate_classes(2)
    assert len(graph.classes) == 2
    assert len(graph.edges) == 1
    # the single swap move is the 2x2 determinant identity
    word = graph.classes[0].words[0]
    d = DoubleWiringDiagram(2, word)
    (move,) = word_moves(word)
    record = check_move_identity(d, move)
    assert record["holds"]
    assert {record["Y"], record["Z"]} == {((1,), (1,)), ((2,), (2,))}
    assert {record["A"], record["C"]} == {((1,), (2,)), ((2,), (1,))}
    assert record["B"] == ((1, 2), (1, 2))
    assert record["D"] is None


def test_all_words_count_n2():
    # shuffles of one thick and one thin letter
    assert len(all_words(2)) == 2
    # 6 letters, 3 thick positions, 2 reduced words per family
    assert len(all_words(3)) == 20 * 2 * 2


def test_local_move_flips_each_bounded_chamber():
    d = diagram(FOUR_MOVE_WORD)
    bounded = [c.label for c in chambers(d) if c.bounded]
    assert len(bounded) == 4
    for label in bounded:
        record = local_move(d, label)
        assert record["Y"] == label
        assert record["holds"]


def test_local_move_unavailable_for_locked_chamber():
    d = diagram(THREE_MOVE_WORD)
    with pytest.raises(NoMoveAvailable):
        local_move(d, ((1, 2), (1, 2)))


def test_local_move_is_reversible():
    d = diagram(FOUR_MOVE_WORD)
    record = local_move(d, ((1,), (2,)))
    back = local_move(record["diagram"], record["Z"])
    assert back["Z"] == record["Y"]
    assert chamber_collection(back["diagram"]) == chamber_collection(d)


def test_chamber_name():
    assert chamber_name(((3,), (1,))) == "m3_1"
    assert chamber_name(((1, 2), (2, 3))) == "m12_23"


def test_jacobian_rank_full():
    assert jacobian_rank(diagram(FOUR_MOVE_WORD)) == 9
    assert jacobian_rank(diagram(THREE_MOVE_WORD)) == 9


def test_hidden_polynomials_exact():
    h1, h2 = hidden_polynomials()
    ambient = h1.variables
    x = {
        (i, j): LaurentPoly.variable(ambient, f"x{i}{j}")
        for i in (1, 2, 3)
        for j in (1, 2, 3)
    }
    assert h1 == (
        x[(1, 2)] * x[(2, 1)] * x[(3, 3)]
        - x[(1, 2)] * x[(2, 3)] * x[(3, 1)]
        - x[(1, 3)] * x[(2, 1)] * x[(3, 2)]
        + x[(1, 3)] * x[(2, 2)] * x[(3, 1)]
    )
    assert h2 == (
        x[(1, 1)] * x[(2, 3)] * x[(3, 2)]
        - x[(1, 2)] * x[(2, 3)] * x[(3, 1)]
        - x[(1, 3)] * x[(2, 1)] * x[(3, 2)]
        + x[(1, 3)] * x[(2, 2)] * x[(3, 1)]
    )


def test_gl3_cell_report():
    report = gl3_cell()
    assert report["n"] == 3
    assert report["isotopy_classes"] == 34
    assert report["cluster_variable_count"] == 16
    assert report["cluster_count"] == 50
    assert report["detected_type"] == "D4"
    assert report["wiring_clusters_embedded"] == 34
    assert report["jacobian_rank"] == 9
    assert len(report["minor_variables"]) == 14
    assert len(report["hidden_variables"]) == 2
    assert len(report["frozen_minors"]) == 5
    assert set(report["frozen_minors"]) == {
        label_text(lbl)
        for lbl in (
            ((3,), (1,)),
            ((1,), (3,)),
            ((2, 3), (1, 2)),
            ((1, 2), (2, 3)),
            ((1, 2, 3), (1, 2, 3)),
        )
    }


def test_gl3_cell_substitutes_each_cluster_variable_once(monkeypatch):
    # 50 seeds of 4 cluster variables each hold only 16 distinct variables
    original = LaurentPoly.substitute_laurent
    images = []

    def substitute_laurent(self, values):
        images.append(self)
        return original(self, values)

    monkeypatch.setattr(LaurentPoly, "substitute_laurent", substitute_laurent)
    report = gl3_cell()
    assert report["cluster_count"] == 50
    assert report["cluster_variable_count"] == 16
    assert len(images) == len(set(images)) == 16


def test_gl3_report_json_stable():
    report = gl3_cell()
    text = report_json(report)
    assert text == report_json(gl3_cell())
    assert '"detected_type": "D4"' in text


WIRING_CHECKS = """
import sys
from clusterfan import wiring
print("optimize", sys.flags.optimize)
chambers, explore = wiring.chambers, wiring.explore
def duplicated(d):
    # one chamber listed twice in place of another leaves 8 distinct labels
    return chambers(d)[:-1] + chambers(d)[:1]
def doubled(seed, budget):
    # the exchange graph comes back with its first seed repeated
    record = explore(seed, budget)
    record.seeds.append(record.seeds[0])
    return record
four_move = wiring.diagram(wiring.FOUR_MOVE_WORD)
checks = (
    ("chambers", duplicated, lambda: wiring.chamber_collection(four_move)),
    ("explore", doubled, wiring.gl3_cell),
)
for name, sabotage, check in checks:
    original = getattr(wiring, name)
    setattr(wiring, name, sabotage)
    try:
        check()
    except wiring.WiringCheckFailed as exc:
        print("FAIL", exc)
    else:
        print("PASS")
    setattr(wiring, name, original)
"""


def test_wiring_checks_fail_without_asserts():
    # python -O strips assert statements; the structural checks must not be
    # asserts
    command = [sys.executable, "-O", "-c", WIRING_CHECKS]
    result = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert result.stdout.splitlines() == [
        "optimize 1",
        "FAIL 8 distinct chamber labels, expected 9",
        "FAIL 51 seeds give 50 distinct clusters",
    ], result.stderr
