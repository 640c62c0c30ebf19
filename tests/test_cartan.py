"""Cartan matrix validation, symmetrizers, and Dynkin classification."""

import pytest

from clusterfan import assoc, cartan, catalan
from clusterfan.cartan import (
    Diagram,
    NotCartanShape,
    UnrecognizedDiagram,
    b_matrix,
    bipartition,
    cartan_for_type,
    classify,
    dynkin_name,
    parse_cartan_text,
    parse_type_name,
    skew_symmetrizer,
    standard_cartan,
    validate_finite_type,
)
from clusterfan.roots import root_system

# The four rank-4 matrices used as the running classification examples, frozen
# entry by entry.  B is the short-root-first convention (a_01 = -2).
A4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
B4 = [[2, -2, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
C4 = [[2, -1, 0, 0], [-2, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
D4 = [[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]]

RANK2 = {
    "A1+A1": [[2, 0], [0, 2]],
    "A2": [[2, -1], [-1, 2]],
    "B2": [[2, -2], [-1, 2]],
    "G2": [[2, -3], [-1, 2]],
}


@pytest.mark.parametrize(
    "rows,name",
    [(A4, "A4"), (B4, "B4"), (C4, "C4"), (D4, "D4")]
    + [(rows, name) for name, rows in RANK2.items()],
)
def test_classify_named_examples(rows, name):
    assert validate_finite_type(rows)
    assert dynkin_name(classify(rows)) == name


def test_affine_matrix_rejected():
    affine = [[2, -2], [-2, 2]]
    assert not validate_finite_type(affine)
    with pytest.raises(UnrecognizedDiagram):
        classify(affine)


def test_shape_violations_raise():
    with pytest.raises(NotCartanShape):
        classify([[2, -1], [0, 2]])  # asymmetric zero pattern
    with pytest.raises(NotCartanShape):
        classify([[1, -1], [-1, 2]])  # wrong diagonal
    with pytest.raises(NotCartanShape):
        classify([[2, 1], [1, 2]])  # positive off-diagonal


def test_symmetrizer_makes_symmetric():
    for rows in (B4, C4, RANK2["G2"]):
        d = Diagram(rows).symmetrizer
        n = len(rows)
        sym = [[d[i] * rows[i][j] for j in range(n)] for i in range(n)]
        assert all(sym[i][j] == sym[j][i] for i in range(n) for j in range(n))


def test_symmetrizer_of_symmetric_matrix_is_ones():
    assert Diagram(A4).symmetrizer == (1, 1, 1, 1)


def test_standard_cartan_matches_frozen_examples():
    assert [list(r) for r in standard_cartan("A", 4)] == A4
    assert [list(r) for r in standard_cartan("B", 4)] == B4
    assert [list(r) for r in standard_cartan("C", 4)] == C4
    assert [list(r) for r in standard_cartan("D", 4)] == D4
    assert [list(r) for r in standard_cartan("G", 2)] == RANK2["G2"]


def test_standard_cartan_rank_limits():
    with pytest.raises(UnrecognizedDiagram):
        standard_cartan("B", 1)
    with pytest.raises(UnrecognizedDiagram):
        standard_cartan("E", 9)
    with pytest.raises(UnrecognizedDiagram):
        standard_cartan("Z", 2)


def test_classification_of_every_standard_type():
    for name in ("A1", "A5", "B2", "B4", "C3", "C5", "D4", "D5", "E6", "E7", "E8", "F4", "G2"):
        rows = cartan_for_type(name)
        assert dynkin_name(classify(rows)) == name


def test_reducible_type_names():
    dtype = parse_type_name("A2+B2")
    assert dynkin_name(dtype) == "A2+B2"
    rows = cartan_for_type(dtype)
    assert dynkin_name(classify(rows)) == "A2+B2"


def test_bipartition_alternates():
    plus, minus = bipartition(A4)
    assert plus | minus == {0, 1, 2, 3}
    assert not plus & minus
    for i in range(4):
        for j in range(4):
            if i != j and A4[i][j] != 0:
                assert (i in plus) != (j in plus)


def test_bipartition_rejects_odd_cycle():
    cyclic = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    with pytest.raises(UnrecognizedDiagram):
        bipartition(cyclic)


def test_b_matrix_is_skew_symmetrizable():
    rows = cartan_for_type("B3")
    b = b_matrix(rows)
    d = Diagram(rows).symmetrizer
    n = len(rows)
    for i in range(n):
        assert b[i][i] == 0
        for j in range(n):
            assert d[i] * b[i][j] == -d[j] * b[j][i]
    plus, _ = bipartition(rows)
    for i in range(n):
        for j in range(n):
            sign = 1 if i in plus else -1
            assert b[i][j] == (0 if i == j else sign * rows[i][j])
    for name in (
        "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4",
        "D4", "D5", "F4", "G2", "E6", "E7", "E8", "A2+B2",
    ):
        rows = cartan_for_type(name)
        assert skew_symmetrizer(b_matrix(rows)) == Diagram(rows).symmetrizer, name


def test_parse_cartan_text_both_forms():
    assert parse_cartan_text("type:A2") == ((2, -1), (-1, 2))
    assert parse_cartan_text("matrix:[[2,-1],[-1,2]]") == ((2, -1), (-1, 2))
    with pytest.raises(ValueError):
        parse_cartan_text("nonsense")


def test_root_system_validates_its_matrix_once(monkeypatch):
    # Sylvester's criterion and the diagram classification run once per
    # root system: one call for the minors, one per diagram component
    calls = []
    for name in ("leading_principal_minors", "_classify_component"):
        original = getattr(cartan, name)

        def counted(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(cartan, name, counted)
    for name, components in (("A1", 1), ("B3", 1), ("E6", 1), ("A2+G2", 2)):
        calls.clear()
        root_system(name)
        assert calls == ["leading_principal_minors"] + ["_classify_component"] * components, name


READINGS = ("check_shape", "_forest", "_propagate", "leading_principal_minors")


def count_readings(monkeypatch):
    """Wrap the four steps of reading a diagram; returns the call counts."""
    calls = dict.fromkeys(READINGS, 0)
    for name in READINGS:
        original = getattr(cartan, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(cartan, name, counted)
    return calls


@pytest.mark.parametrize("name", ["A1", "B4", "E6", "A2+G2"])
def test_root_system_reads_its_diagram_once(monkeypatch, name):
    calls = count_readings(monkeypatch)
    rs = root_system(name)
    assert calls == dict.fromkeys(READINGS, 1)
    # every later layer reads the diagram off the root system
    calls.update(dict.fromkeys(READINGS, 0))
    if len(rs.dynkin) == 1:
        catalan.enumeration_report(rs)
    data = assoc.cluster_complex(assoc.compatibility(assoc.almost_positive(rs)))
    assoc.polytope_json(assoc.build_polytope(data))
    assert calls == dict.fromkeys(READINGS, 0)


def test_cyclic_diagram_is_not_finite_before_its_colouring_is_read():
    # the affine A2 triangle: symmetric, not positive definite, odd cycle
    cyclic = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    diagram = Diagram(cyclic)
    assert diagram.finite_type is None
    assert not validate_finite_type(cyclic)
    with pytest.raises(UnrecognizedDiagram, match="not positive definite"):
        diagram.classify()
    with pytest.raises(UnrecognizedDiagram, match="odd cycle"):
        diagram.parts


def test_colouring_needs_no_symmetrizer():
    # a four-cycle whose ratios multiply to 2 around it: bipartite, but no
    # diagonal matrix symmetrizes it
    square = [[2, -1, 0, -1], [-2, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]]
    assert bipartition(square) == (frozenset({0, 2}), frozenset({1, 3}))
    assert b_matrix(square)[1] == (2, 0, 1, 0)
    with pytest.raises(cartan.NotSymmetrizable):
        Diagram(square).symmetrizer
    with pytest.raises(cartan.NotSymmetrizable):
        validate_finite_type(square)
