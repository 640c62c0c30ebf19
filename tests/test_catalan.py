"""Four independent enumerations agreeing with the exponent product formula:
root poset antichains, noncrossing partition lattices, torus orbit counts,
and positive Shi regions.

The first torus orbit count (a union-find over every point, joined to its
image under each full reflection matrix) is kept below as the oracle for
the bytearray walk."""

import pytest

from clusterfan.catalan import (
    count_antichains,
    enumeration_report,
    nc_lattice_stats,
    report_csv,
    shi_positive_regions,
    torus_orbits,
)
from clusterfan.coxeter import (
    BudgetExceeded,
    absolute_interval,
    build_group,
    coxeter_element,
)
from clusterfan.roots import RootPoset, coxeter_data, root_system


def union_find_torus_orbits(rs, generators):
    mod = coxeter_data(rs).coxeter_number + 1
    n = rs.n
    size = mod**n
    if generators == "simple":
        matrices = [rs.reflection_matrix(rs.simple_index[i]) for i in range(n)]
    else:
        matrices = [rs.reflection_matrix(i) for i in range(rs.num_positive)]
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    weights = [mod**i for i in range(n)]
    groups = size
    for code in range(size):
        point = [code // w % mod for w in weights]
        for matrix in matrices:
            image = sum(
                sum(map(int.__mul__, row, point)) % mod * w
                for row, w in zip(matrix, weights)
            )
            a, b = find(code), find(image)
            if a != b:
                parent[a] = b
                groups -= 1
    return groups

TOTALS = {"A2": 5, "A3": 14, "B2": 6, "B3": 20, "G2": 8}
PROFILES = {
    "A2": (1, 3, 1),
    "A3": (1, 6, 6, 1),
    "B2": (1, 4, 1),
    "B3": (1, 9, 9, 1),
    "G2": (1, 6, 1),
}


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_antichain_totals_and_profiles(name):
    total, profile = count_antichains(RootPoset(root_system(name)))
    assert total == TOTALS[name]
    assert profile == PROFILES[name]


def test_antichains_d4():
    total, profile = count_antichains(RootPoset(root_system("D4")))
    assert total == 50
    assert sum(profile) == 50


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_noncrossing_totals_and_rank_profiles(name):
    group = build_group(root_system(name))
    interval = absolute_interval(group, coxeter_element(group))
    stats = nc_lattice_stats(interval)
    assert stats["total"] == TOTALS[name]
    assert stats["rank_counts"] == PROFILES[name]


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_torus_orbit_counts(name):
    assert torus_orbits(root_system(name)) == TOTALS[name]


def test_torus_orbit_documented_moduli():
    # A2 on (Z/4)^2 gives 5 orbits, B2 on (Z/5)^2 gives 6
    assert torus_orbits(root_system("A2")) == 5
    assert torus_orbits(root_system("B2")) == 6


def test_torus_orbits_all_reflections_agree():
    for name in ("A2", "B2", "G2"):
        simple = torus_orbits(root_system(name), generators="simple")
        full = torus_orbits(root_system(name), generators="all")
        assert simple == full


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4"]
)
@pytest.mark.parametrize("generators", ["simple", "all"])
def test_torus_orbits_match_union_find(name, generators):
    rs = root_system(name)
    assert torus_orbits(rs, generators) == union_find_torus_orbits(rs, generators)


def test_torus_orbits_budget():
    with pytest.raises(BudgetExceeded):
        torus_orbits(root_system("A3"), budget=10)
    with pytest.raises(ValueError):
        torus_orbits(root_system("A2"), generators="sideways")


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_shi_positive_region_counts(name):
    assert shi_positive_regions(root_system(name)) == TOTALS[name]


def test_shi_region_rank_limit():
    with pytest.raises(ValueError):
        shi_positive_regions(root_system("D4"))


def test_enumeration_report_all_match():
    for name in ("A2", "B2", "G2"):
        rs = root_system(name)
        rows = enumeration_report(rs, build_group(rs))
        assert rows, "report must not be empty"
        assert all(row["match"] for row in rows)
        interpretations = {row["interpretation"] for row in rows}
        assert interpretations == {
            "antichains",
            "noncrossing",
            "torus_orbits",
            "shi_positive",
        }


def test_enumeration_report_without_interval():
    rows = enumeration_report(root_system("A2"))
    interpretations = {row["interpretation"] for row in rows}
    assert "noncrossing" not in interpretations
    assert all(row["match"] for row in rows)


def test_report_csv_header_and_rows():
    rows = enumeration_report(root_system("A2"))
    text = report_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "type,interpretation,k,observed,expected,match"
    assert len(lines) == len(rows) + 1
    assert lines[1].startswith("A2,antichains,total,5,5,True")
