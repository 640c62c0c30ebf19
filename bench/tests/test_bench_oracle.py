"""The oracle table agrees with itself, and the seeded relabeling keeps
every oracle value."""

import json
import random

import pytest

import oracle
import workloads
from clusterfan import cartan_for_type, classify, detect_finite_type, dynkin_name


@pytest.mark.parametrize("name", sorted(oracle.TYPES))
def test_h_vector_sums_to_facets_and_gives_f_vector(name):
    entry = oracle.TYPES[name]
    assert sum(entry["h"]) == entry["seeds"] == entry["f"][-1]
    assert entry["h"] == entry["h"][::-1]
    assert len(entry["h"]) == entry["rank"] + 1
    assert oracle.f_from_h(entry["h"]) == entry["f"]
    assert entry["f"][1] == oracle.variables(name)
    assert entry["h"][1] == entry["positive"]


def test_stanley_counts():
    assert [oracle.stanley_count(n) for n in (1, 2, 3, 4)] == [1, 2, 16, 768]


def test_hasse_counts_follow_from_group_order():
    assert oracle.HASSE_A4["nodes"] == oracle.TYPES["A4"]["order"]
    assert oracle.HASSE_A4["covers"] == oracle.TYPES["A4"]["order"] * 4 // 2


@pytest.mark.parametrize("name", sorted(oracle.TYPES))
def test_cartan_table_matches_program_numbering(name):
    assert [list(r) for r in cartan_for_type(name)] == workloads.cartan(name)


@pytest.mark.parametrize("name", sorted(oracle.TYPES))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabeling_preserves_classify(name, seed):
    rows = workloads.cartan(name)
    perm = list(range(len(rows)))
    random.Random(seed).shuffle(perm)
    assert dynkin_name(classify(workloads.relabel(rows, perm))) == name


@pytest.mark.parametrize("name", ["A3", "B3", "B4", "D4", "F4"])
def test_signed_relabeled_exchange_matrix_keeps_its_type(name, tmp_path):
    for seed in (1, 2):
        inputs = workloads.Inputs(seed, str(tmp_path))
        with open(inputs.exchange_file(name)) as handle:
            rows = json.load(handle)
        assert dynkin_name(detect_finite_type(rows)) == name


def test_principal_coefficients_matrix(tmp_path):
    inputs = workloads.Inputs(5, str(tmp_path))
    with open(inputs.exchange_file("B4", principal=True)) as handle:
        rows = json.load(handle)
    assert len(rows) == 8 and all(len(row) == 4 for row in rows)
    frozen = rows[4:]
    assert sorted(abs(x) for row in frozen for x in row) == [0] * 12 + [1] * 4
    assert dynkin_name(detect_finite_type(rows[:4])) == "B4"


def test_same_seed_same_inputs(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    for workload in workloads.WHY:
        tasks_a = workloads.build_tasks(workload, 9, str(first))
        tasks_b = workloads.build_tasks(workload, 9, str(second))
        assert [t["name"] for t in tasks_a] == [t["name"] for t in tasks_b]
        for a in sorted(first.iterdir()):
            assert a.read_text() == (second / a.name).read_text()


def test_checks_reject_wrong_output():
    task = {"name": "mutate A3", "argv": ["mutate"], "check": {"kind": "mutate", "type": "A3"}}
    good = "seeds 14\nvariables 9\nclosed True\ndetected A3\n"
    assert oracle.check(task, 0, good) is None
    assert oracle.check(task, 0, good.replace("14", "15")) is not None
    assert oracle.check(task, 3, good) == "exit code 3"
    json_task = {"name": "assoc B3", "argv": ["--format", "json"], "check": {"kind": "assoc", "type": "B3"}}
    assert oracle.check(json_task, 0, "not json").startswith("unreadable JSON")
