"""Acceptance battery: one test per criterion, each with its time budget.

Every criterion function raises on any mismatch, so a parametrized pytest run
prints exactly one pass/fail line per criterion.  Criterion 13 is exercised
the way it is stated: two subprocess runs of `verify --quick` with the same
seed must produce byte-identical reports.
"""

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from clusterfan import verify, wiring
from clusterfan.cartan import BadInput, CheckFailed, dynkin_name

CRITERIA = [
    (1, "rank2-periodicity", verify.criterion_rank2_periodicity, 1.0),
    (2, "laurent-positivity", verify.criterion_laurent_positivity, 1.0),
    (3, "cartan-table", verify.criterion_cartan_table, 1.0),
    (4, "group-data", lambda: verify.criterion_group_data(False), 30.0),
    (5, "reduced-words", verify.criterion_reduced_words, 10.0),
    (6, "polygon-oracle", verify.criterion_polygon_oracle, 30.0),
    (7, "cluster-complexes", lambda: verify.criterion_cluster_complexes(False), 60.0),
    (8, "tau-machinery", verify.criterion_tau_machinery, 10.0),
    (9, "polytopes", verify.criterion_polytopes, 30.0),
    (10, "fan-checks", verify.criterion_fan_checks, 60.0),
    (11, "enumerative", verify.criterion_enumerative, 120.0),
    (12, "wiring", verify.criterion_wiring, 120.0),
]

IDS = [f"{number:02d}-{name}" for number, name, _, _ in CRITERIA]


@pytest.mark.parametrize("number,name,fn,budget", CRITERIA, ids=IDS)
def test_criterion(number, name, fn, budget):
    start = time.perf_counter()
    detail = fn()
    elapsed = time.perf_counter() - start
    print(f"criterion {number:02d} {name:<24} PASS  {detail}")
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"


def _verify_command():
    exe = shutil.which("clusterfan")
    if exe:
        return [exe, "verify", "--quick", "--rng-seed", "11"]
    return [sys.executable, "-m", "clusterfan.cli", "verify", "--quick", "--rng-seed", "11"]


def test_criterion_13_determinism():
    command = _verify_command()
    first = subprocess.run(command, capture_output=True, timeout=300)
    second = subprocess.run(command, capture_output=True, timeout=300)
    assert first.returncode == 0, first.stdout.decode()
    assert second.returncode == 0, second.stdout.decode()
    assert first.stdout == second.stdout, "reports differ between runs"
    assert b"13/13 criteria passed" in first.stdout
    print("criterion 13 determinism              PASS  "
          f"{len(first.stdout)} byte report reproduced")


SABOTAGE = """
import sys
from clusterfan import polygon, verify, wiring
print("optimize", sys.flags.optimize)
verify.GROUP_TABLE["A3"] = (7, 4, (1, 2, 3), 24)
verify.FACET_TABLE["A3"] = 15

# one wrong Ptolemy value, met only inside polygon.plucker_verify
ptolemy_values = polygon.ptolemy_values
def wrong_ptolemy(*args):
    values = ptolemy_values(*args)
    edge = max(values)
    values[edge] = values[edge] + values[edge]
    return values
polygon.ptolemy_values = wrong_ptolemy

# one failing move identity: the first move checked gets Z = Y
move_chambers = wiring.move_chambers
sabotaged = []
def wrong_chambers(d, move):
    record = move_chambers(d, move)
    if not sabotaged:
        sabotaged.append(move)
        record["Z"] = record["Y"]
    return record
wiring.move_chambers = wrong_chambers

for fn in (
    verify.criterion_group_data,
    verify.criterion_cluster_complexes,
    verify.criterion_polygon_oracle,
    verify.criterion_wiring,
):
    try:
        fn()
    except Exception as exc:
        print("FAIL", type(exc).__name__, exc)
    else:
        print("PASS")
"""


def test_wrong_tables_fail_without_asserts():
    # python -O strips assert statements; the criteria must not depend on them
    command = [sys.executable, "-O", "-c", SABOTAGE]
    result = subprocess.run(command, capture_output=True, text=True, timeout=300)
    lines = result.stdout.splitlines()
    assert lines[:3] == [
        "optimize 1", "FAIL CheckFailed A3", "FAIL CheckFailed A3"
    ], result.stderr
    assert lines[3].startswith("FAIL CheckFailed (1, "), lines
    assert "'all_equal_minors': False" in lines[3], lines
    assert lines[4].startswith("FAIL CheckFailed identity failed at"), lines
    assert len(lines) == 5, lines


def test_full_quick_battery_green():
    results = verify.run_battery()
    report = verify.render_report(results)
    print(report)
    failing = [r.line() for r in results if not r.passed]
    assert not failing, "\n".join(failing)
    assert len(results) == 13


def test_full_extended_battery_green():
    results = verify.run_battery(extended=True)
    failing = [r.line() for r in results if not r.passed]
    assert not failing, "\n".join(failing)
    by_number = {r.number: r for r in results}
    assert "13 types" in by_number[4].detail
    assert "E6:833" in by_number[7].detail
    expected = (Path(__file__).parent / "data" / "verify-extended-seed11.txt").read_text()
    assert verify.render_report(results, extended=True) + "\n" == expected


def test_quick_battery_builds_each_artifact_once(monkeypatch):
    built = []
    cluster_complex = verify.cluster_complex

    def counted_complex(relation):
        built.append(dynkin_name(relation.ap.rs.dynkin))
        return cluster_complex(relation)

    enumerations = []
    enumerate_classes = wiring.enumerate_classes

    def counted_classes(n):
        enumerations.append(n)
        return enumerate_classes(n)

    monkeypatch.setattr(verify, "cluster_complex", counted_complex)
    monkeypatch.setattr(wiring, "enumerate_classes", counted_classes)
    for cache in (verify._complex, verify._wiring_graph, verify._gl3_report):
        cache.cache_clear()
    results = verify.run_battery()
    assert all(r.passed for r in results), [r.line() for r in results]
    # one complex per type, shared by criteria 07, 09, 10 and 13
    assert sorted(built) == sorted(verify.QUICK_TYPES)
    # criterion 12 enumerates once for itself and gl3_cell, whose report
    # criterion 13 reads
    assert enumerations == [3]


def test_criterion_13_holds_artifacts_to_the_pin(monkeypatch):
    built = verify.deterministic_artifacts()
    assert len(built.encode()) == verify.ARTIFACTS_PIN[0]
    assert verify.criterion_determinism().startswith("4187 bytes")
    for changed in (built + " ", built.replace("A2", "A3", 1), built[:-1] + "X"):
        monkeypatch.setattr(verify, "deterministic_artifacts", lambda: changed)
        with pytest.raises(CheckFailed, match="pinned reference"):
            verify.criterion_determinism()


def test_criterion_03_fails_when_the_affine_matrix_is_refused_otherwise(monkeypatch):
    # the affine matrix must be refused as not of finite type; a refusal of
    # its shape or its diagram for another reason is a failure
    classify = verify.classify

    def refused_as_malformed(rows):
        if rows == [[2, -2], [-2, 2]]:
            raise BadInput("diagram contains an odd cycle")
        return classify(rows)

    monkeypatch.setattr(verify, "classify", refused_as_malformed)
    with pytest.raises(CheckFailed, match="affine rank-2 matrix refused: diagram contains"):
        verify.criterion_cartan_table()
