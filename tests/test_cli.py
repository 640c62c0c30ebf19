"""End-to-end runs of the command line front end through main()."""

import contextlib
import hashlib
import io
import itertools
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterfan import assoc, cartan, coxeter, mutation, roots, wiring
from clusterfan import cli as cli_module
from clusterfan.cli import BROKEN_PIPE, FORMATS, build_parser, main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_text(capsys):
    code, out, _ = run(capsys, "roots", "--type", "A3")
    assert code == 0
    assert "type A3" in out
    assert "positive roots 6" in out


def test_roots_json_all_roots(capsys):
    code, out, _ = run(capsys, "roots", "--type", "G2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["roots"]) == 12
    assert len(data["positive_roots"]) == 6
    assert data["h"] == 6


def test_roots_matrix_file_json_rows(capsys, tmp_path):
    path = tmp_path / "cartan.json"
    path.write_text("[[2, -1], [-1, 2]]")
    code, out, _ = run(capsys, "roots", "--matrix-file", str(path))
    assert code == 0
    assert "type A2" in out


def test_roots_matrix_file_type_text(capsys, tmp_path):
    path = tmp_path / "cartan.txt"
    path.write_text("type:B2")
    code, out, _ = run(capsys, "roots", "--matrix-file", str(path))
    assert code == 0
    assert "type B2" in out
    assert "positive roots 4" in out


def test_roots_requires_source(capsys):
    with pytest.raises(SystemExit) as info:
        main(["roots"])
    assert info.value.code == 2


def test_roots_rejects_unknown_format(capsys):
    with pytest.raises(SystemExit) as info:
        main(["roots", "--type", "A2", "--format", "dot"])
    assert info.value.code == 2


def never_called(*args):
    raise AssertionError("the computation ran")


@pytest.mark.parametrize("command", FORMATS)
def test_unknown_format_is_refused_before_any_computation(capsys, monkeypatch, command):
    monkeypatch.setattr(cli_module, "root_system", never_called)
    monkeypatch.setattr(cli_module, "ExchangeMatrix", never_called)
    monkeypatch.setattr(wiring, "gl3_cell", never_called)
    monkeypatch.setattr(wiring, "enumerate_classes", never_called)
    source = [] if command == "wiring" else ["--type", "A2"]
    with pytest.raises(SystemExit) as info:
        main([command, *source, "--format", "bogus"])
    assert info.value.code == 2
    assert "argument --format: invalid choice: 'bogus'" in capsys.readouterr().err


def test_group_text(capsys):
    code, out, _ = run(capsys, "group", "--type", "A3")
    assert code == 0
    assert "order 24" in out
    assert "longest_length 6" in out
    assert "reduced_words_of_w0 16" in out


def test_group_json(capsys):
    code, out, _ = run(capsys, "group", "--type", "B2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 8
    assert data["reduced_words_of_w0"] == 2


def test_group_dot(capsys):
    code, out, _ = run(capsys, "group", "--type", "A2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


# sha256 of `clusterfan group --type X --format dot` stdout, taken from the
# permutation-based reduced words these labels were first printed with
GROUP_DOT_SHA256 = {
    "A3": "4e18758d07f5dc83aa99ff518046cb0e3249dbe6859aa443f6f839104ac4308d",
    "B4": "3d23fe92ee028c41f733798849a81f80682545b689135545288481c162a8cf6a",
    "D4": "84b1d2742a4217744d3684e97d6589608c114c3374bdf8f9b737c6f1c911c606",
    "F4": "8d129fcac67acfa34f1b8218936fd4b0469399b7913d60dffb5418c6fb302d95",
    "D5": "7087962e12a79d4786d9900ac7e10f19352e8e7daa5f2199826d237bcd5450d7",
    "A1+A2": "ba0273a03e45174001d45d88dd1555da25faf1cd3a4e6fc6dcbebbf126a80ead",
}


# sha256 of `clusterfan assoc` stdout, taken from the polytope that paired
# every vertex with every almost-positive root
ASSOC_SHA256 = {
    ("E6", "json"): "3fa7e3e618dd8e9c850152cc0930ace340094c9155d3e89f6185ecf62c525dcc",
    ("A3", "off"): "f6f3f512cb996c62ff7c555e14d94df80f66a6e79858157136420ee337ef75a8",
}


@pytest.mark.parametrize("name,fmt", sorted(ASSOC_SHA256))
def test_assoc_bytes_are_pinned(capsys, name, fmt):
    code, out, _ = run(capsys, "assoc", "--type", name, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ASSOC_SHA256[name, fmt]


@pytest.mark.parametrize("name", sorted(GROUP_DOT_SHA256))
def test_group_dot_bytes_are_pinned(capsys, name):
    code, out, _ = run(capsys, "group", "--type", name, "--format", "dot")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GROUP_DOT_SHA256[name]


# sha256 of `clusterfan group --type E6 --format X` stdout, taken from the
# count over the whole right Cayley table that these numbers were first
# printed with
GROUP_E6_SHA256 = {
    "text": "b7240a9ab0eb1801b6940b6abed6c1a6ccd7b2e5b90c1f21b0a817750b9d628b",
    "json": "185517d277e1a004b2f3cca9bfb09e926380d5518db5775afd8d0abb57fd5efe",
}


@pytest.mark.parametrize("fmt", sorted(GROUP_E6_SHA256))
def test_group_e6_bytes_are_pinned(capsys, fmt):
    code, out, _ = run(capsys, "group", "--type", "E6", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GROUP_E6_SHA256[fmt]


def test_mutate_text(capsys):
    code, out, _ = run(capsys, "mutate", "--type", "A2")
    assert code == 0
    assert "seeds 5" in out
    assert "closed True" in out
    assert "detected A2" in out


def test_mutate_json(capsys):
    code, out, _ = run(capsys, "mutate", "--type", "A2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["closed"] is True
    assert len(data["seeds"]) == 5


def test_mutate_dot(capsys):
    code, out, _ = run(capsys, "mutate", "--type", "A2", "--format", "dot")
    assert code == 0
    assert out.startswith("graph")


def test_mutate_matrix_file_uses_raw_exchange_matrix(capsys, tmp_path):
    path = tmp_path / "b.json"
    path.write_text("[[0, 1], [-1, 0], [1, 0]]")
    code, out, _ = run(capsys, "mutate", "--matrix-file", str(path))
    assert code == 0
    assert "seeds 5" in out


def test_mutate_matrix_file_accepts_matrix_text(capsys, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("matrix:[[0,1],[-1,0]]")
    code, out, _ = run(capsys, "mutate", "--matrix-file", str(path))
    assert code == 0
    assert out.splitlines() == ["seeds 5", "variables 5", "closed True", "detected A2"]


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_mutate_matrix_file_type_text_matches_type(capsys, tmp_path, fmt):
    # `type:` text names a Dynkin type, so mutate explores its bipartite
    # exchange matrix, exactly as --type does
    path = tmp_path / "a3.txt"
    path.write_text("type:A3")
    from_file = run(capsys, "mutate", "--matrix-file", str(path), "--format", fmt)
    from_type = run(capsys, "mutate", "--type", "A3", "--format", fmt)
    assert from_file == from_type
    assert from_file[0] == 0


@pytest.mark.parametrize(
    "command,name,message",
    [
        # |W(E7)| = 2,903,040 is read off the exponents, before any element
        # is built
        pytest.param(
            "group", "E7", "group has 2903040 elements, over the budget of 1000000",
            id="group",
        ),
        # Cat(E8) = 25,080 is read off the exponents, before the noncrossing
        # interval is walked or anything is counted
        pytest.param(
            "catalan", "E8",
            "noncrossing interval has 25080 elements, over the budget of 10000",
            id="catalan",
        ),
        # Cat(A12) = 742,900 is read off the exponents, before any cluster
        # is built
        pytest.param(
            "assoc", "A12",
            "cluster complex has 742900 facets, over the budget of 60000",
            id="assoc",
        ),
        # Cat(A12) = 742,900 seeds is over the default --budget-seeds, and
        # the refusal reads as the walk's own
        pytest.param(
            "mutate", "A12", "exchange graph exceeded 100000 seeds", id="mutate",
        ),
    ],
)
def test_oversized_group_exits_3_at_once(capsys, command, name, message):
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--type", name)
    assert time.perf_counter() - start < 5
    assert code == 3
    assert out == ""
    assert err.strip().splitlines() == [f"budget exceeded: {message}"]


def _rendered_a2():
    seed = mutation.initial_seed(cartan.b_matrix(cartan.cartan_for_type("A2")), ["x1", "x2"])
    return mutation.graph_to_dict(mutation.explore(seed))


@pytest.mark.parametrize(
    "argv,call",
    [
        pytest.param(
            ["roots", "--type", "A400"], lambda: roots.root_system("A400"), id="rank"
        ),
        pytest.param(
            ["group", "--type", "E7"],
            lambda: coxeter.build_group(roots.root_system("E7")),
            id="group",
        ),
        pytest.param(
            ["assoc", "--type", "A12"],
            lambda: assoc.almost_positive(roots.root_system("A12")),
            id="facet",
        ),
        pytest.param(
            ["catalan", "--type", "E8"],
            lambda: coxeter.absolute_interval(roots.root_system("E8")),
            id="interval",
        ),
        pytest.param(
            ["mutate", "--type", "A3", "--budget-seeds", "13"],
            lambda: mutation.exchange_counts(cartan.b_matrix(cartan.cartan_for_type("A3")), 13),
            id="seed",
        ),
        pytest.param(["mutate", "--type", "A2", "--format", "json"], _rendered_a2, id="render"),
    ],
)
def test_every_refusal_is_one_budget_class(capsys, monkeypatch, argv, call):
    # every budget raises cartan.BudgetExceeded, the one class that main
    # maps to exit code 3; the render budget is cut to 10 characters
    monkeypatch.setattr(mutation, "RENDER_BUDGET", 10)
    assert coxeter.BudgetExceeded is cartan.BudgetExceeded
    with pytest.raises(cartan.BudgetExceeded):
        call()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("budget exceeded: ")


# A3 as a Cartan matrix, and its bipartite exchange matrix for mutate
A3_ROWS = "[[2, -1, 0], [-1, 2, -1], [0, -1, 2]]"
A3_EXCHANGE = "[[0, -1, 0], [1, 0, 1], [0, -1, 0]]"


@pytest.mark.parametrize(
    "command,fmt",
    [(command, fmt) for command in ("roots", "group", "mutate", "assoc", "catalan")
     for fmt in FORMATS[command]],
)
def test_matrix_prefix_reads_as_bare_rows(capsys, tmp_path, command, fmt):
    # `matrix:` followed by JSON rows is the same file as the rows alone, on
    # every subcommand that reads a matrix
    rows = A3_EXCHANGE if command == "mutate" else A3_ROWS
    outputs = []
    for text in (rows, f"matrix:{rows}"):
        path = tmp_path / "m.txt"
        path.write_text(text)
        outputs.append(run(capsys, command, "--matrix-file", str(path), "--format", fmt))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


@pytest.mark.parametrize("command", ["roots", "mutate"])
def test_oversized_rank_exits_3_at_once(command):
    # A400 would have 80,200 positive roots; its rank is refused before its
    # Cartan matrix is validated, with one line and no traceback
    argv = [sys.executable, "-m", "clusterfan.cli", command, "--type", "A400"]
    start = time.perf_counter()
    result = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 5
    assert "Traceback" not in result.stderr
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.splitlines() == [
        "budget exceeded: rank 400 is over the bound of 128 simple roots"
    ]


@pytest.mark.parametrize(("name", "rank"), [("A2000", 2000), ("E8+A125", 133)])
def test_oversized_type_name_is_refused_before_its_matrix_is_built(name, rank):
    # the total rank is read off the parsed name: A2000 took 2.6 s and about
    # 110 MB when its 2000 x 2000 matrix was built before the bound was read
    argv = [sys.executable, "-m", "clusterfan.cli", "roots", "--type", name]
    start = time.perf_counter()
    result = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 1
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.splitlines() == [
        f"budget exceeded: rank {rank} is over the bound of 128 simple roots"
    ]


@pytest.mark.parametrize("name", ["A120", "B128"])
def test_oversized_complex_exits_3_before_its_roots_are_paired(name):
    # Cat(W) is read at the top of almost_positive, before the involutions
    # are built and before compatibility visits any of the size^2 pairs
    argv = [sys.executable, "-m", "clusterfan.cli", "assoc", "--type", name]
    start = time.perf_counter()
    result = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 5
    assert "Traceback" not in result.stderr
    assert (result.returncode, result.stdout) == (3, "")
    [line] = result.stderr.splitlines()
    assert line.startswith("budget exceeded: cluster complex has ")
    assert line.endswith(" facets, over the budget of 60000")


def bipartite_rows(n):
    return [list(row) for row in cartan.b_matrix(cartan.cartan_for_type(f"A{n}"))]


def path_rows(n, cycle=False):
    """The linearly oriented A_n quiver, closed into an oriented n-cycle."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n if cycle else n - 1):
        rows[i][(i + 1) % n], rows[(i + 1) % n][i] = 1, -1
    return rows


@pytest.mark.parametrize(
    "rows,message",
    [
        (bipartite_rows(20), "exchange graph exceeded 100000 seeds"),
        (bipartite_rows(40), "exchange graph exceeded 100000 seeds"),
        (path_rows(12), "exchange graph exceeded 100000 seeds"),
        (path_rows(20), "exchange graph exceeded 100000 seeds"),
        ([[0] * 20] * 20, "exchange graph exceeded 100000 seeds"),
        ([[0] * 60] * 60, "exchange graph exceeded 100000 seeds"),
        ([[0] * 129] * 129, "rank 129 is over the bound of 128 simple roots"),
        (path_rows(129, cycle=True), "rank 129 is over the bound of 128 simple roots"),
    ],
    ids=["bipartite-A20", "bipartite-A40", "linear-A12", "linear-A20", "zero-20",
         "zero-60", "zero-129", "cycle-129"],
)
def test_mutate_exchange_rows_are_refused_at_the_start(tmp_path, rows, message):
    # JSON rows are typed at the start seed like a type name: Cat(A_n) and
    # 2^n (A1^n) are over the seed budget, and 129 columns over the rank
    # bound.  A walk up to the budget would take 7 s or more on each
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(rows))
    argv = [sys.executable, "-m", "clusterfan.cli", "mutate", "--matrix-file", str(path)]
    start = time.perf_counter()
    result = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 5
    assert "Traceback" not in result.stderr
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.splitlines() == [f"budget exceeded: {message}"]


@pytest.mark.parametrize(
    "source,as_rows",
    [("--type", False), ("type:", False), ("matrix:", True)],
)
def test_mutate_type_refused_over_its_catalan_number(
    capsys, tmp_path, monkeypatch, source, as_rows
):
    # A3 has Cat(A3) = 14 seeds.  A type and its exchange matrix given as
    # rows enter the same walk, which reads Cat(A3) off the start seed's
    # Cartan counterpart and refuses it before any edge is computed.
    if source == "--type":
        argv = ["--type", "A3"]
    else:
        path = tmp_path / "a3.txt"
        rows = "[[0, -1, 0], [1, 0, 1], [0, -1, 0]]"
        path.write_text(f"matrix:{rows}" if as_rows else "type:A3")
        argv = ["--matrix-file", str(path)]
    code, out, err = run(capsys, "mutate", *argv, "--budget-seeds", "14")
    assert code == 0, err
    assert out.splitlines()[0] == "seeds 14"

    calls = []
    g_mutate = mutation._g_mutate

    def recording(*args):
        calls.append(args)
        return g_mutate(*args)

    monkeypatch.setattr(mutation, "_g_mutate", recording)
    for fmt in ("text", "json", "dot"):
        code, out, err = run(
            capsys, "mutate", *argv, "--budget-seeds", "13", "--format", fmt
        )
        assert (code, out) == (3, "")
        assert err.splitlines() == ["budget exceeded: exchange graph exceeded 13 seeds"]
    assert calls == []


def test_mutate_budget_exit_code(capsys):
    code, out, err = run(capsys, "mutate", "--type", "A3", "--budget-seeds", "2")
    assert code == 3
    assert "budget exceeded" in err


def test_mutate_budget_seeds_is_the_only_budget(capsys):
    # F4+F4 has 11,025 seeds, more than detection alone used to allow
    code, out, err = run(capsys, "mutate", "--type", "F4+F4", "--budget-seeds", "20000")
    assert code == 0, err
    assert out.splitlines() == [
        "seeds 11025", "variables 56", "closed True", "detected F4+F4"
    ]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_mutate_budget_one_below_the_seed_count(capsys, fmt):
    # D4 has 50 seeds
    code, out, err = run(
        capsys, "mutate", "--type", "D4", "--budget-seeds", "49", "--format", fmt
    )
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["budget exceeded: exchange graph exceeded 49 seeds"]


def test_mutate_infinite_type_fails_fast(capsys, tmp_path):
    # the rank-2 matrix with b12 b21 = -6 has an infinite exchange graph,
    # and the seed budget alone would not stop the growth of its variables
    path = tmp_path / "b.json"
    path.write_text("[[0, 2], [-3, 0]]")
    for fmt in ("text", "json", "dot"):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "mutate", "--matrix-file", str(path), "--budget-seeds", "50",
            "--format", fmt,
        )
        assert time.perf_counter() - start < 3
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "not of finite type" in err


def test_mutate_exponent_past_the_packed_field_exits_3(capsys, tmp_path):
    # frozen rows may hold any integer; x3^8192 leaves the [-8192, 8192)
    # field of a packed Laurent monomial at the first mutation.  Text output
    # computes no variable and still prints the counts
    path = tmp_path / "b.json"
    path.write_text("[[0, 1], [-1, 0], [8192, 0]]")
    code, out, _ = run(capsys, "mutate", "--matrix-file", str(path))
    assert code == 0
    assert out.splitlines()[0] == "seeds 5"
    for fmt in ("json", "dot"):
        code, out, err = run(
            capsys, "mutate", "--matrix-file", str(path), "--format", fmt
        )
        assert (code, out) == (3, "")
        assert err.splitlines() == [
            "mutate: exponent vector (0, 0, 8192) is outside [-8192, 8192)"
        ]


def test_roots_unknown_type_exits_2(capsys):
    code, out, err = run(capsys, "roots", "--type", "X9")
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == ["roots: unknown family 'X'"]


@pytest.mark.parametrize(
    ("name", "shown"),
    [("A\u00b2", "'A\u00b2'"), ("A" + "9" * 5000, f"{'A' + '9' * 63!r}... (5001 characters)")],
    ids=["superscript", "digits"],
)
def test_unreadable_rank_exits_2_in_a_short_line(capsys, name, shown):
    # '²' is a digit to str.isdigit but not to int, and int reads at most
    # 4300 digits: both are refused as names, not left to a traceback
    code, out, err = run(capsys, "roots", "--type", name)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"roots: cannot parse type name {shown}"]


def test_catalan_reducible_type_exits_2(capsys):
    code, out, err = run(capsys, "catalan", "--type", "A2+A1")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "irreducible" in err and "A1+A2" in err


def test_assoc_text(capsys):
    code, out, _ = run(capsys, "assoc", "--type", "B3")
    assert code == 0
    assert "facets 20" in out
    assert "h_vector 1 9 9 1" in out


def test_assoc_e7_builds_no_weyl_group(capsys):
    # the E7 Weyl group (2,903,040 elements) is beyond the group budget
    code, out, _ = run(capsys, "assoc", "--type", "E7")
    assert code == 0
    assert "vertices 4160" in out
    assert "h_vector 1 63 546 1470 1470 546 63 1" in out


@pytest.mark.parametrize(
    "command,matrix,message",
    [
        ("roots", "[[2, 1], [-1, 2]]", "roots: off-diagonal a[0][1] = 1 is positive"),
        ("assoc", "[[2, 1], [-1, 2]]", "assoc: off-diagonal a[0][1] = 1 is positive"),
        ("mutate", "[[0, 1], [1, 0]]", "mutate: entries at (0,1) share a sign"),
        ("mutate", "[[2, 1], [-1, 2]]", "mutate: diagonal entry b[0][0] = 2 nonzero"),
        ("roots", "[]", "roots: matrix must be a nonempty list of nonempty rows"),
        ("assoc", "[]", "assoc: matrix must be a nonempty list of nonempty rows"),
        ("mutate", "[]", "mutate: matrix must be a nonempty list of nonempty rows"),
        ("mutate", "[[0, 1, 1], [-1, 0, 1]]", "mutate: need an m>=n matrix with 3 columns"),
        ("roots", "[[2, -1.5], [-1, 2]]", "roots: entry -1.5 is not an integer"),
        ("roots", '[["a"]]', "roots: entry 'a' is not an integer"),
        ("roots", "matrix:[[0,1],[-1,0]]", "roots: diagonal entry a[0][0] = 0, expected 2"),
        ("group", "matrix:[[0,1],[-1,0]]", "group: diagonal entry a[0][0] = 0, expected 2"),
        (
            "mutate",
            "[[0, 1, 0], [-1, 0, 1], [0, -1, 0], [1, 0, -1]]",
            "mutate: extended exchange matrix must have full column rank",
        ),
    ],
)
def test_bad_matrix_file_exits_2(capsys, tmp_path, command, matrix, message):
    path = tmp_path / "m.json"
    path.write_text(matrix)
    code, out, err = run(capsys, command, "--matrix-file", str(path))
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [message]


def test_assoc_json(capsys):
    code, out, _ = run(capsys, "assoc", "--type", "A2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 5


def test_assoc_off(capsys):
    code, out, _ = run(capsys, "assoc", "--type", "A3", "--format", "off")
    assert code == 0
    assert out.startswith("OFF\n14 9 21\n")


def test_assoc_off_requires_rank3(capsys):
    with pytest.raises(SystemExit) as info:
        main(["assoc", "--type", "A2", "--format", "off"])
    assert info.value.code == 2


@pytest.mark.parametrize("name", ["A2", "E8"])
def test_assoc_off_of_another_rank_is_refused_before_the_complex(monkeypatch, capsys, name):
    def never(*args):
        raise AssertionError("built a cluster complex for OFF output of another rank")

    monkeypatch.setattr(cli_module, "cluster_complex", never)
    with pytest.raises(SystemExit) as info:
        main(["assoc", "--type", name, "--format", "off"])
    assert info.value.code == 2
    assert "OFF output is only defined for rank 3" in capsys.readouterr().err


def test_matrix_file_over_the_rank_bound_is_refused_before_validation(capsys, tmp_path):
    # 200 rows with a bad diagonal, zero or one, on every subcommand that
    # reads a matrix: the rank is read before the shape, and for mutate
    # before the exchange matrix is validated
    for entry in (0, 1):
        path = tmp_path / f"big{entry}.json"
        path.write_text(json.dumps([[entry] * 200 for _ in range(200)]))
        for command in ("roots", "group", "assoc", "catalan", "mutate"):
            code, out, err = run(capsys, command, "--matrix-file", str(path))
            assert (code, out) == (3, ""), (entry, command)
            assert err.splitlines() == [
                "budget exceeded: rank 200 is over the bound of 128 simple roots"
            ]


def test_catalan_text(capsys):
    code, out, _ = run(capsys, "catalan", "--type", "G2")
    assert code == 0
    assert "ok" in out
    assert "MISMATCH" not in out


def test_catalan_csv(capsys):
    code, out, _ = run(capsys, "catalan", "--type", "B2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "type,interpretation,k,observed,expected,match"
    assert any(line.startswith("B2,torus_orbits,total,6,6,True") for line in lines)


def test_catalan_json(capsys):
    code, out, _ = run(capsys, "catalan", "--type", "A2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(row["match"] for row in rows)


def test_wiring_text(capsys):
    code, out, _ = run(capsys, "wiring")
    assert code == 0
    assert "isotopy_classes 34" in out
    assert "cluster_variable_count 16" in out
    assert "cluster_count 50" in out
    assert "detected_type D4" in out


def test_wiring_json(capsys):
    code, out, _ = run(capsys, "wiring", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["isotopy_classes"] == 34
    assert len(data["hidden_variables"]) == 2


def test_wiring_dot(capsys):
    code, out, _ = run(capsys, "wiring", "--format", "dot")
    assert code == 0
    assert out.startswith("graph")
    assert out.count("--") == 60  # edges of the 34-class move graph


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "roots", "--type", "A2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert "type A2" in target.read_text()


@pytest.mark.parametrize(
    "argv, target",
    [(["roots", "--type", "A1"], ""), (["verify", "--quick"], "missing/x.txt")],
    ids=["directory", "missing-parent"],
)
def test_out_path_that_cannot_be_opened_is_a_usage_error(
    capsys, monkeypatch, tmp_path, argv, target
):
    # a usage error (exit 2), as an unreadable --matrix-file is; exit 1 would
    # read as a verification failure.  It is refused before the subcommand
    # computes anything.
    monkeypatch.setattr(cli_module, "root_system", never_called)
    monkeypatch.setattr(cli_module, "run_battery", never_called)
    with pytest.raises(SystemExit) as info:
        main([*argv, "--out", str(tmp_path / target)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "error: cannot write the output file" in err
    assert "Traceback" not in err


def test_failing_run_leaves_the_out_file_unchanged(capsys, tmp_path):
    # the file is opened only once the output is ready
    target = tmp_path / "report.txt"
    target.write_text("kept\n")
    code, out, _ = run(capsys, "roots", "--type", "E9", "--out", str(target))
    assert (code, out) == (2, "")
    assert target.read_text() == "kept\n"


def run_script(flags, script):
    """Run a Python script in a child interpreter with the given flags."""
    command = [sys.executable, *flags, "-c", script]
    return subprocess.run(command, capture_output=True, text=True, timeout=60)


WALK_SABOTAGE = """
import sys
from clusterfan import cli, mutation
catalan_number = mutation.catalan_number
mutation.catalan_number = lambda exponents: catalan_number(exponents) + 1
sys.exit(cli.main(["mutate", "--type", "A3"]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_failed_internal_check_exits_1_in_one_line(flags):
    # a walk told Cat(A3) = 15 closes with 14 seeds: a bug, reported as one
    # stderr line with exit 1, not as a traceback
    result = run_script(flags, WALK_SABOTAGE)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.splitlines() == [
        "mutate: internal check failed: the walk met 14 seeds, not Cat(A3) = 15"
    ]


UNTYPED_WALK = """
import sys
from clusterfan import cli, mutation
mutation._cluster_type = lambda *args: None
sys.exit(cli.main(["mutate", "--type", "A3"]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_walk_that_closes_untyped_exits_1(flags):
    # Thm 1.4 puts a seed with a finite Cartan counterpart in every finite
    # mutation class: a walk that closes without one is a bug, not a budget
    result = run_script(flags, UNTYPED_WALK)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.splitlines() == [
        "mutate: internal check failed:"
        " mutation class closed without a finite Cartan counterpart"
    ]


REFUSING_HANDLER = """
import sys
from clusterfan import cartan, cli, mutation, packing
def refuse(parser, args):
    raise {error}("refused")
cli.cmd_roots = refuse
sys.exit(cli.main(["roots", "--type", "A2"]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
@pytest.mark.parametrize(
    ("error", "code", "line"),
    [
        ("cartan.BadInput", 2, "roots: refused"),
        ("cartan.BudgetExceeded", 3, "budget exceeded: refused"),
        ("mutation.NotFiniteType", 3, "roots: refused"),
        ("packing.ExponentOverflow", 3, "roots: refused"),
        ("cartan.CheckFailed", 1, "roots: internal check failed: refused"),
    ],
    ids=["BadInput", "BudgetExceeded", "NotFiniteType", "ExponentOverflow", "CheckFailed"],
)
def test_each_exception_class_has_one_exit_code(flags, error, code, line):
    # main maps each class a handler may raise to its exit code, in one
    # stderr line with no traceback
    result = run_script(flags, REFUSING_HANDLER.format(error=error))
    assert (result.returncode, result.stdout) == (code, "")
    assert result.stderr.splitlines() == [line]


@pytest.mark.parametrize("budget", ["-1", "0", "x"])
def test_seed_budget_below_one_is_a_usage_error(capsys, budget):
    with pytest.raises(SystemExit) as info:
        main(["mutate", "--type", "A1", "--budget-seeds", budget])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"--budget-seeds: must be an integer of at least 1, not '{budget}'" in err


def test_verify_quick(capsys):
    code, out, _ = run(capsys, "verify", "--quick", "--rng-seed", "11")
    assert code == 0
    assert "criterion 01" in out
    assert "13/13 criteria passed" in out
    assert out == (DATA / "verify-quick-seed11.txt").read_text()


def test_verify_quick_and_extended_are_exclusive(capsys):
    parser = build_parser()
    assert parser.parse_args(["verify"]).extended is False
    assert parser.parse_args(["verify", "--quick"]).extended is False
    assert parser.parse_args(["verify", "--extended"]).extended is True
    with pytest.raises(SystemExit) as info:
        main(["verify", "--quick", "--extended"])
    assert info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_verify_rng_seed_changes_nothing_structural(capsys):
    # no check of the battery reads the seed; the flag is parsed and ignored
    code1, out1, _ = run(capsys, "verify", "--quick", "--rng-seed", "7")
    code2, out2, _ = run(capsys, "verify", "--quick", "--rng-seed", "11")
    assert code1 == code2 == 0
    assert out1 == out2


def test_closed_pipe_ends_quietly():
    # the D5 Hasse diagram (about 190 kB) outgrows the pipe buffer, so the
    # writer is still writing when the reader goes away after one line
    command = [sys.executable, "-m", "clusterfan.cli", "group", "--type", "D5"]
    proc = subprocess.Popen(
        command + ["--format", "dot"], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert proc.stdout.readline() == b"digraph weak_order {\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == BROKEN_PIPE
    assert "Traceback" not in err and "Error" not in err, err
    proc.stderr.close()


# -- the matrix-file half of the fuzz contract ---------------------------------

JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.integers(min_value=10**18)
    | st.integers(max_value=-(10**18))
    | st.floats()
    | st.text(max_size=4)
)
JUNK_JSON = st.recursive(
    JSON_LEAVES,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=2)
    ),
    max_leaves=12,
)
# bonds (|a_ij|, |a_ji|): the finite-type ones, then two that are not
BONDS = ((0, 0), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (4, 1))


NESTED = "[" * 10**5 + "]" * 10**5


@pytest.mark.parametrize(
    ("command", "content", "message"),
    [
        ("roots", NESTED, "roots: bad matrix JSON: nested too deeply"),
        ("assoc", "matrix:" + NESTED, "assoc: bad matrix JSON: nested too deeply"),
        ("mutate", "matrix:" + NESTED, "mutate: bad matrix JSON: nested too deeply"),
        (
            "group",
            "x" * 200_000,
            "group: expected 'type:NAME' or 'matrix:[[...]]',"
            f" got {'x' * 64!r}... (200000 characters)",
        ),
        (
            "roots",
            json.dumps([["x" * 100_000]]),
            "roots: entry '" + "x" * 63 + "... (100002 characters) is not an integer",
        ),
        (
            "mutate",
            "[[" + "[" * 900 + "]" * 900 + "]]",
            "mutate: entry " + "[" * 64 + "... (1800 characters) is not an integer",
        ),
    ],
    ids=["nested", "nested-matrix", "nested-exchange", "text", "long-entry", "deep-entry"],
)
def test_long_bad_matrix_file_is_refused_in_a_short_line(
    capsys, tmp_path, command, content, message
):
    # a 200 KB file is refused with exit 2 and a message that names the
    # fault and repeats at most a short prefix of it
    path = tmp_path / "m.json"
    path.write_text(content)
    code, out, err = run(capsys, command, "--matrix-file", str(path))
    assert (code, out) == (2, "")
    assert len(err.encode()) < 1024
    assert err.splitlines() == [message]


@st.composite
def near_matrices(draw):
    """Cartan or exchange matrices of rank 4 at most, bond by bond, at times
    with one more row or a row cut short: the shapes that reach validation."""
    n, exchange = draw(st.integers(1, 4)), draw(st.booleans())
    rows = [[0 if exchange or i != j else 2 for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        a, b = draw(st.sampled_from(BONDS))
        sign = draw(st.sampled_from((1, -1))) if exchange else -1
        rows[i][j], rows[j][i] = sign * a, (-sign if exchange else sign) * b
    rows += draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=1))
    if draw(st.integers(0, 3)) == 0:
        rows[-1].pop()
    return rows


# type names of rank 4 at most, so each draw ends in well under a second
TYPE_NAMES = st.lists(
    st.builds("{}{}".format, st.sampled_from("ABCDEFGQa"), st.integers(0, 4)) | st.text(max_size=3),
    min_size=1, max_size=2,
).map("+".join)
MATRIX_FILES = st.one_of(
    st.builds(json.dumps, near_matrices()),
    st.builds(json.dumps, JUNK_JSON),
    st.builds("matrix:{}".format, st.builds(json.dumps, near_matrices() | JUNK_JSON)),
    st.builds("type:{}".format, TYPE_NAMES),
    st.text(max_size=12),
).map(str.encode) | st.binary(max_size=12)


# the subcommands that take --matrix-file (wiring and verify refuse it)
@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(command=st.sampled_from(("assoc", "catalan", "group", "mutate", "roots")),
       data=st.data(), content=MATRIX_FILES)
@example(command="roots", data=None, content=b"\xff\xfe junk")
@example(command="mutate", data=None, content=b"[" * 10**5 + b"]" * 10**5)
@example(command="assoc", data=None, content=b"matrix:" + b"[" * 10**5 + b"]" * 10**5)
@example(command="group", data=None, content=b"[[2, -1e400], [-1, 2]]")
@example(command="mutate", data=None, content=b"[[0, 100000000000000000000], [-1, 0]]")
def test_junk_matrix_files_end_with_a_documented_exit_code(
    tmp_path_factory, command, data, content
):
    # every subcommand, in process: no exception escapes main, and the exit
    # code is one of 0 (ok), 1 (a check failed), 2 (usage) or 3 (budget)
    path = tmp_path_factory.mktemp("fuzz") / "matrix"
    path.write_bytes(content)
    fmt = data.draw(st.sampled_from(FORMATS[command])) if data else "text"
    argv = [command, "--matrix-file", str(path), "--format", fmt]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, content)


def test_unreadable_matrix_file_is_a_usage_error(capsys, tmp_path):
    for path in (tmp_path / "missing.json", tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["roots", "--matrix-file", str(path)])
        assert info.value.code == 2
        assert "cannot read the matrix file" in capsys.readouterr().err


# -- the subprocess half of the fuzz contract ------------------------------------

# every draw ends in well under a second: valid types are of rank 4 at most,
# and each other source is refused at once
FUZZ_TYPES = st.sampled_from(
    ["A1", "A3", "B3", "C3", "D4", "G2"]  # valid
    + ["A1+A2", "B2+G2"]  # reducible
    + ["A0", "D3", "E9", "A400"]  # rank 0, outside the families, over MAX_RANK
) | st.text(  # junk, with no digit so that it names no rank
    st.characters(blacklist_categories=("Cs", "Nd"), blacklist_characters="\x00"), max_size=6
)
FUZZ_ROWS = st.one_of(
    st.sampled_from([
        "[[2, -1], [-1]]",  # ragged
        "",  # empty
        "[[2, -1.5], [-1, 2]]",  # float
        f"[[2, -{10**40}], [-1, 2]]",  # huge integer
        '{"rows": [[2, -1], [-1, 2]]}',  # nested JSON
        "[[[2]]]",
    ]),
    st.integers(1, 10**5).map(lambda depth: "[" * depth + "]" * depth),
    # bipartite exchange rows of a rank whose Cat(W) is over every budget
    st.integers(20, 40).map(
        lambda n: json.dumps([list(row) for row in cartan.b_matrix(cartan.cartan_for_type(f"A{n}"))])
    ),
)
FUZZ_FILES = FUZZ_ROWS | FUZZ_ROWS.map("matrix:{}".format) | FUZZ_TYPES.map("type:{}".format)
# the child's address space: a blow-up fails the draw, not the machine
FUZZ_MEMORY = 1 << 30


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (FUZZ_MEMORY, FUZZ_MEMORY))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_cli_process_ends_with_a_documented_exit_code(tmp_path_factory, data):
    # each draw is a fresh `python -m clusterfan.cli` process under a memory
    # cap and a wall-clock bound: it must end with 0 (ok), 1 (a check failed),
    # 2 (usage) or 3 (budget), and never with a traceback
    command = data.draw(st.sampled_from(sorted(FORMATS)))
    fmt = data.draw(st.sampled_from(FORMATS[command]))
    source = data.draw(st.one_of(
        st.just([]),
        FUZZ_TYPES.map(lambda name: ["--type", name]),
        FUZZ_FILES.map(lambda text: ["--matrix-file", text]),
    ))
    if source[:1] == ["--matrix-file"]:
        path = tmp_path_factory.mktemp("fuzz") / "matrix"
        path.write_text(source[1])
        source = ["--matrix-file", str(path)]
    argv = [sys.executable, "-m", "clusterfan.cli", command, *source, "--format", fmt]
    result = subprocess.run(
        argv, capture_output=True, text=True, timeout=30, preexec_fn=limit_memory
    )
    assert result.returncode in (0, 1, 2, 3), (argv, result.stderr)
    assert "Traceback" not in result.stderr, (argv, result.stderr)
