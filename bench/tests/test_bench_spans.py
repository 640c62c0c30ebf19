"""Tracing changes no output byte, and span self times add up."""

import os
import subprocess
import sys

import pytest

import spans
from conftest import BENCH

SRC = os.path.join(os.path.dirname(BENCH), "src")

SNIPPET = """
import contextlib, io, sys
sys.path[:0] = [{bench!r}, {src!r}]
import spans
from clusterfan import cli
tracer = spans.Tracer()
if sys.argv[1] == "1":
    tracer.install()
buffer = io.StringIO()
with contextlib.redirect_stdout(buffer):
    code = cli.main(sys.argv[2:])
sys.stdout.write(f"exit {{code}} missing {{tracer.missing}} spans {{len(tracer.spans) > 0}}\\n")
sys.stdout.write(buffer.getvalue())
"""


def _cli(traced: bool, argv: list[str]) -> bytes:
    code = SNIPPET.format(bench=BENCH, src=SRC)
    return subprocess.run(
        [sys.executable, "-c", code, "1" if traced else "0", *argv],
        capture_output=True, check=True, timeout=120,
    ).stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--type", "G2", "--format", "json"],
        ["group", "--type", "A3", "--format", "dot"],
        ["mutate", "--type", "A3", "--format", "json"],
        ["assoc", "--type", "A3", "--format", "off"],
        ["assoc", "--type", "B3", "--format", "json"],
        ["catalan", "--type", "B2", "--format", "csv"],
        ["wiring", "--format", "json"],
        ["verify"],
    ],
)
def test_output_bytes_identical_with_tracing(argv):
    plain, traced = _cli(False, argv), _cli(True, argv)
    head_plain, _, body_plain = plain.partition(b"\n")
    head_traced, _, body_traced = traced.partition(b"\n")
    assert head_plain.startswith(b"exit 0 missing [] spans False")
    assert head_traced == b"exit 0 missing [] spans True"
    assert body_plain == body_traced


def _span(index, name, start, end, parent, **counters):
    record = {"id": index, "name": name, "start": start, "end": end, "parent": parent}
    if counters:
        record["counters"] = counters
    return record


def test_self_times_and_unspanned_add_up_to_pass_time():
    records = [
        _span(0, "cli.main", 0.0, 10.0, -1),
        _span(1, "mutation.explore", 1.0, 4.0, 0, seeds=5, variables=4),
        _span(2, "laurent.exact_div", 2.0, 3.0, 1, terms=7),
        _span(3, "laurent.exact_div", 5.0, 6.0, 0, terms=2),
    ]
    summary = spans.summarize(records, 12.0)
    assert summary["cli.main.self_s"] == 6.0
    assert summary["mutation.explore.self_s"] == 2.0
    assert summary["laurent.exact_div.self_s"] == 2.0
    assert summary["laurent.exact_div.calls"] == 2
    assert summary["laurent.exact_div.terms"] == 9
    assert summary["mutation.explore.exact_div_calls"] == 1
    assert summary["trace.unspanned_s"] == 2.0
    layers = sum(summary.get(f"{layer}.self_s", 0.0) for layer in spans.LAYERS)
    assert layers + summary["trace.unspanned_s"] == summary["trace.pass_s"] == 12.0


def test_every_entry_point_exists():
    code = "import sys; sys.path[:0] = [%r, %r]; import spans; t = spans.Tracer(); t.install(); print(t.missing)"
    out = subprocess.run(
        [sys.executable, "-c", code % (BENCH, SRC)], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out.strip() == "[]"
