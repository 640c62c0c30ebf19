"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py --probe
    python3 bench/worker.py TASKS RESULTS [--spans FILE]

Both forms import clusterfan (from `src/` through PYTHONPATH) and then
write `ready` to stdout, which is where the parent stops its set-up clock.
The second form then runs every task of TASKS (JSON, from
`workloads.build_tasks`) through `clusterfan.cli.main(argv)` or the library
API, checks each output against the oracle, and appends one JSON line per
task to RESULTS, flushed at once, so a pass that is killed still shows
which tasks finished.  A reference slice (`reference.py`) runs before each
task and after the last; the last line holds the pass time without them,
the slice times and the peak RSS.
With `--spans`, layer entry points are traced and the spans are written to
FILE after the pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time

import clusterfan
from clusterfan import assoc, cli, roots

import oracle
import reference
import spans


def _load_matrix(path: str) -> tuple[tuple[int, ...], ...]:
    with open(path) as handle:
        return tuple(tuple(row) for row in json.load(handle))


def run_task(task: dict):
    """(exit code, output) of one task; output is text for CLI tasks."""
    if "argv" in task:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(task["argv"])
            except SystemExit as exc:
                code = exc.code
        return code, buffer.getvalue()
    # The library call; looked up through the modules so that tracing sees it.
    rs = roots.root_system(_load_matrix(task["matrix_file"]))
    data = assoc.cluster_complex(assoc.compatibility(assoc.almost_positive(rs)))
    return 0, {"facets": len(data.facets), "h_vector": list(data.h_vector), "f_vector": list(data.f_vector)}


def run_pass(tasks: list[dict], results) -> tuple[float, list[float]]:
    """Pass time (tasks and checks, not reference slices) and the times of
    the reference slices run before each task and after the last."""
    pass_s, slices = 0.0, []
    for task in tasks:
        slices.append(reference.slice_s())
        began = time.perf_counter()
        try:
            code, output = run_task(task)
            problem = None
        except Exception as exc:  # a task that raises is a failed task, not a failed pass
            code, output, problem = None, None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - began
        problem = problem or oracle.check(task, code, output)
        checked_s = time.perf_counter() - began
        pass_s += checked_s
        row = {"task": task["name"], "seconds": seconds, "checked_s": checked_s, "code": code, "problem": problem}
        results.write(json.dumps(row) + "\n")
        results.flush()
        if code == 3:  # budget exceeded: the rest of the pass is not attempted
            break
    slices.append(reference.slice_s())
    return pass_s, slices


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("tasks", nargs="?")
    parser.add_argument("results", nargs="?")
    parser.add_argument("--spans")
    args = parser.parse_args()
    print("ready", clusterfan.__file__, flush=True)
    if args.probe:
        return 0
    with open(args.tasks) as handle:
        tasks = json.load(handle)
    tracer = spans.Tracer() if args.spans else None
    if tracer:
        tracer.install()
    with open(args.results, "w") as results:
        pass_s, slices = run_pass(tasks, results)
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        results.write(json.dumps({"pass_s": pass_s, "reference_s": slices, "maxrss_kb": maxrss_kb}) + "\n")
    if tracer:
        tracer.write(args.spans, {"pass_s": pass_s, "missing": tracer.missing})
    return 0


if __name__ == "__main__":
    sys.exit(main())
