"""clusterfan benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout holding `src/clusterfan`.  One closed-loop
client runs one pass at a time: a pass is a fresh interpreter
(`bench/worker.py`) that runs every task of the workload once and checks
its outputs against `bench/oracle.py`, so no program cache survives from
one pass to the next.  Passes repeat while the next one is expected to end
within S seconds; at least one always runs.

With `--trace 0` the last stdout line reports the end-to-end metrics of
`metrics.END_TO_END`; with `--trace 1` untraced and traced passes
alternate and it reports `metrics.PER_LAYER`, medians over traced passes.
Lines before it give quartiles, pass counts, the failed share of tasks and
the tracing overhead.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import metrics
import reference
import spans
from workloads import WHY, Inputs, build_tasks

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH, "worker.py")
PASS_TIMEOUT_S = 60  # a pass that runs longer is killed and its open tasks fail
SETUP_SAMPLES = 7


class Client:
    """Spawns workers for one run; every child is waited for before return."""

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)
        # an installed CLI has bytecode caches; set-up is measured with them
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.count = 0

    def _spawn(self, *args: str) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, WORKER, *args], stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT
        )

    @staticmethod
    def _ready(proc: subprocess.Popen) -> bool:
        """Wait for the worker's `ready` line; check it imported src/clusterfan."""
        if not select.select([proc.stdout], [], [], PASS_TIMEOUT_S)[0]:
            return False
        words = proc.stdout.readline().split(maxsplit=1)
        return words[:1] == ["ready"] and os.path.abspath(words[1].strip()).startswith(SRC + os.sep)

    @staticmethod
    def _finish(proc: subprocess.Popen, timeout: float) -> bool:
        """Wait for exit; kill on timeout.  True if it exited by itself."""
        try:
            proc.wait(timeout=timeout)
            return True
        except subprocess.TimeoutExpired:
            return False
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def setup_sample(self, workload: str, seed: int) -> float:
        """Generate the inputs, then spawn an interpreter and import clusterfan."""
        self.count += 1
        start = time.perf_counter()
        directory = os.path.join(self.workdir, f"setup{self.count}")
        os.mkdir(directory)
        build_tasks(workload, seed, directory)
        proc = self._spawn("--probe")
        ready = self._ready(proc)
        elapsed = time.perf_counter() - start
        if not (self._finish(proc, PASS_TIMEOUT_S) and ready and proc.returncode == 0):
            raise RuntimeError("the worker could not import clusterfan from src/")
        return elapsed

    def run_pass(self, tasks_path: str, tasks: list[dict], traced: bool) -> dict:
        self.count += 1
        results = os.path.join(self.workdir, f"pass{self.count}.jsonl")
        span_file = os.path.join(self.workdir, f"pass{self.count}.spans.jsonl") if traced else None
        start = time.perf_counter()
        proc = self._spawn(tasks_path, results, *(["--spans", span_file] if traced else []))
        ready = self._ready(proc)
        exited = self._finish(proc, PASS_TIMEOUT_S - (time.perf_counter() - start)) and ready
        outer_s = time.perf_counter() - start
        rows = []
        if os.path.exists(results):
            with open(results) as handle:
                rows = [json.loads(line) for line in handle if line.endswith("\n")]
        done = [row for row in rows if "task" in row]
        final = next((row for row in rows if "pass_s" in row), None)
        problems = [f"{row['task']}: {row['problem']}" for row in done if row["problem"]]
        if not (exited and final and proc.returncode == 0):
            problems.append(f"pass ended early (exit {proc.returncode}, {len(done)}/{len(tasks)} tasks reported)")
        return {
            "pass_s": final["pass_s"] if final else outer_s,
            "outer_s": outer_s,
            "slowest_s": max((row["seconds"] for row in done), default=outer_s),
            "slowest_task": max(done, key=lambda row: row["seconds"])["task"] if done else "-",
            "maxrss_mb": final["maxrss_kb"] / 1024 if final else 0.0,
            **self._in_slices(done, final, outer_s),
            "attempted": len(tasks),
            "failed": len(tasks) - sum(1 for row in done if row["problem"] is None),
            "problems": problems,
            "spans": span_file if final else None,
        }

    @staticmethod
    def _in_slices(done: list[dict], final: dict | None, outer_s: float) -> dict:
        """Pass and slowest-task time in reference slices: each task is
        divided by the mean of the slices run just before and just after it.
        A pass that ended early has no slices of its own; it is measured
        whole, against a slice run here."""
        if not final:
            slice_s = reference.slice_s()
            return {"reference_s": slice_s, "wall_ref": outer_s / slice_s, "slowest_ref": outer_s / slice_s}
        slices = final["reference_s"]
        around = [(before + after) / 2 for before, after in zip(slices, slices[1:])]
        return {
            "reference_s": statistics.mean(slices),
            "wall_ref": sum(row["checked_s"] / slice_s for row, slice_s in zip(done, around)),
            "slowest_ref": max(row["seconds"] / slice_s for row, slice_s in zip(done, around)),
        }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(name: str, values: list[float], unit: str) -> str:
    q1, q2, q3 = quartiles(values)
    n = len(values)
    # the highest percentile that has at least ten passes above it
    tail = f"p{100 * (n - 10) // n} {sorted(values)[n - 11]:.4f}" if n > 10 else "none (needs 11 passes)"
    return f"{name} median {q2:.4f} {unit}, q1 {q1:.4f}, q3 {q3:.4f}, passes {n}; tail {tail}"


def measure(client: Client, tasks_path: str, tasks: list[dict], seconds: float, trace: bool) -> list[dict]:
    """Run passes until the next one would end after `seconds`.  In trace
    mode, untraced and traced passes alternate and both kinds run."""
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(dict(client.run_pass(tasks_path, tasks, traced), traced=traced))
        kind = trace and len(passes) % 2 == 1
        same = [p["outer_s"] for p in passes if p["traced"] == kind]
        if trace and len(passes) < 2:
            continue
        if time.perf_counter() - start + statistics.median(same) > seconds:
            return passes


def end_to_end(passes: list[dict], setup: list[float], info: list[str]) -> dict:
    plain = [p for p in passes if not p["traced"]]
    wall = [p["pass_s"] for p in plain]
    slowest = [p["slowest_s"] for p in plain]
    wall_ref = [p["wall_ref"] for p in plain]
    slowest_ref = [p["slowest_ref"] for p in plain]
    info.append(describe("wall_s", wall, "s"))
    info.append(describe("slowest_task_s", slowest, "s") + f"; slowest task {plain[0]['slowest_task']}")
    info.append(describe("reference slice", [p["reference_s"] for p in plain], "s"))
    info.append(describe("wall_ref", wall_ref, "slices"))
    info.append(describe("slowest_task_ref", slowest_ref, "slices"))
    info.append(describe("setup_s", setup, "s"))
    return {
        "setup_s": statistics.median(setup),
        "wall_ref": statistics.median(wall_ref),
        "slowest_task_ref": statistics.median(slowest_ref),
        "peak_rss_mb": statistics.median(p["maxrss_mb"] for p in plain),
    }


def per_layer(passes: list[dict], workload: str, info: list[str]) -> dict:
    """Medians over traced passes; keeps the last pass's spans in bench/out."""
    traced = [p for p in passes if p["traced"]]
    rows = []
    for p in traced:
        meta, records = spans.read(p["spans"]) if p["spans"] else ({}, [])
        if meta.get("missing"):
            info.append("entry points not found: " + ", ".join(meta["missing"]))
        summary = spans.summarize(records, p["pass_s"])
        layers = sum(summary.get(f"{layer}.self_s", 0.0) for layer in spans.LAYERS)
        info.append(
            f"traced pass {p['pass_s']:.4f} s = layer self times {layers:.4f} s"
            f" + unspanned {summary['trace.unspanned_s']:.4f} s ({len(records)} spans)"
        )
        rows.append(metrics.per_layer_values(summary))
    if traced[-1]["spans"]:
        os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
        shutil.copyfile(traced[-1]["spans"], os.path.join(BENCH, "out", f"spans-{workload}.jsonl"))
    plain = [p for p in passes if not p["traced"]]
    values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    for name, key, unit in (("trace.overhead_s", "pass_s", "s"), ("trace.overhead_ref", "wall_ref", "slices")):
        overhead = statistics.median(p[key] for p in traced) - statistics.median(p[key] for p in plain)
        values[name] = overhead
        info.append(
            f"tracing overhead {overhead:.4f} {unit} (median traced minus median untraced pass,"
            f" {len(traced)} traced and {len(plain)} untraced passes)"
        )
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description="clusterfan benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind through the `finally` blocks that stop the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "clusterfan", "__init__.py")):
        print(f"bench: no src/clusterfan under {ROOT}; run from the repository root", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(BENCH, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(BENCH, ".work"))
    info = [f"workload {args.workload} seed {args.seed} trace {args.trace}: {WHY[args.workload]}"]
    try:
        client = Client(args.seed, workdir)
        setup = []
        if not args.trace:
            client.setup_sample(args.workload, args.seed)  # writes bytecode caches; not counted
            setup = [client.setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
        tasks = build_tasks(args.workload, args.seed, workdir)
        tasks_path = os.path.join(workdir, "tasks.json")
        with open(tasks_path, "w") as handle:
            json.dump(tasks, handle)
        info.append(f"rng-seed {Inputs(args.seed, workdir).rng_seed}; tasks: " + "; ".join(t["name"] for t in tasks))
        passes = measure(client, tasks_path, tasks, args.seconds, bool(args.trace))
        if args.trace:
            values = per_layer(passes, args.workload, info)
            units = {name: unit for name, unit, _, _ in metrics.PER_LAYER}
        else:
            values = end_to_end(passes, setup, info)
            units = {name: unit for name, unit, _ in metrics.END_TO_END}
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    info += [problem for p in passes for problem in p["problems"]]
    info.append(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} tasks failed)")
    for line in info:
        print(line)
    metrics_out = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
