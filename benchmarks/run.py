"""Benchmark of the oseq command-line tool.

Runs one workload in this process, calling the real CLI through
``oseq.cli.run([...])`` in a closed loop: one client, no threads, each call
starting when the previous one has finished.  Run from the repository root:

    python3 benchmarks/run.py --workload window --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the calls
between the package's modules and prints per-layer metrics instead, and
writes its spans to ``.bench_work/trace-<workload>-seed<seed>.json``.  The
lines before the last summarise the run; the last line is one JSON object.
See README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from tracing import Patches, Tracer, install_alloc_probes  # noqa: E402
from workloads import SIZES, WORKLOADS, Op, Plan  # noqa: E402

MODULES = ("cli", "counting", "enumerator", "macaulay", "lexseg", "analysis")
# Set-up repeats at least this often and for at least this long; the median counts.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
WORK_DIR = ROOT / ".bench_work"

# name -> unit; BENCHMARK.json lists the same names with their bounds.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "first_line_ms": "ms",
    "lines_per_s": "lines/s",
}

PER_LAYER = {
    "macaulay.growth_bound.calls": "count",
    "macaulay.growth_bound.misses": "count",
    "macaulay.growth_bound.self_s": "s",
    "macaulay.binomial.calls": "count",
    "macaulay.binomial.self_s": "s",
    "macaulay.is_o_sequence.calls": "count",
    "macaulay.is_o_sequence.self_s": "s",
    "enumerator.count_table.self_s": "s",
    "enumerator.count_table.peak_alloc_mib": "MiB",
    "enumerator.iter_all.first_s": "s",
    "enumerator.iter_all.items": "count",
    "enumerator.iter_all.self_s": "s",
    "enumerator.iter_all.peak_alloc_mib": "MiB",
    "enumerator.iter_buckets.self_s": "s",
    "counting.count_via_formula.self_s": "s",
    "counting.count_restricted.calls": "count",
    "counting.count_restricted.self_s": "s",
    "counting.cache.keys": "count",
    "counting.cache.hits": "count",
    "counting.cache.misses": "count",
    "counting.cache.lookups": "count",
    "counting.cache.hit_ratio": "ratio",
    "counting.load_cache.s": "s",
    "counting.save_cache.s": "s",
    "counting.cache_file.bytes": "bytes",
    "lexseg.exhaustive_count.calls": "count",
    "lexseg.exhaustive_count.self_s": "s",
    "analysis.check_oracle_grid.self_s": "s",
    "analysis.check_window_bijection.self_s": "s",
    "analysis.checks": "count",
    "analysis.failed_checks": "count",
    "cli.run.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}


@dataclass
class OpResult:
    lead: bool
    work: str
    wall_ns: int
    cpu_ns: int
    first_line_ns: int  # until the first complete stdout line, or the whole call if none
    lines: int
    bytes: int
    problem: str | None


@dataclass
class Setup:
    total_s: float
    import_s: float
    repeats: int
    mods: dict[str, ModuleType]
    plan: Plan


def import_oseq() -> dict[str, ModuleType]:
    """A fresh import of the package, as a new ``oseq`` process would do."""
    for name in [m for m in sys.modules if m == "oseq" or m.startswith("oseq.")]:
        del sys.modules[name]
    return {m: importlib.import_module(f"oseq.{m}") for m in MODULES}


def function_caches(mods: dict[str, ModuleType]) -> list[Callable]:
    """The package's process-wide function caches (``functools.lru_cache``)."""
    found = {}
    for module in mods.values():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


def run_op(mods: dict[str, ModuleType], op: Op, out_path: str, caches: list) -> OpResult:
    """One CLI call with stdout sent to a file, timed up to its final flush.

    The package's function caches are emptied and the garbage collector's
    generations are reset first, so each call pays what a fresh ``oseq``
    process pays.
    """
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    out = open(out_path, "w", encoding="utf-8", newline="\n")
    first_line: list[int] = []
    raw_write = out.write

    def write(text: str) -> int:
        written = raw_write(text)
        if not first_line and "\n" in text:
            first_line.append(time.perf_counter_ns())
            del out.write  # print() goes straight to the file object from now on
        return written

    out.write = write
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, io.StringIO()
    problem = None
    start, cpu_start = time.perf_counter_ns(), time.process_time_ns()
    try:
        code = mods["cli"].run(op.argv)
        out.flush()
    except (Exception, SystemExit):  # a crashing call is a failed operation
        code, problem = -1, "raised " + traceback.format_exc().strip().splitlines()[-1]
    finally:
        end, cpu_end = time.perf_counter_ns(), time.process_time_ns()
        sys.stdout, sys.stderr = saved
        out.close()
    with open(out_path, encoding="utf-8") as fh:
        text = fh.read()
    if problem is None:
        problem = op.check(code, text)
    return OpResult(
        lead=op.lead, work=op.work, wall_ns=end - start, cpu_ns=cpu_end - cpu_start,
        first_line_ns=(first_line[0] if first_line else end) - start,
        lines=text.count("\n"), bytes=os.path.getsize(out_path),
        problem=None if problem is None else f"{' '.join(op.argv)}: {problem}",
    )


def run_sequence(mods: dict[str, ModuleType], plan: Plan, out_path: str, caches: list,
                 after_op: Callable[[OpResult], None] | None = None) -> list[OpResult]:
    plan.reset()
    results = []
    for op in plan.ops:
        results.append(run_op(mods, op, out_path, caches))
        if after_op is not None:
            after_op(results[-1])
    return results


def set_up(workload: str, seed: int, workdir: str, size: dict, repeat: bool) -> Setup:
    """Imports the package and prepares the workload, repeatedly if ``repeat``.

    Times are medians over the repetitions; the last repetition is used.
    """
    totals, imports = [], []
    began = time.perf_counter()
    while True:
        start = time.perf_counter()
        mods = import_oseq()
        imported = time.perf_counter()
        plan = WORKLOADS[workload](mods, random.Random(seed), workdir, size)
        totals.append(time.perf_counter() - start)
        imports.append(imported - start)
        if not repeat or (len(totals) >= SETUP_MIN_REPEATS
                          and time.perf_counter() - began >= SETUP_MIN_SECONDS):
            return Setup(statistics.median(totals), statistics.median(imports), len(totals),
                         mods, plan)


def tail(values: list[int]) -> tuple[int, float, int]:
    """The highest percentile with at least ten samples above it.

    Returns (value, percentile, samples above).  With ten samples or fewer
    no percentile qualifies, and the maximum is returned with 0 above.
    """
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0, 0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered), 10


def floors(sequences: list[list[OpResult]], field: str) -> list[int]:
    """Each call's floor: the lowest reading of ``field`` in the run among the
    calls that do its work.

    Every sequence makes the same calls on the same state, so the calls at
    one position of the sequence do the same work, and so do calls with the
    same ``work`` label; only the host's speed differs between them.
    """
    keys = [r.work or i for i, r in enumerate(sequences[0])]
    best: dict = {}
    for seq in sequences:
        for key, r in zip(keys, seq):
            value = getattr(r, field)
            best[key] = min(best.get(key, value), value)
    return [best[key] for key in keys]


def end_to_end(sequences: list[list[OpResult]], setup_s: float) -> tuple[dict, list[str]]:
    """Timings from each call's floor: its fastest run in the measured time.

    The shared host slows every process on it by up to about 2 times, in
    spells of under a second to over a minute.  A call's floor moves with the call's own cost
    and much less with those phases than its median does (README.md, Noise).
    """
    lead = [i for i, r in enumerate(sequences[0]) if r.lead]
    wall, cpu, first = (floors(sequences, f) for f in ("wall_ns", "cpu_ns", "first_line_ns"))
    latencies = [wall[i] for i in lead]
    tail_ns, tail_pct, above = tail(latencies)
    values = {
        "setup_s": setup_s,
        "wall_s": sum(wall) / 1e9,
        "cpu_s": sum(cpu) / 1e9,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_ms": statistics.median(latencies) / 1e6,
        "op_tail_ms": tail_ns / 1e6,
        "first_line_ms": statistics.median(first[i] for i in lead) / 1e6,
        "lines_per_s": sum(sequences[0][i].lines for i in lead) / (sum(latencies) / 1e9),
    }
    notes = [f"timings are floors over {len(sequences)} sequences; op_tail_ms is "
             f"p{tail_pct:.1f} of {len(lead)} lead calls ({above} samples above it)"]
    return values, notes


def measure(mods: dict[str, ModuleType], plan: Plan, seconds: float, out_path: str,
            caches: list) -> list[list[OpResult]]:
    sequences = []
    deadline = time.perf_counter() + seconds
    while not sequences or time.perf_counter() < deadline:
        sequences.append(run_sequence(mods, plan, out_path, caches))
    return sequences


def traced_sequence(mods: dict[str, ModuleType], plan: Plan, out_path: str,
                    caches: list) -> tuple[Tracer, list[OpResult]]:
    """One sequence with every module boundary wrapped, plus exact counters."""
    tracer = Tracer()
    created: list = []  # CountCache objects made during the current call

    def count_report(report: object) -> None:
        tracer.add("analysis.checks", len(report.checks))
        tracer.add("analysis.failed_checks", len(report.failures()))

    def after_op(result: OpResult) -> None:
        growth_bound = getattr(mods["macaulay"], "growth_bound", None)
        if hasattr(growth_bound, "cache_info"):
            info = growth_bound.cache_info()
            tracer.add("macaulay.growth_bound.calls", info.hits + info.misses)
            tracer.add("macaulay.growth_bound.misses", info.misses)
        for cache in created:
            tracer.peak("counting.cache.keys", len(cache))
            tracer.add("counting.cache.hits", getattr(cache, "hits", 0))
            tracer.add("counting.cache.misses", getattr(cache, "misses", 0))
        created.clear()
        tracer.add("cli.stdout_bytes", result.bytes)

    with Patches(mods) as patches:
        tracer.install(patches, {"analysis.check_oracle_grid": count_report,
                                 "analysis.check_window_bijection": count_report})
        cache_class = getattr(mods["counting"], "CountCache", None)
        if cache_class is not None:
            original_init = cache_class.__init__

            def init(self, *args, **kwargs):
                original_init(self, *args, **kwargs)
                created.append(self)

            patches.set(cache_class, "__init__", init)
        results = run_sequence(mods, plan, out_path, caches, after_op)
    file_bytes = os.path.getsize(plan.memo_file) if plan.memo_file else 0
    tracer.peak("counting.cache_file.bytes", file_bytes)
    return tracer, results


def layer_values(tracer: Tracer, peaks: dict[str, int]) -> dict[str, float]:
    c = tracer.counters
    hits, misses = c.get("counting.cache.hits", 0), c.get("counting.cache.misses", 0)
    values: dict[str, float] = {
        name: c.get(name, 0) for name in (
            "macaulay.growth_bound.calls", "macaulay.growth_bound.misses",
            "enumerator.iter_all.items", "counting.cache.keys", "counting.cache.hits",
            "counting.cache.misses", "counting.cache_file.bytes", "analysis.checks",
            "analysis.failed_checks", "cli.stdout_bytes")
    }
    for name in ("macaulay.growth_bound", "macaulay.binomial", "macaulay.is_o_sequence",
                 "enumerator.count_table", "enumerator.iter_all", "enumerator.iter_buckets",
                 "counting.count_via_formula", "counting.count_restricted",
                 "lexseg.exhaustive_count", "analysis.check_oracle_grid",
                 "analysis.check_window_bijection", "cli.run"):
        values[name + ".self_s"] = tracer.self_s(name)
    for name in ("macaulay.binomial", "macaulay.is_o_sequence", "counting.count_restricted",
                 "lexseg.exhaustive_count"):
        values[name + ".calls"] = tracer.calls(name)
    for name in ("enumerator.count_table", "enumerator.iter_all"):
        values[name + ".peak_alloc_mib"] = peaks.get(name, 0) / 2**20
    streams = c.get("enumerator.iter_all.streams", 0)
    values["enumerator.iter_all.first_s"] = (
        c.get("enumerator.iter_all.first_ns", 0) / streams / 1e9 if streams else 0.0)
    values["counting.cache.lookups"] = hits + misses
    values["counting.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["counting.load_cache.s"] = tracer.total_s("counting.load_cache")
    values["counting.save_cache.s"] = tracer.total_s("counting.save_cache")
    return values


def measure_traced(mods: dict[str, ModuleType], plan: Plan, seconds: float, out_path: str,
                   caches: list) -> tuple[dict, list[list[OpResult]], dict]:
    """Alternates untraced and traced sequences; medians of each layer metric.

    A layer metric's median is the lower middle value, so counts stay whole.

    A first pass runs the sequence's first call with tracemalloc inside
    the probed functions; its timings are not used.
    """
    peaks: dict[str, int] = {}
    plan.reset()
    with Patches(mods) as patches:
        install_alloc_probes(patches, peaks)
        alloc_pass = [run_op(mods, plan.ops[0], out_path, caches)]
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < 2 or time.perf_counter() < deadline:
        if index % 2 == 0:
            untraced.append(run_sequence(mods, plan, out_path, caches))
        else:
            traced.append(traced_sequence(mods, plan, out_path, caches))
        index += 1
    per_sequence = [layer_values(tracer, peaks) for tracer, _ in traced]
    values = {name: statistics.median_low(v[name] for v in per_sequence)
              for name in per_sequence[0]}
    values["trace.overhead_s"] = (sum(floors([r for _, r in traced], "wall_ns"))
                                  - sum(floors(untraced, "wall_ns"))) / 1e9
    spans = {"alloc_peaks_bytes": peaks,
             "sequences": [dict(index=2 * i + 1, **tracer.to_json())
                           for i, (tracer, _) in enumerate(traced)]}
    return values, [alloc_pass, *untraced, *(r for _, r in traced)], spans


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: dict | None = None) -> dict:
    """Runs one workload and returns the result object printed as the last line."""
    size = SIZES[workload] if size is None else size
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    WORK_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / f"run-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        setup = set_up(workload, seed, str(workdir), size, repeat=not trace)
        mods, plan = setup.mods, setup.plan
        caches = function_caches(mods)
        out_path = str(workdir / "stdout.txt")
        # The collection before each call then skips the objects set-up left,
        # which a fresh oseq process would not have either.
        gc.collect()
        gc.freeze()
        if trace:
            values, sequences, spans = measure_traced(mods, plan, seconds, out_path, caches)
            units, notes = PER_LAYER, []
            trace_file = WORK_DIR / f"trace-{workload}-seed{seed}.json"
            trace_file.write_text(json.dumps(dict(workload=workload, seed=seed, **spans)))
            notes.append(f"spans written to {trace_file.relative_to(ROOT)}")
        else:
            sequences = measure(mods, plan, seconds, out_path, caches)
            values, notes = end_to_end(sequences, setup.total_s)
            units = END_TO_END
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
    results = [r for seq in sequences for r in seq]
    problems = [r.problem for r in results if r.problem is not None]
    print(f"workload {workload}, seed {seed}, {seconds} s, trace {int(trace)}: "
          f"{len(sequences)} sequences, {len(results)} calls")
    print(f"setup: median {setup.total_s:.4f} s of {setup.repeats} (import {setup.import_s:.4f} s; "
          + "; ".join(plan.notes) + ")")
    print(f"failed_ratio {len(problems) / len(results):.4f} ratio "
          f"({len(problems)} of {len(results)} calls failed)")
    for name, value in values.items():
        print(f"  {name} {value:.6g} {units[name]}")
    for note in notes:
        print(f"  {note}")
    for problem in problems[:5]:
        print(f"FAILED {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(results),
        "failed": len(problems),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "oseq" / "__init__.py").is_file():
        print(f"run.py: no oseq sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
