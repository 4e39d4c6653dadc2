"""The three benchmark workloads: their seeded inputs, set-up and output checks.

Each workload is a sequence of ``oseq`` CLI calls that the runner repeats
for the measured time.  Lead calls are the workload's subject and feed the
per-operation latency metrics; the other calls count towards the time of
the whole sequence only.  The seed changes the order of the work, or the
format of output a few dozen rows long, but not the amount of work.  Every
call's exit code and stdout are checked against answers that do not come
from the code path under test.
"""
from __future__ import annotations

import csv
import io
import json
import os
import random
import re
import shutil
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable

FORMATS = ("text", "json", "csv")

# O_d, the number of O-sequences of multiplicity d.  O_1..O_20 agree across
# both counting methods; O_21..O_60 are the published A232476 values, except
# that the published O_35 = 5255 is a misprint (it is below O_34) and the
# value both methods compute, 52559, stands in its place.
EXPECTED_O: tuple[int, ...] = (
    0, 1, 1, 2, 3, 5, 8, 12, 18, 27, 40, 57, 82, 116, 163, 227, 313, 428, 583, 788,
    1059, 1416, 1882, 2490, 3279, 4299, 5612, 7297, 9451, 12195, 15683, 20099,
    25674, 32696, 41514, 52559, 66361, 83561, 104951, 131491, 164347, 204936,
    254979, 316552, 392166, 484853, 598255, 736759, 905635, 1111194, 1360997,
    1664090, 2031266, 2475404, 3011853, 3658861, 4438118, 5375378, 6501163,
    7851624, 9469536,
)

# Sizes of the measured runs.  The costs of table, count and enumerate grow
# by about 22 % per unit of d, so d is fixed per workload rather than drawn
# from the seed: a seeded d would make seed-to-seed cost differences larger
# than the regression bounds.  The sizes keep a lead call near 0.1 s and the
# calls of a memo sequence near 0.5 s, so that a run holds many samples of
# each call and its floor (README.md, Noise) falls in one of the host's brief
# fast spells.
SIZES: dict[str, dict] = {
    "window": {"max_d": 42, "d": 32, "bijection_max_d": 28},
    "crosscheck": {"d": 17, "oracle_max_d": 10},
    "memo": {"warm_max_d": 30, "query_d": (24, 25), "repeats": 24},
}

# Sizes small enough for the smoke test.
TINY: dict[str, dict] = {
    "window": {"max_d": 12, "d": 9, "bijection_max_d": 6},
    "crosscheck": {"d": 8, "oracle_max_d": 3},
    "memo": {"warm_max_d": 8, "query_d": (6, 7), "repeats": 8},
}


@dataclass
class Op:
    argv: list[str]
    lead: bool
    check: Callable[[int, str], str | None]  # (exit code, stdout) -> problem or None
    work: str = ""  # calls with the same label differ only in output format


@dataclass
class Plan:
    """What the runner needs from a prepared workload."""

    ops: list[Op]  # one sequence; the runner repeats it
    reset: Callable[[], None] = lambda: None  # restores files before a sequence
    memo_file: str | None = None
    notes: list[str] = field(default_factory=list)  # what set-up covered


def _value(cell: str) -> int | bool | str:
    if cell in ("True", "False"):
        return cell == "True"
    try:
        return int(cell)
    except ValueError:
        return cell


def parse_rows(text: str, fmt: str) -> list[dict]:
    """Rows printed by the CLI's table emitter in any --format."""
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        header, *body = csv.reader(io.StringIO(text))
        return [{c: _value(v) for c, v in zip(header, row)} for row in body]
    header, *body = (line.split() for line in text.splitlines())
    return [{c: _value(v) for c, v in zip(header, row)} for row in body]


_SUMMARY = re.compile(r"^suite (\w+): (\d+) checks, (ok|\d+ failed), \d+ anomalies$")


def report_problem(text: str, fmt: str, suite: str) -> str | None:
    """None when a verification report printed in ``fmt`` passed."""
    if fmt == "json":
        report = json.loads(text)
        checks, passed = len(report["checks"]), report["passed"] is True
        ok = passed and report["suite"] == suite and all(c["passed"] for c in report["checks"])
    elif fmt == "csv":
        header, *body = csv.reader(io.StringIO(text))
        rows = [dict(zip(header, row)) for row in body if row[0] == "check"]
        checks, ok = len(rows), all(r["passed"] == "True" for r in rows)
    else:
        match = _SUMMARY.match(text.splitlines()[-1])
        if match is None:
            return "text report has no summary line"
        checks, ok = int(match[2]), match[1] == suite and match[3] == "ok"
    if checks == 0:
        return f"suite {suite} ran no checks"
    return None if ok else f"suite {suite} reported failures"


def _guarded(check: Callable[[str], str | None]) -> Callable[[int, str], str | None]:
    """Adds the exit-code test and turns unparsable output into a problem."""

    def checked(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            return check(out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparsable output: {exc!r}"

    return checked


def _check_table(max_d: int, fmt: str) -> Callable[[int, str], str | None]:
    def check(out: str) -> str | None:
        rows = parse_rows(out, fmt)
        if [r["d"] for r in rows] != list(range(1, max_d + 1)):
            return "rows are not d = 1..max_d"
        previous = 0
        for r in rows:
            if r["O"] != EXPECTED_O[r["d"]]:
                return f"O_{r['d']} = {r['O']}, expected {EXPECTED_O[r['d']]}"
            if r["d"] > 1 and r["O"] != previous + r["A"]:
                return f"O_{r['d']} != O_{r['d'] - 1} + A_{r['d']}"
            previous = r["O"]
        return None

    return _guarded(check)


def _check_count(d: int, fmt: str) -> Callable[[int, str], str | None]:
    def check(out: str) -> str | None:
        rows = parse_rows(out, fmt)
        want = {"d": d, "enum": EXPECTED_O[d], "formula": EXPECTED_O[d], "agree": True}
        return None if rows == [want] else f"count row {rows}, expected {want}"

    return _guarded(check)


def _check_report(suite: str, fmt: str) -> Callable[[int, str], str | None]:
    return _guarded(lambda out: report_problem(out, fmt, suite))


def _check_formula(query: tuple[int, int, int, int], want: int,
                   fmt: str) -> Callable[[int, str], str | None]:
    def check(out: str) -> str | None:
        rows = parse_rows(out, fmt)
        if len(rows) != 1 or {"hits", "misses", "cached_keys"} - set(rows[0]):
            return f"formula printed {rows}"
        got = (rows[0]["p"], rows[0]["n"], rows[0]["k"], rows[0]["d"], rows[0]["count"])
        return None if got == (*query, want) else f"formula {got}, expected count {want}"

    return _guarded(check)


def _check_stream(d: int) -> Callable[[int, str], str | None]:
    def check(out: str) -> str | None:
        # one line at a time, so the check's memory stays below the call's own peak
        lines, previous = out.splitlines(), ()
        if len(lines) != EXPECTED_O[d]:
            return f"{len(lines)} lines, expected O_{d} = {EXPECTED_O[d]}"
        for line in lines:
            seq = tuple(map(int, line.split(",")))
            if seq[0] != 1 or sum(seq) != d:
                return f"line {line} does not start with 1 or does not sum to {d}"
            if seq <= previous:
                return f"line {line} does not follow the previous one in lex order"
            previous = seq
        return None

    return _guarded(check)


def _formats(rng: random.Random) -> list[str]:
    """Every output format once, in seeded order."""
    order = list(FORMATS)
    rng.shuffle(order)
    return order


def prepare_crosscheck(mods: dict[str, ModuleType], rng: random.Random, workdir: str,
                       size: dict) -> Plan:
    """``count D --method both`` on a cold cache in each format, then the oracle suite."""
    d, oracle_max_d, formats = size["d"], size["oracle_max_d"], _formats(rng)
    ops = [Op(["count", str(d), "--method", "both", "--format", fmt], True, _check_count(d, fmt),
              "count") for fmt in formats]
    ops.append(Op(["verify", "--suite", "oracle", "--max-d", str(oracle_max_d),
                   "--format", formats[0]], False, _check_report("oracle", formats[0])))
    return Plan(ops, notes=[f"reference O_{d} embedded"])


def prepare_memo(mods: dict[str, ModuleType], rng: random.Random, workdir: str,
                 size: dict) -> Plan:
    """``formula p n k d --cache FILE --stats`` calls sharing one memo file.

    Set-up writes a starting file, as earlier use of the tool would have left
    it, and answers every query with a fresh in-memory cache.  The queries
    (p = 2..5, k = 0..2, d in ``query_d``, each with a socle bound n drawn
    once for all seeds) are the same for every seed, so set-up and the
    misses do the same work whatever the seed.  The seed picks the order of
    the new queries, which earlier query each repeat asks again and which
    calls use which output format (a third each).  Half the calls are
    repeats (cache hits); the new ones are misses that grow the file.
    """
    counting = mods["counting"]
    warm = counting.CountCache()
    for d in range(4, size["warm_max_d"] + 1):
        for p in range(2, 6):
            for k in range(3):
                counting.count_restricted(p, d - 1, k, d, warm)
    start_file = os.path.join(workdir, "start.memo")
    memo_file = os.path.join(workdir, "run.memo")
    counting.save_cache(warm, start_file)

    lo, hi = size["query_d"]
    grid = random.Random(0)
    new = [(p, grid.randint(k + 1, d - 2), k, d)
           for d in range(lo, hi + 1) for p in range(2, 6) for k in range(3)]
    fresh = counting.CountCache()
    answers = {q: counting.count_restricted(*q, fresh) for q in new}
    rng.shuffle(new)

    kinds = [False] * size["repeats"] + [True] * (len(new) - 1)
    rng.shuffle(kinds)
    queries, asked, pending = [], [], iter(new)
    for is_new in [True] + kinds:
        query = next(pending) if is_new else rng.choice(asked)
        if is_new:
            asked.append(query)
        queries.append(query)
    # the same number of calls in each format for every seed, so that every
    # seed prints the same number of lines
    formats = [FORMATS[i % len(FORMATS)] for i in range(len(queries))]
    rng.shuffle(formats)

    ops = [Op(["formula", *map(str, q), "--cache", memo_file, "--stats", "--format", fmt],
              True, _check_formula(q, answers[q], fmt))
           for q, fmt in zip(queries, formats)]

    def reset() -> None:
        shutil.copyfile(start_file, memo_file)

    return Plan(ops, reset, memo_file, notes=[
        f"starting memo file with {len(warm)} keys",
        f"{len(new)} reference answers from a fresh cache",
    ])


def prepare_window(mods: dict[str, ModuleType], rng: random.Random, workdir: str,
                   size: dict) -> Plan:
    """The sliding-window side of the tool: ``table --max-d T``, then
    ``enumerate D --all`` into a file, then the bijection suite.

    ``enumerate`` is the lead call; it has one output format.  The table and
    the suite's report use the format the seed picks, which changes only how
    a few dozen rows are printed.
    """
    max_d, d, bijection_max_d = size["max_d"], size["d"], size["bijection_max_d"]
    fmt = rng.choice(FORMATS)
    ops = [Op(["table", "--max-d", str(max_d), "--format", fmt], False, _check_table(max_d, fmt)),
           Op(["enumerate", str(d), "--all"], True, _check_stream(d)),
           Op(["verify", "--suite", "bijection", "--max-d", str(bijection_max_d),
               "--format", fmt], False, _check_report("bijection", fmt))]
    return Plan(ops, notes=[f"reference O_1..O_{max(max_d, d)} embedded"])


WORKLOADS: dict[str, Callable[..., Plan]] = {
    "window": prepare_window,
    "crosscheck": prepare_crosscheck,
    "memo": prepare_memo,
}
