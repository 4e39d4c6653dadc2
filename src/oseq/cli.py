"""Command-line interface: tables, counts, enumeration, verification, OEIS check.

Exit codes: 0 success; 1 a verification mismatch and nothing else; 2 usage
error; 3 any I/O or network failure, writing the output included.  run()
alone maps an exception from a subcommand to its exit code, and writes it
as one stderr line that starts ``oseq <command>: ``.  A usage error that
argparse itself finds (a missing, unknown or invalid argument) is not
such an exception: argparse prints a ``usage: oseq ...`` line before its
``error:`` line and raises SystemExit(2), which run() lets through.  Only
the oeis-check subcommand ever touches the network, and only when
--allow-network is passed.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import analysis
from .counting import (
    CacheFormatError,
    CountCache,
    count_restricted,
    count_via_formula,
    load_cache,
    save_cache,
    write_atomic,
)
from .enumerator import count_table, iter_text
from .lexseg import OrderIdeal, decompose, sous_escalier, term_str

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_IO = 3

OEIS_BFILE_URL = "https://oeis.org/A232476/b232476.txt"
OEIS_TIMEOUT_S = 30.0

# lexseg stores sum(h) terms of --vars exponents each; refuse larger inputs
# before allocating them
LEXSEG_MAX_SLOTS = 10**7

# suite -> (default --max-d, runner).  The runners look up the suites and
# count_table when called, so a wrapper installed on either is honoured.
_SUITES = {
    "lemmas": (60, lambda max_d: analysis.check_count_identities(count_table(max_d))),
    "fibonacci": (60, lambda max_d: analysis.check_sub_fibonacci(count_table(max_d))),
    "ratios": (60, lambda max_d: analysis.check_ratios(count_table(max_d))),
    "table": (60, lambda max_d: analysis.compare_reference(count_table(max_d))),
    "oracle": (10, lambda max_d: analysis.check_oracle_grid(max_d)),
    "bijection": (14, lambda max_d: analysis.check_window_bijection(max_d)),
    "recursion": (60, lambda max_d: analysis.check_recursion(count_table(max_d))),
}


class BFileParseError(Exception):
    """A reference b-file line did not parse as ``index value``."""


def default_cache_dir() -> str:
    env = os.environ.get("OSEQ_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "oseq")


def parse_b_file(text: str) -> list[tuple[int, int]]:
    """Parse ``index value`` lines of ASCII decimal digits; comments (#) and
    blanks are skipped.

    There must be at least one, with indices strictly increasing and values positive.
    """
    entries: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise BFileParseError(f"line {lineno}: expected 'index value', got {raw!r}")
        try:
            # int() alone also takes a sign, an underscore or another script's digits
            if not all(field.isascii() and field.isdigit() for field in fields):
                raise ValueError
            index, value = int(fields[0]), int(fields[1])
        except ValueError:  # or more digits than int() converts
            raise BFileParseError(f"line {lineno}: non-integer field in {raw!r}") from None
        if entries and index <= entries[-1][0]:
            raise BFileParseError(f"line {lineno}: index {index} not increasing")
        if value < 1:
            raise BFileParseError(f"line {lineno}: value {value} not positive")
        entries.append((index, value))
    if not entries:
        raise BFileParseError("no 'index value' line")
    return entries


def fetch_oeis(cache_dir: str | None = None) -> list[tuple[int, int]]:
    """The entries of OEIS A232476, from the on-disk copy when present,
    otherwise fetched over HTTP and cached for later offline runs.

    A download is parsed before it is saved, and saved atomically, so a bad
    or empty response raises BFileParseError and leaves no copy behind.  A
    copy on disk that is not UTF-8, does not parse or is empty raises it too.
    Every OSError or BFileParseError names the file or URL at fault."""
    directory = cache_dir if cache_dir is not None else default_cache_dir()
    cached = os.path.join(directory, "b232476.txt")
    source = cached if os.path.exists(cached) else OEIS_BFILE_URL
    try:
        if source == cached:
            with open(cached, "rb") as fh:
                return parse_b_file(fh.read().decode("utf-8"))
        import urllib.request  # only a download needs it, and it is slow to import
        with urllib.request.urlopen(OEIS_BFILE_URL, timeout=OEIS_TIMEOUT_S) as response:
            text = response.read().decode("utf-8")
        entries = parse_b_file(text)
        # from here on, a failure is in saving the copy
        source = cached
        os.makedirs(directory, exist_ok=True)
        write_atomic(cached, text, "utf-8")
    except UnicodeDecodeError as exc:
        raise BFileParseError(f"{source}: not UTF-8 text: {exc}") from None
    except BFileParseError as exc:
        raise BFileParseError(f"{source}: {exc}") from None
    except OSError as exc:
        raise OSError(f"{source}: {exc}") from exc
    return entries


def _at_least(least: int, name: str, value: int) -> int:
    if value < least:
        raise ValueError(f"argument {name} must be >= {least}, got {value}")
    return value


def _emit_rows(rows: list[dict], fmt: str, columns: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(rows, indent=2))
        return
    table = [columns] + [["" if row.get(c) is None else str(row[c]) for c in columns]
                         for row in rows]
    if fmt == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(table)
    else:
        widths = [max(map(len, column)) for column in zip(*table)]
        for line in table:
            print("  ".join(cell.rjust(width) for cell, width in zip(line, widths)))


def _cmd_table(args: argparse.Namespace) -> int:
    max_d = _at_least(1, "--max-d", args.max_d)
    table = count_table(max_d)
    rows = [{"d": d, "O": o, "A": a} for d, o, a in table.rows()]
    _emit_rows(rows, args.format, ["d", "O", "A"])
    return EXIT_OK


def _cmd_count(args: argparse.Namespace) -> int:
    d = _at_least(1, "d", args.d)
    row: dict = {"d": d}
    if args.method in ("enum", "both"):
        row["enum"] = count_table(d).O[d]
    if args.method in ("formula", "both"):
        row["formula"] = count_via_formula(d)
    if args.method == "both":
        row["agree"] = row["enum"] == row["formula"]
    _emit_rows([row], args.format, list(row))
    if args.method == "both" and not row["agree"]:
        print(f"oseq count: methods disagree at d={d}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_formula(args: argparse.Namespace) -> int:
    p = _at_least(1, "p", args.p)
    n = _at_least(0, "n", args.n)
    k = _at_least(0, "k", args.k)
    d = _at_least(1, "d", args.d)
    existed = bool(args.cache) and os.path.exists(args.cache)
    try:
        cache = load_cache(args.cache) if existed else CountCache()
        value = count_restricted(p, n, k, d, cache)
        # a query that stored no new key leaves an existing file untouched
        if args.cache and (cache.misses or not existed):
            save_cache(cache, args.cache)
    except OSError as exc:
        raise OSError(f"--cache {args.cache}: {exc}") from exc
    row: dict = {"p": p, "n": n, "k": k, "d": d, "count": value}
    columns = ["p", "n", "k", "d", "count"]
    if args.stats:
        row.update({"hits": cache.hits, "misses": cache.misses, "cached_keys": len(cache)})
        columns.extend(["hits", "misses", "cached_keys"])
    _emit_rows([row], args.format, columns)
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    d = _at_least(1, "d", args.d)
    sys.stdout.writelines(iter_text(d, args.last_gt_1))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    suite = args.suite
    default_max_d, runner = _SUITES[suite]
    # each suite rejects a --max-d outside its own range with ValueError
    try:
        report = runner(default_max_d if args.max_d is None else args.max_d)
    except ValueError as exc:
        raise ValueError(f"--suite {suite}: {exc}") from None
    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        rows = [{"kind": "check", "d": c.d, "claim": c.claim, "left": c.left,
                 "right": c.right, "passed": c.passed} for c in report.checks]
        rows += [{"kind": "anomaly", "d": a.d, "claim": a.note} for a in report.anomalies]
        _emit_rows(rows, "csv", ["kind", "d", "claim", "left", "right", "passed"])
    else:
        print(report.to_text())
    return EXIT_OK if report.passed else EXIT_MISMATCH


def _parse_sequence(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"argument h must be comma-separated integers, "
                         f"got {text!r}") from None


def _ideal_rows(ideal: OrderIdeal, part: str) -> list[dict]:
    return [{"part": part, "degree": sum(t), "term": term_str(t)}
            for t in ideal.sorted_terms()]


def _cmd_lexseg(args: argparse.Namespace) -> int:
    h = _parse_sequence(args.h)
    p = _at_least(1, "--vars", args.vars)
    slots = sum(h) * p
    if slots > LEXSEG_MAX_SLOTS:
        raise ValueError(f"sum(h) x --vars = {slots} exponent slots, "
                         f"above the limit of {LEXSEG_MAX_SLOTS}")
    ideal = sous_escalier(h, p)
    sections: list[tuple[str, OrderIdeal]] = [("M", ideal)]
    if args.decompose:
        m1, m2 = decompose(ideal)
        sections.extend([("M1", m1), ("M2", m2)])
    if args.format == "json":
        payload: dict = {"h": list(h), "vars": p}
        for part, part_ideal in sections:
            payload[part] = {
                "vars": part_ideal.p,
                "degree_counts": list(part_ideal.degree_counts),
                "terms": [list(t) for t in part_ideal.sorted_terms()],
            }
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        rows = [row for part, part_ideal in sections for row in _ideal_rows(part_ideal, part)]
        _emit_rows(rows, "csv", ["part", "degree", "term"])
    else:
        for part, part_ideal in sections:
            counts = ",".join(str(c) for c in part_ideal.degree_counts)
            print(f"{part} ({part_ideal.p} vars, degree counts {counts}):")
            for term in part_ideal.sorted_terms():
                print(f"  {term_str(term)}")
    return EXIT_OK


def _cmd_oeis_check(args: argparse.Namespace) -> int:
    if not args.allow_network:
        raise ValueError("network access is off by default; "
                         "pass --allow-network to permit the HTTP fetch")
    max_d = _at_least(1, "--max-d", args.max_d)
    known = dict(fetch_oeis(cache_dir=args.cache_dir))
    table = count_table(max_d)
    rows = []
    for d in range(1, max_d + 1):
        expected = known.get(d)
        computed = table.O[d]
        rows.append({"d": d, "computed": computed, "reference": expected,
                     "match": None if expected is None else computed == expected})
    _emit_rows(rows, args.format, ["d", "computed", "reference", "match"])
    last = max(known)
    if last < max_d:
        rest = f"{last + 1}..{max_d}" if last + 1 < max_d else f"{max_d}"
        print(f"oseq oeis-check: reference stops at d = {last}; d = {rest} not compared",
              file=sys.stderr)
    bad = [str(r["d"]) for r in rows if r["match"] is False]
    if bad:
        print(f"oseq oeis-check: mismatch at d = {', '.join(bad)}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _table_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-d", type=int, required=True, dest="max_d", metavar="D")


def _count_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("d", type=int)
    p.add_argument("--method", choices=["enum", "formula", "both"], default="both")


def _formula_args(p: argparse.ArgumentParser) -> None:
    for name in ("p", "n", "k", "d"):
        p.add_argument(name, type=int)
    p.add_argument("--cache", metavar="FILE")
    p.add_argument("--stats", action="store_true")


def _enumerate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("d", type=int)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true",
                       help="the default listing of every O-sequence; changes nothing")
    group.add_argument("--last-gt-1", action="store_true", dest="last_gt_1")


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", required=True, choices=list(_SUITES))
    p.add_argument("--max-d", type=int, dest="max_d", metavar="D")


def _lexseg_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("h", metavar="h", help="comma-separated values, e.g. 1,2,2,1")
    p.add_argument("--vars", type=int, required=True, metavar="p")
    p.add_argument("--decompose", action="store_true")


def _oeis_check_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-d", type=int, default=20, dest="max_d", metavar="D")
    p.add_argument("--allow-network", action="store_true")
    p.add_argument("--cache-dir", dest="cache_dir", metavar="DIR")


# name -> (help, argument adder, handler), in the order `oseq --help` lists them
_COMMANDS = {
    "table": ("counts O_d and A_d for d = 1..D", _table_args, _cmd_table),
    "count": ("count of O-sequences of one multiplicity", _count_args, _cmd_count),
    "formula": ("restricted count for prefix class (p, n, k, d)", _formula_args, _cmd_formula),
    "enumerate": ("stream O-sequences of multiplicity d", _enumerate_args, _cmd_enumerate),
    "verify": ("run a verification suite", _verify_args, _cmd_verify),
    "lexseg": ("sous-escalier of an O-sequence", _lexseg_args, _cmd_lexseg),
    "oeis-check": ("compare small counts with the published OEIS sequence",
                   _oeis_check_args, _cmd_oeis_check),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand or, given a key of ``_COMMANDS``, of
    that one alone, with the same usage, help and error text for it."""
    parser = argparse.ArgumentParser(
        prog="oseq",
        description="Enumerate, count and verify finite O-sequences by multiplicity.",
    )
    # the usage line of an "unrecognized arguments" error names every command
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else [command]:
        help_text, add_arguments, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        if name != "enumerate":  # which prints one CSV line per sequence
            p.add_argument("--format", choices=["text", "json", "csv"], default="text")
        p.set_defaults(handler=handler)
    return parser


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the full tree serves only no arguments, --help and an unknown command
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    if sys.stdout is None:  # started with stdout closed: nothing can be written
        print(f"oseq {args.command}: stdout is closed", file=sys.stderr)
        return EXIT_IO
    try:
        code = args.handler(args)
        # a failed final flush is a failed write like any other
        sys.stdout.flush()
        return code
    except CacheFormatError as exc:
        print(f"oseq {args.command}: cache: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"oseq {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        code = EXIT_OK  # enumerate piped into head
    except (OSError, BFileParseError) as exc:
        print(f"oseq {args.command}: {exc}", file=sys.stderr)
        code = EXIT_IO
    try:
        sys.stdout.flush()
    except OSError:
        # stdout is closed or full: a sink keeps the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(run())
