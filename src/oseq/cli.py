"""Command-line interface: tables, counts, enumeration, verification, OEIS check.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3 I/O or
network failure.  Only the oeis-check subcommand ever touches the
network, and only when --allow-network is passed.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import analysis
from .counting import (
    CacheCorruptionError,
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


class _UsageError(Exception):
    pass


class _IoError(Exception):
    pass


class BFileParseError(Exception):
    """A reference b-file line did not parse as ``index value``."""


def default_cache_dir() -> str:
    env = os.environ.get("OSEQ_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "oseq")


def parse_b_file(text: str) -> list[tuple[int, int]]:
    """Parse ``index value`` lines; comments (#) and blanks are skipped.

    Indices must be strictly increasing and values positive.
    """
    entries: list[tuple[int, int]] = []
    previous: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise BFileParseError(f"line {lineno}: expected 'index value', got {raw!r}")
        try:
            index, value = int(fields[0]), int(fields[1])
        except ValueError:
            raise BFileParseError(f"line {lineno}: non-integer field in {raw!r}") from None
        if previous is not None and index <= previous:
            raise BFileParseError(f"line {lineno}: index {index} not increasing")
        if value < 1:
            raise BFileParseError(f"line {lineno}: value {value} not positive")
        entries.append((index, value))
        previous = index
    return entries


def fetch_oeis(cache_dir: str | None = None, timeout: float = 30.0) -> list[tuple[int, int]]:
    """The entries of OEIS A232476, from the on-disk copy when present,
    otherwise fetched over HTTP and cached for later offline runs.

    A download is parsed before it is saved, and saved atomically, so a
    bad response raises BFileParseError and leaves no copy behind.  A copy
    on disk that is not UTF-8 or does not parse raises BFileParseError too.
    Every OSError or BFileParseError names the file or URL at fault."""
    import urllib.request  # only a download needs it, and it is slow to import
    directory = cache_dir if cache_dir is not None else default_cache_dir()
    cached = os.path.join(directory, "b232476.txt")
    source = cached if os.path.exists(cached) else OEIS_BFILE_URL
    try:
        if source == cached:
            with open(cached, "rb") as fh:
                return parse_b_file(fh.read().decode("utf-8"))
        with urllib.request.urlopen(OEIS_BFILE_URL, timeout=timeout) as response:
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


def _positive(sub: str, name: str, value: int) -> int:
    if value < 1:
        raise _UsageError(f"{sub}: argument {name} must be >= 1, got {value}")
    return value


def _nonnegative(sub: str, name: str, value: int) -> int:
    if value < 0:
        raise _UsageError(f"{sub}: argument {name} must be >= 0, got {value}")
    return value


def _emit_rows(rows: list[dict], fmt: str, columns: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(rows, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if row.get(c) is None else row.get(c) for c in columns])
    else:
        widths = {
            c: max([len(c)] + [len(str(row.get(c, ""))) for row in rows]) for c in columns
        }
        print("  ".join(c.rjust(widths[c]) for c in columns))
        for row in rows:
            cells = ["" if row.get(c) is None else str(row.get(c)) for c in columns]
            print("  ".join(cell.rjust(widths[c]) for cell, c in zip(cells, columns)))


def _cmd_table(args: argparse.Namespace) -> int:
    max_d = _positive("table", "--max-d", args.max_d)
    table = count_table(max_d)
    rows = [{"d": d, "O": o, "A": a} for d, o, a in table.rows()]
    _emit_rows(rows, args.format, ["d", "O", "A"])
    return EXIT_OK


def _cmd_count(args: argparse.Namespace) -> int:
    d = _positive("count", "d", args.d)
    row: dict = {"d": d}
    if args.method in ("enum", "both"):
        row["enum"] = count_table(d).O[d]
    if args.method in ("formula", "both"):
        row["formula"] = count_via_formula(d)
    if args.method == "both":
        row["agree"] = row["enum"] == row["formula"]
    _emit_rows([row], args.format, list(row))
    if args.method == "both" and not row["agree"]:
        print(f"count: methods disagree at d={d}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_formula(args: argparse.Namespace) -> int:
    p = _positive("formula", "p", args.p)
    n = _nonnegative("formula", "n", args.n)
    k = _nonnegative("formula", "k", args.k)
    d = _positive("formula", "d", args.d)
    cache = CountCache()
    existed = bool(args.cache) and os.path.exists(args.cache)
    if existed:
        try:
            load_cache(args.cache, into=cache)
        except OSError as exc:
            raise _IoError(f"formula: --cache {args.cache}: {exc}") from exc
    value = count_restricted(p, n, k, d, cache)
    # a query that stored no new key leaves an existing file untouched
    if args.cache and (cache.misses or not existed):
        try:
            save_cache(cache, args.cache)
        except OSError as exc:
            raise _IoError(f"formula: --cache {args.cache}: {exc}") from exc
    row: dict = {"p": p, "n": n, "k": k, "d": d, "count": value}
    columns = ["p", "n", "k", "d", "count"]
    if args.stats:
        row.update({"hits": cache.hits, "misses": cache.misses, "cached_keys": len(cache)})
        columns.extend(["hits", "misses", "cached_keys"])
    _emit_rows([row], args.format, columns)
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    d = _positive("enumerate", "d", args.d)
    write = sys.stdout.write
    for chunk in iter_text(d, args.last_gt_1):
        write(chunk)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    suite = args.suite
    default_max_d, runner = _SUITES[suite]
    # each suite rejects a --max-d outside its own range with ValueError
    try:
        report = runner(default_max_d if args.max_d is None else args.max_d)
    except ValueError as exc:
        raise _UsageError(f"verify: --suite {suite}: {exc}") from None
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


def _parse_sequence(sub: str, text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"{sub}: argument h must be comma-separated integers, "
                          f"got {text!r}") from None


def _ideal_rows(ideal: OrderIdeal, part: str) -> list[dict]:
    return [{"part": part, "degree": sum(t), "term": term_str(t)}
            for t in ideal.sorted_terms()]


def _cmd_lexseg(args: argparse.Namespace) -> int:
    h = _parse_sequence("lexseg", args.h)
    p = _positive("lexseg", "--vars", args.vars)
    slots = sum(h) * p
    if slots > LEXSEG_MAX_SLOTS:
        raise _UsageError(f"lexseg: sum(h) x --vars = {slots} exponent slots, "
                          f"above the limit of {LEXSEG_MAX_SLOTS}")
    try:
        ideal = sous_escalier(h, p)
    except ValueError as exc:
        raise _UsageError(f"lexseg: {exc}") from None
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
        raise _UsageError("oeis-check: network access is off by default; "
                          "pass --allow-network to permit the HTTP fetch")
    max_d = _positive("oeis-check", "--max-d", args.max_d)
    try:
        entries = fetch_oeis(cache_dir=args.cache_dir)
    except (OSError, BFileParseError) as exc:
        print(f"oeis-check: {exc}", file=sys.stderr)
        return EXIT_IO
    table = count_table(max_d)
    known = dict(entries)
    rows = []
    mismatches = 0
    for d in range(1, max_d + 1):
        expected = known.get(d)
        computed = table.O[d]
        match = None if expected is None else computed == expected
        if match is False:
            mismatches += 1
        rows.append({"d": d, "computed": computed, "reference": expected,
                     "match": match})
    _emit_rows(rows, args.format, ["d", "computed", "reference", "match"])
    if mismatches:
        bad = [str(r["d"]) for r in rows if r["match"] is False]
        print(f"oeis-check: mismatch at d = {', '.join(bad)}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oseq",
        description="Enumerate, count and verify finite O-sequences by multiplicity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p_table = sub.add_parser("table", help="counts O_d and A_d for d = 1..D")
    p_table.add_argument("--max-d", type=int, required=True, dest="max_d", metavar="D")
    add_format(p_table)
    p_table.set_defaults(handler=_cmd_table)

    p_count = sub.add_parser("count", help="count of O-sequences of one multiplicity")
    p_count.add_argument("d", type=int)
    p_count.add_argument("--method", choices=["enum", "formula", "both"], default="both")
    add_format(p_count)
    p_count.set_defaults(handler=_cmd_count)

    p_formula = sub.add_parser(
        "formula", help="restricted count for prefix class (p, n, k, d)")
    p_formula.add_argument("p", type=int)
    p_formula.add_argument("n", type=int)
    p_formula.add_argument("k", type=int)
    p_formula.add_argument("d", type=int)
    p_formula.add_argument("--cache", metavar="FILE")
    p_formula.add_argument("--stats", action="store_true")
    add_format(p_formula)
    p_formula.set_defaults(handler=_cmd_formula)

    p_enum = sub.add_parser("enumerate", help="stream O-sequences of multiplicity d")
    p_enum.add_argument("d", type=int)
    group = p_enum.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", default=False)
    group.add_argument("--last-gt-1", action="store_true", dest="last_gt_1")
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=list(_SUITES))
    p_verify.add_argument("--max-d", type=int, dest="max_d", metavar="D")
    add_format(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_lexseg = sub.add_parser("lexseg", help="sous-escalier of an O-sequence")
    p_lexseg.add_argument("h", metavar="h", help="comma-separated values, e.g. 1,2,2,1")
    p_lexseg.add_argument("--vars", type=int, required=True, metavar="p")
    p_lexseg.add_argument("--decompose", action="store_true")
    add_format(p_lexseg)
    p_lexseg.set_defaults(handler=_cmd_lexseg)

    p_oeis = sub.add_parser("oeis-check", help="compare small counts with the "
                                               "published OEIS sequence")
    p_oeis.add_argument("--max-d", type=int, default=20, dest="max_d", metavar="D")
    p_oeis.add_argument("--allow-network", action="store_true")
    p_oeis.add_argument("--cache-dir", dest="cache_dir", metavar="DIR")
    add_format(p_oeis)
    p_oeis.set_defaults(handler=_cmd_oeis_check)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"oseq {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CacheFormatError, CacheCorruptionError) as exc:
        print(f"oseq {args.command}: cache: {exc}", file=sys.stderr)
        return EXIT_IO
    except _IoError as exc:
        print(f"oseq {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"oseq {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # enumerate piped into head; hand stdout a sink so shutdown stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(run())
