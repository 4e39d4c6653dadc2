import argparse
import errno
import io
import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from oseq import analysis, cli, enumerator
from oseq.cli import (
    BFileParseError,
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    LEXSEG_MAX_SLOTS,
    OEIS_BFILE_URL,
    build_parser,
    default_cache_dir,
    fetch_oeis,
    parse_b_file,
    run,
)
from oseq.counting import CountCache, count_restricted, save_cache
from oseq.macaulay import growth_bound

from helpers import brute_sequences, cellwise_exhaustive_count, stem_walk

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def joined(seqs) -> str:
    return "".join(",".join(map(str, seq)) + "\n" for seq in seqs)


def child_env() -> dict[str, str]:
    """The environment of a child Python process that imports ``oseq`` from SRC,
    with stdout buffered whatever the host's ``PYTHONUNBUFFERED``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def head_of_enumerate(d, lines, tmp_path):
    """The first ``lines`` lines of ``oseq enumerate d --all`` in a child
    process whose stdout pipe is then closed; its exit code and stderr."""
    with open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "oseq.cli", "enumerate", str(d), "--all"],
            stdout=subprocess.PIPE, stderr=err, env=child_env())
        try:
            first = [proc.stdout.readline() for _ in range(lines)]
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.wait()
    return first, code, (tmp_path / "stderr").read_bytes()


class TestTable:
    def test_text(self, capsys):
        code, out, err = invoke(capsys, ["table", "--max-d", "6"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].split() == ["d", "O", "A"]
        assert lines[1].split() == ["1", "1", "0"]
        assert lines[6].split() == ["6", "8", "3"]
        assert err == ""

    def test_csv(self, capsys):
        code, out, _ = invoke(capsys, ["table", "--max-d", "4", "--format", "csv"])
        assert code == EXIT_OK
        assert out == "d,O,A\n1,1,0\n2,1,0\n3,2,1\n4,3,1\n"

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, ["table", "--max-d", "5", "--format", "json"])
        assert code == EXIT_OK
        rows = json.loads(out)
        assert rows[-1] == {"d": 5, "O": 5, "A": 2}

    def test_rejects_nonpositive(self, capsys):
        code, _, err = invoke(capsys, ["table", "--max-d", "0"])
        assert code == EXIT_USAGE
        assert err


class TestCount:
    def test_both_methods_agree(self, capsys):
        code, out, _ = invoke(capsys, ["count", "21", "--method", "both"])
        assert code == EXIT_OK
        row = out.splitlines()[1].split()
        assert row == ["21", "1416", "1416", "True"]

    def test_single_method(self, capsys):
        code, out, _ = invoke(
            capsys, ["count", "12", "--method", "formula", "--format", "json"]
        )
        assert code == EXIT_OK
        assert json.loads(out) == [{"d": 12, "formula": 82}]

    def test_rejects_nonpositive(self, capsys):
        assert invoke(capsys, ["count", "0"])[0] == EXIT_USAGE


class TestFormula:
    def test_plain(self, capsys):
        code, out, _ = invoke(capsys, ["formula", "3", "8", "1", "9"])
        assert code == EXIT_OK
        assert out.splitlines()[1].split() == ["3", "8", "1", "9", "7"]

    def test_cache_round_trip(self, capsys, tmp_path):
        cache = str(tmp_path / "memo.txt")
        argv = ["formula", "3", "8", "1", "9", "--cache", cache, "--stats"]
        code, cold, _ = invoke(capsys, argv)
        assert code == EXIT_OK
        code, warm, _ = invoke(capsys, argv)
        assert code == EXIT_OK
        cold_row = cold.splitlines()[1].split()
        warm_row = warm.splitlines()[1].split()
        # count column identical, second run resolves from disk
        assert cold_row[4] == warm_row[4] == "7"
        assert int(cold_row[6]) > 0
        assert int(warm_row[6]) == 0
        assert cold_row[7] == warm_row[7]

    @pytest.mark.parametrize(
        "query, expected",
        [
            (["3", "8", "1", "9"], {"count": 7, "hits": 13, "misses": 12, "cached_keys": 12}),
            (["5", "20", "2", "25"], {"count": 5, "hits": 19, "misses": 16, "cached_keys": 16}),
        ],
        ids=["3-8-1-9", "5-20-2-25"],
    )
    def test_stats_columns(self, capsys, query, expected):
        code, out, _ = invoke(capsys, ["formula", *query, "--stats", "--format", "json"])
        assert code == EXIT_OK
        (row,) = json.loads(out)
        assert set(row) == {"p", "n", "k", "d", "count", "hits", "misses", "cached_keys"}
        assert {c: row[c] for c in expected} == expected

    def test_warm_repeat_leaves_cache_file_untouched(self, capsys, tmp_path):
        cache = tmp_path / "memo.txt"
        argv = ["formula", "5", "20", "2", "25", "--cache", str(cache)]
        assert invoke(capsys, argv)[0] == EXIT_OK
        before, stat = cache.read_bytes(), cache.stat()
        assert invoke(capsys, argv)[0] == EXIT_OK
        after = cache.stat()
        assert cache.read_bytes() == before
        assert (after.st_ino, after.st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)

    def test_file_grown_by_calls_equals_one_fresh_save(self, capsys, tmp_path):
        # each call after the first copies the lines it loaded and merges in
        # the keys it added; the file must be the one a single cache writes
        queries = [(4, 8, 1, 10), (5, 29, 2, 30), (3, 20, 1, 24), (2, 11, 2, 14), (6, 14, 0, 15)]
        grown = tmp_path / "grown.txt"
        fresh = CountCache()
        for query in queries:
            assert invoke(capsys, ["formula", *map(str, query), "--cache", str(grown)])[0] == EXIT_OK
            count_restricted(*query, fresh)
        once = tmp_path / "once.txt"
        save_cache(fresh, str(once))
        assert grown.read_bytes() == once.read_bytes()

    def test_failed_save_keeps_old_cache(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "memo.txt"
        assert invoke(capsys, ["formula", "3", "8", "1", "9", "--cache", str(cache)])[0] == EXIT_OK
        before = cache.read_bytes()

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr("oseq.counting.os.replace", refuse)
        code, _, err = invoke(capsys, ["formula", "4", "8", "1", "10", "--cache", str(cache)])
        assert code == EXIT_IO
        assert "replace refused" in err
        assert cache.read_bytes() == before
        assert os.listdir(tmp_path) == ["memo.txt"]

    def test_uncreatable_cache_file_message_is_stable(self, capsys, tmp_path):
        # the temporary's random name stays out of the message
        cache = str(tmp_path / "missing" / "memo.txt")
        argv = ["formula", "3", "8", "1", "9", "--cache", cache]
        first = invoke(capsys, argv)
        assert invoke(capsys, argv) == first
        assert first[:2] == (EXIT_IO, "")
        assert first[2].endswith(f"No such file or directory: '{cache}'\n")

    def test_non_ascii_cache_file(self, capsys, tmp_path):
        cache = tmp_path / "memo.txt"
        cache.write_bytes(b"# oseq-memo v1\n1,2,1,2,1\n2,3,1,5,\xe9\n")
        code, out, err = invoke(capsys, ["formula", "3", "8", "1", "9", "--cache", str(cache)])
        assert (code, out) == (EXIT_IO, "")
        assert str(cache) in err and "not an ASCII memo file" in err

    @pytest.mark.parametrize("line", ["3,8,1,9,-5", "1,0,0,0,7"], ids=["count", "key"])
    def test_out_of_range_cache_line(self, capsys, tmp_path, line):
        cache = tmp_path / "memo.txt"
        cache.write_text(f"# oseq-memo v1\n{line}\n")
        code, out, err = invoke(capsys, ["formula", "3", "8", "1", "9", "--cache", str(cache)])
        assert (code, out) == (EXIT_IO, "")
        assert f"{cache}:2: " in err
        assert cache.read_text() == f"# oseq-memo v1\n{line}\n"

    def test_cache_cut_mid_line_exits_3(self, capsys, tmp_path):
        # (5, 29, 2, 30) is the file's largest key, so it is saved last;
        # cut short, its line reads a count of 3 for 31
        cache = tmp_path / "memo.txt"
        argv = ["formula", "5", "29", "2", "30", "--cache", str(cache)]
        code, out, _ = invoke(capsys, argv)
        assert (code, out.splitlines()[1].split()[4]) == (EXIT_OK, "31")
        raw = cache.read_bytes()
        assert raw.endswith(b"\n5,29,2,30,31\n")
        cache.write_bytes(raw[:-2])
        lineno = raw.count(b"\n")
        assert invoke(capsys, argv) == (
            EXIT_IO, "", f"oseq formula: cache: {cache}:{lineno}: last line '5,29,2,30,3' "
                         "has no LF; the file looks cut short\n")
        assert cache.read_bytes() == raw[:-2]

    def test_negative_parameter(self, capsys):
        assert invoke(capsys, ["formula", "3", "8", "1", "-1"])[0] == EXIT_USAGE


class TestEnumerate:
    def test_all(self, capsys):
        code, out, _ = invoke(capsys, ["enumerate", "4", "--all"])
        assert code == EXIT_OK
        assert out == "1,1,1,1\n1,2,1\n1,3\n"

    def test_last_gt_1(self, capsys):
        code, out, _ = invoke(capsys, ["enumerate", "5", "--last-gt-1"])
        assert code == EXIT_OK
        assert out == "1,2,2\n1,4\n"

    def test_flags_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["enumerate", "4", "--all", "--last-gt-1"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("d", range(1, 15))
    def test_matches_brute_force(self, capsys, d):
        # the oracle filters compositions and never walks the stems
        expected = brute_sequences(d)
        assert invoke(capsys, ["enumerate", str(d), "--all"]) == (EXIT_OK, joined(expected), "")
        assert invoke(capsys, ["enumerate", str(d), "--last-gt-1"]) == (
            EXIT_OK, joined(seq for seq in expected if seq[-1] > 1), "")

    @pytest.mark.parametrize("d", [24, 32, 40])
    def test_matches_tuple_walk(self, capsys, d):
        # the reference walk pushes whole stem tuples and shares no code
        # with iter_text, which enumerate writes
        stems = list(stem_walk(d))
        assert invoke(capsys, ["enumerate", str(d), "--all"]) == (
            EXIT_OK, joined(stem + (1,) * rest for stem, rest in stems), "")
        assert invoke(capsys, ["enumerate", str(d), "--last-gt-1"]) == (
            EXIT_OK, joined(stem for stem, rest in stems if not rest and stem[-1] > 1), "")

    def test_one_lookup_per_block_state(self, capsys):
        # a block is built once per (min(t, a_t), a_t, rest), so the growth
        # bound is looked up once per distinct class, not once per node of
        # mass <= d - 2 as in iter_stems (15 682 at d = 32), nor once per
        # (t, a_t, rest) (839 at d = 32, 2 136 at d = 40)
        for d, lookups in (32, 587), (40, 1696):
            growth_bound.cache_clear()
            assert invoke(capsys, ["enumerate", str(d), "--all"])[0] == EXIT_OK
            info = growth_bound.cache_info()
            assert info.hits + info.misses == lookups, d

    @pytest.mark.parametrize("limit", [0, 1, 2, 26])
    def test_block_limit_boundaries(self, capsys, monkeypatch, limit):
        # 0: only the stems with rest 0 are blocks, one line each; 1: every
        # leaf is a block and every inner stem is walked; 2: the smallest
        # inner block; 26: every child of the root is one block.
        # --last-gt-1 meets empty blocks, such as a stem with rest 1
        monkeypatch.setattr(enumerator, "BLOCK_REST", limit)
        for d in range(1, 27):
            stems = list(stem_walk(d))
            assert invoke(capsys, ["enumerate", str(d), "--all"]) == (
                EXIT_OK, joined(stem + (1,) * rest for stem, rest in stems), "")
            assert invoke(capsys, ["enumerate", str(d), "--last-gt-1"]) == (
                EXIT_OK, joined(stem for stem, rest in stems if not rest and stem[-1] > 1), "")

    def test_closed_pipe_exits_quietly(self, tmp_path):
        # enumerate 60 prints 9.5 million lines, so the reader closes the
        # pipe long before the walk ends
        first, code, err = head_of_enumerate(60, 1, tmp_path)
        assert first == [b"1" + b",1" * 59 + b"\n"]
        assert code == EXIT_OK
        assert err == b""

    def test_deep_walk_needs_no_recursion(self, tmp_path):
        # the chain of 2s under 1,2 is 749 stems deep; only the blocks, of
        # rest at most BLOCK_REST, are built recursively
        first, code, err = head_of_enumerate(1500, 3, tmp_path)
        assert first == [b"1" + b",1" * 1499 + b"\n",
                         b"1,2" + b",1" * 1497 + b"\n",
                         b"1,2,2" + b",1" * 1495 + b"\n"]
        assert code == EXIT_OK
        assert err == b""


class TestVerify:
    def test_lemmas_pass(self, capsys):
        code, out, _ = invoke(capsys, ["verify", "--suite", "lemmas", "--max-d", "10"])
        assert code == EXIT_OK
        assert out.splitlines()[-1].endswith("ok, 0 anomalies")

    def test_table_flags_the_suspect_entry(self, capsys):
        code, out, _ = invoke(capsys, ["verify", "--suite", "table", "--max-d", "36"])
        assert code == EXIT_MISMATCH
        anomalies = [l for l in out.splitlines() if l.lstrip().startswith("ANOMALY")]
        assert len(anomalies) == 1
        assert "d=35" in anomalies[0]

    def test_ratios_reports_known_failures(self, capsys):
        code, out, _ = invoke(capsys, ["verify", "--suite", "ratios", "--max-d", "12"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert not any(l.lstrip().startswith("FAIL") for l in lines)
        anomalies = [l for l in lines if l.lstrip().startswith("ANOMALY")]
        assert [int(l.split("d=")[1].split()[0]) for l in anomalies] == [8, 9, 12]

    def test_bijection_suite(self, capsys):
        code, out, _ = invoke(capsys, ["verify", "--suite", "bijection", "--max-d", "8"])
        assert code == EXIT_OK
        assert "suite bijection" in out

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("max_d", [1, 6, 10])
    def test_oracle_matches_cellwise_filter(self, capsys, monkeypatch, max_d, fmt):
        argv = ["verify", "--suite", "oracle", "--max-d", str(max_d), "--format", fmt]
        got = invoke(capsys, argv)
        monkeypatch.setattr(analysis, "exhaustive_count", cellwise_exhaustive_count)
        assert got == invoke(capsys, argv)
        assert got[0] == EXIT_OK

    def test_oracle_cap(self, capsys):
        assert invoke(capsys, ["verify", "--suite", "oracle", "--max-d", "13"])[0] == EXIT_USAGE

    def test_bijection_cap(self, capsys, monkeypatch):
        # the cap bounds the walk's time, so it is checked before the walk
        # starts
        def refuse(d):
            raise AssertionError("walked")

        monkeypatch.setattr(analysis, "iter_stems", refuse)
        code, out, err = invoke(capsys, ["verify", "--suite", "bijection", "--max-d", "41"])
        assert (code, out) == (EXIT_USAGE, "")
        assert "suite bijection" in err and "max_d <= 40" in err and "got 41" in err

    @pytest.mark.parametrize(
        "suite, max_d, bound",
        [
            pytest.param("lemmas", 4, "d = 5", id="lemmas"),
            pytest.param("fibonacci", 2, "d = 3", id="fibonacci"),
            pytest.param("ratios", 5, "d = 6", id="ratios"),
            pytest.param("table", 0, "positive", id="table"),
            pytest.param("oracle", 0, "1 <= max_d", id="oracle"),
            pytest.param("bijection", 4, "5 <= max_d <= 40", id="bijection"),
            pytest.param("recursion", 0, "positive", id="recursion"),
        ],
    )
    def test_suite_floor(self, capsys, suite, max_d, bound):
        code, out, err = invoke(capsys, ["verify", "--suite", suite, "--max-d", str(max_d)])
        assert code == EXIT_USAGE
        assert out == ""
        assert f"suite {suite}" in err and bound in err

    @pytest.mark.parametrize(
        "suite, first_line, code",
        [
            pytest.param("lemmas", "suite lemmas: d in [1, 60]", EXIT_OK, id="lemmas"),
            pytest.param("fibonacci", "suite fibonacci: d in [1, 60]", EXIT_OK, id="fibonacci"),
            pytest.param("ratios", "suite ratios: d in [1, 60]", EXIT_OK, id="ratios"),
            pytest.param("table", "suite table: d in [1, 60]", EXIT_MISMATCH, id="table"),
            pytest.param("oracle", "suite oracle: d in [1, 10]", EXIT_OK, id="oracle"),
            pytest.param("bijection", "suite bijection: d in [5, 14]", EXIT_OK, id="bijection"),
            pytest.param("recursion", "suite recursion: d in [1, 60]", EXIT_OK, id="recursion"),
        ],
    )
    def test_default_max_d(self, capsys, suite, first_line, code):
        got, out, _ = invoke(capsys, ["verify", "--suite", suite])
        assert out.splitlines()[0] == first_line
        assert got == code

    def test_ratios_csv_is_exact(self, capsys):
        code, out, _ = invoke(capsys, ["verify", "--suite", "ratios", "--max-d", "12",
                                       "--format", "csv"])
        assert code == EXIT_OK
        assert out == (DATA / "verify_ratios_12.csv").read_text(encoding="ascii")

    def test_json_format(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["verify", "--suite", "fibonacci", "--max-d", "9", "--format", "json"],
        )
        assert code == EXIT_OK
        assert json.loads(out)["passed"] is True


class TestLexseg:
    def test_text(self, capsys):
        code, out, _ = invoke(capsys, ["lexseg", "1,2,1", "--vars", "2"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "M (2 vars, degree counts 1,2,1):"
        assert [l.strip() for l in lines[1:]] == ["1", "x1", "x2", "x1^2"]

    def test_decompose_csv(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["lexseg", "1,2,2", "--vars", "2", "--decompose", "--format", "csv"],
        )
        assert code == EXIT_OK
        rows = [tuple(line.split(",")) for line in out.splitlines()]
        assert rows[0] == ("part", "degree", "term")
        assert ("M1", "2", "x1^2") in rows
        assert ("M2", "1", "x1") in rows
        assert sum(1 for r in rows if r[0] == "M2") == 2

    def test_json(self, capsys):
        code, out, _ = invoke(
            capsys, ["lexseg", "1,2,2", "--vars", "2", "--format", "json"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["h"] == [1, 2, 2]
        assert doc["M"]["degree_counts"] == [1, 2, 2]
        assert [0, 1] in doc["M"]["terms"]

    def test_unrealizable_sequence(self, capsys):
        assert invoke(capsys, ["lexseg", "1,3", "--vars", "2"])[0] == EXIT_USAGE

    def test_malformed_sequence(self, capsys):
        assert invoke(capsys, ["lexseg", "1,x", "--vars", "2"])[0] == EXIT_USAGE

    def test_more_variables_than_the_recursion_limit(self, capsys):
        code, out, err = invoke(capsys, ["lexseg", "1,2", "--vars", "3000"])
        assert code == EXIT_OK
        assert [l.strip() for l in out.splitlines()[1:]] == ["1", "x1", "x2"]
        assert err == ""

    def test_size_limit_refuses_before_building(self, capsys, monkeypatch):
        def refuse(h, p):
            raise AssertionError("sous_escalier called on an oversized input")

        monkeypatch.setattr(cli, "sous_escalier", refuse)
        code, out, err = invoke(capsys, ["lexseg", "1,2", "--vars", "1000000000"])
        assert code == EXIT_USAGE
        assert out == ""
        assert str(LEXSEG_MAX_SLOTS) in err


class TestBFileParsing:
    def test_entries(self):
        assert parse_b_file("# note\n1 1\n2 1\n\n3 2\n") == [(1, 1), (2, 1), (3, 2)]

    def test_garbage_line(self):
        with pytest.raises(BFileParseError) as exc:
            parse_b_file("1 1\nabc\n")
        assert "line 2" in str(exc.value)

    @pytest.mark.parametrize("line", ["2_0 5", "+3 3", "3 +3", "-1 5", "3 \u0663", "\uff13 3"])
    def test_only_ascii_decimal_fields(self, line):
        # int() reads "2_0" as 20, "+3" as 3 and the Arabic-Indic or fullwidth three as 3
        with pytest.raises(BFileParseError) as exc:
            parse_b_file(f"1 1\n{line}\n")
        assert "line 2" in str(exc.value)

    def test_non_increasing_indices(self):
        with pytest.raises(BFileParseError):
            parse_b_file("2 1\n1 1\n")

    def test_nonpositive_value(self):
        with pytest.raises(BFileParseError):
            parse_b_file("1 0\n")


class TestOeisCheck:
    def seed(self, tmp_path, text):
        (tmp_path / "b232476.txt").write_text(text, encoding="ascii")
        return str(tmp_path)

    def test_refuses_without_flag(self, capsys):
        code, _, err = invoke(capsys, ["oeis-check", "--max-d", "6"])
        assert code == EXIT_USAGE
        assert "--allow-network" in err

    def test_offline_match(self, capsys, tmp_path):
        cd = self.seed(tmp_path, "1 1\n2 1\n3 2\n4 3\n5 5\n6 8\n")
        code, out, _ = invoke(
            capsys,
            ["oeis-check", "--max-d", "6", "--allow-network", "--cache-dir", cd],
        )
        assert code == EXIT_OK
        assert out.splitlines()[-1].split() == ["6", "8", "8", "True"]

    def test_offline_mismatch(self, capsys, tmp_path):
        cd = self.seed(tmp_path, "1 1\n2 1\n3 2\n4 4\n")
        code, out, err = invoke(
            capsys,
            ["oeis-check", "--max-d", "4", "--allow-network", "--cache-dir", cd],
        )
        assert code == EXIT_MISMATCH
        assert "4" in err

    def test_malformed_cached_file(self, capsys, tmp_path):
        cd = self.seed(tmp_path, "1 one\n")
        code, _, err = invoke(
            capsys,
            ["oeis-check", "--max-d", "4", "--allow-network", "--cache-dir", cd],
        )
        assert code == EXIT_IO
        # the copy on disk is at fault, not the URL it was once fetched from
        assert str(tmp_path / "b232476.txt") in err and "line 1" in err
        assert OEIS_BFILE_URL not in err

    def test_non_utf8_cached_file(self, capsys, monkeypatch, tmp_path):
        (tmp_path / "b232476.txt").write_bytes(b"1 1\n2 1\n3 \xff\n")

        def offline(url, timeout):
            raise AssertionError("the cached copy must be used")

        monkeypatch.setattr("urllib.request.urlopen", offline)
        code, out, err = invoke(
            capsys,
            ["oeis-check", "--max-d", "4", "--allow-network", "--cache-dir", str(tmp_path)],
        )
        assert (code, out) == (EXIT_IO, "")
        assert str(tmp_path / "b232476.txt") in err and "not UTF-8" in err

    def test_default_cache_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("OSEQ_CACHE_DIR", str(tmp_path))
        assert default_cache_dir() == str(tmp_path)

    def test_default_cache_dir_home(self, monkeypatch, tmp_path):
        monkeypatch.delenv("OSEQ_CACHE_DIR", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert default_cache_dir() == str(tmp_path / ".cache" / "oseq")


class TestFetchOeis:
    def test_import_leaves_urllib_request_out(self):
        # a child process: this one imported urllib.request long ago
        probe = "import sys, oseq.cli; print('urllib.request' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")

    def test_cached_fetch_leaves_urllib_request_out(self, tmp_path):
        (tmp_path / "b232476.txt").write_text("1 1\n2 1\n")
        probe = ("import sys; from oseq.cli import fetch_oeis; "
                 f"print(fetch_oeis(cache_dir={str(tmp_path)!r}), 'urllib.request' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "[(1, 1), (2, 1)] False\n", "")

    def serve(self, monkeypatch, body):
        monkeypatch.setattr("urllib.request.urlopen",
                            lambda url, timeout: io.BytesIO(body))

    @pytest.mark.parametrize("body", [b"<html>not a b-file</html>\n", b"1 1\n\xff\xfe 2\n",
                                      b""], ids=["html", "not-utf8", "empty"])
    def test_bad_download_is_not_saved(self, monkeypatch, tmp_path, body):
        self.serve(monkeypatch, body)
        with pytest.raises(BFileParseError):
            fetch_oeis(cache_dir=str(tmp_path))
        assert os.listdir(tmp_path) == []

    def test_good_download_is_saved_verbatim(self, monkeypatch, tmp_path):
        body = b"# A232476\n1 1\n2 1\n3 2\n"
        self.serve(monkeypatch, body)
        assert fetch_oeis(cache_dir=str(tmp_path)) == [(1, 1), (2, 1), (3, 2)]
        assert os.listdir(tmp_path) == ["b232476.txt"]
        assert (tmp_path / "b232476.txt").read_bytes() == body

    def test_failed_save_names_the_copy(self, monkeypatch, tmp_path):
        # the download parses, but its directory lies below a regular file
        self.serve(monkeypatch, b"1 1\n2 1\n")
        (tmp_path / "plain").write_text("")
        cached = tmp_path / "plain" / "oseq" / "b232476.txt"
        with pytest.raises(OSError) as raised:
            fetch_oeis(cache_dir=str(cached.parent))
        assert str(raised.value).startswith(f"{cached}: ")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--max-d", "12", "--format", "csv"],
            ["enumerate", "7", "--all"],
            ["verify", "--suite", "ratios", "--max-d", "12", "--format", "json"],
            ["lexseg", "1,3,4,2", "--vars", "3", "--decompose", "--format", "csv"],
        ],
    )
    def test_double_run_identical(self, capsys, argv):
        first = invoke(capsys, argv)
        second = invoke(capsys, argv)
        assert first == second


class FullStdout(io.StringIO):
    """A stdout on a full device: every write fails with ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


ENOSPC_NOTE = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"

# every error path that existed before run() became the only place that
# maps an exception to an exit code, with its exact stderr; {tmp} is the
# test's tmp_path
PINNED_ERRORS = [
    (["table", "--max-d", "0"], EXIT_USAGE,
     "oseq table: argument --max-d must be >= 1, got 0\n"),
    (["count", "0"], EXIT_USAGE, "oseq count: argument d must be >= 1, got 0\n"),
    (["formula", "0", "8", "1", "9"], EXIT_USAGE,
     "oseq formula: argument p must be >= 1, got 0\n"),
    (["formula", "3", "-1", "1", "9"], EXIT_USAGE,
     "oseq formula: argument n must be >= 0, got -1\n"),
    (["formula", "3", "8", "-1", "9"], EXIT_USAGE,
     "oseq formula: argument k must be >= 0, got -1\n"),
    (["formula", "3", "8", "1", "0"], EXIT_USAGE,
     "oseq formula: argument d must be >= 1, got 0\n"),
    (["enumerate", "0"], EXIT_USAGE, "oseq enumerate: argument d must be >= 1, got 0\n"),
    (["lexseg", "1,2", "--vars", "0"], EXIT_USAGE,
     "oseq lexseg: argument --vars must be >= 1, got 0\n"),
    (["oeis-check", "--allow-network", "--max-d", "0"], EXIT_USAGE,
     "oseq oeis-check: argument --max-d must be >= 1, got 0\n"),
    (["formula", "3", "8", "1", "9", "--cache", "{tmp}/missing/memo.txt"], EXIT_IO,
     "oseq formula: --cache {tmp}/missing/memo.txt: [Errno 2] No such file or directory: "
     "'{tmp}/missing/memo.txt'\n"),
    (["formula", "3", "8", "1", "9", "--cache", "{tmp}/v0"], EXIT_IO,
     "oseq formula: cache: {tmp}/v0: expected header '# oseq-memo v1', "
     "got '# oseq-memo v0'\n"),
    (["formula", "3", "8", "1", "9", "--cache", "{tmp}/short"], EXIT_IO,
     "oseq formula: cache: {tmp}/short:2: expected 5 fields, got 4\n"),
    (["verify", "--suite", "oracle", "--max-d", "13"], EXIT_USAGE,
     "oseq verify: --suite oracle: suite oracle needs 1 <= max_d <= 12 "
     "(exhaustive search), got 13\n"),
    (["verify", "--suite", "bijection", "--max-d", "41"], EXIT_USAGE,
     "oseq verify: --suite bijection: suite bijection needs 5 <= max_d <= 40 "
     "(walk time), got 41\n"),
    (["verify", "--suite", "ratios", "--max-d", "5"], EXIT_USAGE,
     "oseq verify: --suite ratios: suite ratios needs a table up to at least d = 6, "
     "got max_d = 5\n"),
    (["lexseg", "1,x", "--vars", "2"], EXIT_USAGE,
     "oseq lexseg: argument h must be comma-separated integers, got '1,x'\n"),
    (["lexseg", "1,3", "--vars", "2"], EXIT_USAGE,
     "oseq lexseg: h[1] = 3 exceeds the 2 degree-1 terms in 2 variables\n"),
    (["lexseg", "1,2", "--vars", "1000000000"], EXIT_USAGE,
     "oseq lexseg: sum(h) x --vars = 3000000000 exponent slots, "
     "above the limit of 10000000\n"),
    (["oeis-check", "--max-d", "6"], EXIT_USAGE,
     "oseq oeis-check: network access is off by default; "
     "pass --allow-network to permit the HTTP fetch\n"),
    (["formula", "3", "8", "1", "9", "--cache", "{tmp}/twice"], EXIT_IO,
     "oseq formula: cache: {tmp}/twice:3: key (2, 3, 1, 5) already maps to 7, "
     "refusing to store 8\n"),
    (["verify", "--suite", "table", "--max-d", "20"], EXIT_USAGE,
     "oseq verify: --suite table: suite table needs a table up to at least d = 21, "
     "got max_d = 20\n"),
]


class TestFailurePaths:
    @pytest.mark.parametrize(
        "argv, code, err", PINNED_ERRORS,
        ids=[f"{argv[0]}-{i}" for i, (argv, _, _) in enumerate(PINNED_ERRORS)])
    def test_error_output_pinned(self, capsys, tmp_path, argv, code, err):
        (tmp_path / "v0").write_text("# oseq-memo v0\n")
        (tmp_path / "short").write_text("# oseq-memo v1\n2,3,1,5\n")
        (tmp_path / "twice").write_text("# oseq-memo v1\n2,3,1,5,7\n2,3,1,5,8\n")
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        assert invoke(capsys, argv) == (code, "", err.replace("{tmp}", str(tmp_path)))

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--max-d", "3"],
            ["table", "--max-d", "3", "--format", "csv"],
            ["count", "5", "--format", "json"],
            ["formula", "3", "8", "1", "9", "--cache", "{tmp}/memo.txt"],
            ["enumerate", "5"],
            ["verify", "--suite", "ratios", "--max-d", "12"],
            ["lexseg", "1,2", "--vars", "2"],
        ],
        ids=["table", "table-csv", "count-json", "formula-cache", "enumerate", "verify",
             "lexseg"],
    )
    def test_failed_output_write_exits_3(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.setattr(sys, "stdout", FullStdout())
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        # one line, and the output is at fault, not the --cache file
        assert invoke(capsys, argv) == (EXIT_IO, "", f"oseq {argv[0]}: {ENOSPC_NOTE}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [["table", "--max-d", "3"],
                                      ["verify", "--suite", "ratios", "--max-d", "12"]],
                             ids=["table", "verify"])
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_stdout_on_dev_full_exits_3(self, argv, unbuffered):
        # buffered, the output fails only at the final flush and would fail
        # again at the interpreter's flush at exit
        env = child_env()
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "oseq.cli", *argv], stdout=full,
                                  stderr=subprocess.PIPE, env=env, timeout=60)
        assert (done.returncode, done.stderr.decode()) == (
            EXIT_IO, f"oseq {argv[0]}: {ENOSPC_NOTE}\n")

    def test_closed_stdout_exits_3(self):
        # a process started with stdout closed has sys.stdout = None
        done = subprocess.run(["sh", "-c", 'exec "$0" -m oseq.cli table --max-d 3 >&-',
                               sys.executable], stderr=subprocess.PIPE, env=child_env(),
                              timeout=60)
        assert (done.returncode, done.stderr) == (EXIT_IO, b"oseq table: stdout is closed\n")

    def test_count_disagreement_note(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "count_via_formula", lambda d: 0)
        code, _, err = invoke(capsys, ["count", "5"])
        assert (code, err) == (EXIT_MISMATCH, "oseq count: methods disagree at d=5\n")

    @pytest.mark.parametrize(
        "text, code, err",
        [
            ("1 1\n2 1\n3 2\n4 4\n", EXIT_MISMATCH, "oseq oeis-check: mismatch at d = 4\n"),
            ("1 one\n", EXIT_IO, "oseq oeis-check: {tmp}/b232476.txt: line 1: "
                                 "non-integer field in '1 one'\n"),
            # what a copy cut short by a power loss may hold: it compares nothing
            ("", EXIT_IO, "oseq oeis-check: {tmp}/b232476.txt: no 'index value' line\n"),
            ("# A232476\n", EXIT_IO,
             "oseq oeis-check: {tmp}/b232476.txt: no 'index value' line\n"),
            # a copy cut short on a line boundary: rows 3 and 4 have no reference
            ("1 1\n2 1\n", EXIT_OK,
             "oseq oeis-check: reference stops at d = 2; d = 3..4 not compared\n"),
            ("1 1\n2 1\n3 2\n", EXIT_OK,
             "oseq oeis-check: reference stops at d = 3; d = 4 not compared\n"),
        ],
        ids=["mismatch", "malformed", "empty", "comment-only", "short", "one-short"],
    )
    def test_oeis_check_notes(self, capsys, monkeypatch, tmp_path, text, code, err):
        def no_socket(*args, **kwargs):
            raise AssertionError("oeis-check opened a socket")

        monkeypatch.setattr(socket, "socket", no_socket)
        (tmp_path / "b232476.txt").write_text(text, encoding="ascii")
        got = invoke(capsys, ["oeis-check", "--max-d", "4", "--allow-network",
                              "--cache-dir", str(tmp_path)])
        assert (got[0], got[2]) == (code, err.replace("{tmp}", str(tmp_path)))


COMMANDS = ["table", "count", "formula", "enumerate", "verify", "lexseg", "oeis-check"]
TOP_USAGE = "usage: oseq [-h] {" + ",".join(COMMANDS) + "} ...\n"


def outcome(capsys, call, argv):
    """The exit code, stdout and stderr of ``call(argv)``, which argparse
    ends with SystemExit."""
    with pytest.raises(SystemExit) as exc:
        call(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestArgparseSurface:
    """run builds the named subcommand's parser alone; what argparse prints
    must equal what the parser of every subcommand prints."""

    def test_top_level_help(self, capsys):
        got = outcome(capsys, run, ["--help"])
        assert got == outcome(capsys, build_parser().parse_args, ["--help"])
        code, out, err = got
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith(TOP_USAGE)
        assert all(f"\n    {name} " in out for name in COMMANDS)

    @pytest.mark.parametrize("command, usage", [
        ("table", "--max-d D [--format {text,json,csv}]"),
        ("count", "[--method {enum,formula,both}] [--format {text,json,csv}] d"),
        ("formula", "[--cache FILE] [--stats] [--format {text,json,csv}] p n k d"),
        ("enumerate", "[--all | --last-gt-1] d"),
        ("verify", "--suite {" + ",".join(cli._SUITES) + "} [--max-d D] "
                   "[--format {text,json,csv}]"),
        ("lexseg", "--vars p [--decompose] [--format {text,json,csv}] h"),
        ("oeis-check", "[--max-d D] [--allow-network] [--cache-dir DIR] "
                       "[--format {text,json,csv}]"),
    ], ids=COMMANDS)
    def test_subcommand_help(self, capsys, monkeypatch, command, usage):
        for columns in ["40", "80", "200"]:
            monkeypatch.setenv("COLUMNS", columns)
            # help after an unrecognized argument too
            for argv in [[command, "--help"], [command, "--bogus", "-h"]]:
                got = outcome(capsys, run, argv)
                assert got == outcome(capsys, build_parser().parse_args, argv)
                assert got[0] == EXIT_OK and got[2] == ""
                if columns == "200":  # one usage line
                    assert got[1].startswith(f"usage: oseq {command} [-h] {usage}\n")

    @pytest.mark.parametrize("argv, first, last", [
        ([], TOP_USAGE, "oseq: error: the following arguments are required: command\n"),
        (["nosuch"], TOP_USAGE, "oseq: error: argument command: invalid choice: 'nosuch' "
                                "(choose from " + ", ".join(map(repr, COMMANDS)) + ")\n"),
        (["table"], "usage: oseq table [-h] --max-d D",
         "oseq table: error: the following arguments are required: --max-d\n"),
        (["verify", "--suite", "nope"], "usage: oseq verify [-h] --suite",
         "oseq verify: error: argument --suite: invalid choice: 'nope' (choose from "),
        (["enumerate", "3", "--all", "--last-gt-1"], "usage: oseq enumerate [-h]",
         "oseq enumerate: error: argument --last-gt-1: not allowed with argument --all\n"),
        (["formula", "1"], "usage: oseq formula [-h]",
         "oseq formula: error: the following arguments are required: n, k, d\n"),
        (["table", "--max-d", "x", "-h"], "usage: oseq table [-h] --max-d D",
         "oseq table: error: argument --max-d: invalid int value: 'x'\n"),
        # reported by the top-level parser, whose usage line names every command
        (["table", "--max-d", "3", "--bogus"], TOP_USAGE,
         "oseq: error: unrecognized arguments: --bogus\n"),
        (["count", "5", "--bogus"], TOP_USAGE,
         "oseq: error: unrecognized arguments: --bogus\n"),
        (["formula", "1", "2", "3", "4", "5"], TOP_USAGE,
         "oseq: error: unrecognized arguments: 5\n"),
        (["enumerate", "5", "--format", "json"], TOP_USAGE,
         "oseq: error: unrecognized arguments: --format json\n"),
        (["verify", "--suite", "lemmas", "--bogus", "x"], TOP_USAGE,
         "oseq: error: unrecognized arguments: --bogus x\n"),
        (["lexseg", "1,2", "--vars", "2", "--bogus"], TOP_USAGE,
         "oseq: error: unrecognized arguments: --bogus\n"),
        (["oeis-check", "--bogus"], TOP_USAGE,
         "oseq: error: unrecognized arguments: --bogus\n"),
        (["table", "--max", "3", "--bogus"], TOP_USAGE,
         "oseq: error: unrecognized arguments: --bogus\n"),
        (["enumerate", "--all", "5", "6"], TOP_USAGE,
         "oseq: error: unrecognized arguments: 6\n"),
        (["count", "--", "5", "--bogus"], TOP_USAGE,
         "oseq: error: unrecognized arguments: --bogus\n"),
    ], ids=["bare", "unknown", "table-missing", "verify-choice", "enumerate-exclusive",
            "formula-missing", "table-help-after-invalid", "table-unrecognized",
            "count-unrecognized", "formula-extra-positional", "enumerate-no-format",
            "verify-unrecognized", "lexseg-unrecognized", "oeis-check-unrecognized",
            "table-abbreviated", "enumerate-option-first", "count-double-dash"])
    def test_usage_errors(self, capsys, argv, first, last):
        got = outcome(capsys, run, argv)
        assert got == outcome(capsys, build_parser().parse_args, argv)
        code, out, err = got
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(first)
        assert last in err and err.endswith("\n")

    @pytest.fixture
    def parsers_built(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        return built

    def test_one_subparser_per_command(self, capsys, parsers_built, monkeypatch):
        assert invoke(capsys, ["table", "--max-d", "3"])[0] == EXIT_OK
        assert len(parsers_built) == 1
        monkeypatch.setattr(sys, "argv", ["oseq", "count", "5"])
        assert invoke(capsys, None)[0] == EXIT_OK
        assert len(parsers_built) == 2
        # an unrecognized argument builds the full tree for its usage line
        outcome(capsys, run, ["table", "--max-d", "3", "--bogus"])
        assert len(parsers_built) == 2 + 1 + 1 + len(COMMANDS)

    @pytest.mark.parametrize("argv", [[], ["--help"], ["nosuch"]],
                             ids=["bare", "help", "unknown"])
    def test_full_tree_otherwise(self, capsys, parsers_built, argv):
        outcome(capsys, run, argv)
        assert len(parsers_built) == 1 + len(COMMANDS)

    @pytest.mark.parametrize("argv", [
        ["table", "--max", "3"],
        ["count", "--", "5"],
        ["formula", "3", "8", "1", "9", "--cache", "memo.txt", "--stats", "--format", "csv"],
        ["enumerate", "--all", "5"],
        ["verify", "--suite", "oracle", "--max-d", "6", "--format", "json"],
        ["lexseg", "1,2,1", "--vars", "2", "--decompose"],
        ["oeis-check", "--allow-network", "--cache-dir", "dir"],
    ], ids=COMMANDS)
    def test_namespace_equals_the_full_tree(self, monkeypatch, argv):
        seen = []
        help_text, add_arguments, _ = cli._COMMANDS[argv[0]]
        monkeypatch.setitem(cli._COMMANDS, argv[0],
                            (help_text, add_arguments, lambda args: seen.append(args) or 0))
        assert run(argv) == EXIT_OK
        assert vars(seen[0]) == vars(build_parser().parse_args(argv))
