"""Command-line interface: formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from clans import _parallel
from clans.cli import main

#: The environment for a fresh interpreter: it imports clans from this checkout.
SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_tsv_1_1(self, capsys):
        code, out, _ = run_main(capsys, "enumerate", "--p", "1", "--q", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "clan\tdim\tclosed\trationally_smooth"
        assert lines[1:] == [
            "+,-\t0\ttrue\ttrue",
            "-,+\t0\ttrue\ttrue",
            "1,1\t1\tfalse\ttrue",
        ]

    def test_2_2_census(self, capsys):
        code, out, _ = run_main(capsys, "enumerate", "--p", "2", "--q", "2")
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 21
        singular = [r.split("\t")[0] for r in rows if r.endswith("\tfalse")]
        assert singular == ["1,+,-,1", "1,-,+,1", "1,2,1,2"]

    def test_single_orbit(self, capsys):
        code, out, _ = run_main(capsys, "enumerate", "--p", "0", "--q", "2")
        assert out.strip().split("\n")[1:] == ["-,-\t1\ttrue\ttrue"]

    def test_json(self, capsys):
        code, out, _ = run_main(
            capsys, "enumerate", "--p", "1", "--q", "1", "--format", "json"
        )
        rows = json.loads(out)
        assert rows[0] == {
            "clan": "+,-",
            "dim": 0,
            "closed": True,
            "rationally_smooth": True,
        }

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.tsv"
        code, out, _ = run_main(
            capsys, "enumerate", "--p", "1", "--q", "1", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("clan\t")


@pytest.mark.parametrize("where", ["missing-dir", "directory", "empty"])
@pytest.mark.parametrize(
    "argv",
    [["stats", "--p", "1", "--q", "1"], ["classify", "--p", "1", "--q", "1", "--clan", "1,1"]],
    ids=["stats", "classify"],
)
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv, where):
    # an empty path is a path that cannot be written, not a request for stdout
    target = {"missing-dir": tmp_path / "missing" / "x", "directory": tmp_path, "empty": ""}[where]
    code, out, err = run_main(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--p", "9", "--q", "9"],
        ["stats", "--p", "9", "--q", "9"],
        ["classify", "--p", "17", "--q", "17", "--clan", "x"],
        ["verify", "--max-n", "9"],
        ["poset", "--p", "5", "--q", "5"],
    ],
    ids=["enumerate", "stats", "classify", "verify", "poset"],
)
def test_refusal_writes_no_out_file(capsys, tmp_path, argv):
    # every refusal comes before any output, so --out is never created
    target = tmp_path / "out"
    code, out, err = run_main(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


def test_census_pinned_4_4(capsys):
    # enumerate and stats bytes at (4,4); the benchmark's census55 run checks (5,5)
    pinned = {
        ("enumerate", "tsv"): "e703ebb53c13d43f6e825ed17042b4c71c77034e3b867d114bb1ec8f8272d2a0",
        ("enumerate", "json"): "54ea4fde64bbbcd9539ca9abb48e9da34244adbdfea1a21cd4735e72d55d6e79",
        ("stats", "tsv"): "7b2dd0be082f776cad485c06af4f2d13f91d9cc6e5d21c442bc825369eb679a6",
        ("stats", "json"): "2948c9b3611893c398cab7103a13d87de91c7fa41010b7baf4188770e5c8c407",
    }
    for (command, fmt), expected in pinned.items():
        code, out, _ = run_main(capsys, command, "--p", "4", "--q", "4", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected, (command, fmt)


class TestClassify:
    def test_singular(self, capsys):
        code, out, _ = run_main(
            capsys, "classify", "--p", "2", "--q", "2", "--clan", "1,2,1,2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rationally_smooth"] is False
        assert doc["witness_pattern"] == "1,2,1,2"

    def test_smooth_with_certificate(self, capsys):
        code, out, _ = run_main(
            capsys, "classify", "--p", "2", "--q", "2", "--clan", "1,2,2,1"
        )
        doc = json.loads(out)
        assert doc["rationally_smooth"] is True
        assert doc["certificate"]["kind"] == "outer-strip"
        assert doc["dimension"] == 6

    def test_invalid_clan_is_usage_error(self, capsys):
        code, out, err = run_main(
            capsys, "classify", "--p", "2", "--q", "1", "--clan", "1,+,-,2"
        )
        assert code == 2
        assert "error" in err

    def test_signature_mismatch(self, capsys):
        code, _, err = run_main(
            capsys, "classify", "--p", "2", "--q", "1", "--clan", "1,+,1,-"
        )
        assert code == 2

    @pytest.mark.parametrize("text", ["1,\u00b2,1,+", "\u0661,+,\u0661,-"])
    def test_non_ascii_digits_are_usage_errors(self, capsys, text):
        # "²" passes str.isdigit but not int(); Arabic-Indic "١" passes both
        code, out, err = run_main(capsys, "classify", "--p", "2", "--q", "2", "--clan", text)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_overlong_pair_number_is_usage_error(self, capsys):
        # more digits than int() converts from text
        text = "1" * 5000 + ",+"
        code, out, err = run_main(capsys, "classify", "--p", "1", "--q", "1", "--clan", text)
        assert code == 2
        assert out == ""
        assert err == "error: pair number with 5000 digits is too long\n"

    @pytest.mark.parametrize(
        "text",
        [",".join(map(str, [*range(1, 18), *range(17, 0, -1)])), "not a clan"],
        ids=["nested", "junk"],
    )
    def test_long_clan_refused_before_parsing(self, capsys, text):
        # classifying the nested clan 1,2,...,m,m,...,1 takes time about cubic in m
        start = time.perf_counter()
        code, out, err = run_main(
            capsys, "classify", "--p", "17", "--q", "17", "--clan", text
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == "error: p+q=34 exceeds the clan length bound 32\n"

    def test_no_jobs_flag(self):
        with pytest.raises(SystemExit) as info:
            main(["classify", "--p", "1", "--q", "1", "--clan", "1,1", "--jobs", "2"])
        assert info.value.code == 2


class TestPoset:
    def test_dot(self, capsys):
        code, out, _ = run_main(capsys, "poset", "--p", "1", "--q", "1")
        assert code == 0
        assert out.count("[label=") == 3
        assert out.count("->") == 2

    def test_tsv_rows(self, capsys):
        code, out, _ = run_main(
            capsys, "poset", "--p", "2", "--q", "1", "--format", "tsv"
        )
        assert len(out.strip().split("\n")) == 7

    def test_bound_refused(self, capsys):
        code, out, err = run_main(capsys, "poset", "--p", "5", "--q", "5")
        assert code == 2
        assert out == ""
        assert err == "error: p+q=10 exceeds the size bound 9\n"


class TestVerify:
    def test_small_all_pass(self, capsys):
        code, out, _ = run_main(capsys, "verify", "--max-n", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert all(line.startswith("PASS") for line in lines[:-2])
        assert "count>=budget held" in lines[-2]
        assert lines[-1].endswith("checks passed")

    def test_trivial_sizes_pass(self, capsys):
        code, out, _ = run_main(capsys, "verify", "--max-n", "2")
        assert code == 0

    def test_reports_known_disagreement_at_n6(self, capsys):
        # the seven-pattern criterion and the reflection diagnostic provably
        # part ways at 1,2,2,3,3,1; verify surfaces that as a FAIL
        code, out, _ = run_main(capsys, "verify", "--max-n", "6")
        assert code == 1
        failing = [line for line in out.split("\n") if line.startswith("FAIL")]
        assert len(failing) == 1
        assert "criteria-equivalence p=3 q=3" in failing[0]
        assert "1,2,2,3,3,1" in failing[0]

    def test_max_n_bound(self, capsys):
        code, out, err = run_main(capsys, "verify", "--max-n", "9")
        assert code == 2
        assert out == ""
        assert err == "error: --max-n 9 exceeds the bound 8\n"


class TestStats:
    def test_2_2(self, capsys):
        code, out, _ = run_main(capsys, "stats", "--p", "2", "--q", "2")
        rows = dict(line.split("\t") for line in out.strip().split("\n"))
        assert rows["clans"] == "21"
        assert rows["closed"] == "6"
        assert rows["smooth"] == "18"
        assert rows["singular"] == "3"
        assert [rows[f"dim_{d}"] for d in range(2, 7)] == ["6", "6", "5", "3", "1"]

    def test_1_1_json(self, capsys):
        code, out, _ = run_main(
            capsys, "stats", "--p", "1", "--q", "1", "--format", "json"
        )
        doc = json.loads(out)
        assert doc == {
            "clans": 3,
            "closed": 2,
            "smooth": 3,
            "singular": 0,
            "dimension_histogram": {"0": 2, "1": 1},
        }

    def test_2_1_closed_count(self, capsys):
        code, out, _ = run_main(capsys, "stats", "--p", "2", "--q", "1")
        rows = dict(line.split("\t") for line in out.strip().split("\n"))
        assert rows["clans"] == "6" and rows["closed"] == "3"


class TestClanCountBound:
    @pytest.mark.parametrize("command", ["enumerate", "stats"])
    def test_refused_before_any_work(self, capsys, command):
        start = time.perf_counter()
        code, out, err = run_main(capsys, command, "--p", "9", "--q", "9")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == "error: (9,9) has 11338512185 clans, above the bound 1000000\n"

    @pytest.mark.parametrize(
        "p, q", [("2000", "2000"), ("20000", "20000"), ("1000000000", "0")]
    )
    @pytest.mark.parametrize("command", ["enumerate", "stats"])
    def test_long_clans_refused_before_any_work(self, capsys, command, p, q):
        start = time.perf_counter()
        code, out, err = run_main(capsys, command, "--p", p, "--q", q)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        n = int(p) + int(q)
        assert err == f"error: p+q={n} exceeds the clan length bound 32\n"


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_negative_p(self):
        with pytest.raises(SystemExit) as info:
            main(["enumerate", "--p", "-1", "--q", "1"])
        assert info.value.code == 2

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "clans", "enumerate", "--p", "1", "--q", "1"],
            env=SRC_ENV,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("clan\t")


#: argv fragments: flags with a value, clan texts valid and not, junk.
#: `--out` is left out (it writes files) and `--jobs` only ever takes 1, so
#: no example starts a process pool.  `--p` and `--max-n` may be 40, which
#: every command refuses by a bound before any work.
small_ints = st.integers(0, 3).map(str)
over_bound = st.one_of(small_ints, st.just("40"))
clan_texts = st.sampled_from(
    ["1,+,-,1", "1,2,2,1", "+,-", "1+1-", "1,1", "1,1,1", "0,+,0,-", "1,²,1,+", ""]
)
loose_tokens = st.one_of(
    small_ints,
    clan_texts,
    st.sampled_from(
        ["--p", "--q", "--format", "--clan", "--max-n", "tsv", "dot", "json",
         "enumerate", "-", "--", "x", "--bogus", "--p=2", "-1"]
    ),
)
argv_pieces = st.one_of(
    st.tuples(st.just("--p"), over_bound),
    st.tuples(st.just("--q"), small_ints),
    st.tuples(st.just("--format"), st.sampled_from(["tsv", "dot", "json", "x"])),
    st.tuples(st.just("--clan"), clan_texts),
    st.tuples(st.just("--max-n"), over_bound),
    st.just(("--jobs", "1")),
    loose_tokens.map(lambda token: (token,)),
)
signatures = st.tuples(over_bound, small_ints).map(lambda pq: ["--p", pq[0], "--q", pq[1]])
commands = st.one_of(
    st.tuples(st.sampled_from(["enumerate", "poset", "stats"]), signatures).map(
        lambda t: [t[0], *t[1]]
    ),
    st.tuples(signatures, clan_texts).map(lambda t: ["classify", *t[0], "--clan", t[1]]),
    over_bound.map(lambda n: ["verify", "--max-n", n]),
    st.sampled_from(["enumerate", "classify", "poset", "verify", "stats", "x"]).map(
        lambda name: [name]
    ),
)
fuzzed_argv = st.tuples(commands, st.lists(argv_pieces, max_size=4)).map(
    lambda t: t[0] + [token for piece in t[1] for token in piece]
)


@settings(max_examples=150, deadline=None)
@given(fuzzed_argv)
def test_fuzzed_argv_ends_in_an_exit_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the usage
            assert exc.code == 2, argv
            return
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), argv
    assert len(lines) <= 1, argv
    # exit 2 iff main printed its one error line
    assert (code == 2) == (lines != [] and lines[0].startswith("error: ")), argv


class TestDeterminismAcrossJobs:
    def test_enumerate_jobs(self, capsys):
        outs = []
        for jobs in ("1", "2"):
            _, out, _ = run_main(
                capsys, "enumerate", "--p", "3", "--q", "2", "--jobs", jobs
            )
            outs.append(out)
        assert outs[0] == outs[1]

    def test_poset_jobs(self, capsys):
        outs = []
        for jobs in ("1", "3"):
            _, out, _ = run_main(
                capsys, "poset", "--p", "2", "--q", "2", "--jobs", jobs
            )
            outs.append(out)
        assert outs[0] == outs[1]

    def test_jobs_clamped_to_cores_and_items(self, capsys, monkeypatch):
        # the pool forks every worker on its first submit, so a huge --jobs
        # must not reach it; the recorder runs the map serially, forking nothing
        requested = []

        class RecordingPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, data, chunksize):
                return map(fn, data)

        monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 4)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        _, serial, _ = run_main(capsys, "enumerate", "--p", "3", "--q", "2")
        _, clamped, _ = run_main(
            capsys, "enumerate", "--p", "3", "--q", "2", "--jobs", "100000"
        )
        assert clamped == serial
        assert _parallel.ordered_map(abs, [-1, 2, -3], 0) == [1, 2, 3]
        assert _parallel.ordered_map(abs, [-1], 100000) == [1]
        assert requested == [4, 3]

    def test_cli_import_loads_no_pool(self):
        # a fresh interpreter, since this one may have imported them already
        pool_modules = ("multiprocessing", "concurrent.futures", "concurrent.futures.process")
        code = f"import sys, clans.cli; print([m for m in {pool_modules!r} if m in sys.modules])"
        result = subprocess.run(
            [sys.executable, "-c", code], env=SRC_ENV, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_verify_jobs(self, capsys):
        outs = []
        for jobs in ("1", "2"):
            code, out, _ = run_main(capsys, "verify", "--max-n", "4", "--jobs", jobs)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
