"""Command-line interface: formats, exit codes, determinism."""

import argparse
import contextlib
import errno
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

import oracles
from clans import (
    cli,
    dimension,
    enumerate_clans,
    format_clan,
    is_rationally_smooth,
    parse_clan,
    poset,
    verify,
)
from clans.cli import _census, main

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
        ["verify", "--max-n", "10"],
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


def census_class(clan):
    """The clans sharing a verdict and a dimension with this one in its
    census: its reversal and, when p = q, the sign swaps of both."""
    members = {clan, oracles.reversed_clan(clan)}
    if clan.p == clan.q:
        members |= {oracles.swapped_clan(c) for c in members}
    return frozenset(members)


class TestCensusByReversalPair:
    """The census classifies and measures one clan per class of reversal and,
    when p = q, sign swap, and copies its verdict and dimension."""

    @pytest.mark.parametrize("n", [*range(9), pytest.param(9, marks=pytest.mark.slow)])
    def test_verdicts_match_direct_classification(self, n):
        for p in range(n + 1):
            clans, verdicts, dims = _census(argparse.Namespace(p=p, q=n - p))
            assert clans == enumerate_clans(p, n - p)
            assert verdicts == [is_rationally_smooth(c) for c in clans], (p, n - p)
            assert dims == [dimension(c) for c in clans], (p, n - p)

    @staticmethod
    def census_calls(capsys, monkeypatch, p, q):
        called = []

        def counting(clan):
            called.append(clan)
            return is_rationally_smooth(clan)

        monkeypatch.setattr(cli, "is_rationally_smooth", counting)
        assert run_main(capsys, "enumerate", "--p", str(p), "--q", str(q))[0] == 0
        return called

    def test_one_call_per_reversal_class_4_4(self, capsys, monkeypatch):
        # p = q: each class is {c, rev c, swap c, rev swap c}
        classes = {census_class(c) for c in enumerate_clans(4, 4)}
        assert len(classes) == 802
        called = self.census_calls(capsys, monkeypatch, 4, 4)
        assert len(called) == len(classes)
        assert {census_class(c) for c in called} == classes

    def test_one_call_per_reversal_pair_4_3(self, capsys, monkeypatch):
        # p != q: the sign swap leaves the signature, so each class is {c, rev c}
        classes = {frozenset((c, oracles.reversed_clan(c))) for c in enumerate_clans(4, 3)}
        called = self.census_calls(capsys, monkeypatch, 4, 3)
        assert len(called) == len(classes)
        assert {census_class(c) for c in called} == classes

    def test_reversal_classes_5_5(self):
        # the census55 benchmark classifies and measures one clan of each
        # of the 11,864 classes
        clans = enumerate_clans(5, 5)
        mirrors = [oracles.reversed_clan(c) for c in clans]
        assert len(clans) == 45_297
        assert sum(m == c for c, m in zip(clans, mirrors)) == 251
        assert len({frozenset(pair) for pair in zip(clans, mirrors)}) == 22_774
        assert len({census_class(c) for c in clans}) == 11_864


@pytest.mark.parametrize(
    "max_n, expected",
    [
        (6, "929018b6f45336293dd88823529b104f267be0cd3d7b3c72c673eb690eb3439e"),
        pytest.param(
            7,
            "af20e30ca81d9b55bacb2bb47a79cf37173c8c1f752fe9720d5bdbaa6446ff5e",
            marks=pytest.mark.slow,
        ),
    ],
)
def test_classify_stdout_pinned(capsys, max_n, expected):
    # the bytes classify prints, key order included, for every clan with
    # p+q <= max_n (705 clans at 6, 2,555 at 7), in enumeration order
    digest = hashlib.sha256()
    for n in range(1, max_n + 1):
        for p in range(n + 1):
            for clan in enumerate_clans(p, n - p):
                argv = ["classify", "--p", str(p), "--q", str(n - p), "--clan=" + format_clan(clan)]
                code, out, _ = run_main(capsys, *argv)
                assert code == 0, argv
                digest.update(out.encode())
    assert digest.hexdigest() == expected


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

    @pytest.mark.parametrize("text, p", [("-,+", "1"), ("-,1,1,+", "2")])
    def test_clan_starting_with_minus(self, capsys, text, p):
        # argparse reads a lone "-,+" as a flag; main joins it to a bare --clan
        signature = ["classify", "--p", p, "--q", p]
        code, out, err = run_main(capsys, *signature, "--clan", text)
        assert code == 0 and err == ""
        assert json.loads(out)["clan"] == text
        assert run_main(capsys, *signature, f"--clan={text}") == (code, out, err)

    def test_trailing_bare_clan_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--p", "1", "--q", "1", "--clan"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err

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

    def test_missing_move_result_is_one_error_line(self, capsys, monkeypatch):
        # the enumeration walk drops 1,+,1,- and its dimension; the first
        # clan's pair creation makes it
        walk = poset._clans_with_dimensions
        dropped = parse_clan("1,+,1,-", 2, 2)

        def walk_without(p, q):
            clans, dims = walk(p, q)
            keep = [k for k, c in enumerate(clans) if c != dropped]
            return [clans[k] for k in keep], [dims[k] for k in keep]

        monkeypatch.setattr(poset, "_clans_with_dimensions", walk_without)
        assert run_main(capsys, "poset", "--p", "2", "--q", "2") == (
            2,
            "",
            "error: move result 1,+,1,- of +,+,-,- is not among the 20 enumerated clans\n",
        )

    def test_non_increasing_move_is_one_error_line(self, capsys, monkeypatch):
        # the move kernel also offers the closed +,+,-,- above 1,+,-,1
        source, closed = parse_clan("1,+,-,1", 2, 2), parse_clan("+,+,-,-", 2, 2)
        found = poset.successors
        monkeypatch.setattr(
            poset, "successors", lambda c: found(c) | {closed} if c == source else found(c)
        )
        assert run_main(capsys, "poset", "--p", "2", "--q", "2") == (
            2,
            "",
            "error: move 1,+,-,1 -> +,+,-,- takes the dimension from 5 to 2\n",
        )


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

    def test_max_n_bound(self, capsys, monkeypatch):
        # the poset's own bound, checked before the first signature is built
        def no_build(*args, **kwargs):
            raise AssertionError("a poset was built")

        monkeypatch.setattr(verify, "build_poset", no_build)
        code, out, err = run_main(capsys, "verify", "--max-n", "10")
        assert code == 2
        assert out == ""
        assert err == "error: p+q=10 exceeds the size bound 9\n"


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


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "command, redirect, reason",
    [
        ("enumerate --p 2 --q 2", ">/dev/full", os.strerror(errno.ENOSPC)),
        ("poset --p 4 --q 4", ">&-", "it is closed"),
    ],
    ids=["full-device", "closed"],
)
def test_unwritable_stdout_is_usage_error(command, redirect, reason, unbuffered):
    # one error line and exit 2; the exit-time flush of stdout adds no second error
    result = subprocess.run(
        ["sh", "-c", f'"$0" -m clans {command} {redirect}', sys.executable],
        env=dict(SRC_ENV, PYTHONUNBUFFERED=unbuffered),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert result.stderr == f"error: cannot write stdout: {reason}\n"


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_broken_pipe_stdout_is_usage_error(unbuffered):
    # the pipe's read end is closed before the command starts, so its write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "clans", "enumerate", "--p", "2", "--q", "2"],
            env=dict(SRC_ENV, PYTHONUNBUFFERED=unbuffered),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr == f"error: cannot write stdout: {os.strerror(errno.EPIPE)}\n"


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_negative_p(self):
        with pytest.raises(SystemExit) as info:
            main(["enumerate", "--p", "-1", "--q", "1"])
        assert info.value.code == 2

    @pytest.mark.parametrize("text", ["\u0663", "\uff19", "3_0", "+3", " 3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--p", "{}", "--q", "1"],
            ["enumerate", "--p", "1", "--q", "{}"],
            ["verify", "--max-n", "{}"],
            ["poset", "--p", "1", "--q", "1", "--jobs", "{}"],
        ],
        ids=["p", "q", "max-n", "jobs"],
    )
    def test_numbers_take_ascii_digits_only(self, capsys, argv, text):
        # int() reads an Arabic-Indic 3, a full-width 9, 3_0, +3 and " 3"
        with pytest.raises(SystemExit) as info:
            main([token.format(text) for token in argv])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "must be >= 0, in ASCII digits" in err

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
#: `--out` is left out (it writes files).  `--jobs` takes valid values up to
#: 100000, which change nothing, and -1, which argparse refuses.  `--p` and
#: `--max-n` may be 40, which every command refuses by a bound before any work.
#: An Arabic-Indic 3 and 3_0 are numbers to int() but not in ASCII digits.
small_ints = st.one_of(st.integers(0, 3).map(str), st.sampled_from(["\u0663", "3_0"]))
over_bound = st.one_of(small_ints, st.just("40"))
clan_texts = st.sampled_from(
    ["1,+,-,1", "1,2,2,1", "+,-", "-,+", "1+1-", "1,1", "1,1,1", "0,+,0,-", "1,²,1,+", ""]
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
    st.tuples(
        st.just("--jobs"), st.sampled_from(["0", "1", "2", "100000", "-1", "\u0663", "3_0"])
    ),
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


#: Each command that takes --jobs, at a size that runs in milliseconds.
JOBS_COMMANDS = [
    ["enumerate", "--p", "2", "--q", "1"],
    ["poset", "--p", "2", "--q", "1"],
    ["verify", "--max-n", "3"],
    ["stats", "--p", "2", "--q", "1"],
]


class TestDeterminismAcrossJobs:
    def test_enumerate_jobs(self, capsys):
        outs = []
        for jobs in ("1", "2"):
            _, out, _ = run_main(
                capsys, "enumerate", "--p", "3", "--q", "2", "--jobs", jobs
            )
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["enumerate", "stats"])
    def test_census_jobs_4_3(self, capsys, command):
        # p != q, and (4,3) holds clans that are their own reversal
        assert any(oracles.reversed_clan(c) == c for c in enumerate_clans(4, 3))
        outs = []
        for jobs in ("1", "2"):
            _, out, _ = run_main(capsys, command, "--p", "4", "--q", "3", "--jobs", jobs)
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

    def test_cli_import_loads_no_pool(self):
        # a fresh interpreter, since this one may have imported them already;
        # every command runs at tiny sizes with the extreme valid --jobs values
        pool_modules = ("multiprocessing", "concurrent.futures", "concurrent.futures.process")
        runs = [[*cmd, "--jobs", jobs] for cmd in JOBS_COMMANDS for jobs in ("0", "100000")]
        code = (
            "import contextlib, io, sys\n"
            "from clans.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            f"print([m for m in {pool_modules!r} if m in sys.modules])\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=SRC_ENV, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    @pytest.mark.parametrize("command", JOBS_COMMANDS, ids=lambda command: command[0])
    def test_negative_jobs_is_a_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([*command, "--jobs", "-1"])
        assert info.value.code == 2
        assert "argument --jobs: must be >= 0" in capsys.readouterr().err

    def test_verify_jobs(self, capsys):
        outs = []
        for jobs in ("1", "2"):
            code, out, _ = run_main(capsys, "verify", "--max-n", "4", "--jobs", jobs)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
