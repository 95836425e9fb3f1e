"""Tests of the benchmark itself, on tiny workloads.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spec  # noqa: E402

SRC = os.path.join(ROOT, "src")
TINY = [name for name, w in spec.WORKLOADS.items() if w.tiny]


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_is_rendered_from_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        assert json.load(f) == spec.benchmark_config()


@pytest.mark.parametrize("name", TINY)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(name, trace):
    proc = bench("--workload", name, "--seed", "7", "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = spec.PER_LAYER if trace == "1" else spec.END_TO_END
    assert {n: u for n, u, *_ in expected} == {n: m["unit"] for n, m in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "error_rate = 0/" in proc.stdout


def test_trace_reaches_call_time_lookups_and_held_bindings():
    report = run.run_workload(spec.WORKLOADS["verify4"], 1, 0.0, True, SRC, run.load_reference("verify4"))
    layers = report["metrics"]
    # build_poset looks successors up at call time; verify holds its own
    # springer_count and criteria_bits bindings.
    assert layers["poset.successors.calls"] > 0
    assert layers["springer.springer_count.calls"] > layers["springer.springer_diagnosis.calls"] > 0
    assert layers["verify.criteria_bits.calls"] == layers["poset.successors.calls"]
    assert layers["poset.leq.calls"] > 0 and layers["poset.leq.self_s"] == 0  # counted only
    assert layers["verify.run_checks.self_s"] > 0


@pytest.fixture
def corrupted_src(tmp_path):
    """A copy of the package whose clan text is wrong: every output changes."""
    shutil.copytree(os.path.join(SRC, "clans"), tmp_path / "clans", ignore=shutil.ignore_patterns("__pycache__"))
    core = tmp_path / "clans" / "core.py"
    text = core.read_text()
    assert 'return ",".join(e if is_sign(e)' in text
    core.write_text(text.replace('return ",".join(e if is_sign(e)', 'return ";".join(e if is_sign(e)'))
    return str(tmp_path)


@pytest.mark.parametrize("name", TINY)
def test_corrupted_output_gives_error_rate_one(name, corrupted_src):
    report = run.run_workload(spec.WORKLOADS[name], 1, 0.0, False, corrupted_src, run.load_reference(name))
    assert report["attempted"] >= 1
    assert report["failed"] == report["attempted"]


def test_verify_run_that_exits_zero_or_loses_its_fail_lines_fails():
    reference = run.load_reference("verify8")
    assert reference["exit"] == 1
    assert run.judge({"exit": 1, "sha256": reference["sha256"]}, reference) == (1, 0)
    assert run.judge({"exit": 0, "sha256": reference["sha256"]}, reference) == (1, 1)
    assert run.judge({"exit": 1, "sha256": "0" * 64}, reference) == (1, 1)


@pytest.mark.parametrize("name", ["diagnose22", "diagnose54"])
def test_diagnosis_output_does_not_depend_on_the_seed(name):
    reference = run.load_reference(name)
    for seed in (1, 2):
        record = run.spawn({"workload": name, "seed": seed, "mode": "plain", "src": SRC}, 120)
        assert record["sha256"] == reference["sha256"]
        assert record["items"] == reference["items"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "verify4", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
