"""Self-tests of the benchmark, on the tiny ``smoke`` workload.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=run.ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc


def smoke(trace, seed=1):
    proc = bench("--workload", "smoke", "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(trace, section):
    result = smoke(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == want
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_end_to_end_metrics_are_never_zero():
    for entry in smoke(0)["metrics"].values():
        assert entry["value"] > 0


def test_traced_counts_repeat_exactly():
    counts = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"}
    first, second = smoke(1, seed=3), smoke(1, seed=3)
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }
    assert first["metrics"]["laurent.rationalqt_built"]["value"] > 0
    assert first["metrics"]["characters.disk_reads"]["value"] > 0
    assert first["metrics"]["characters.disk_writes"]["value"] > 0


def runner(tmp_path):
    return run.Runner(tmp_path, time.monotonic() + 120)


def test_a_wrong_expected_output_counts_as_failed(tmp_path):
    r = runner(tmp_path)
    r.expected[run.SETUP.key] = run.Expectation(0, b"not the table\n")
    assert not r.run(run.SETUP).ok
    assert (r.attempted, r.failed) == (1, 1)
    assert "standard output differs" in r.problems[0]


def test_a_wrong_exit_code_counts_as_failed(tmp_path):
    r = runner(tmp_path)
    right = run.load_expected(run.SETUP.key)
    r.expected[run.SETUP.key] = run.Expectation(1, right.stdout)
    assert not r.run(run.SETUP).ok
    assert (r.attempted, r.failed) == (1, 1)


def test_the_stored_outputs_pass(tmp_path):
    r = runner(tmp_path)
    assert r.run(run.SETUP).ok
    assert (r.attempted, r.failed) == (1, 0)


def test_verify_expectation_keeps_the_criterion_6_failure():
    want = run.load_expected("verify-all")
    assert want.exit_code == 1
    lines = want.stdout.decode().splitlines()
    assert any(line.startswith("FAIL  n-tables ") for line in lines)
    assert lines[-1] == "22/23 checks passed"
    assert len(run.verify_check_names()) == 23


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.BENCHMARKED)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
