"""The benchmark's own tests: smoke-sized runs of every workload.

Run from the root of the repository::

    python3 -m pytest -q perfbench/test_perfbench.py

Each smoke run must emit every metric named in ``BENCHMARK.json`` with
its unit and pass its correctness checks; each planted fault must make
the run fail its check and exit non-zero.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT, timeout=170):
    proc = subprocess.run([sys.executable, RUN, "--seed", "3", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc, result = run_bench("--workload", workload, "--trace", str(trace),
                             "--smoke")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"{m['name']} = " in proc.stdout
    if not trace:
        for m in section:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    assert '"nproc"' in proc.stdout and '"seed": 3' in proc.stdout


@pytest.mark.parametrize("workload,trace,fault,check", [
    ("cold-family", 0, "tamper-certificate", "does not certify"),
    ("cold-family", 0, "narrow-ranges", "oracle"),
    ("cold-family", 1, "tamper-widening", "differs from jobs=1"),
    ("cold-family", 1, "corrupt-traced-digest", "traced run"),
    ("edit-loop", 0, "corrupt-hit-digest", "resubmission"),
    ("edit-loop", 0, "corrupt-bypass-digest", "bypass_cache"),
])
def test_planted_fault_fails_its_check(workload, trace, fault, check):
    proc, result = run_bench("--workload", workload, "--trace", str(trace),
                             "--smoke", "--fault", fault)
    assert proc.returncode == 1, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert result["correct"] is False and result["failed"] >= 1
    failures = [l for l in proc.stdout.splitlines()
                if l.startswith("# FAILED:")]
    assert failures and all(check in l for l in failures), failures
    if not trace:
        ok = result["metrics"]["ok_ratio"]["value"]
        assert ok == 1 - result["failed"] / result["attempted"]


def test_refuses_to_run_without_the_analyzer():
    """In a directory holding only BENCHMARK.json and perfbench/, the
    command fails fast and prints no result."""
    bare = os.path.join(ROOT, ".perfbench_tmp", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cold-family",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
