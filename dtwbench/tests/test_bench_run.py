"""The command prints exactly the metrics BENCHMARK.json names, and refuses to run without a program."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import spec

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_names_match_what_the_code_prints():
    assert [w["name"] for w in DECLARED["workloads"]] == list(spec.WORKLOADS) == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == spec.PER_LAYER


def run(cwd, *args, timeout=170):
    return subprocess.run(
        [sys.executable, "dtwbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


@pytest.mark.parametrize("trace, names", [(0, spec.END_TO_END), (1, spec.PER_LAYER)])
def test_a_short_run_prints_every_declared_metric(trace, names):
    done = run(ROOT, "--workload", "topk-lead", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] % len(inputs.queries_for(inputs.WORKLOADS["topk-lead"])) == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "dtwbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run(tmp_path, "--workload", "search-easy", "--seed", "1", "--seconds", "1", "--trace", "0", timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
