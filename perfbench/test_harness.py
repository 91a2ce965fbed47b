"""Self-checks of the benchmark harness (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_harness.py      (from the checkout root)
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from spans import Recorder, self_times  # noqa: E402


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_match_benchmark_json():
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(PER_LAYER)
    assert bench["command"] == ["python3", "perfbench/run.py"] and bench["paths"] == ["perfbench"]


def test_op_tail_leaves_ten_operations_above():
    value, pct = run.op_tail([float(i) for i in range(1, 31)])
    assert value == 20.0 and pct == pytest.approx(100 * 20 / 30)
    assert run.op_tail([3.0, 1.0]) == (3.0, 100.0)


def test_self_times_sum_to_the_root_spans():
    rec = Recorder("r", True)
    spans = [(0, None, 0.0, 10.0), (1, 0, 1.0, 4.0), (2, 1, 2.0, 3.0), (3, 0, 5.0, 6.0)]
    rec.spans = [{"id": i, "parent": p, "start": a, "end": b} for i, p, a, b in spans]
    assert self_times(rec.spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    assert rec.spans[-1]["parent"] == rec.spans[-2]["id"] and rec.spans[-2]["parent"] is None


def test_cli_comparison_tolerates_only_kernel_floats():
    want = '{"n":64,"gamma":1.0,"reps":20000,"ks":0.028105620080889307}\n'
    workloads.compare_cli("merge-check", want.replace("889307", "88928"), want)
    with pytest.raises(workloads.Mismatch):
        workloads.compare_cli("merge-check", want.replace("0.0281", "0.0282"), want)
    with pytest.raises(workloads.Mismatch):
        workloads.compare_cli("exact-tail", '{"num":"3","log2_den":2}\n', '{"num":"1","log2_den":1}\n')


def test_harness_never_touches_private_caches():
    pattern = re.compile(r"_TABLE_CACHE|_WJG_CACHE|_WG_CACHE|cache_clear|importlib")
    for path in HERE.glob("*.py"):
        if path.name == Path(__file__).name:
            continue
        assert not pattern.search(path.read_text()), path.name


def test_corrupted_expected_value_is_a_failure_and_rounds_are_fresh(tmp_path):
    # a checkout copy whose recorded n = 2 sweep answers are all wrong
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    exp_path = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(exp_path.read_text())
    for key in expected["sum_tail"]:
        if key.startswith("2,"):
            expected["sum_tail"][key] = "0" * 16
    exp_path.write_text(json.dumps(expected))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-lattice", "--seed", "3",
         "--seconds", "17", "--trace", "0"],  # two rounds
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert res.returncode == 0, res.stderr
    details, result = (json.loads(line) for line in res.stdout.strip().splitlines()[-2:])
    assert result["failed"] > 0 and not result["correct"]
    assert details["failed_frac"] > 0
    assert details["fresh_interpreters"]
    assert len(set(details["worker_pids"])) == details["rounds"] == 2
    assert details["setup_samples"] >= run.SETUP_SAMPLES


def test_outside_a_checkout_it_exits_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold", "--seed", "1",
         "--seconds", "25", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0 and res.stdout == ""
