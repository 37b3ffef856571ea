"""Smoke test of the benchmark itself at tiny sizes (about a minute):

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, WORKLOADS  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "tiny", "--seconds", "0", "--seed", "5", *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_lines(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    """(record of the runs, final result) from the last two stdout lines."""
    record, result = proc.stdout.splitlines()[-2:]
    return json.loads(record), json.loads(result)


def checkout(tmp_path: Path, with_src: bool) -> Path:
    root = tmp_path / "checkout"
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_src:
        shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in LAYER_METRICS
    ]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_a_unit(trace):
    proc = bench(ROOT, "--workload", "all", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    record, result = result_lines(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        expected = [(name, unit) for name, unit, _, _ in LAYER_METRICS]
    else:
        expected = END_TO_END
    for workload in WORKLOADS:
        for name, unit in expected:
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit
            assert isinstance(metric["value"], (int, float))
    for run in record["runs"]:
        assert run["fail_ratio"] == 0
        if trace:
            assert (ROOT / run["span_file"]).read_text().count("\n") > 1
    assert "fail_ratio" in proc.stderr
    assert record["machine"]["nproc"] >= 1


def test_corrupted_golden_certificate_raises_fail_ratio(tmp_path):
    root = checkout(tmp_path, with_src=True)
    golden = root / "perfbench" / "golden" / "cert_W_8k9_win-2..0.json"
    text = golden.read_text()
    golden.write_text(text.replace('"8"', '"7"', 1))
    assert golden.read_text() != text
    proc = bench(root, "--workload", "search", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    record, result = result_lines(proc)
    assert not result["correct"] and result["failed"] > 0
    assert record["runs"][0]["fail_ratio"] > 0


def test_refuses_a_directory_without_the_package(tmp_path):
    root = checkout(tmp_path, with_src=False)
    proc = bench(root, "--workload", "verify-sums")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
