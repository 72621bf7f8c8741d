"""The benchmark's own tests: tiny runs of every workload, and a gate that fails.

    python3 -m pytest benchmarks/test_benchmark.py

Each test starts run.py as the benchmark is run, from the repository root,
with the shortest run length.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The names the report prints for each workload, with their units.
REPORTED = {
    "search-343": ("orbits_per_s", "orbit_s_p50", "orbit_s_p90"),
    "orbit-wide": ("orbits_per_s", "orbit_s_p50"),
    "doc-io": ("docs_per_s", "doc_ms_p50", "doc_ms_p90"),
}


def run_bench(workload: str, trace: int, root: Path = ROOT) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def copy_benchmark(dest: Path) -> Path:
    """The benchmark and BENCHMARK.json copied under dest, as a checkout
    without the program's sources holds them."""
    shutil.copytree(HERE, dest / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return dest / "benchmarks"


def report_units(lines: list[str]) -> dict[str, str]:
    """name -> unit for each 'name value unit' line of the report."""
    units = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3:
            units[parts[0]] = parts[2]
    return units


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    lines, result = run_bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
    units = report_units(lines)
    for name in REPORTED[workload] + ("setup_s", "peak_rss_mib"):
        assert units.get(name), f"{name} missing from the report"
    assert any(line.split()[:2] == ["failed_ratio", "0"] for line in lines)
    assert any(line.startswith("provenance ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    lines, result = run_bench(workload, 1)
    assert result["correct"], lines
    assert [m for m in result["metrics"]] == [m["name"] for m in SPEC["per_layer"]]
    units = report_units(lines)
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert units[metric["name"]] == metric["unit"]
    spans = ROOT / ".bench_out" / f"spans-{workload}-seed0.jsonl"
    first = json.loads(spans.read_text(encoding="utf-8").splitlines()[0])
    assert {"id", "parent", "name", "op", "start_ns", "end_ns"} <= set(first)


def test_wrong_reference_digest_fails_the_gate(tmp_path):
    bench = copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = bench / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    n, length, digest = reference["search-343"]["ops"][0]
    reference["search-343"]["ops"][0] = [n, length, "0" * len(digest)]
    path.write_text(json.dumps(reference), encoding="utf-8")
    lines, result = run_bench("search-343", 0, tmp_path)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert any(line.split()[:1] == ["failed_ratio"] and float(line.split()[1]) > 0 for line in lines)


def test_without_sources_it_fails_without_a_result(tmp_path):
    bench = copy_benchmark(tmp_path)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "doc-io",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
