"""Smoke test of the benchmark itself: every workload at toy size, untraced
and traced, prints every metric of BENCHMARK.json with its unit, and the
traced run writes spans with name, start, end, parent and operation id."""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPAN_KEYS = {"id", "name", "start", "end", "parent", "op"}


def _run(script: Path, workload: str, trace: int, out: Path, cwd: Path):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--size", "toy",
         "--out", str(out)],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_prints_every_metric_and_spans(workload, tmp_path):
    for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        done = _run(BENCH_DIR / "run.py", workload, trace, tmp_path, ROOT)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert 0 <= result["failed"] <= result["attempted"]
        assert set(result["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"], m["name"]
            assert isinstance(got["value"], (int, float)), m["name"]
            assert any(line.split()[:1] == [m["name"]] and line.endswith(m["unit"])
                       for line in lines[:-1]), m["name"]

    trace_file = tmp_path / f"{workload}.seed3.trace1.trace.jsonl.gz"
    with gzip.open(trace_file, "rt", encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    assert spans
    ids = {s["id"] for s in spans}
    for s in spans:
        assert SPAN_KEYS <= set(s)
        assert s["end"] >= s["start"]
        assert s["parent"] is None or s["parent"] in ids
        assert s["op"] >= 1


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run fails fast and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path / BENCH_DIR.name / "run.py", "relax-bl", 0,
                tmp_path / "out", tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
