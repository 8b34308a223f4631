"""The trajectory file that bench/record.py writes."""

import importlib.util
import json
from pathlib import Path

RECORD = Path(__file__).resolve().parent.parent / "bench" / "record.py"


def load_record():
    spec = importlib.util.spec_from_file_location("bench_record", RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_write_bench_round_trips(tmp_path):
    record = load_record()
    machine = {"nproc": 2, "python": "3.11.7"}
    final = {"correct": True, "attempted": 44, "failed": 0,
             "metrics": {"wall_s": {"value": 0.64, "unit": "s"}}}
    runs = {"relax-bl": [final, final], "operator-diag": []}
    path = tmp_path / "BENCH_x.json"
    record.write_bench(path, "x", "0123abc", 45, machine, runs)
    doc = json.loads(path.read_text())
    assert doc == {"label": "x", "commit": "0123abc", "seed": 1, "seconds": 45,
                   "machine": machine, "runs": runs}
