"""Record a performance trajectory: the benchmark on a base revision and on
this checkout, in alternating pairs.

    python3 bench/record.py --base HEAD~1 --label next

runs the unchanged ``perfbench/run.py`` on every workload of
``BENCHMARK.json`` at seed 1 for the run length that file sets, 10 pairs
per workload.  The base side runs from a temporary export (``git
archive``) of ``--base``, deleted afterwards; the change side runs from
this checkout.  Within each pair the side that runs
first alternates.  One ``BENCH_<label>.json`` per side is written to the
checkout root (the base's label is ``base-<short sha>``), holding the
machine record, the commit and each run's final JSON line.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
PAIRS = 10


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    """Write the committed files of ``rev`` under ``dest``."""
    archive = dest.parent / "base.tar"
    _git("archive", "--format=tar", "-o", str(archive), rev)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def run_once(checkout: Path, workload: str, seconds: float, out: Path) -> tuple[dict, dict]:
    """One benchmark run; returns its machine record and final JSON line."""
    done = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0", "--out", str(out)],
        capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    machine = next(json.loads(ln.split(" ", 2)[2]) for ln in lines if ln.startswith("# machine "))
    return machine, json.loads(lines[-1])


def write_bench(path: Path, label: str, commit: str, seconds: float, machine: dict,
                runs: dict) -> None:
    """Write one side's trajectory file: ``runs`` maps each workload to its
    runs' final JSON lines, in run order."""
    doc = {"label": label, "commit": commit, "seed": SEED, "seconds": seconds,
           "machine": machine, "runs": runs}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="revision of the base side")
    p.add_argument("--label", required=True, help="label of this checkout's file")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    base_commit = _git("rev-parse", args.base)
    change_commit = _git("rev-parse", "HEAD") + ("-dirty" if _git("status", "--porcelain") else "")
    sides = {"base": {"label": f"base-{base_commit[:7]}", "commit": base_commit},
             "change": {"label": args.label, "commit": change_commit}}
    for side in sides.values():
        side.update(machine=None, runs={w: [] for w in workloads})
    tmp = Path(tempfile.mkdtemp(prefix="polykin-bench-"))
    try:
        sides["base"]["checkout"] = tmp / "base"
        _export(base_commit, sides["base"]["checkout"])
        sides["change"]["checkout"] = ROOT
        for k in range(PAIRS):
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            for workload in workloads:
                for name in order:
                    side = sides[name]
                    machine, final = run_once(side["checkout"], workload, seconds,
                                              tmp / "out" / name)
                    side["machine"] = side["machine"] or machine
                    side["runs"][workload].append(final)
                    wall = final["metrics"]["wall_s"]["value"]
                    print(f"pair {k + 1}/{PAIRS} {workload} {name}: wall_s {wall:.4g}",
                          flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for side in sides.values():
        write_bench(ROOT / f"BENCH_{side['label']}.json", side["label"], side["commit"],
                    seconds, side["machine"], side["runs"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
