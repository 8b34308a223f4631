"""Run one benchmark workload of polykin and print its metrics.

Run from anywhere inside a checkout; paths resolve against this file:

    python3 perfbench/run.py --workload relax-bl --seed 1 --seconds 20 --trace 0

Set-up: ``import polykin.cli`` is timed in fresh interpreters (after one
untimed import that fills the bytecode cache), spread over the run: one
before the first operation and one after each operation until there are
enough, so that the median samples the machine at several moments.  The
workload's inputs are built several times in this process.

Measurement: the workload's operation is repeated, closed loop, while the
next repeat (estimated by the last one) still ends within ``--seconds``;
there is always at least one.  Timings are medians over the repeats.  Every
operation's outputs are checked and digested; repeats must reproduce the
first digest bit for bit.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced repeats and prints the per-layer metrics,
derived from spans recorded around each layer's public functions; the spans
of the first traced repeat are written as gzipped JSON lines next to the
outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
IMPORT_REPEATS = 7
BUILD_REPEATS = 5
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import polykin.cli; "
                "print(time.perf_counter() - t0)")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy shrinks every workload for the self-test")
    p.add_argument("--out", help="directory for inputs, outputs and traces "
                   "(default: .perfbench_out at the checkout root)")
    return p.parse_args(argv)


def _import_seconds(src: Path) -> float:
    """Time ``import polykin.cli`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _median(values) -> float:
    return float(statistics.median(values))


def _quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "polykin" / "cli.py").is_file():
        print(f"error: no polykin sources under {src}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    import_repeats = IMPORT_REPEATS if args.size == "full" else 1
    _import_seconds(src)                       # fills the bytecode cache
    import_times = [_import_seconds(src)]
    sys.path.insert(0, str(src))
    import layers
    import machine
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload]
    build_times = []
    for _ in range(BUILD_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.build(args.seed, args.size)
        build_times.append(time.perf_counter() - t0)
    out_dir = Path(args.out) if args.out else ROOT / ".perfbench_out"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    workload.prepare(inputs, out_dir, tag)

    # closed loop; with tracing, untraced and traced repeats alternate
    records = []            # (traced, outcome, layer metrics or None)
    op_failures = 0
    trace_path = None
    start = time.perf_counter()
    traced = False
    while True:
        t_op = time.perf_counter()
        try:
            if traced:
                tracer = Tracer()
                with tracer.patched(layers.targets()):
                    outcome = workload.run(inputs)
                layer = layers.metrics(tracer.spans, outcome.stats)
                if trace_path is None:
                    trace_path = out_dir / f"{tag}.trace.jsonl.gz"
                    tracer.write_jsonl_gz(trace_path)
                    n_spans = len(tracer.spans)
                del tracer
            else:
                outcome, layer = workload.run(inputs), None
            records.append((traced, outcome, layer))
        except Exception:
            traceback.print_exc()
            op_failures += 1
        if op_failures >= 3:
            break
        if len(import_times) < import_repeats:
            import_times.append(_import_seconds(src))
        now = time.perf_counter()
        kinds = {t for t, _, _ in records}
        complete = kinds == {False, True} or (not args.trace and kinds)
        if complete and now + (now - t_op) > start + args.seconds:
            break
        traced = bool(args.trace) and not traced

    if not records or (args.trace and {t for t, _, _ in records} != {False, True}):
        print("error: operations raised; no result", file=sys.stderr)
        return 1
    while len(import_times) < import_repeats:
        import_times.append(_import_seconds(src))

    # correctness: each operation, each of its checks, and bitwise
    # reproduction of the first operation's output digest
    reference = records[0][1].fingerprint
    attempted = op_failures + len(records)
    failed_checks = []
    for k, (_, outcome, _) in enumerate(records):
        for name, passed, _ in outcome.checks:
            attempted += 1
            if not passed:
                failed_checks.append(f"op{k}:{name}")
        if k:
            attempted += 1
            if outcome.fingerprint != reference:
                failed_checks.append(f"op{k}:fingerprint_reproduced")
    failed = op_failures + len(failed_checks)

    untraced = [o for t, o, _ in records if not t]
    wall = [o.seconds for o in untraced]
    computed = {
        "setup_s": _median(import_times) + _median(build_times),
        "wall_s": _median(wall),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "collisions_per_s": _median([o.collisions / o.collision_seconds for o in untraced]),
        "failed_frac": failed / attempted,
    }
    for key in ("samples_per_s", "time_to_1pct_s"):
        if key in untraced[0].stats:
            computed[key] = _median([o.stats[key] for o in untraced])
    if args.trace:
        layer_runs = [layer for t, _, layer in records if t]
        traced_wall = [o.seconds for t, o, _ in records if t]
        for name in layer_runs[0]:
            computed[name] = _median([layer[name] for layer in layer_runs])
        computed["cli.import_s"] = _median(import_times)
        computed["trace.overhead_frac"] = _median(traced_wall) / _median(wall) - 1.0
        for key in ("samples_per_s", "time_to_1pct_s"):
            computed[f"operator.estimators.{key}"] = computed.get(key, 0.0)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(failed_frac="ratio", samples_per_s="1/s", time_to_1pct_s="s")
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in declared}

    env = machine.record(mc_threads=workloads.MC_THREADS)
    q1, q3 = _quartiles(wall)
    print(f"# workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}")
    print(f"# machine {json.dumps(env, sort_keys=True)}")
    shown = ", ".join(failed_checks[:20]) + (" ..." if len(failed_checks) > 20 else "")
    print(f"# operations {len(records)} ({len(untraced)} untraced), "
          f"raised {op_failures}; failed checks: {shown or 'none'}")
    print(f"# fingerprint sha256 {reference}")
    print(f"# import polykin.cli over {len(import_times)} interpreters: median "
          f"{_median(import_times):.6g}, range {min(import_times):.6g} .. "
          f"{max(import_times):.6g}")
    print(f"# wall_s over {len(wall)} untraced repeats: median {_median(wall):.6g}, "
          f"quartiles {q1:.6g} .. {q3:.6g}")
    if trace_path is not None:
        print(f"# trace {trace_path} ({n_spans} spans)")
    for name, value in computed.items():
        print(f"{name:56s} {value:>16.6g} {units[name]}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
