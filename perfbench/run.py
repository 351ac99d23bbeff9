"""Wall-clock benchmark for rscodec: one seeded workload per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rs255-hi --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --write-benchmark-json

``--trace 0`` measures the end-to-end metrics with no probe attached;
``--trace 1`` is the separate traced run that gives the per-layer metrics
and writes its spans to perfbench/_out/spans-<workload>.csv.gz.  The report
goes to standard output; its last line is one JSON object with the keys
correct, attempted, failed and metrics.  The codec is imported from the
checkout's src/, never from an installed copy; without it the run exits 2.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def _load_codec():
    if not (SOURCE / "rscodec" / "__init__.py").is_file():
        raise SystemExit(f"error: no rscodec sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import rscodec
    if Path(rscodec.__file__).resolve().parent != SOURCE / "rscodec":
        raise SystemExit(f"error: imported rscodec from {rscodec.__file__}, "
                         f"not from {SOURCE}")
    import measure
    return measure


def _emit(tally, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))


def _print_metrics(values: dict, units: dict, counts: dict | None = None):
    for name, unit in units.items():
        n = f"  (n={counts[name]})" if counts else ""
        print(f"  {name:<36} {values[name]:>14.6g} {unit}{n}")


def _report_traced(measure, run, seconds: float):
    workload = run.workload
    out_dir = ROOT / "perfbench" / "_out"
    out_dir.mkdir(parents=True, exist_ok=True)
    spans = out_dir / f"spans-{workload.name}.csv.gz"
    metrics, accounting = measure.traced_run(run, seconds, spans)
    units = {m.name: m.unit for m in spec.PER_LAYER}
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    print("per-layer metrics (traced run):")
    _print_metrics(metrics, units)
    print("step accounting, ms per block on the first "
          f"{workload.cli_blocks} blocks:")
    print(f"  {'decoder':<12} {'untraced':>9} {'traced':>9} "
          f"{'steps':>9} {'steps/untraced':>15}")
    for alg, (plain, traced, steps) in accounting.items():
        print(f"  {alg:<12} {plain:>9.3f} {traced:>9.3f} {steps:>9.3f} "
              f"{steps / plain:>15.3f}")
    print(f"  trace.overhead_ratio {metrics['trace.overhead_ratio']:.3f};"
          f" spans written to {spans.relative_to(ROOT)}")
    print("  not measured: codec.errors_only.step0_us (errors-only "
          "has no erasure-locator step)")
    return metrics, units


def _report_untraced(measure, run, seconds: float):
    workload, tally = run.workload, run.tally
    timed, table = measure.untraced_run(run, seconds)
    units = {m.name: m.unit for m in spec.END_TO_END}
    metrics = {name: value for name, (value, _) in timed.items()}
    print("end-to-end metrics:")
    _print_metrics(metrics, units, {name: n for name, (_, n) in timed.items()})
    print(f"  {'failed_ratio':<36} "
          f"{tally.failed / tally.attempted:>14.6g} ratio  "
          f"(failed {tally.failed} of {tally.attempted} operations)")
    print(f"median ms per block, RS({workload.n},{workload.k}):")
    print(f"  {'workload':<24} {'encode':>8} {'truong':>8} "
          f"{'suggested':>10} {'gao':>8} {'errors-only':>12}")
    for row in table:
        eo = (f"{row['errors_only']:>12.3f}"
              if row["errors_only"] is not None else f"{'—':>12}")
        label = f"RS({workload.n},{workload.k}), t={row['t']}, l={row['l']}"
        print(f"  {label:<24} {row['encode']:>8.3f} {row['truong']:>8.3f}"
              f" {row['suggested']:>10.3f} {row['gao']:>8.3f} {eo}")
    return metrics, units


def run_one(workload: spec.Workload, seed: int, seconds: float,
            trace: bool) -> int:
    measure = _load_codec()
    run = measure.Run(workload, seed, ROOT)
    try:
        print(f"workload {workload.name}  seed {seed}  seconds {seconds}  "
              f"trace {int(trace)}  (closed loop, 1 client)")
        print(f"  {workload.why}")
        report = _report_traced if trace else _report_untraced
        metrics, units = report(measure, run, seconds)
        for note in run.tally.notes:
            print(f"failed: {note}", file=sys.stderr)
        _emit(run.tally, metrics, units)
    finally:
        run.close()
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in a fresh interpreter; one combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in spec.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="regenerate BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(spec.benchmark_json())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(spec.WORKLOADS[args.workload], args.seed, args.seconds,
                   bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
