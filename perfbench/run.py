"""commkex benchmark.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      Run one workload.  The last line of output is a JSON object with
      keys correct, attempted, failed and metrics: the end-to-end
      metrics with --trace 0, the per-layer metrics with --trace 1.
  python3 perfbench/run.py --workload all [--seconds S] [--trace 0|1]
      Run every workload, each in its own process, and print all of it.
  python3 perfbench/run.py --smoke
      The benchmark's own test: every workload, untraced and traced, at
      a few operations each; every check must pass and every metric
      named in BENCHMARK.json must be emitted.
  python3 perfbench/run.py --sweep [--out FILE]
      Time the library's main calls over an m-sweep (see sweep.py).
  python3 perfbench/run.py --print-fingerprints
      Print the determinism fingerprints that fingerprints.json records.

Run from the root of a checkout: ``src/`` is put on sys.path the way
the test suite's PYTHONPATH=src does.  See NOTES.md for the design.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="timed phase length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--sweep", action="store_true")
    parser.add_argument("--out", default=None, help="sweep output file")
    parser.add_argument("--print-fingerprints", action="store_true")
    return parser.parse_args(argv)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child(args: list[str]) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=900,
    )
    return proc.returncode, proc.stdout


def run_all(seconds: float, trace: int, seed: int) -> int:
    status = 0
    for name in (w["name"] for w in benchmark_spec()["workloads"]):
        code, out = child(
            ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        )
        print(out, end="", flush=True)
        status = status or code
    return status


def smoke() -> int:
    """Run each workload at a few operations, untraced and traced, and
    check the result line against BENCHMARK.json."""
    from workloads import WORKLOADS

    spec = benchmark_spec()
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            code, out = child(
                ["--workload", name, "--seconds", "0.05", "--trace", str(trace)]
            )
            print(out, end="", flush=True)
            where = f"{name} --trace {trace}"
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{where}: exit {code} without a result line")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{where}: exit {code}, correct {result['correct']}, failed {result['failed']}")
            if got != wanted[trace]:
                problems.append(f"{where}: metrics {sorted(got)} differ from BENCHMARK.json")
            if trace == 0:
                wl = WORKLOADS[name]
                for label in (f"{wl.op_name}_ms_p50", f"{wl.op_name}_ms_p90", f"{wl.op_plural}_per_s", "failed_ratio"):
                    if f"  {label} " not in out:
                        problems.append(f"{where}: named metric {label} not printed")
    for text in problems:
        print(f"SMOKE FAILED: {text}")
    print("smoke ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "commkex").is_dir():
        print(f"perfbench: {SRC / 'commkex'} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.sweep:
        import sweep

        return sweep.main(args.out or str(HERE / "out" / "BENCH_sweep.json"))
    if args.print_fingerprints:
        import harness

        return harness.print_fingerprints()
    seconds = args.seconds if args.seconds is not None else benchmark_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(seconds, args.trace, args.seed)
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return harness.run(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
