"""Benchmark of the demyanov engine: orbit and document throughput and latency.

    python3 benchmarks/run.py --workload search-343 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout. Each workload runs in fresh
interpreters (worker.py), one after another, single-threaded, as a closed
loop with one caller. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, with times host-normalized by calibration.py; --trace 1
runs the fixed trace set with spans around every layer call and reports the
per-layer metrics. A human-readable report comes
first; the last stdout line is the JSON result. Outputs are checked for
correctness on every run; a failed check makes "correct" false but does not
stop the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Extra interpreters started only to time set-up; setup_s is the median
# over these and the measured run.
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170

# What ops_per_s, op_ms_p50 and op_ms_p90 are called on each workload,
# as (name, JSON key, scale, unit): an op is an orbit or a document.
ORBIT_NAMES = (
    ("orbits_per_s", "ops_per_s", 1, "1/s"),
    ("orbit_s_p50", "op_ms_p50", 1e-3, "s"),
    ("orbit_s_p90", "op_ms_p90", 1e-3, "s"),
)
REPORT_NAMES = {
    "search-343": ORBIT_NAMES,
    "orbit-wide": ORBIT_NAMES,
    "doc-io": (
        ("docs_per_s", "ops_per_s", 1, "1/s"),
        ("doc_ms_p50", "op_ms_p50", 1, "ms"),
        ("doc_ms_p90", "op_ms_p90", 1, "ms"),
    ),
}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def provenance(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": cpu_model(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def spawn(args, *extra: str) -> tuple[dict, float]:
    """Run worker.py in a fresh interpreter; return its result and the
    CLOCK_MONOTONIC time at which it was started."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    started = time.monotonic()
    proc = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "demyanov" / "__init__.py").is_file():
        print(f"error: no demyanov sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    if args.trace:
        result, _ = spawn(args)
        wanted = spec["per_layer"]
        metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    else:
        setups = []
        for _ in range(SETUP_PROBES):
            probe, started = spawn(args, "--setup-only")
            setups.append((probe["first_op_at"] - started) * probe["setup_factor"])
        result, started = spawn(args)
        setups.append((result["first_op_at"] - started) * result["setup_factor"])
        result["setup_s"] = statistics.median(setups)
        wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": result[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted, failed = result["attempted"], result["failed"]
    origin = provenance(args)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"(closed loop, 1 caller, single thread)")
    if args.trace:
        print(f"  traced passes {result['passes']} (layer times are medians over them)")
        for name, metric in metrics.items():
            print(f"  {name:<30} {metric['value']:.6g} {metric['unit']}")
    else:
        print(f"  ops {result['ops']} in {result['busy_s']:.3f} s of measured time "
              f"({result['wall_ops_per_s']:.6g} ops/s wall-clock, median host factor "
              f"{result['host_factor']:.4g}); a round holds {result['round_ops']} ops, "
              f"{result['beyond_p90']} of them beyond p90")
        print("  host-normalized, each op the median over its rounds:")
        for name, key, scale, unit in REPORT_NAMES[args.workload]:
            print(f"  {name:<14} {result[key] * scale:.6g} {unit}  ({key})")
        for name in ("setup_s", "peak_rss_mib"):
            print(f"  {name:<14} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(f"  {'failed_ratio':<14} {failed / attempted:.6g} ({failed}/{attempted})")
    for problem in result["problems"][:20]:
        print(f"  FAIL {problem}")
    print("provenance " + json.dumps(origin))

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"provenance": origin, "result": result, "metrics": metrics}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
