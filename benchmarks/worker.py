"""One benchmark workload in one fresh interpreter.

Started by run.py, never by hand: it sets up the workload, stamps the
moment the first timed operation starts (CLOCK_MONOTONIC, shared by all
processes on the host), times the calibration piece to normalize the
set-up time, and then either exits (--setup-only), runs the timed closed
loop (--trace 0) or runs the traced passes (--trace 1). Its last
stdout line is a JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from demyanov import cli

from calibration import HostClock, host_factor
from tracing import COUNTS, TIMES, Tracer, layer_figures
from workloads import WORKLOADS, sha256

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".bench_out")

# Every traced pass ends with these CLI calls, stdout captured. Between
# them they reach each layer once, so every layer figure is measured on
# every workload; their share is the same on every seed.
CLI_COMMANDS = (
    ("verify-claim",),
    ("iterate", "--builtin"),
    ("render", "--builtin"),
    ("convert", "--in", str(OUT_DIR / "builtin.json")),
    ("search", "--instances", "1"),
)


# Op time between two timings of the calibration piece.
CALIBRATE_EVERY_S = 0.2
# The calibration that normalizes the set-up time, timed right after it.
SETUP_CALIBRATION_PIECES = 2


def failed_op(exc: BaseException) -> list[str]:
    return [f"{type(exc).__name__}: {exc}"]


def run_op(workload, i: int, tracer: Tracer | None = None) -> tuple[float, list[str]]:
    """Time op i; check its result outside the timed region, with the
    tracer (if any) paused."""
    started = time.perf_counter()
    try:
        result = workload.op(i)
    except Exception as exc:  # counted as a failed op; the run goes on
        return time.perf_counter() - started, failed_op(exc)
    elapsed = time.perf_counter() - started
    if tracer is not None:
        tracer.enabled = False
    try:
        return elapsed, workload.check(i, result)
    except Exception as exc:
        return elapsed, failed_op(exc)
    finally:
        if tracer is not None:
            tracer.enabled = True


def run_checks(workload) -> dict[str, list[str]]:
    try:
        return workload.run_checks()
    except Exception as exc:
        return {"run_checks": failed_op(exc)}


def timed_loop(workload, seconds: float) -> dict:
    """Closed loop, one caller: start op i+1 when op i (and its check) ends,
    until the ops have taken `seconds` of measured time and a whole round
    has run.

    Op times are host-normalized: each slice of at least CALIBRATE_EVERY_S
    of op time is scaled by its HostClock factor. Each position of a round
    does the same work in every round; its latency is the median of its
    normalized times.
    """
    times: list[list[float]] = [[] for _ in range(workload.round_ops)]
    pending: list[tuple[int, float]] = []
    clock = HostClock()
    problems: list[str] = []
    failed = 0
    busy = 0.0
    ops = 0

    def normalize_pending():
        factor = clock.factor(sum(elapsed for _, elapsed in pending))
        for position, elapsed in pending:
            times[position].append(elapsed * factor)
        pending.clear()

    while busy < seconds or ops < workload.round_ops:
        elapsed, op_problems = run_op(workload, ops)
        pending.append((ops % workload.round_ops, elapsed))
        ops += 1
        busy += elapsed
        if op_problems:
            failed += 1
            problems.extend(op_problems)
        if sum(elapsed for _, elapsed in pending) >= CALIBRATE_EVERY_S:
            normalize_pending()
    if pending:
        normalize_pending()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks = run_checks(workload)
    for name, check_problems in checks.items():
        if check_problems:
            failed += 1
            problems.extend(check_problems)
    latencies = [statistics.median(position) for position in times]
    p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0]
    return {
        "attempted": ops + len(checks),
        "failed": failed,
        "problems": problems,
        "ops": ops,
        "busy_s": busy,
        "wall_ops_per_s": ops / busy,
        "host_factor": statistics.median(clock.factors),
        "round_ops": len(latencies),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "op_ms_p90": p90 * 1e3,
        "beyond_p90": sum(1 for x in latencies if x > p90),
        "peak_rss_mib": peak_rss_mib,
    }


def write_cli_input() -> None:
    """The document the CLI's ``convert --in`` call reads."""
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "builtin.json").write_text(
        cli.serialize_family(cli.builtin_counterexample()), encoding="utf-8"
    )


def cli_phase(tracer) -> tuple[float, dict[str, list]]:
    """Run CLI_COMMANDS through cli_dispatch; return their time and, per
    command, its exit code and the sha256 of its stdout."""
    busy = 0.0
    outputs = {}
    for argv in CLI_COMMANDS:
        tracer.op = "cli:" + argv[0]
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.cli_dispatch(list(argv))
        except Exception as exc:  # a traceback is a failed call, not a stop
            code = failed_op(exc)[0]
        busy += time.perf_counter() - started
        outputs[argv[0]] = [code, sha256(out.getvalue())]
    return busy, outputs


def cli_problems(outputs: dict, expected: dict | None) -> list[str]:
    problems = []
    for command, got in outputs.items():
        want = expected.get(command) if expected else None
        if got[0] != 0 or (want is not None and got != want):
            problems.append(f"cli {command}: got {got}, want {want}")
    return problems


def one_pass(workload, tracer: Tracer, cli_expected) -> tuple[float, int, list[str]]:
    """The fixed trace set: ops 0..trace_ops-1, then the CLI calls. Spans
    are recorded only if the tracer is installed."""
    busy = 0.0
    failed = 0
    problems = []
    for i in range(workload.trace_ops):
        tracer.op = f"{workload.name}:{i}"
        elapsed, op_problems = run_op(workload, i, tracer)
        busy += elapsed
        if op_problems:
            failed += 1
            problems.extend(op_problems)
    cli_s, outputs = cli_phase(tracer)
    bad_cli = cli_problems(outputs, cli_expected)
    return busy + cli_s, failed + len(bad_cli), problems + bad_cli


def scaled_figures(spans, factor: float) -> dict[str, float]:
    """The layer figures of one traced pass, every time multiplied by
    factor."""
    figures = layer_figures(spans)
    for key in TIMES:
        figures[key] *= factor
    figures["converter.vertex_evals_per_s"] /= factor
    return figures


def traced_loop(workload, seconds: float, reference: dict, spans_path: Path) -> dict:
    """Alternate untraced and traced passes of the fixed trace set until
    `seconds` have passed (at least two of each), swapping which goes first
    in every other pair so that order effects cancel. Each pass's times
    are host-normalized by its HostClock factor. Layer times are medians
    over traced passes; exact counts must agree between passes."""
    write_cli_input()
    cli_expected = reference.get("cli")
    clock = HostClock()
    untraced, traced, figures = [], [], []
    attempted = failed = 0
    problems: list[str] = []
    started = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - started < seconds:
        for record in (False, True) if len(traced) % 2 == 0 else (True, False):
            tracer = Tracer()
            if record:
                with tracer.installed():
                    busy, pass_failed, pass_problems = one_pass(workload, tracer, cli_expected)
                factor = clock.factor(busy)
                traced.append(busy * factor)
                figures.append(scaled_figures(tracer.spans, factor))
                last_traced = tracer
            else:
                busy, pass_failed, pass_problems = one_pass(workload, tracer, cli_expected)
                untraced.append(busy * clock.factor(busy))
            attempted += workload.trace_ops + len(CLI_COMMANDS)
            failed += pass_failed
            problems.extend(pass_problems)
    last_traced.write(spans_path)

    counts = {key: figures[0][key] for key in COUNTS}
    checks = run_checks(workload)
    if any({key: f[key] for key in COUNTS} != counts for f in figures[1:]):
        checks["counts_repeat"] = ["nondeterminism: exact counts differ between traced passes"]
    want = workload.ref.get("counts") if workload.ref else None
    if want is not None and want != counts:
        diff = {k: (counts[k], want.get(k)) for k in counts if counts[k] != want.get(k)}
        checks["counts_reference"] = [f"nondeterminism: counts differ from the reference {diff}"]
    for check_problems in checks.values():
        if check_problems:
            failed += 1
            problems.extend(check_problems)

    metrics = {key: statistics.median(f[key] for f in figures) for key in TIMES}
    metrics.update(counts)
    for key in ("converter.vertex_evals_per_s", "converter.hull_reuse_ratio"):
        metrics[key] = statistics.median(f[key] for f in figures)
    metrics["trace.untraced_s"] = statistics.median(untraced)
    metrics["trace.traced_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_s"] - metrics["trace.untraced_s"]
    return {
        "attempted": attempted + len(checks),
        "failed": failed,
        "problems": problems,
        "passes": len(traced),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload](args.seed, reference)
    first_op_at = time.monotonic()
    setup_factor = host_factor(SETUP_CALIBRATION_PIECES)
    if args.setup_only:
        result = {}
    elif args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result = traced_loop(workload, args.seconds, reference, spans_path)
    else:
        result = timed_loop(workload, args.seconds)
    result["first_op_at"] = first_op_at
    result["setup_factor"] = setup_factor
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
