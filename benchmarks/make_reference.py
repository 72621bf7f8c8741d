"""Regenerate reference.json, the frozen outputs the benchmark checks at seed 0.

    PYTHONPATH=src python3 benchmarks/make_reference.py

Run from the repository root, only when the program's outputs are meant to
change. For each workload it records the fingerprint of the first ops
(N, L and the digest of the state at N for orbits; the sha256 of each
document and SVG for doc-io) and the exact counts of one traced pass. The
cycle-length histogram of the first search-343 round, taken from
search_cycles over the same families (a route independent of the
benchmark's own loop), must agree with the per-orbit table.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

from demyanov.dynamics import search_cycles

import worker
from tracing import COUNTS, Tracer, layer_figures
from workloads import CAP, SEARCH_SHAPE, WORKLOADS, Search343, panel_family

SEED = 0
# Ops frozen per orbit workload: 200 search instances, and two rounds of
# the orbit-wide panel.
FROZEN_OPS = {"search-343": 200, "orbit-wide": 32}


def main() -> int:
    worker.write_cli_input()
    _, cli_outputs = worker.cli_phase(Tracer())
    reference = {"seed": SEED, "cli": cli_outputs}
    for name, cls in WORKLOADS.items():
        workload = cls(SEED, None)
        count = FROZEN_OPS.get(name, workload.trace_ops)
        ops = []
        for i in range(count):
            result = workload.op(i)
            problems = workload.check(i, result)
            if problems:
                raise SystemExit(f"{name} op {i}: {problems}")
            ops.append(workload.fingerprint(i, result))
        entry = {"ops": ops}
        if cls is Search343:
            n = Search343.round_ops
            report = search_cycles(
                None, n, CAP, 0, family_source=lambda k: panel_family(SEED, k, 0, SEARCH_SHAPE)
            )
            histogram = [list(row) for row in report.histogram]
            if histogram != sorted([k, v] for k, v in Counter(op[1] for op in ops[:n]).items()):
                raise SystemExit("search_cycles histogram disagrees with the per-orbit table")
        workload = cls(SEED, None)
        tracer = Tracer()
        with tracer.installed():
            _, failed, problems = worker.one_pass(workload, tracer, cli_outputs)
        if failed:
            raise SystemExit(f"{name} traced pass: {problems}")
        figures = layer_figures(tracer.spans)
        entry["counts"] = {key: figures[key] for key in COUNTS}
        reference[name] = entry
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
