"""Self-test of the benchmark harness at a tiny size (about a minute).

    python3 perfbench/selftest.py

Checks that an untraced run of every workload prints every end-to-end
metric with its unit, that a traced run prints every per-layer metric with
its unit, that all of them pass their output checks, and that the checks
bite: a corrupted artifact and a wrong reference digest must each raise
failed_frac above 0.
"""

from __future__ import annotations

import json
import os
import sys

import run

SEED = 7


def printed(lines: list[str], units: dict) -> list[str]:
    """Names in ``units`` that are not printed as 'name = value unit'."""
    missing = []
    for name, unit in units.items():
        if not any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines):
            missing.append(name)
    return missing


def run_tiny(workload: str, trace: bool, corrupt=None, reference=None, recorded=None):
    bench = run.Bench(run.Settings.tiny(SEED), corrupt=corrupt)
    bench.reference, bench.recorded = reference, recorded
    try:
        return bench.run(workload, trace)
    finally:
        bench.close()


def failed_frac(lines: list[str]) -> float:
    line = next(x for x in lines if x.startswith("failed_frac = "))
    return float(line.split()[2])


def main() -> int:
    errors = []

    def expect(cond: bool, what: str):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            errors.append(what)

    for workload in run.WORKLOADS:
        result, lines = run_tiny(workload, trace=False)
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys")
        expect(set(result["metrics"]) == set(run.E2E_UNITS), f"{workload}: every end-to-end metric")
        expect(not printed(lines, run.E2E_UNITS), f"{workload}: metrics printed with units")
        expect(result["correct"] and failed_frac(lines) == 0.0, f"{workload}: all outputs pass their checks")
        key = "commands_per_s" if workload == "cli-quotes" else "path_values_per_s"
        expect(any(x.startswith(f"{key} = ") and x.endswith(" 1/s") for x in lines), f"{workload}: {key} printed")

    result, lines = run_tiny("cli-quotes", trace=True)
    expect(set(result["metrics"]) == set(run.LAYER_UNITS), "traced: every per-layer metric")
    missing = printed(lines, run.LAYER_UNITS)
    expect(not missing, f"traced: per-layer metrics printed with units {missing or ''}")
    expect(result["correct"], "traced: replay artifacts equal the CLI's byte for byte")

    def truncate_csv(cid, out):
        path = os.path.join(out, "paths.csv")
        if cid == "euler" and os.path.exists(path):
            with open(path, "rb+") as fh:
                fh.truncate(os.path.getsize(path) - 10)

    result, lines = run_tiny("cli-simulate", trace=False, corrupt=truncate_csv)
    expect(failed_frac(lines) > 0.0 and not result["correct"], "corrupted paths.csv raises failed_frac")

    def shift_target(cid, out):
        path = os.path.join(out, "inversion.json")
        if cid == "invert-1" and os.path.exists(path):
            with open(path) as fh:
                inv = json.load(fh)
            inv["reproduced_price"] += 1e-3
            with open(path, "w") as fh:
                json.dump(inv, fh)

    result, lines = run_tiny("cli-quotes", trace=False, corrupt=shift_target)
    expect(failed_frac(lines) > 0.0 and not result["correct"], "corrupted inversion.json raises failed_frac")

    recorded = {}
    run_tiny("cli-simulate", trace=False, recorded=recorded)
    recorded["cli-simulate"]["exact"]["resolved_config.ini"] = "0" * 64
    result, lines = run_tiny("cli-simulate", trace=False, reference=recorded)
    expect(failed_frac(lines) > 0.0 and not result["correct"], "a digest mismatch raises failed_frac")

    print(f"{len(errors)} self-test failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
