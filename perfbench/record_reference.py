"""Record the reference digests the default-seed runs are checked against.

    python3 perfbench/record_reference.py

Runs one untraced pass of every workload at the default seed and writes the
SHA-256 digest of every mc-exact step output and every CLI artifact (except
metadata.json) to reference_digests.json.  The committed file was recorded
on the seed commit; re-record only when a change is meant to alter outputs,
and say so, because it resets the bit-identity gate.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    bench = run.Bench(run.Settings(run.DEFAULT_SEED, 0.0, min_ops=1, use_reference=False))
    bench.recorded = {}
    try:
        ops = bench.mc_exact(0.0).ops
        bench.recorded["mc-exact"] = {op["op"]: op["digest"] for op in ops}
        for workload in ("cli-simulate", "cli-quotes"):
            ops += bench.cli(workload, 0.0).ops
    finally:
        bench.close()
    bad = [f"{op['op']}: {op['problem']}" for op in ops if not op["ok"]]
    if bad:
        print("refusing to record: " + "; ".join(bad), file=sys.stderr)
        return 1
    with open(run.REFERENCE, "w") as fh:
        json.dump({"seed": run.DEFAULT_SEED, **bench.recorded}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
