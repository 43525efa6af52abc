"""Machine and library probe, run in a fresh interpreter by ``run.py``.

    python probe.py machine      -> versions, LLC size and copy bandwidth
    python probe.py import-gridvol
    python probe.py import-scipy  -> seconds for one import in this interpreter

Prints one JSON object.  Copy bandwidth is measured with ``np.copyto`` on
float64 arrays of at least four times the last-level cache, counting the
bytes read plus the bytes written, and reported as the median of five copies.
"""

from __future__ import annotations

import json
import os
import sys
import time


def llc_bytes() -> int | None:
    """Largest cache the kernel describes for cpu0 (the CPU's own description)."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = None
    try:
        for entry in os.listdir(base):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "size")) as fh:
                text = fh.read().strip()
            scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1], 1)
            size = int(text.rstrip("KMG")) * scale
            best = size if best is None else max(best, size)
    except (OSError, ValueError):
        return None
    return best


def machine() -> dict:
    import numpy as np
    import scipy

    llc = llc_bytes()
    size = 4 * (llc or 32 * 1024**2)
    src = np.ones(size // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the pages in before timing
    rates = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2 * src.nbytes / (time.perf_counter() - t0) / 1e9)
    rates.sort()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "llc_bytes": llc,
        "copy_array_bytes": src.nbytes,
        "copy_gb_per_s": rates[len(rates) // 2],
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    what = sys.argv[1]
    if what == "machine":
        out = machine()
    elif what == "import-gridvol":
        t0 = time.perf_counter()
        import gridvol  # noqa: F401

        out = {"seconds": time.perf_counter() - t0}
    elif what == "import-scipy":
        import numpy  # noqa: F401  (numpy is gridvol's own first import, timed apart)

        t0 = time.perf_counter()
        import scipy.integrate  # noqa: F401
        import scipy.special  # noqa: F401

        out = {"seconds": time.perf_counter() - t0}
    else:
        raise SystemExit(f"unknown probe {what!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
