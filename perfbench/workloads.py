"""Seeded inputs for the three benchmark workloads, and the checks on outputs.

Everything the program receives is generated here from the workload seed:
INI configs, CLI argument lists and the inversion ladder.  Shapes (path
counts, grid sizes, number of commands) do not depend on the seed, so runs
with different seeds do the same amount of work; parameter values do.

This module uses the standard library only, so the harness process never
imports numpy, scipy or gridvol.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

# Shapes.  mc-exact: 100k paths x 12 intervals x 20 (or 21) sub-steps, so each
# path matrix is 100_000 x 241 (or 253) float64, about 193 (202) MB.
MC_PATHS = 100_000
MC_INTERVALS = 12
MC_SUB_STEPS = 20  # a multiple of 4: the fingerprint needs the Delta/4 offsets
MC_WINDOW_SUB_STEPS = 21  # epsilon = Delta/4 falls between sub-steps, so it is inserted
MC_HEDGE_ROWS = 2_000  # rows of the block given to hedge_plan, one call per row
SIM_PATHS = 4_000  # per cli-simulate command: 4000 x 253 values, ~44 MB of CSV
SIM_SUB_STEPS = 21
QUOTE_PRICES = 9
QUOTE_INVERSIONS = 17
DRIFT_MESH = 20
LOOP_CAP_S = 110.0  # a run adds no pass after this, even below its minimum operation count

# The Fokker-Planck command runs on the frozen inputs of the criterion-4 test:
# its residual is the known discretisation floor, so it exits 1 by design.
FP_FROZEN_RESIDUAL = 1.168830e-02
FP_RTOL = 1e-4


def _r(x: float) -> float:
    """Round to 6 significant digits so configs stay readable."""
    return float(f"{x:.6g}")


def _ini(sections: dict) -> str:
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        for key, value in items.items():
            lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def _market(rng: random.Random) -> dict:
    return {
        "mu": _r(rng.uniform(0.04, 0.12)),
        "sigma_bar": _r(rng.uniform(0.15, 0.30)),
        "s0": _r(rng.uniform(80.0, 120.0)),
        "r": _r(rng.uniform(0.01, 0.05)),
    }


def _program_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


# --------------------------------------------------------------------------
# mc-exact


def mc_exact_config(seed: int, n_paths: int = MC_PATHS) -> str:
    """The single INI the mc-exact worker parses; its knobs drive the hedging steps."""
    rng = random.Random(f"mc-exact:{seed}")
    m = _market(rng)
    # nu well away from sigma_bar, so the off-grid fingerprint separates the
    # process from GBM by many standard errors at this path count
    nu = _r(m["sigma_bar"] * rng.uniform(1.5, 2.0))
    grid_nu = [_r(nu * f) for f in (0.6, 0.8, 0.9, 1.0, 1.1, 1.3)]
    return _ini(
        {
            "market": m,
            "grid": {"horizon": 1.0, "n_intervals": MC_INTERVALS, "epsilon": 0.0, "sub_steps": MC_SUB_STEPS},
            "vol": {"kind": "proportional", "nu": nu},
            "option": {"strike": _r(m["s0"] * rng.uniform(0.9, 1.1)), "maturity": 1.0},
            "run": {"n_paths": n_paths, "seed": _program_seed(rng)},
            "hedge": {"hedger_nu": _r(nu * rng.uniform(0.8, 1.2))},
            "select_nu": {"nu_grid": ",".join(repr(v) for v in grid_nu)},
        }
    )


# --------------------------------------------------------------------------
# CLI workloads


@dataclass
class Command:
    """One CLI invocation: its id, argv after ``gridvol``, and what to check."""

    cid: str
    argv: list[str]
    config_text: str
    expect_rc: int = 0
    check: str = ""  # name of the invariant check in CHECKS
    params: dict = field(default_factory=dict)


def _window(rng: random.Random, delta: float, lo: float, hi: float) -> float:
    return _r(delta * rng.uniform(lo, hi))


def cli_simulate_commands(seed: int, n_paths: int = SIM_PATHS) -> list[Command]:
    """Three generator families, each writing one paths.csv."""
    rng = random.Random(f"cli-simulate:{seed}")
    m = _market(rng)
    delta = 1.0 / MC_INTERVALS
    grid = {
        "horizon": 1.0,
        "n_intervals": MC_INTERVALS,
        "epsilon": _window(rng, delta, 0.1, 0.4),
        "sub_steps": SIM_SUB_STEPS,
    }
    families = [
        ("exact", {"kind": "proportional", "nu": _r(m["sigma_bar"] * rng.uniform(0.6, 1.8))}, {}),
        (
            "euler",
            {"kind": "sqrt_proportional", "nu": _r(m["sigma_bar"] * math.sqrt(m["s0"]) * rng.uniform(0.8, 1.2))},
            {},
        ),
        (
            "rn-euler",
            {"kind": "constant", "nu": _r(m["sigma_bar"] * m["s0"] * rng.uniform(0.8, 1.2))},
            {"simulate": {"measure": "risk_neutral"}},
        ),
    ]
    cmds = []
    for cid, vol, extra in families:
        text = _ini(
            {
                "market": m,
                "grid": grid,
                "vol": vol,
                "run": {"n_paths": n_paths, "seed": _program_seed(rng)},
                **extra,
            }
        )
        cmds.append(Command(cid, ["simulate"], text, check="simulate", params={"n_paths": n_paths}))
    return cmds


def bs_call(spot: float, strike: float, r: float, vol: float, tau: float) -> float:
    """Black-Scholes call, written independently of the library as an oracle."""
    sq = vol * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (r + 0.5 * vol * vol) * tau) / sq
    d2 = d1 - sq
    ncdf = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))  # noqa: E731
    return spot * ncdf(d1) - strike * math.exp(-r * tau) * ncdf(d2)


def time0_price(m: dict, eps_ratio: float, nu: float, strike: float) -> float:
    """Time-0 price of the proportional family: sigma_eff^2 = nu^2 + (eps/Delta)(sb^2 - nu^2)."""
    var = nu * nu + eps_ratio * (m["sigma_bar"] ** 2 - nu * nu)
    return bs_call(m["s0"], strike, m["r"], math.sqrt(var), 1.0)


def cli_quotes_commands(seed: int, n_inversions: int = QUOTE_INVERSIONS) -> list[Command]:
    """About thirty short commands: bounds, prices, an inversion ladder, drift and FP checks."""
    rng = random.Random(f"cli-quotes:{seed}")
    m = _market(rng)
    delta = 1.0 / MC_INTERVALS
    eps = _window(rng, delta, 0.5e-3, 2e-3)  # small epsilon: the ladder spans almost all of (lo, hi)
    strike = _r(m["s0"] * rng.uniform(0.85, 1.15))
    base = {
        "market": m,
        "grid": {"horizon": 1.0, "n_intervals": MC_INTERVALS, "epsilon": eps, "sub_steps": 1},
        "vol": {"kind": "proportional", "nu": _r(m["sigma_bar"] * rng.uniform(0.7, 1.5))},
        "option": {"strike": strike, "maturity": 1.0},
        "run": {"n_paths": 1, "seed": 0},
    }
    base_text = _ini(base)
    qp = {"market": m, "strike": strike, "eps_ratio": eps / delta}
    cmds = [Command("bounds", ["bounds"], base_text, check="bounds", params=qp)]

    for k in range(QUOTE_PRICES):
        if k == 0:
            t, spot = 0.0, m["s0"]
        else:
            j = rng.randrange(MC_INTERVALS)
            # alternate the window and post-window branches of sigma_eff
            offset = eps * rng.uniform(0.1, 0.9) if k % 2 else delta * rng.uniform(0.1, 0.9)
            t, spot = _r(j * delta + offset), _r(m["s0"] * rng.uniform(0.8, 1.2))
        text = _ini({**base, "price": {"t": t, "spot": spot}})
        cmds.append(Command(f"price-{k}", ["price"], text, check="price", params={**qp, "t": t, "spot": spot}))

    lo = max(m["s0"] - strike * math.exp(-m["r"]), 0.0)
    hi = m["s0"]
    floor = time0_price(m, eps / delta, 1e-9, strike)
    for k in range(n_inversions):
        q = 0.03 + 0.94 * k / max(n_inversions - 1, 1) + rng.uniform(-0.01, 0.01)
        target = _r(lo + (hi - lo) * q)
        if not floor < target < hi:
            raise ValueError(f"inversion target {target} outside ({floor}, {hi})")
        cmds.append(
            Command(
                f"invert-{k}",
                ["invert-nu", "--target", repr(target)],
                base_text,
                check="invert",
                params={**qp, "target": target},
            )
        )

    for kind, nu in (
        ("constant", _r(m["sigma_bar"] * m["s0"] * rng.uniform(0.8, 1.2))),
        ("sqrt_proportional", _r(m["sigma_bar"] * math.sqrt(m["s0"]) * rng.uniform(0.8, 1.2))),
    ):
        mesh = {"n_t": DRIFT_MESH, "n_x": DRIFT_MESH}
        text = _ini({**base, "vol": {"kind": kind, "nu": nu}, "drift_check": mesh})
        cmds.append(Command(f"drift-{kind}", ["drift-check"], text, check="drift"))

    fp_text = _ini(
        {
            "market": {"mu": 0.1, "sigma_bar": 0.2, "s0": 100.0, "r": 0.05},
            "grid": {"horizon": 1.0, "n_intervals": MC_INTERVALS},
            "vol": {"kind": "black_scholes"},
            "run": {"n_paths": 1, "seed": 0},
        }
    )
    cmds.append(Command("fp-residual", ["fp-residual"], fp_text, expect_rc=1, check="fp"))
    return cmds


# --------------------------------------------------------------------------
# Invariant checks on CLI artifacts (used for every seed)


def _load(out: str, name: str) -> dict:
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def csv_header(path: str) -> dict[str, str]:
    """The ``# key=value`` lines at the top of a paths.csv."""
    header = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, value = line[2:].rstrip("\n").partition("=")
            header[key] = value
    return header


def check_simulate(out: str, p: dict) -> str | None:
    path = os.path.join(out, "paths.csv")
    header = csv_header(path)
    n, n_times = int(header["n_paths"]), int(header["n_times"])
    if n + int(header["invalid_count"]) != p["n_paths"]:
        return f"{n} valid + {header['invalid_count']} invalid paths != {p['n_paths']} requested"
    if n_times != SIM_SUB_STEPS * MC_INTERVALS + 1:
        return f"n_times={n_times}"
    with open(path, "rb") as fh:
        lines = fh.read().count(b"\n")
    rows = lines - len(header) - 1  # header comments and the column line
    if rows != n * n_times:
        return f"{rows} CSV rows != n_paths x n_times = {n * n_times}"
    return None


def _bounds(p: dict, spot: float, tau: float) -> tuple[float, float]:
    return max(spot - p["strike"] * math.exp(-p["market"]["r"] * tau), 0.0), spot


def check_bounds(out: str, p: dict) -> str | None:
    b = _load(out, "bounds.json")
    lo, hi = _bounds(p, p["market"]["s0"], 1.0)
    if not (math.isclose(b["lower_bound"], lo, rel_tol=1e-12, abs_tol=1e-12) and b["upper_bound"] == hi):
        return f"bounds {b} != ({lo}, {hi})"
    return None


def check_price(out: str, p: dict) -> str | None:
    q = _load(out, "quote.json")
    lo, hi = _bounds(p, p["spot"], 1.0 - p["t"])
    if not lo <= q["price"] <= hi:
        return f"price {q['price']} outside [{lo}, {hi}]"
    if not (math.isclose(q["lower_bound"], lo, rel_tol=1e-12, abs_tol=1e-12) and q["upper_bound"] == hi):
        return f"quote bounds ({q['lower_bound']}, {q['upper_bound']}) != ({lo}, {hi})"
    if p["t"] == 0.0:
        ref = time0_price(p["market"], p["eps_ratio"], q["nu"], p["strike"])
        if abs(ref - q["price"]) > 1e-10 * p["market"]["s0"]:
            return f"price {q['price']} != independent Black-Scholes value {ref}"
    return None


def check_invert(out: str, p: dict) -> str | None:
    inv = _load(out, "inversion.json")
    tol = 1e-8 * p["market"]["s0"]
    if abs(inv["reproduced_price"] - p["target"]) > tol:
        return f"reproduced {inv['reproduced_price']} vs target {p['target']}"
    # round trip through an independent pricer, not the program's own price_u
    ref = time0_price(p["market"], p["eps_ratio"], inv["nu"], p["strike"])
    if abs(ref - p["target"]) > tol + 1e-10 * p["market"]["s0"]:
        return f"nu={inv['nu']} prices to {ref}, target {p['target']}"
    return None


def check_drift(out: str, p: dict) -> str | None:
    d = _load(out, "drift_check.json")
    if not (d["pass"] and d["max_rel_err"] < d["threshold"]):
        return f"drift max_rel_err {d['max_rel_err']}"
    with open(os.path.join(out, "drift_check.csv")) as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != DRIFT_MESH * DRIFT_MESH:
        return f"{rows} drift rows"
    return None


def check_fp(out: str, p: dict) -> str | None:
    r = _load(out, "fp_report.json")["max_residual"]
    if abs(r - FP_FROZEN_RESIDUAL) > FP_RTOL * FP_FROZEN_RESIDUAL:
        return f"fp residual {r} != frozen {FP_FROZEN_RESIDUAL}"
    return None


CHECKS = {
    "simulate": check_simulate,
    "bounds": check_bounds,
    "price": check_price,
    "invert": check_invert,
    "drift": check_drift,
    "fp": check_fp,
}
