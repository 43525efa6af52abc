"""mc-exact worker: the Monte Carlo research workload through the library API.

Runs in its own interpreter (started by ``run.py`` with the BLAS thread
variables already set), imports gridvol once, parses the generated config and
then repeats one pass of nine library steps until the time budget is spent
and the minimum number of steps is reached.  Each step is timed; its output
is checked against invariants and hashed (SHA-256 over dtype, shape and
bytes) outside the timed region.  Results go to a JSON file.

    python mc_worker.py --config CFG --out RESULT.json --seconds S --min-ops N
    python mc_worker.py --config CFG --out RESULT.json --traced

With ``--traced`` the worker runs three passes instead: a warm-up pass (the
first pass of a process also pays page faults and allocator growth), an
untraced pass and a traced one.  It also writes the spans and the bare-RNG
reference timing used for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

import gridvol as gv  # noqa: E402
import numpy as np  # noqa: E402


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            a = np.ascontiguousarray(part)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.data)
        else:
            h.update(json.dumps(part, sort_keys=True, default=float).encode())
    return h.hexdigest()


def normals_per_path(grid: gv.GridSpec) -> int:
    """Standard normals one path consumes: sub-steps plus an inserted window end."""
    s, eps = grid.sub_steps, grid.epsilon
    recorded = [k * grid.delta / s for k in range(1, s + 1)]
    inserted = eps > 0.0 and not any(math.isclose(t, eps, rel_tol=1e-12) for t in recorded)
    return grid.n_intervals * (s + int(inserted))


class Workload:
    def __init__(self, cfg):
        p, g = cfg.market, cfg.grid
        self.p = p
        self.g0 = g
        self.g1 = gv.GridSpec(g.horizon, g.n_intervals, g.delta / 4.0, wl.MC_WINDOW_SUB_STEPS)
        self.gh = gv.GridSpec(g.horizon, g.n_intervals, g.delta / 4.0, 1)  # hedging grid
        self.nu = cfg.vol.nu
        self.hedger_nu = float(cfg.knob("hedge", "hedger_nu"))
        self.nu_grid = [float(v) for v in cfg.knob("select_nu", "nu_grid").split(",")]
        self.n = cfg.n_paths
        self.seed = cfg.seed
        self.option = cfg.option
        self.rows = min(wl.MC_HEDGE_ROWS, self.n)

    # -- invariants ------------------------------------------------------
    def check_paths(self, ps, grid, rate) -> str | None:
        a = ps.paths
        if a.shape != (self.n, grid.sub_steps * grid.n_intervals + 1):
            return f"shape {a.shape}"
        if not (np.all(np.isfinite(a)) and np.all(a > 0.0) and np.all(a[:, 0] == self.p.s0)):
            return "non-finite, non-positive or wrong start values"
        # E[Y_T] = s0 exp(rate T); 6 standard errors keeps false alarms negligible
        term = a[:, -1]
        expected = self.p.s0 * math.exp(rate * grid.horizon)
        se = term.std(ddof=1) / math.sqrt(term.size)
        if abs(term.mean() - expected) > 6.0 * se:
            return f"terminal mean {term.mean()} vs {expected} (se {se})"
        return None

    @staticmethod
    def check_law(d) -> str | None:
        """The grid-law battery, at a family-wise level fit for arbitrary seeds.

        Each test of ``validate`` has a 1% false-alarm rate; over two dozen
        tests that fails a correct sampler on about one seed in five.  Here
        every KS p-value must exceed 1e-6 and every moment and correlation
        must lie within twice the validate band (6 standard errors).
        """
        p_min = min(k.p_value for k in d.marginal_ks + d.return_ks)
        if p_min <= 1e-6:
            return f"KS p-value {p_min}"
        if np.any(np.abs(d.return_means - d.mean_target) >= 2.0 * d.mean_band):
            return "return means"
        if np.any(np.abs(d.return_vars - d.var_target) >= 2.0 * d.var_band):
            return "return variances"
        corr = np.concatenate([d.successive_corr, d.level_corr])
        if np.any(np.abs(corr) >= 2.0 * d.corr_band):
            return "return correlations"
        return None

    # -- one pass --------------------------------------------------------
    def run_pass(self, tracer: Tracer, ops: list[dict]) -> None:
        p, opt = self.p, self.option

        def step(op, span_name, fn, check, digest_of):
            with tracer.span(span_name) as rec:
                out = fn()
            problem = check(out)
            ops.append(
                {
                    "op": op,
                    "span": span_name,
                    "seconds": rec["end"] - rec["start"],
                    "ok": problem is None,
                    "problem": problem,
                    "digest": digest_of(out),
                }
            )
            return out

        paths_digest = lambda ps: digest(ps.times, ps.paths)  # noqa: E731
        ps = step(
            "exact_eps0",
            "sim.simulate_exact_proportional",
            lambda: gv.simulate_exact_proportional(p, self.g0, self.nu, self.n, self.seed),
            lambda ps: self.check_paths(ps, self.g0, p.mu),
            paths_digest,
        )
        diag = step(
            "grid_diagnostics",
            "stats.grid_return_diagnostics",
            lambda: gv.grid_return_diagnostics(ps, p, self.g0),
            self.check_law,
            lambda d: digest(d.entries(), d.return_means, d.return_vars),
        )
        self.ks_tests = len(diag.marginal_ks) + len(diag.return_ks)
        step(
            "fingerprint",
            "stats.off_grid_fingerprint",
            lambda: gv.off_grid_fingerprint(ps, p, self.g0, self.nu),
            lambda f: None
            if abs(f.z_model) < 5.0 and abs(f.z_gbm) > 5.0
            else f"z_model={f.z_model}, z_gbm={f.z_gbm}",
            lambda f: digest([f.estimate, f.se, f.model_value, f.gbm_value, f.n_products]),
        )
        del ps, diag

        ps = step(
            "exact_window",
            "sim.simulate_exact_proportional",
            lambda: gv.simulate_exact_proportional(p, self.g1, self.nu, self.n, self.seed + 1),
            lambda ps: self.check_paths(ps, self.g1, p.mu),
            paths_digest,
        )
        prices = ps.grid_columns(self.g1)
        del ps
        step(
            "gbm",
            "sim.simulate_gbm",
            lambda: gv.simulate_gbm(p, self.g1, self.n, self.seed + 2),
            lambda ps: self.check_paths(ps, self.g1, p.mu),
            paths_digest,
        )
        step(
            "risk_neutral_exact",
            "sim.risk_neutral_dynamics",
            lambda: gv.risk_neutral_dynamics(
                p, self.g1, gv.VolatilitySpec.proportional(self.nu), self.n, self.seed + 3
            ),
            lambda ps: self.check_paths(ps, self.g1, p.r),
            paths_digest,
        )

        times = self.gh.grid_times()
        errors = step(
            "replication_error",
            "hedging.replication_error",
            lambda: gv.replication_error(p, self.gh, self.hedger_nu, opt, times, prices),
            lambda e: None if e.shape == (self.n,) and np.all(np.isfinite(e)) else "errors",
            digest,
        )
        gen = gv.GeneratorConfig("exact_proportional", self.n, self.seed + 4, nu=self.nu)
        step(
            "select_nu",
            "hedging.select_nu",
            lambda: gv.select_nu(gen, p, self.gh, opt, "mean_square", self.nu_grid),
            lambda s: None
            if np.all(np.isfinite(s.values)) and s.best_nu == self.nu_grid[int(np.argmin(s.values))]
            else "selection",
            lambda s: digest(s.summary(), s.values),
        )

        def plans():
            return [
                gv.hedge_plan(p, self.gh, self.hedger_nu, opt, times, prices[i])
                for i in range(self.rows)
            ]

        def check_plans(hp):
            # two code paths for one strategy: payoff - tracked value = replication error
            tracked = np.array([h.tracked_values[-1] for h in hp])
            implied = opt.payoff(prices[: self.rows, -1]) - tracked
            gap = np.max(np.abs(implied - errors[: self.rows]))
            return None if gap <= 1e-9 * p.s0 else f"hedge_plan vs replication_error gap {gap}"

        step(
            "hedge_plan",
            "hedging.hedge_plan",
            plans,
            check_plans,
            lambda hp: digest(*(np.concatenate([h.shares, h.cash, h.tracked_values]) for h in hp)),
        )

    def rng_reference(self) -> float:
        """A bare Philox draw of the shapes both exact-sampler calls draw."""
        t0 = time.perf_counter()
        for g, s in ((self.g0, self.seed), (self.g1, self.seed + 1)):
            np.random.Generator(np.random.Philox(s)).standard_normal((self.n, normals_per_path(g)))
        return time.perf_counter() - t0

    def computed_sizes(self) -> dict:
        """Normals drawn and bytes computed per pass by the four sampler calls."""
        grids = (self.g0, self.g1, self.g1, self.g1)
        normals = self.n * (
            normals_per_path(self.g0) + 2 * normals_per_path(self.g1) + self.g1.sub_steps * self.g1.n_intervals
        )
        values = sum(self.n * (g.sub_steps * g.n_intervals + 1) for g in grids)
        # draw buffer, log-path matrix and price matrix, 8 bytes per float64
        return {"normals": normals, "path_values": values, "bytes": 8 * (normals + 2 * values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-ops", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    with open(args.config) as fh:
        cfg = gv.parse_config(fh.read())
    w = Workload(cfg)
    result = {"ops": [], "passes": [], "sizes": w.computed_sizes()}

    def one_pass(tracer, kind):
        ops = []
        w.run_pass(tracer, ops)
        result["ops"].extend(ops)
        result["passes"].append({"kind": kind, "wall_s": sum(o["seconds"] for o in ops)})

    quiet = Tracer(run_id="mc-exact", enabled=False)
    if args.traced:
        tracer = Tracer(run_id="mc-exact")
        one_pass(quiet, "warmup")
        one_pass(quiet, "untraced")
        one_pass(tracer, "traced")
        result["spans"] = tracer.spans
        result["rng_reference_s"] = w.rng_reference()
        result["ks_tests"] = w.ks_tests
    else:
        start = time.perf_counter()
        while True:
            one_pass(quiet, "untraced")
            elapsed = time.perf_counter() - start
            if elapsed >= wl.LOOP_CAP_S or (elapsed >= args.seconds and len(result["ops"]) >= args.min_ops):
                break
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
