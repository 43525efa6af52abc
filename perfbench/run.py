"""gridvol benchmark: three workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload {mc-exact,cli-simulate,cli-quotes}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root (it finds ``src/gridvol`` next to this
directory and exits with status 2 if it is missing).  Every program process
is a fresh interpreter started with OMP/OPENBLAS/MKL_NUM_THREADS=1 and
``PYTHONPATH=src``.  Load comes from one closed-loop client: each operation
starts when the previous one has finished.  Inputs are generated from
``--seed``; with the default seed every artifact and array is also compared
with the SHA-256 digests recorded from the seed commit.

With ``--trace 0`` the run repeats passes of the workload for ``--seconds``
(and at least MIN_OPS operations) and reports the end-to-end metrics.  With
``--trace 1`` it runs an untraced and a traced pass of every workload and
reports the per-layer metrics; see README.md for every definition.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from tracer import duration, self_times  # noqa: E402

WORKLOADS = ("mc-exact", "cli-simulate", "cli-quotes")
DEFAULT_SEED = 1
MIN_OPS = 40  # so the 75th percentile always has >= 10 samples beyond it
TAIL_PCT = 75
CHILD_TIMEOUT_S = 120.0
COLD_STARTS = 7
IMPORT_REPEATS = 5
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PY = sys.executable
ENTRY = "import sys; from gridvol.cli import main; sys.exit(main())"  # the console script
SETUP = "import sys, gridvol; gridvol.parse_config(open(sys.argv[1]).read())"
REFERENCE = os.path.join(HERE, "reference_digests.json")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "import.gridvol_s": "s",
    "import.scipy_s": "s",
    "config.parse_s": "s",
    "config.write_s": "s",
    "config.bytes_written": "bytes",
    "cli.run_s": "s",
    "cli.process_s": "s",
    "sim.exact_proportional_s": "s",
    "sim.gbm_s": "s",
    "sim.risk_neutral_exact_s": "s",
    "sim.rng_reference_s": "s",
    "sim.rng_share": "ratio",
    "sim.normals_drawn": "count",
    "sim.bytes_computed": "bytes",
    "sim.gb_per_s_computed": "GB/s",
    "machine.copy_gb_per_s": "GB/s",
    "sim.euler_s": "s",
    "sim.risk_neutral_euler_s": "s",
    "sim.euler_valid_ratio": "ratio",
    "sim.euler_clamp_fraction": "ratio",
    "sim.to_csv_s": "s",
    "sim.csv_bytes": "bytes",
    "sim.csv_mb_per_s": "MB/s",
    "stats.grid_diagnostics_s": "s",
    "stats.fingerprint_s": "s",
    "stats.ks_tests": "count",
    "stats.fp_residual_s": "s",
    "hedging.replication_error_s": "s",
    "hedging.select_nu_s": "s",
    "hedging.hedge_plan_s": "s",
    "pricing.price_u_s": "s",
    "pricing.invert_nu_s": "s",
    "pricing.invert_residual": "ratio",
    "drift.consistency_report_s": "s",
    "drift.quad_points": "count",
    "drift.max_rel_err": "ratio",
    "trace.overhead_s": "s",
}


@dataclass
class Settings:
    """Sizes and budgets; ``tiny`` is for the self-test only."""

    seed: int
    seconds: float
    min_ops: int = MIN_OPS
    mc_paths: int = wl.MC_PATHS
    sim_paths: int = wl.SIM_PATHS
    inversions: int = wl.QUOTE_INVERSIONS
    use_reference: bool = True

    @classmethod
    def tiny(cls, seed: int) -> "Settings":
        return cls(seed, 0.0, min_ops=1, mc_paths=2_000, sim_paths=20, inversions=3, use_reference=False)


@dataclass
class Child:
    rc: int
    wall: float
    rss_mb: float
    log: str


@dataclass
class Trace:
    """What one traced process wrote out, and its wall time from spawn to reap."""

    spans: list
    counters: dict
    wall: float


@dataclass
class Outcome:
    """Operations, pass walls and (in a traced run) traces of one workload."""

    ops: list = field(default_factory=list)
    walls: list = field(default_factory=list)
    traced_walls: list = field(default_factory=list)
    rss_mb: float = 0.0
    values_per_pass: int = 0
    traces: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def median(xs):
    return statistics.median(xs)


def percentile(xs, pct):
    """Linear interpolation between order statistics (numpy's default)."""
    s = sorted(xs)
    k = (len(s) - 1) * pct / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def artifacts(out: str) -> dict[str, str]:
    """Digest of every artifact in an output directory except metadata.json."""
    return {
        name: sha256_file(os.path.join(out, name))
        for name in sorted(os.listdir(out))
        if name != "metadata.json"
    }


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Bench:
    def __init__(self, settings: Settings, corrupt=None):
        self.s = settings
        self.corrupt = corrupt  # self-test hook: corrupt(op_id, out_dir) after a command
        self.work = fresh_dir(os.path.join(ROOT, ".bench_work", f"{os.getpid()}"))
        env = dict(os.environ)
        env.update(THREAD_ENV)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env
        self.reference = None
        if settings.use_reference and settings.seed == DEFAULT_SEED:
            with open(REFERENCE) as fh:
                self.reference = json.load(fh)
        self.recorded = None  # set to a dict to collect artifact digests (record_reference.py)
        self.n_logs = 0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass

    # -- processes -------------------------------------------------------
    def child(self, argv: list[str]) -> Child:
        """Run one process to completion; wall from spawn to reap, peak RSS from wait4."""
        self.n_logs += 1
        log = os.path.join(self.work, f"child-{self.n_logs}.log")
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, log)

    def child_json(self, argv: list[str]) -> dict:
        c = self.child(argv)
        with open(c.log) as fh:
            text = fh.read()
        if c.rc != 0:
            raise RuntimeError(f"{argv[1:3]} exited {c.rc}: {text[-2000:]}")
        return json.loads(text.strip().splitlines()[-1])

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.work, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    # -- set-up and machine ----------------------------------------------
    def setup_time(self, config_path: str) -> tuple[float, list[float]]:
        """Median cold start through ``import gridvol`` and ``parse_config``."""
        argv = [PY, "-c", SETUP, config_path]
        if self.child(argv).rc != 0:  # also fills the bytecode cache, untimed
            raise RuntimeError("set-up child failed")
        walls = []
        for _ in range(COLD_STARTS):
            c = self.child(argv)
            if c.rc != 0:
                raise RuntimeError("set-up child failed")
            walls.append(c.wall)
        return median(walls), walls

    def machine(self) -> dict:
        m = self.child_json([PY, os.path.join(HERE, "probe.py"), "machine"])
        m["thread_env"] = THREAD_ENV
        m["git_sha"] = None
        if os.path.isdir(os.path.join(ROOT, ".git")):
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            m["git_sha"] = r.stdout.strip() or None
        h = hashlib.sha256()
        pkg = os.path.join(ROOT, "src", "gridvol")
        for name in sorted(os.listdir(pkg)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(pkg, name), "rb") as fh:
                    h.update(fh.read())
        m["src_sha256"] = h.hexdigest()
        return m

    def import_reference(self, what: str) -> float:
        argv = [PY, os.path.join(HERE, "probe.py"), what]
        return median([self.child_json(argv)["seconds"] for _ in range(IMPORT_REPEATS)])

    # -- mc-exact ----------------------------------------------------------
    def mc_config(self) -> str:
        return self.write("mc-exact.ini", wl.mc_exact_config(self.s.seed, self.s.mc_paths))

    def mc_exact(self, seconds: float, traced: bool = False) -> Outcome:
        cfg = self.mc_config()
        res_path = os.path.join(self.work, "mc-result.json")
        argv = [PY, os.path.join(HERE, "mc_worker.py"), "--config", cfg, "--out", res_path]
        if traced:
            argv.append("--traced")
        else:
            argv += ["--seconds", repr(seconds), "--min-ops", str(self.s.min_ops)]
        c = self.child(argv)
        if c.rc != 0:
            with open(c.log) as fh:
                raise RuntimeError(f"mc-exact worker exited {c.rc}: {fh.read()[-2000:]}")
        with open(res_path) as fh:
            res = json.load(fh)
        ref = self.reference["mc-exact"] if self.reference else None
        out = Outcome(rss_mb=c.rss_mb, values_per_pass=res["sizes"]["path_values"])
        for op in res["ops"]:
            if op["ok"] and ref is not None and ref.get(op["op"]) != op["digest"]:
                op["ok"], op["problem"] = False, "digest differs from the seed commit's"
            out.ops.append(op)
        for p in res["passes"]:  # a warm-up pass counts in neither list
            if p["kind"] == "untraced":
                out.walls.append(p["wall_s"])
            elif p["kind"] == "traced":
                out.traced_walls.append(p["wall_s"])
        if traced:
            out.traces.append(Trace(res["spans"], {}, c.wall))
            out.extra = {k: res[k] for k in ("rng_reference_s", "ks_tests", "sizes")}
        return out

    # -- CLI workloads -----------------------------------------------------
    def commands(self, workload: str) -> list[wl.Command]:
        if workload == "cli-simulate":
            return wl.cli_simulate_commands(self.s.seed, self.s.sim_paths)
        return wl.cli_quotes_commands(self.s.seed, self.s.inversions)

    def check_command(self, workload: str, cmd: wl.Command, out: str, rc: int) -> str | None:
        if rc != cmd.expect_rc:
            return f"exit code {rc}, expected {cmd.expect_rc}"
        try:
            problem = wl.CHECKS[cmd.check](out, cmd.params)
        except (OSError, KeyError, ValueError) as exc:
            problem = f"unreadable artifact: {exc!r}"
        if self.reference is not None or self.recorded is not None:
            digests = artifacts(out)
            if self.recorded is not None:
                self.recorded.setdefault(workload, {})[cmd.cid] = digests
            if problem is None and self.reference is not None and digests != self.reference[workload][cmd.cid]:
                problem = "artifact digests differ from the seed commit's"
        return problem

    def cli(self, workload: str, seconds: float, traced: bool = False) -> Outcome:
        """Untraced passes for ``seconds``; or one pass with a traced replay after each command."""
        cmds = self.commands(workload)
        configs = {c.cid: self.write(f"{workload}-{c.cid}.ini", c.config_text) for c in cmds}
        out = Outcome()
        start = time.perf_counter()
        while True:
            wall = traced_wall = 0.0
            values = 0
            for cmd in cmds:
                odir = fresh_dir(os.path.join(self.work, "out", cmd.cid))
                args = [*cmd.argv, "--config", configs[cmd.cid], "--out", odir]
                c = self.child([PY, "-c", ENTRY, *args])
                if self.corrupt is not None:
                    self.corrupt(cmd.cid, odir)
                problem = self.check_command(workload, cmd, odir, c.rc)
                op = {"op": cmd.cid, "seconds": c.wall, "ok": problem is None, "problem": problem}
                out.ops.append(op)
                out.rss_mb = max(out.rss_mb, c.rss_mb)
                wall += c.wall
                if cmd.check == "simulate" and problem is None:
                    header = wl.csv_header(os.path.join(odir, "paths.csv"))
                    values += int(header["n_paths"]) * int(header["n_times"])
                if traced:
                    traced_wall += self.replay(cmd, args, odir, out)
                    if cmd.check == "invert" and problem is None:
                        with open(os.path.join(odir, "inversion.json")) as fh:
                            inv = json.load(fh)
                        residual = abs(inv["reproduced_price"] - inv["target"]) / cmd.params["market"]["s0"]
                        out.extra.setdefault("invert_residuals", []).append(residual)
            out.walls.append(wall)
            out.values_per_pass = values
            if traced:
                out.traced_walls.append(traced_wall)
                break
            elapsed = time.perf_counter() - start
            if elapsed >= wl.LOOP_CAP_S or (elapsed >= seconds and len(out.ops) >= self.s.min_ops):
                break
        return out

    def replay(self, cmd: wl.Command, args: list[str], odir: str, out: Outcome) -> float:
        """Traced replay of one command; its artifacts must equal the CLI's byte for byte."""
        tdir = fresh_dir(os.path.join(self.work, "traced", cmd.cid))
        spans_path = os.path.join(self.work, f"spans-{cmd.cid}.json")  # its stem is the run id
        if os.path.exists(spans_path):
            os.unlink(spans_path)
        targs = [a if a != odir else tdir for a in args]
        c = self.child([PY, os.path.join(HERE, "trace_cli.py"), spans_path, *targs])
        problem = None
        if c.rc != cmd.expect_rc or not os.path.exists(spans_path):
            problem = f"traced replay exited {c.rc}"
        elif artifacts(tdir) != artifacts(odir):
            problem = "traced replay artifacts differ from the CLI's"
        out.ops.append({"op": f"traced:{cmd.cid}", "seconds": c.wall, "ok": problem is None, "problem": problem})
        if problem is None:
            with open(spans_path) as fh:
                doc = json.load(fh)
            out.traces.append(Trace(doc["spans"], doc["counters"], c.wall))
        return c.wall

    # -- running a workload ------------------------------------------------
    def run_workload(self, workload: str, seconds: float, traced: bool = False) -> Outcome:
        if workload == "mc-exact":
            return self.mc_exact(seconds, traced)
        return self.cli(workload, seconds, traced)

    def setup_config(self, workload: str) -> str:
        if workload == "mc-exact":
            return self.mc_config()
        cmd = self.commands(workload)[0]
        return self.write(f"{workload}-setup.ini", cmd.config_text)

    def run(self, workload: str, trace: bool) -> tuple[dict, list[str]]:
        record = {"workload": workload, "seed": self.s.seed, "trace": trace}
        record["setup_s"], record["setup_cold_starts_s"] = self.setup_time(self.setup_config(workload))
        record["machine"] = self.machine()
        record["mc_exact_array_bytes"] = {
            "eps0": 8 * self.s.mc_paths * (wl.MC_SUB_STEPS * wl.MC_INTERVALS + 1),
            "window": 8 * self.s.mc_paths * (wl.MC_WINDOW_SUB_STEPS * wl.MC_INTERVALS + 1),
        }
        if trace:
            metrics, ops = self.traced(workload, record)
            units = LAYER_UNITS
        else:
            o = self.run_workload(workload, self.s.seconds)
            ops = o.ops
            metrics = self.end_to_end(workload, o, record)
            units = E2E_UNITS
        failed = sum(1 for op in ops if not op["ok"])
        record["attempted"], record["failed"] = len(ops), failed
        record["failed_frac"] = failed / len(ops)
        record["failures"] = [f"{op['op']}: {op['problem']}" for op in ops if not op["ok"]][:20]
        record["claims"] = "none: this run measures the code as it is"
        lines = [f"{name} = {value!r} {units[name]}" for name, value in metrics.items()]
        lines.append(f"failed_frac = {record['failed_frac']!r} ratio ({failed} of {len(ops)} operations)")
        for key in ("path_values_per_s", "commands_per_s"):
            if key in record:
                lines.append(f"{key} = {record[key]!r} 1/s")
        lines.append("record " + json.dumps(record, sort_keys=True))
        result = {
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        return result, lines

    def end_to_end(self, workload: str, o: Outcome, record: dict) -> dict:
        times = [op["seconds"] for op in o.ops]
        wall = median(o.walls)
        record.update(
            passes=len(o.walls),
            pass_walls_s=o.walls,
            op_samples=len(times),
            op_tail_percentile=TAIL_PCT,
            op_samples_beyond_tail=sum(1 for t in times if t > percentile(times, TAIL_PCT)),
        )
        if workload == "cli-quotes":
            record["commands_per_s"] = len(o.ops) / len(o.walls) / wall
        else:
            record["path_values_per_s"] = o.values_per_pass / wall
        return {
            "setup_s": record["setup_s"],
            "wall_s": wall,
            "op_p50_s": median(times),
            "op_tail_s": percentile(times, TAIL_PCT),
            "peak_rss_mb": o.rss_mb,
        }

    # -- traced run --------------------------------------------------------
    def traced(self, workload: str, record: dict) -> tuple[dict, list]:
        """One untraced and one traced pass of every workload, then more of ``workload``."""
        start = time.perf_counter()
        order = [workload] + [w for w in WORKLOADS if w != workload]
        runs = {w: [self.run_workload(w, 0.0, traced=True)] for w in order}
        while time.perf_counter() - start < self.s.seconds:
            runs[workload].append(self.run_workload(workload, 0.0, traced=True))
        ops = [op for rs in runs.values() for o in rs for op in o.ops]
        pairs = [t - u for o in runs[workload] for t, u in zip(o.traced_walls, o.walls)]
        m = {
            "import.gridvol_s": self.import_reference("import-gridvol"),
            "import.scipy_s": self.import_reference("import-scipy"),
        }
        m.update(self.mc_layers(runs["mc-exact"]))
        m.update(self.cli_layers(runs["cli-simulate"], runs["cli-quotes"]))
        m["machine.copy_gb_per_s"] = record["machine"]["copy_gb_per_s"]
        m["trace.overhead_s"] = median(pairs)
        record["trace_overhead_pairs"] = len(pairs)
        record["self_time_s"] = {w: self.layer_self_times(rs) for w, rs in runs.items()}
        return {k: m[k] for k in LAYER_UNITS}, ops

    @staticmethod
    def layer_self_times(runs: list[Outcome]) -> dict[str, float]:
        """Self time per layer per traced pass; span ids are unique within one process only."""
        total: dict[str, float] = {}
        for trace in (t for o in runs for t in o.traces):
            for layer, seconds in self_times(trace.spans).items():
                total[layer] = total.get(layer, 0.0) + seconds / len(runs)
        return total

    @staticmethod
    def mc_layers(runs: list[Outcome]) -> dict:
        spans = [s for o in runs for t in o.traces for s in t.spans]
        passes = sum(len(o.traced_walls) for o in runs)

        def per_pass(name):
            return sum(duration(s) for s in spans if s["name"] == name) / passes

        def per_call(name):
            return median([duration(s) for s in spans if s["name"] == name])

        extra = runs[0].extra
        exact = per_pass("sim.simulate_exact_proportional")
        sampler = exact + per_pass("sim.simulate_gbm") + per_pass("sim.risk_neutral_dynamics")
        rng_ref = median([o.extra["rng_reference_s"] for o in runs])
        return {
            "sim.exact_proportional_s": exact,
            "sim.gbm_s": per_pass("sim.simulate_gbm"),
            "sim.risk_neutral_exact_s": per_pass("sim.risk_neutral_dynamics"),
            "sim.rng_reference_s": rng_ref,
            "sim.rng_share": rng_ref / exact,
            "sim.normals_drawn": extra["sizes"]["normals"],
            "sim.bytes_computed": extra["sizes"]["bytes"],
            "sim.gb_per_s_computed": extra["sizes"]["bytes"] / sampler / 1e9,
            "stats.grid_diagnostics_s": per_call("stats.grid_return_diagnostics"),
            "stats.fingerprint_s": per_call("stats.off_grid_fingerprint"),
            "stats.ks_tests": extra["ks_tests"],
            "hedging.replication_error_s": per_call("hedging.replication_error"),
            "hedging.select_nu_s": per_call("hedging.select_nu"),
            "hedging.hedge_plan_s": per_call("hedging.hedge_plan"),
        }

    @staticmethod
    def cli_layers(sim_runs: list[Outcome], quote_runs: list[Outcome]) -> dict:
        def traces(runs):
            return [t for o in runs for t in o.traces]

        def named(runs, name):
            return [s for t in traces(runs) for s in t.spans if s["name"] == name]

        def per_call(runs, name):
            return median([duration(s) for s in named(runs, name)])

        m = {}
        # cli-quotes: import, parse, cli, pricing, stats.fp_residual and drift
        m["config.parse_s"] = per_call(quote_runs, "config.parse_config")
        m["cli.run_s"] = per_call(quote_runs, "cli.run")
        process = []
        for t in traces(quote_runs):
            d = {s["name"]: duration(s) for s in t.spans if s["name"] in ("import.gridvol", "cli.run")}
            process.append(t.wall - d["import.gridvol"] - d["cli.run"])
        m["cli.process_s"] = median(process)
        m["stats.fp_residual_s"] = per_call(quote_runs, "stats.fp_residual")
        m["pricing.price_u_s"] = per_call(quote_runs, "pricing.price_u")
        m["pricing.invert_nu_s"] = per_call(quote_runs, "pricing.invert_nu_for_price")
        m["pricing.invert_residual"] = max(r for o in quote_runs for r in o.extra["invert_residuals"])
        drift = named(quote_runs, "drift.drift_consistency_report")
        m["drift.consistency_report_s"] = median([duration(s) for s in drift])
        m["drift.quad_points"] = sum(t.counters.get("quad_points", 0) for t in traces(quote_runs)) / len(quote_runs)
        m["drift.max_rel_err"] = max(s["attrs"]["max_rel_err"] for s in drift)

        # cli-simulate: Euler, CSV and artifact writes
        n_pass = len(sim_runs)
        euler = named(sim_runs, "sim.simulate_euler")
        rn = [s for s in named(sim_runs, "sim.risk_neutral_dynamics") if s["attrs"]["generator"].startswith("euler")]
        m["sim.euler_s"] = median([duration(s) for s in euler])
        m["sim.risk_neutral_euler_s"] = median([duration(s) for s in rn])
        valid = sum(s["attrs"]["n_paths"] for s in euler + rn)
        attempted = valid + sum(s["attrs"]["invalid_count"] for s in euler + rn)
        m["sim.euler_valid_ratio"] = valid / attempted
        m["sim.euler_clamp_fraction"] = statistics.fmean(s["attrs"]["clamp_fraction"] for s in euler + rn)
        csv = named(sim_runs, "sim.to_csv")
        m["sim.to_csv_s"] = median([duration(s) for s in csv])
        m["sim.csv_bytes"] = sum(s["attrs"]["bytes"] for s in csv) / n_pass
        m["sim.csv_mb_per_s"] = sum(s["attrs"]["bytes"] for s in csv) / sum(duration(s) for s in csv) / 1e6
        m["config.write_s"] = median(
            [sum(duration(s) for s in t.spans if s["name"] == "config.atomic_write_text") for t in traces(sim_runs)]
        )
        m["config.bytes_written"] = sum(s["attrs"]["bytes"] for s in named(sim_runs, "config.atomic_write_text")) / n_pass
        return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gridvol", "__init__.py")):
        print(f"error: no gridvol sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    bench = Bench(Settings(args.seed, args.seconds))
    try:
        result, lines = bench.run(args.workload, bool(args.trace))
    finally:
        bench.close()
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
