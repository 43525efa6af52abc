"""Traced replay of one gridvol CLI command in a fresh interpreter.

    python trace_cli.py SPANS.json <gridvol arguments...>

Puts spans around the package import, ``cli.main``, ``cli.run``, config
parsing, every public gridvol function the command handler calls, the CSV
serialisation and every artifact write, then runs the command exactly as the
``gridvol`` entry point would.  Spans are written to SPANS.json at exit; the
exit code is the command's.  The harness compares this replay's artifacts
with those of an untraced CLI run byte for byte and rejects the numbers if
they differ.
"""

from __future__ import annotations

import inspect
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def _pathset_attrs(rec, result, args, kwargs):
    rec["attrs"].update(
        n_paths=result.n_paths,
        n_times=result.n_times,
        clamp_fraction=result.clamp_fraction,
        invalid_count=result.invalid_count,
        generator=result.generator,
    )


def _with_quad_counter(fn, tracer: Tracer):
    """Count quadrature integrand evaluations at the gridvol/scipy boundary.

    scipy.integrate is patched on the first call, inside the caller's span, so
    a package that imports it lazily pays that import where it would anyway.
    """

    def counted(*args, **kwargs):
        if "quad_calls" not in tracer.counters:
            tracer.counters["quad_calls"] = 0
            _patch_quad(tracer)
        return fn(*args, **kwargs)

    return counted


def _patch_quad(tracer: Tracer):
    import scipy.integrate as si

    orig = si.quad

    def quad(*args, **kwargs):
        out = orig(*args, **kwargs)
        tracer.counters["quad_calls"] += 1
        if kwargs.get("full_output") and len(out) > 2 and isinstance(out[2], dict):
            tracer.counters["quad_points"] += int(out[2].get("neval", 0))
        return out

    si.quad = quad


def instrument(tracer: Tracer) -> None:
    import gridvol
    import gridvol.cli as cli
    import gridvol.sim as sim

    # every public function, in the module that defines it; the CLI handlers
    # import them from there at call time, so they pick up the wrappers
    for name in gridvol.__all__:
        fn = getattr(gridvol, name)
        if not inspect.isfunction(fn):
            continue
        module = sys.modules[fn.__module__]
        if getattr(module, name, None) is not fn:
            continue
        layer = fn.__module__.rsplit(".", 1)[1]
        after = None
        if layer == "sim":
            after = _pathset_attrs
        elif name == "atomic_write_text":
            after = lambda rec, res, a, kw: rec["attrs"].update(bytes=len(a[1].encode()))  # noqa: E731
        elif name == "drift_consistency_report":
            fn = _with_quad_counter(fn, tracer)
            after = lambda rec, res, a, kw: rec["attrs"].update(max_rel_err=res.max_rel_err)  # noqa: E731
        setattr(module, name, tracer.wrap(fn, f"{layer}.{name}", after=after))

    def csv_chars(rec, res, args, kwargs):
        rec["attrs"]["bytes"] = args[1].tell()  # the handler writes into a fresh StringIO

    sim.PathSet.to_csv = tracer.wrap(sim.PathSet.to_csv, "sim.to_csv", after=csv_chars)
    cli.run = tracer.wrap(cli.run, "cli.run", leaf=False)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(run_id=os.path.splitext(os.path.basename(spans_path))[0])
    rc = 2
    try:
        with tracer.span("import.gridvol"):
            import gridvol.cli  # the entry point's own import: the package, then cli

        instrument(tracer)
        with tracer.span("cli.main"):
            rc = gridvol.cli.main(argv)
    finally:
        tracer.dump(spans_path, rc=rc)
    return rc


if __name__ == "__main__":
    sys.exit(main())
