"""Where the traced pass puts its spans, and the per-layer metrics it yields.

Each trace point names the module attribute a caller looks up.  The CLI
imports its ingest, events, fit, gof and sim functions into
``blockhawkes.cli``, ``fit_full`` looks up ``fit_given_decays`` in
``blockhawkes.fit`` and ``gof_report`` looks up ``time_rescale`` in
``blockhawkes.gof``; the library workloads call the functions through their
home modules.  Counts come from the wrapped calls' arguments and results.
"""

from __future__ import annotations

from blockhawkes import cli, core, events, fit, gof, sim

LAYERS = ("ingest", "events", "core", "fit", "sim", "gof", "cli")
CLI_COMMANDS = ("clean-blocks", "build-events", "fit", "gof", "simulate")

# name -> unit, in the order they are printed
PER_LAYER = {
    "ingest.read_csv_s": "s",
    "ingest.write_csv_s": "s",
    "ingest.clean_blocks_s": "s",
    "ingest.log_returns_s": "s",
    "ingest.extract_jumps_s": "s",
    "ingest.build_trivariate_s": "s",
    "ingest.returns": "count",
    "ingest.jumps": "count",
    "events.read_csv_s": "s",
    "events.write_csv_s": "s",
    "events.rows": "count",
    **{f"cli.{c}_s": "s" for c in CLI_COMMANDS},
    "cli.overhead_s": "s",
    "fit.fit_full_s": "s",
    "fit.fits": "count",
    "fit.outer_iterations": "count",
    "fit.outer_self_s": "s",
    "fit.inner_solves": "count",
    "fit.inner_solve_s": "s",
    "fit.inner_iterations": "count",
    "fit.inner_iterations_max": "count",
    "fit.inner_capped": "count",
    "fit.inner_unconverged": "count",
    "core.log_likelihood_s": "s",
    "core.events_per_s": "1/s",
    "sim.simulate_s": "s",
    "sim.events": "count",
    "sim.us_per_event": "us",
    "gof.gof_report_s": "s",
    "gof.time_rescale_s": "s",
    "gof.residuals": "count",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def _count_inner(tracer, args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs.get("config")
    cap = (config or fit.FitConfig()).inner_max_iter
    tracer.count("fit.inner_solves")
    tracer.count("fit.inner_iterations", result.inner_iterations)
    tracer.peak("fit.inner_iterations_max", result.inner_iterations)
    tracer.count("fit.inner_capped", result.inner_iterations >= cap)
    tracer.count("fit.inner_unconverged", not result.converged)


def _count_fit(tracer, args, kwargs, result):
    tracer.count("fit.fits")
    tracer.count("fit.outer_iterations", result.outer_iterations)


def _count_events(key):
    def hook(tracer, args, kwargs, result):
        tracer.count(key, len(result))
    return hook


def _count_written(tracer, args, kwargs, result):
    tracer.count("events.rows", len(args[0]))


def _count_returns(tracer, args, kwargs, result):
    tracer.count("ingest.returns", len(result[0]))


def _count_jumps(tracer, args, kwargs, result):
    up, down = result
    tracer.count("ingest.jumps", len(up) + len(down))


def _count_residuals(tracer, args, kwargs, result):
    tracer.count("gof.residuals", sum(r.size for r in result))


def _count_loglik(tracer, args, kwargs, result):
    tracer.count("core.events", len(args[1]))


TRACE_POINTS = [
    (cli, "read_blocks_csv", "ingest.read_csv", None),
    (cli, "read_price_csv", "ingest.read_csv", None),
    (cli, "write_blocks_csv", "ingest.write_csv", None),
    (cli, "clean_blocks", "ingest.clean_blocks", None),
    (cli, "log_returns", "ingest.log_returns", _count_returns),
    (cli, "extract_jumps", "ingest.extract_jumps", _count_jumps),
    (cli, "build_trivariate", "ingest.build_trivariate", None),
    (cli, "read_events_csv", "events.read_csv", _count_events("events.rows")),
    (cli, "write_events_csv", "events.write_csv", _count_written),
    (events, "read_events_csv", "events.read_csv", _count_events("events.rows")),
    (events, "write_events_csv", "events.write_csv", _count_written),
    (cli, "fit_full", "fit.fit_full", _count_fit),
    (fit, "fit_full", "fit.fit_full", _count_fit),
    (fit, "fit_given_decays", "fit.inner_solve", _count_inner),
    (core, "log_likelihood", "core.log_likelihood", _count_loglik),
    (cli, "simulate", "sim.simulate", _count_events("sim.events")),
    (sim, "simulate", "sim.simulate", _count_events("sim.events")),
    (cli, "gof_report", "gof.gof_report", None),
    (gof, "gof_report", "gof.gof_report", None),
    (gof, "time_rescale", "gof.time_rescale", _count_residuals),
]


def per_layer_metrics(tracer) -> dict:
    """The PER_LAYER metrics of one traced pass (0 where a layer was idle),
    all but ``trace.overhead_s``, which needs an untraced pass to compare."""
    inclusive, own = tracer.totals()
    c = tracer.counters
    values = {name: 0.0 for name in PER_LAYER if name != "trace.overhead_s"}
    for name in values:
        span = name[:-2] if name.endswith("_s") else None
        if span in inclusive:
            values[name] = inclusive[span]
        elif name in c:
            values[name] = c[name]
    values["fit.outer_self_s"] = own.get("fit.fit_full", 0.0)
    values["cli.overhead_s"] = sum(own.get(f"cli.{cmd}", 0.0) for cmd in CLI_COMMANDS)
    if values["core.log_likelihood_s"] > 0:
        values["core.events_per_s"] = c.get("core.events", 0) / values["core.log_likelihood_s"]
    if values["sim.events"] > 0:
        values["sim.us_per_event"] = 1e6 * values["sim.simulate_s"] / values["sim.events"]
    for layer in LAYERS:
        values[f"self.{layer}_s"] = sum(t for n, t in own.items() if n.split(".")[0] == layer)
    values["trace.spans"] = len(tracer.spans)
    return values
