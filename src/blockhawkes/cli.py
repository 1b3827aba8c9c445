"""Batch command-line front end.

Subcommands cover the whole pipeline: ``clean-blocks``, ``extract-jumps``,
``build-events``, ``fit``, ``gof`` and ``simulate``.  Every JSON output
embeds a run manifest (tool version, python/numpy/scipy versions,
effective-config digest, input file digests, UTC timestamp); outputs are
byte-identical across repeated runs except for that timestamp.

Exit codes: 0 success, 2 input parse/config error (also an undecodable input
or a model file that is not JSON, each named by its path, an unwritable output
or a bad ``gof --model-label``), 3 numeric or fitting failure, 4 model-validity
error.  ``main`` maps the error a command raises to its code through the one
table ``_EXIT_CODES``.  A command that fails leaves none of its outputs.

Configuration precedence is flags > config file > defaults.  The config
file (``--config``) is a flat ``key = value`` document, one option per
line, ``#`` comments allowed; keys are the long flag names with
underscores (e.g. ``window_hours = 3``).  Booleans are written
``1/true/yes/on`` or ``0/false/no/off``.

The options of ``build-events``, ``fit`` and ``simulate``, and their
defaults, are the defaulted fields of ``JumpConfig``, ``FitConfig`` and
``SimConfig``, plus the few options each command owns.  ``extract-jumps``
is ``build-events`` without a blocks file; its window defaults to the bars'.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import platform
import sys
from dataclasses import MISSING, fields
from datetime import datetime, timezone

import numpy as np
import scipy

from . import __version__
from .core import HawkesModel, spectral_radius
from .errors import (
    ConfigError,
    FittingError,
    HawkesError,
    LikelihoodUndefinedError,
    NumericalError,
    ParseError,
    SimulationTruncatedError,
    StabilityError,
)
from .events import _removed_on_error, read_events_csv, read_text, write_events_csv
from .fit import FitConfig, fit_full, fit_poisson, fit_result_to_dict, model_from_dict
from .gof import gof_report, report_to_dict, write_qq_csv
from .ingest import (
    JumpConfig,
    build_trivariate,
    clean_blocks,
    extract_jumps,
    log_returns,
    read_blocks_csv,
    read_price_csv,
    timestamp_us,
    write_blocks_csv,
)
from .sim import SimConfig, simulate

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_MODEL = 4


def _sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _manifest(command: str, effective: dict, inputs) -> dict:
    canonical = json.dumps(effective, sort_keys=True, default=str)
    return {
        "command": command,
        "tool_version": __version__,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config_digest": hashlib.sha256(canonical.encode()).hexdigest(),
        "input_digests": {str(p): _sha256_file(p) for p in inputs},
    }


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_config_file(path) -> dict:
    values = {}
    for lineno, raw in enumerate(io.StringIO(read_text(path), newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip().strip("\"'")
    return values


def _effective_options(args, spec: dict) -> dict:
    """Merge flag values, config-file values and defaults, in that order."""
    file_cfg = _read_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = set(file_cfg) - set(spec)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, (converter, default) in spec.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            out[key] = flag_value
        elif key in file_cfg:
            try:
                out[key] = converter(file_cfg[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}")
        else:
            out[key] = default
    return out


def _parse_decays(text: str):
    return tuple(float(v) for v in str(text).split(","))


def _true(text: str) -> bool:
    word = str(text).strip().lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected 1/true/yes/on or 0/false/no/off, got {text!r}")


def _options(cls, **own) -> dict:
    """Option table of ``cls``'s defaulted fields (converter from the
    default's type), followed by the command's ``own`` options."""
    converters = {bool: _true, tuple: _parse_decays}
    spec = {
        f.name: (converters.get(type(f.default), type(f.default)), f.default)
        for f in fields(cls) if f.default is not MISSING
    }
    return {**spec, **own}


def _config(cls, opts: dict, **given):
    """``cls`` built from the effective options that name its fields."""
    return cls(**{f.name: opts[f.name] for f in fields(cls) if f.name in opts}, **given)


class _ModelError(HawkesError):
    """An invalid model document, or a model of another dimension than the data."""


# Exit code of each kind of error; the first row whose types match wins.
_EXIT_CODES = (
    ((StabilityError, _ModelError), EXIT_MODEL),
    ((FittingError, NumericalError, LikelihoodUndefinedError, SimulationTruncatedError),
     EXIT_NUMERIC),
    ((HawkesError, OSError), EXIT_PARSE),
)


def _fail(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    for lineno, text in getattr(exc, "bad_lines", [])[:10]:
        print(f"  line {lineno}: {text}", file=sys.stderr)
    return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


def _model(path) -> HawkesModel:
    try:
        doc = json.loads(read_text(path))
    except (ValueError, RecursionError) as exc:  # bad syntax, an integer too long, too deep
        raise ParseError(f"{path}: not a JSON document: {exc}") from exc
    try:
        return model_from_dict(doc)
    except HawkesError as exc:
        raise _ModelError(f"invalid model document: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_clean_blocks(args) -> int:
    records = read_blocks_csv(args.in_csv)
    cleaned, report = clean_blocks(records)
    payload = report.to_dict()
    payload["counts"] = counts = report.counts()
    payload["manifest"] = _manifest("clean-blocks", {}, [args.in_csv])
    write_blocks_csv(cleaned, args.out_csv)
    with _removed_on_error([args.out_csv]):
        _write_json(args.report_json, payload)
    print(
        f"cleaned {len(records)} -> {len(cleaned)} blocks "
        f"({counts['duplicates_dropped']} duplicates dropped, {counts['reordered']} reordered)"
    )
    return EXIT_OK


_JUMP_OPTIONS = _options(JumpConfig, start=(str, None), end=(str, None))


def cmd_build_events(args) -> int:
    """``build-events``; ``extract-jumps`` is the same with no blocks file."""
    opts = _effective_options(args, _JUMP_OPTIONS)
    blocks = None if args.blocks_csv is None else read_blocks_csv(args.blocks_csv)
    bars = read_price_csv(args.price_csv)
    # Without a blocks file the block stamps are an empty column.
    cleaned, report = (bars[:0], None) if blocks is None else clean_blocks(blocks)
    returns, gaps = log_returns(bars)
    up, down = extract_jumps(returns, _config(JumpConfig, opts))
    span = bars if blocks is None else cleaned
    start = timestamp_us(opts["start"]) if opts["start"] else span["timestamp"][0]
    end = timestamp_us(opts["end"]) if opts["end"] else span["timestamp"][-1]
    seq, dropped = build_trivariate(cleaned["timestamp"], up, down, (start, end))
    write_events_csv(seq, args.out_events_csv)
    if report is None:
        print(
            f"{len(up)} up / {len(down)} down jumps from {len(returns)} returns "
            f"({len(gaps)} grid gaps, {dropped} outside window)"
        )
        return EXIT_OK
    counts = seq.counts()
    print(
        f"events: {counts[0]} blocks, {counts[1]} up jumps, {counts[2]} down jumps "
        f"over {seq.horizon:.3f} h ({dropped} outside window; "
        f"{report.counts()['duplicates_dropped']} duplicate blocks dropped)"
    )
    return EXIT_OK


_EVENTS_OPTIONS = {"horizon": (float, None), "dim": (int, None)}
_FIT_OPTIONS = _options(FitConfig, **_EVENTS_OPTIONS, poisson_baseline=(_true, False))


def cmd_fit(args) -> int:
    opts = _effective_options(args, _FIT_OPTIONS)
    seq = read_events_csv(args.events_csv, horizon=opts["horizon"], dim=opts["dim"])
    result = fit_full(seq, _config(FitConfig, opts))
    payload = fit_result_to_dict(result)
    if opts["poisson_baseline"]:
        baseline = fit_poisson(seq)
        payload["poisson"] = {
            "mu": baseline.rates.tolist(),
            "log_lik": baseline.log_lik,
            "empty_components": list(baseline.empty_components),
        }
    payload["manifest"] = _manifest("fit", opts, [args.events_csv])
    _write_json(args.out_json, payload)
    rho = spectral_radius(result.kernel_norm_matrix)
    print(
        f"log_lik {result.log_lik:.4f}, converged {result.converged}, "
        f"spectral radius {rho:.4f}"
    )
    return EXIT_OK


_GOF_OPTIONS = {**_EVENTS_OPTIONS, "model_label": (str, None)}


def cmd_gof(args) -> int:
    opts = _effective_options(args, _GOF_OPTIONS)
    seq = read_events_csv(args.events_csv, horizon=opts["horizon"], dim=opts["dim"])
    model = _model(args.model_json)
    if model.dim != seq.dim:
        raise _ModelError(f"model dimension {model.dim} != sequence {seq.dim}")
    label = opts["model_label"]
    if label is None:
        label = "poisson" if np.all(model.kernel.alpha == 0) else "hawkes"
    report = gof_report(model, seq, label)
    payload = report_to_dict(report)
    payload["manifest"] = _manifest("gof", opts, [args.events_csv, args.model_json])
    _write_json(args.out_json, payload)
    with _removed_on_error([args.out_json]):
        qq_paths = write_qq_csv(report, args.out_qq_csv)
    for comp in report.components:
        if comp.degenerate:
            print(f"component {comp.component}: too few events, skipped")
        else:
            print(
                f"component {comp.component}: slope_dev {comp.slope_deviation:.4f}, "
                f"KS p {comp.ks_p_value:.4g}"
            )
    print(f"wrote {len(qq_paths)} Q-Q CSV file(s)")
    return EXIT_OK


_SIM_OPTIONS = _options(SimConfig, horizon=(float, None), seed=(int, None))


def cmd_simulate(args) -> int:
    opts = _effective_options(args, _SIM_OPTIONS)
    if opts["horizon"] is None or opts["seed"] is None:
        raise ConfigError("--horizon and --seed are required")
    seq = simulate(_config(SimConfig, opts, model=_model(args.model_json)))
    write_events_csv(seq, args.out_events_csv)
    print(f"simulated {len(seq)} events on [0, {seq.horizon}] h (seed {opts['seed']})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_command(sub, name, summary, func, positionals, spec=None, **defaults):
    """Subcommand with the given positionals, plus ``--config`` and one flag
    per option when it has an option table ``spec``."""
    p = sub.add_parser(name, help=summary)
    for positional in positionals.split():
        p.add_argument(positional)
    if spec is not None:
        p.add_argument("--config")
        for key, (converter, _) in spec.items():
            flag = "--" + key.replace("_", "-")
            if converter is _true:
                p.add_argument(flag, action="store_const", const=True, default=None)
            elif converter is _parse_decays:
                p.add_argument(flag, type=_parse_decays, default=None, metavar="V1,V2,...")
            else:
                p.add_argument(flag, type=converter, default=None)
    p.set_defaults(func=func, **defaults)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockhawkes",
        description="Hawkes-process modeling of block arrivals and price jumps",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(sub, "clean-blocks", "deduplicate and re-order block timestamps",
                 cmd_clean_blocks, "in_csv out_csv report_json")
    _add_command(sub, "extract-jumps", "rolling-quantile price-jump events", cmd_build_events,
                 "price_csv out_events_csv", _JUMP_OPTIONS, blocks_csv=None)
    _add_command(sub, "build-events", "blocks + prices -> trivariate events CSV",
                 cmd_build_events, "blocks_csv price_csv out_events_csv", _JUMP_OPTIONS)
    _add_command(sub, "fit", "maximum-likelihood Hawkes fit", cmd_fit,
                 "events_csv out_json", _FIT_OPTIONS)
    _add_command(sub, "gof", "time-rescaling goodness-of-fit report", cmd_gof,
                 "events_csv model_json out_json out_qq_csv", _GOF_OPTIONS)
    _add_command(sub, "simulate", "branching-structure simulation", cmd_simulate,
                 "model_json out_events_csv", _SIM_OPTIONS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(t for types, _ in _EXIT_CODES for t in types) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
