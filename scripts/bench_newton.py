"""Per-file fit rows of two checkouts on the 48 pipeline_cli events files.

The files are what ``clean-blocks -> build-events`` makes from the raw
exports of ``perfbench/workloads.py`` for seeds 1-8, six per seed, on the
1416 h window (read with horizon 1416 h and dim 3).  Each checkout's
``fit_full`` fits every file with the default config in its own process;
the processes alternate (parent first on odd rounds), and a file's time is
the median over the rounds.  ``fit_given_decays`` calls are counted as
profile evaluations.  Criterion 5's fit (published parameters, 480 h,
seed 1) is run once per side.  Each side also reports, from fresh processes,
the per-layer times of one profile evaluation of ``s1_0`` (pcli1/0) at its
fitted decays (states, gathers, moments, Newton, curvature; the median over
``EVALUATIONS`` evaluations) and the minor page faults and wall time of the
six seed-1 fits.

    python scripts/bench_newton.py --parent PARENT_CHECKOUT --out BENCH_newton.json \
        [--pairs DIR ...]

Each ``--pairs`` directory holds the records of alternating
``perfbench/run.py`` runs of one workload and seed, copied from
``perfbench/.out`` as ``parent.K.json`` and ``change.K.json`` for pair K;
the file gets each metric's median, quartiles and wins per directory.

Both checkouts must hold ``src/blockhawkes``; the change is the checkout this
script sits in.  Scratch files go under ``--workdir`` (a temporary directory
by default).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 9)
HORIZON = 1416.0
EVALUATIONS = 200


def make_files(workdir: Path) -> list:
    """The 48 events files, built by this checkout's CLI."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from blockhawkes import cli
    from perfbench.workloads import PipelineWorkload

    paths = []
    for seed in SEEDS:
        workload = PipelineWorkload(seed, workdir / f"seed{seed}")
        for k, e in enumerate(workload.exports):
            d, out = e.dir, workdir / f"s{seed}_{k}.csv"
            for argv in (["clean-blocks", d / "blocks_raw.csv", d / "blocks.csv", d / "clean.json"],
                         ["build-events", d / "blocks.csv", d / "price.csv", out,
                          "--start", workload.window[0], "--end", workload.window[1]]):
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main([str(a) for a in argv]) != 0:
                        raise SystemExit(f"{argv[0]} failed on seed {seed} export {k}")
            paths.append(out)
    return paths


def fit_rows(paths: list, criterion_5: bool) -> dict:
    """Fit every file with the blockhawkes on sys.path; runs in a child process."""
    import warnings

    import numpy as np

    from blockhawkes import FitConfig, HawkesModel, SimConfig, SumExpKernel, fit, simulate
    from blockhawkes.events import read_events_csv

    warnings.simplefilter("ignore")
    solve, calls = fit.fit_given_decays, []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    fit.fit_given_decays = counted

    def one(seq):
        calls.clear()
        start = time.perf_counter()
        result = fit.fit_full(seq, FitConfig())
        seconds = time.perf_counter() - start
        return result, {
            "events": len(seq),
            "log_lik": result.log_lik,
            "decays": result.model.kernel.decays.tolist(),
            "converged": result.converged,
            "max_abs_gradient": float(np.max(np.abs(result.decay_gradient))),
            "evaluations": len(calls),
            "outer_iterations": result.outer_iterations,
            "messages": list(result.messages),
            "fit_full_s": seconds,
        }

    rows = {Path(p).name: one(read_events_csv(p, horizon=HORIZON, dim=3))[1] for p in paths}
    out = {"files": rows}
    if criterion_5:
        sys.path.insert(0, str(ROOT / "tests"))
        from conftest import BENCH_ALPHA, BENCH_DECAYS, BENCH_MU

        model = HawkesModel(BENCH_MU, SumExpKernel(BENCH_ALPHA, BENCH_DECAYS))
        result, row = one(simulate(SimConfig(model, 480.0, seed=1)))
        row["max_abs_norm_error"] = float(np.max(np.abs(result.kernel_norm_matrix
                                                        - model.kernel.norms())))
        out["criterion_5"] = row
    return out


def layer_times(paths: list) -> dict:
    """Per-layer seconds of one profile evaluation of the first file at its
    fitted decays, and the faults and time of fitting them all; runs in a
    child process, so the fits start from a fresh heap."""
    import collections
    import resource
    import warnings

    import numpy as np

    from blockhawkes import core, fit
    from blockhawkes.events import read_events_csv

    warnings.simplefilter("ignore")
    import scipy.linalg  # noqa: F401  (the fits' lazy imports, kept out of the count)
    import scipy.optimize  # noqa: F401

    seqs = [read_events_csv(p, horizon=HORIZON, dim=3) for p in paths]
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    fits = [fit.fit_full(seq) for seq in seqs]
    out = {"fits_s": time.perf_counter() - start,
           "fits_minor_faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults}

    spent = collections.Counter()

    def timed(owner, name, layer):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = inner(*args, **kwargs)
            spent[layer] += time.perf_counter() - start
            return result
        setattr(owner, name, wrapper)

    for owner, name, layer in ((core._StateSolver, "__call__", "states"),
                               (fit, "_horizon_moments", "moments"), (fit._Profile, "design", "design"),
                               (fit, "_newton_component", "newton"), (fit, "_curvature", "curvature"),
                               (fit, "fit_given_decays", "evaluation")):
        timed(owner, name, layer)
    seq, decays = seqs[0], fits[0].model.kernel.decays
    profile, rows = fit._Profile(seq, decays.size), []
    for _ in range(EVALUATIONS):
        spent.clear()
        fit.fit_given_decays(seq, decays, profile=profile)
        rows.append(dict(spent, gathers=spent["design"] - spent["states"] - spent["moments"]))
    out["evaluation"] = {"file": Path(paths[0]).name, "decays": decays.tolist(),
                         "evaluations": EVALUATIONS}
    for layer in ("evaluation", "states", "gathers", "moments", "newton", "curvature"):
        out["evaluation"][f"{layer}_ms"] = 1e3 * float(np.median([r[layer] for r in rows]))
    return out


def run_side(src: Path, paths: list, criterion_5: bool, layers: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, __file__, "--child", *map(str, paths)]
    if criterion_5:
        argv.append("--criterion-5")
    if layers:
        argv.append("--layers")
    done = subprocess.run(argv, env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def combine(sides: dict) -> dict:
    """Per-file rows for parent and change, timed as the median over rounds."""
    import numpy as np

    first = {side: runs[0]["files"] for side, runs in sides.items()}
    files = {}
    for name in first["parent"]:
        row = {"events": first["parent"][name]["events"]}
        for side, runs in sides.items():
            r = first[side][name]
            for key in ("log_lik", "decays", "converged", "max_abs_gradient", "evaluations",
                        "outer_iterations", "messages"):
                row[f"{side}_{key}"] = r[key]
            row[f"{side}_fit_full_s"] = float(np.median([run["files"][name]["fit_full_s"]
                                                         for run in runs]))
        row["difference"] = row["change_log_lik"] - row["parent_log_lik"]
        files[name] = row
    diffs = np.array([r["difference"] for r in files.values()])
    totals = {}
    for side in sides:
        totals[side] = {
            "evaluations": sum(r[f"{side}_evaluations"] for r in files.values()),
            "outer_iterations": sum(r[f"{side}_outer_iterations"] for r in files.values()),
            "fit_full_s": sum(r[f"{side}_fit_full_s"] for r in files.values()),
            "converged": sum(r[f"{side}_converged"] for r in files.values()),
            "seed_1_evaluations": sum(r[f"{side}_evaluations"] for name, r in files.items()
                                      if name.startswith("s1_")),
        }
    totals["files"] = len(files)
    totals["summed_loglik_difference"] = float(diffs.sum())
    totals["files_moved_over_1e-3"] = int(np.sum(np.abs(diffs) > 1e-3))
    totals["files_lower"] = sorted(round(float(d), 4) for d in diffs if d < -1e-3)
    totals["files_higher"] = sorted(round(float(d), 4) for d in diffs if d > 1e-3)
    crit = {side: runs[0]["criterion_5"] for side, runs in sides.items()}
    return {"files": files, "totals": totals, "criterion_5": crit}


def summarize_layers(runs: list) -> dict:
    """Medians over the rounds of :func:`layer_times`' numbers, with each round's values."""
    import numpy as np

    out = {"evaluation": {k: v for k, v in runs[0]["evaluation"].items() if not k.endswith("_ms")}}
    for key in ("fits_s", "fits_minor_faults"):
        out[key] = float(np.median([r[key] for r in runs]))
        out[f"{key}_runs"] = [r[key] for r in runs]
    for key in (k for k in runs[0]["evaluation"] if k.endswith("_ms")):
        out["evaluation"][key] = float(np.median([r["evaluation"][key] for r in runs]))
    return out


def summarize_pairs(directory: Path) -> dict:
    """Median, quartiles and wins of the change per metric over the pairs in ``directory``."""
    import numpy as np

    pairs = sorted({int(p.name.split(".")[1]) for p in directory.glob("*.json")})
    runs = {side: [json.loads((directory / f"{side}.{k}.json").read_text()) for k in pairs]
            for side in ("parent", "change")}
    first = runs["parent"][0]
    out = {"workload": first["workload"], "seed": first["seed"], "trace": first["trace"],
           "pairs": len(pairs), "failed": {}, "metrics": {}}
    for side, records in runs.items():
        out["failed"][side] = [r["failed"] for r in records]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in bench[key]}
    for name in first["metrics"]:
        values = {side: np.array([r["metrics"][name] for r in records])
                  for side, records in runs.items()}
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        row = {side: dict(zip(("q1", "median", "q3"), np.percentile(v, [25, 50, 75]).tolist()))
               for side, v in values.items()}
        base = row["parent"]["median"]
        row["change_over_parent_median"] = row["change"]["median"] / base if base else None
        row["change_better_pairs"] = int(np.sum(sign * (values["change"] - values["parent"]) > 0))
        row["runs"] = {side: v.tolist() for side, v in values.items()}
        out["metrics"][name] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_newton.json")
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--pairs", type=Path, nargs="*", default=[])
    parser.add_argument("--child", nargs="*", help=argparse.SUPPRESS)
    parser.add_argument("--criterion-5", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--layers", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        rows = layer_times(args.child) if args.layers else fit_rows(args.child, args.criterion_5)
        print(json.dumps(rows))
        return 0
    if args.parent is None:
        parser.error("--parent is required")

    with tempfile.TemporaryDirectory() as tmp:
        paths = make_files(args.workdir or Path(tmp))
        sides = {"parent": [], "change": []}
        srcs = {"parent": args.parent.resolve() / "src", "change": ROOT / "src"}
        for k in range(args.rounds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                sides[side].append(run_side(srcs[side], paths, criterion_5=k == 0))
        seed_1 = [p for p in paths if Path(p).name.startswith("s1_")]
        layers = {side: [] for side in sides}
        for k in range(args.rounds):
            for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                layers[side].append(run_side(srcs[side], seed_1, False, layers=True))
    import numpy as np
    import scipy

    record = {
        "what": ("fit_full with the default config on the 48 pipeline_cli events files "
                 "(seeds 1-8, six exports each, 1416 h window), parent against change, "
                 "one process per side and round, alternating which side runs first; "
                 "fit_full_s is the median over rounds.  Evaluations count "
                 "fit_given_decays calls.  perfbench_pairs summarizes alternating "
                 "perfbench/run.py --seconds 40 runs of both sides (odd pairs: parent "
                 "first), one entry per workload, seed and trace setting.  in_process "
                 "holds, per side, the medians over rounds of one evaluation's layer "
                 "times (s1_0 at its fitted decays) and of the six seed-1 fits' time "
                 "and minor page faults in a fresh process."),
        "command": " ".join(["python scripts/bench_newton.py --parent PARENT_CHECKOUT",
                             f"--out {args.out.name}", *(["--pairs DIR ..."] * bool(args.pairs))]),
        "rounds": args.rounds,
        "environment": {"python": sys.version.split()[0], "numpy": np.__version__,
                        "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
                        "blas_threads": 1},
        **combine(sides),
        "in_process": {side: summarize_layers(runs) for side, runs in layers.items()},
        "perfbench_pairs": [summarize_pairs(d) for d in args.pairs],
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["totals"], indent=1))
    print(json.dumps(record["criterion_5"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
