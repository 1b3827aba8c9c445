"""Run one blockhawkes benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline_cli --seed 1 --seconds 30 --trace 0

``--trace 0`` times untraced passes for ``--seconds`` (at least one pass)
and reports the end-to-end metrics as medians over the passes.
``--trace 1`` alternates untraced and traced passes for ``--seconds`` (at
least one pair) and reports the per-layer metrics as medians over the
traced passes, with the tracing overhead: median traced minus median
untraced pass time.  Every
line but the last is for people; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record, including the environment and, when traced, the spans, goes under
``perfbench/.out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3

# name -> unit; every one is reported with --trace 0
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "ingest_s": "s",
    "fit_s": "s",
    "simulate_s": "s",
    "fit_loglik_gain": "nats",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["pipeline_cli", "roundtrip_trivariate", "recovery_univariate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def pin_blas_threads() -> int:
    """One BLAS thread: steadier timings, and never more than nproc."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return 1


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "blockhawkes" / "__init__.py").is_file():
        print(f"error: no blockhawkes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    blas_threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import numpy as np

    from blockhawkes.errors import DegenerateComponentWarning, StationarityWarning
    import layers
    import tracing
    import workloads

    # Fits far from the optimum warn once per simplex vertex; the counts
    # are in the trace, the text would only flood stderr.
    warnings.simplefilter("ignore", StationarityWarning)
    warnings.simplefilter("ignore", DegenerateComponentWarning)
    import_s = time.perf_counter() - PROCESS_START

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            warm_up(np)
            workload = workloads.make_workload(args.workload, args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)

        # Untraced passes only, or (untraced, traced) pairs, until the next
        # round would overrun --seconds; always at least one round.
        modes = (False, True) if args.trace else (False,)
        passes, walls, tracers = [], {False: [], True: []}, []
        measure_start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for traced in modes:
                t0 = time.perf_counter()
                if traced:
                    tracer = tracing.Tracer(f"{args.workload}-{args.seed}-{len(tracers)}")
                    with tracing.patched(tracer, layers.TRACE_POINTS):
                        result = workload.run_pass(tracer)
                    tracers.append(tracer)
                else:
                    result = workload.run_pass()
                walls[traced].append(time.perf_counter() - t0)
                passes.append(result)
            now = time.perf_counter()
            if now - measure_start + (now - round_start) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for r in passes for p in r.problems]
    notes = sorted({n for r in passes for n in r.notes})
    if any(r.digest != passes[0].digest for r in passes[1:]):
        problems.append("passes over the same inputs gave different results")
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)

    if args.trace == 0:
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "setup_s": import_s + statistics.median(setup_times),
            **{
                stage: statistics.median(r.stages.get(stage, 0.0) for r in passes)
                for stage in ("ingest_s", "fit_s", "simulate_s")
            },
            "fit_loglik_gain": passes[0].loglik_gain,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        per_pass = [layers.per_layer_metrics(t) for t in tracers]
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(walls[True]) - statistics.median(walls[False])
        )
        units = layers.PER_LAYER

    env = environment(blas_threads)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "passes": len(passes),
        "pass_wall_s": walls[False], "traced_pass_wall_s": walls[True],
        "pass_stages_s": [r.stages for r in passes],
        "setup_repeats_s": setup_times, "import_s": import_s,
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "problems": problems, "failed_but_correct": notes,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracers:
        with open(OUT / f"{tag}.spans.jsonl", "w") as fh:
            for tracer in tracers:
                tracer.write_jsonl(fh)

    print(f"{args.workload} seed {args.seed}: {len(walls[False])} untraced and "
          f"{len(walls[True])} traced pass(es), {attempted} operations, {failed} failed")
    print("environment: " + json.dumps(env, sort_keys=True))
    for problem in problems:
        print(f"check failed: {problem}")
    for note in notes:
        print(f"failed operation: {note}")
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def warm_up(np) -> None:
    """Load the lazily imported solver and special-function code once."""
    from blockhawkes import FitConfig, HawkesModel, SimConfig, SumExpKernel
    from blockhawkes import fit_full, gof_report, simulate

    model = HawkesModel([1.0], SumExpKernel(np.array([[[0.5]]]), [1.0]))
    seq = simulate(SimConfig(model, 100.0, seed=0))
    result = fit_full(seq, FitConfig(num_decays=1, decay_init=(1.0,), outer_max_iter=2))
    gof_report(result.model, seq, "hawkes")


if __name__ == "__main__":
    sys.exit(main())
