"""The three benchmark workloads: input generation, one timed pass, checks.

Every workload is a closed loop driven from this process: each call into
blockhawkes starts when the previous one has returned.  Inputs come only
from the ``seed`` passed to :func:`make_workload`; the same seed gives the
same inputs and, the code being deterministic, the same counts.

A pass returns its end-to-end stage times, the operations it attempted,
the ones that failed (raised, exited non-zero, reported ``converged=False``
or ended below the generating model's log-likelihood) and any output check
that did not hold.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from blockhawkes import cli, core, events, fit, gof, sim
from blockhawkes.errors import HawkesError
from blockhawkes.kernels import SumExpKernel

# Published trivariate parameters (block arrivals / up jumps / down jumps),
# the configuration of acceptance criterion 5.
BENCH_ALPHA = np.array(
    [
        [[1.377, 1.635, 1.615], [0.244, 0.118, 0.558], [0.326, 0.497, 0.096]],
        [[1.526, 0.0, 0.215], [0.0, 0.0, 2.131], [0.0, 0.147, 0.0]],
        [[0.02, 0.0, 0.0], [0.0, 0.0, 1.357], [0.0, 0.0, 1.383]],
    ]
)
BENCH_DECAYS = np.array([2.340, 15.730, 21.875])
BENCH_MU = np.array([3.0, 1.0, 1.0])

LOGLIK_SLACK = 1e-6  # relative slack of the "fit >= generating model" check


def sub_seed(seed: int, *path: int) -> int:
    """Independent child seed for replicate ``path`` of master ``seed``."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0])


@dataclass
class PassResult:
    """What one pass measured and checked."""

    stages: dict = field(default_factory=dict)   # end-to-end seconds per stage
    loglik_gain: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # output checks that did not hold
    notes: list = field(default_factory=list)     # failed operations whose output is correct
    digest: list = field(default_factory=list)    # deterministic outputs, for comparing passes

    def add_stage(self, name: str, seconds: float) -> None:
        self.stages[name] = self.stages.get(name, 0.0) + seconds

    def op(self, ok: bool, problem: str | None = None) -> None:
        self.attempted += 1
        self.failed += not ok
        if problem:
            self.problems.append(problem)


@contextmanager
def _timed(out: PassResult, stage: str):
    start = time.perf_counter()
    try:
        yield
    finally:
        out.add_stage(stage, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Library workloads: simulate -> events CSV round trip -> fit_full -> gof
# ---------------------------------------------------------------------------

class LibraryWorkload:
    """Replicates of one known model, each simulated, reloaded, fitted and checked."""

    def __init__(self, name, model, horizon, replicates, fit_config, seed, workdir):
        self.model = model
        self.horizon = horizon
        self.fit_config = fit_config
        Path(workdir).mkdir(parents=True, exist_ok=True)
        self.replicates = [
            (sub_seed(seed, k), Path(workdir) / f"{name}_{k}.csv") for k in range(replicates)
        ]

    def inputs(self) -> list:
        return [seed for seed, _ in self.replicates]

    def run_pass(self, tracer=None) -> PassResult:
        out = PassResult()
        for seed, path in self.replicates:
            self._replicate(seed, path, out)
        return out

    def _replicate(self, seed: int, path: Path, out: PassResult) -> None:
        m = self.model.dim
        try:
            with _timed(out, "simulate_s"):
                seq = sim.simulate(sim.SimConfig(self.model, self.horizon, seed=seed))
        except HawkesError as exc:
            out.op(False, f"simulate seed {seed}: {exc}")
            return
        out.op(len(seq) > 0, None if len(seq) else f"simulate seed {seed}: no events")

        try:
            with _timed(out, "ingest_s"):
                events.write_events_csv(seq, path)
                data = events.read_events_csv(path, horizon=self.horizon, dim=m)
        except HawkesError as exc:
            out.op(False, f"events CSV round trip seed {seed}: {exc}")
            return
        same = (
            len(data) == len(seq)
            and np.array_equal(data.marks, seq.marks)
            and np.allclose(data.times, seq.times, rtol=1e-11, atol=0.0)
        )
        out.op(same, None if same else f"events CSV round trip seed {seed} changed the data")

        try:
            with _timed(out, "fit_s"):
                result = fit.fit_full(data, self.fit_config)
        except HawkesError as exc:
            out.op(False, f"fit_full seed {seed}: {exc}")
            return
        baseline = fit.fit_poisson(data)
        true_ll = core.log_likelihood(self.model, data)
        below = result.log_lik < true_ll - LOGLIK_SLACK * abs(true_ll)
        out.op(result.converged and not below,
               f"fit_full seed {seed}: log-lik {result.log_lik:.6f} below the "
               f"generating model's {true_ll:.6f}" if below else None)
        if not result.converged:
            out.notes.append(f"fit_full seed {seed}: converged=False")
        out.loglik_gain += result.log_lik - baseline.log_lik
        out.digest.append((len(data), result.log_lik, result.outer_iterations))

        for model, label in ((result.model, "hawkes"), (baseline.to_hawkes_model(), "poisson")):
            try:
                report = gof.gof_report(model, data, label)
            except HawkesError as exc:
                out.op(False, f"gof_report {label} seed {seed}: {exc}")
                continue
            ok = len(report.components) == m
            out.op(ok, None if ok else f"gof_report {label} seed {seed}: "
                                      f"{len(report.components)} components for dim {m}")


def roundtrip_trivariate(seed: int, workdir, horizon: float = 120.0, replicates: int = 1):
    model = core.HawkesModel(BENCH_MU, SumExpKernel(BENCH_ALPHA, BENCH_DECAYS))
    return LibraryWorkload("roundtrip_trivariate", model, horizon, replicates,
                           fit.FitConfig(), seed, workdir)


def recovery_univariate(seed: int, workdir, horizon: float = 3333.0, replicates: int = 10):
    model = core.HawkesModel([1.0], SumExpKernel(np.array([[[0.8]]]), [1.2]))
    return LibraryWorkload("recovery_univariate", model, horizon, replicates,
                           fit.FitConfig(num_decays=1, decay_init=(0.5,)), seed, workdir)


# ---------------------------------------------------------------------------
# CLI pipeline on synthetic raw exports
# ---------------------------------------------------------------------------

START = datetime(2022, 1, 1, tzinfo=timezone.utc)


def _cluster_process(rng, mu, norm, decay, horizon):
    """Self-exciting arrival times by the branching construction (hours)."""
    generation = rng.uniform(0.0, horizon, rng.poisson(mu * horizon))
    times = [generation]
    while generation.size:
        kids = rng.poisson(norm, generation.size)
        parents = np.repeat(generation, kids)
        generation = parents + rng.exponential(1.0 / decay, parents.size)
        generation = generation[generation <= horizon]
        times.append(generation)
    return np.sort(np.concatenate(times))


def _stamp(dt: datetime) -> str:
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


class _Exports:
    """One synthetic raw export pair (blocks, prices) and its pipeline outputs."""

    def __init__(self, directory: Path, seed: int, days: int):
        self.dir = directory
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        horizon = days * 24.0
        # Blocks: ~6 per hour, mildly self-exciting, second-precision stamps.
        hours = _cluster_process(rng, 4.5, 0.25, 8.0, horizon)
        stamps = [START + timedelta(seconds=int(h * 3600.0)) for h in hours]
        tx = rng.integers(800, 3200, len(stamps))
        rows = [[720000 + k, _stamp(s), int(c)] for k, (s, c) in enumerate(zip(stamps, tx))]
        # Timestamp defects as on the real chain: duplicated stamps carrying
        # fewer transactions, and neighbours swapped out of order.
        dupes = np.sort(rng.choice(len(rows), len(rows) // 200, replace=False))[::-1]
        for d, k in enumerate(dupes):
            rows.insert(k + 1, [900000 + d, rows[k][1], max(rows[k][2] - 250, 0)])
        self.injected_duplicates = len(dupes)
        for k in rng.choice(len(rows) - 1, len(rows) // 100, replace=False):
            rows[k], rows[k + 1] = rows[k + 1], rows[k]
        with open(self.dir / "blocks_raw.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["height", "timestamp", "tx_count"])
            writer.writerows(rows)

        # Five-minute VWAP bars with clustered volatility (AR(1) log-vol).
        n_bars = days * 24 * 12
        shocks = rng.normal(0.0, 0.28, n_bars)
        log_vol = np.empty(n_bars)
        level = 0.0
        for k in range(n_bars):
            level = 0.97 * level + shocks[k]
            log_vol[k] = level
        prices = 42_000.0 * np.exp(np.cumsum(np.exp(log_vol) * rng.normal(0.0, 8e-4, n_bars)))
        with open(self.dir / "price.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "vwap"])
            for k, p in enumerate(prices):
                writer.writerow([_stamp(START + timedelta(minutes=5 * (k + 1))), repr(float(p))])
        self.sim_seed = int(rng.integers(2**63))


class PipelineWorkload:
    """``clean-blocks -> build-events -> fit -> gof -> simulate`` through ``cli.main``,
    on ``replicates`` independent export pairs."""

    def __init__(self, seed: int, workdir, replicates: int = 6, days: int = 60,
                 window_hours: float = 1416.0):
        end = START + timedelta(days=days)
        self.window = (_stamp(end - timedelta(hours=window_hours)), _stamp(end))
        self.window_hours = window_hours
        self.exports = [
            _Exports(Path(workdir) / f"pipeline_{k}", sub_seed(seed, k), days)
            for k in range(replicates)
        ]

    def inputs(self) -> list:
        return [(e.dir / name).read_bytes() for e in self.exports
                for name in ("blocks_raw.csv", "price.csv")]

    def _cli(self, out: PassResult, tracer, stage, argv) -> bool:
        span = tracer.span(f"cli.{argv[0]}") if tracer is not None else nullcontext()
        with _timed(out, stage), span:
            try:
                with redirect_stdout(io.StringIO()):
                    code = cli.main([str(a) for a in argv])
            except Exception as exc:  # a crash is a failed operation, not a benchmark abort
                out.op(False, f"{argv[0]} raised {type(exc).__name__}: {exc}")
                return False
        out.op(code == 0, None if code == 0 else f"{argv[0]} exited {code}")
        return code == 0

    def run_pass(self, tracer=None) -> PassResult:
        out = PassResult()
        for exports in self.exports:
            self._pipeline(exports, out, tracer)
        return out

    def _pipeline(self, e: _Exports, out: PassResult, tracer) -> None:
        d = e.dir
        horizon = ["--horizon", self.window_hours, "--dim", 3]
        steps = [
            ("ingest_s", ["clean-blocks", d / "blocks_raw.csv", d / "blocks.csv", d / "clean.json"]),
            ("ingest_s", ["build-events", d / "blocks.csv", d / "price.csv", d / "events.csv",
                          "--start", self.window[0], "--end", self.window[1]]),
            ("fit_s", ["fit", d / "events.csv", d / "fit.json", "--poisson-baseline", *horizon]),
            ("gof_s", ["gof", d / "events.csv", d / "fit.json", d / "gof.json", d / "qq.csv",
                       *horizon]),
            ("simulate_s", ["simulate", d / "fit.json", d / "sim.csv",
                            "--horizon", self.window_hours, "--seed", e.sim_seed]),
        ]
        for stage, argv in steps:
            if not self._cli(out, tracer, stage, argv):
                return
        self._check_outputs(e, out)

    def _check_outputs(self, e: _Exports, out: PassResult) -> None:
        d = e.dir
        problems = []
        cleaning = json.loads((d / "clean.json").read_text())["counts"]
        if cleaning["duplicates_dropped"] < e.injected_duplicates:
            problems.append(f"clean-blocks dropped {cleaning['duplicates_dropped']} "
                            f"duplicates, {e.injected_duplicates} were injected")
        doc = json.loads((d / "fit.json").read_text())
        data = events.read_events_csv(d / "events.csv", horizon=self.window_hours, dim=3)
        recomputed = core.log_likelihood(fit.model_from_dict(doc), data)
        if not math.isclose(recomputed, doc["log_lik"], rel_tol=1e-9):
            problems.append(f"fit log_lik {doc['log_lik']} but the model scores {recomputed}")
        if doc["log_lik"] < doc["poisson"]["log_lik"]:
            problems.append("fit log_lik below the Poisson baseline")
        rho = core.spectral_radius(np.array(doc["kernel_norms"]))
        if not rho < 1.0:
            problems.append(f"fitted spectral radius {rho:.4f} >= 1")
        report = json.loads((d / "gof.json").read_text())
        live = [c for c in report["components"] if not c["degenerate"]]
        if len(live) != 3:
            problems.append(f"gof has {len(live)} non-degenerate components, want 3")
        simulated = events.read_events_csv(d / "sim.csv", horizon=self.window_hours, dim=3)
        if len(simulated) == 0 or simulated.marks.min() < 1 or simulated.marks.max() > 3:
            problems.append("simulated marks outside 1..3")
        # The fit counts as a failed operation when it reports
        # non-convergence; its outputs are checked all the same.
        out.attempted += 1
        out.failed += bool(problems) or not doc["converged"]
        out.problems.extend(f"{d.name}: {p}" for p in problems)
        if not doc["converged"]:
            out.notes.append(f"{d.name}: fit converged=False")
        out.loglik_gain += doc["log_lik"] - doc["poisson"]["log_lik"]
        out.digest.append((len(data), doc["log_lik"], doc["iterations"]["outer"], len(simulated)))


WORKLOADS = {
    "pipeline_cli": PipelineWorkload,
    "roundtrip_trivariate": roundtrip_trivariate,
    "recovery_univariate": recovery_univariate,
}


def make_workload(name: str, seed: int, workdir, **sizes):
    return WORKLOADS[name](seed, workdir, **sizes)
