"""Checks of the benchmark itself, on shrunken workloads.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.pin_blas_threads()

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

SMALL = {
    "pipeline_cli": dict(replicates=1, days=10, window_hours=200.0),
    "roundtrip_trivariate": dict(horizon=8.0),
    "recovery_univariate": dict(replicates=2, horizon=300.0),
}


@pytest.fixture
def workdir(request):
    """Scratch space inside the checkout, removed afterwards."""
    path = HERE / ".out" / "tests" / request.node.name.replace("[", "-").rstrip("]")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


DETERMINISTIC = ("fit.inner_solves", "fit.inner_iterations", "fit.outer_iterations",
                 "sim.events", "ingest.jumps", "events.rows", "gof.residuals")


def traced_pass(name, seed, workdir):
    workload = workloads.make_workload(name, seed, workdir, **SMALL[name])
    tracer = tracing.Tracer(f"{name}-{seed}")
    with tracing.patched(tracer, layers.TRACE_POINTS):
        result = workload.run_pass(tracer)
    return result, layers.per_layer_metrics(tracer)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_for_a_fixed_seed(name, workdir):
    first, m1 = traced_pass(name, 5, workdir / "a")
    second, m2 = traced_pass(name, 5, workdir / "b")
    assert first.problems == [] and second.problems == []
    assert first.digest == second.digest
    assert {k: m1[k] for k in DETERMINISTIC} == {k: m2[k] for k in DETERMINISTIC}
    assert m1["fit.inner_solves"] > 0 and m1["sim.events"] > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_changes_no_result(name, workdir):
    untraced = workloads.make_workload(name, 3, workdir / "u", **SMALL[name]).run_pass()
    traced, _ = traced_pass(name, 3, workdir / "t")
    assert untraced.digest == traced.digest


@pytest.mark.parametrize("name", sorted(SMALL))
def test_seed_decides_the_inputs(name, workdir):
    def inputs(seed, sub):
        return workloads.make_workload(name, seed, workdir / sub, **SMALL[name]).inputs()

    assert inputs(1, "a") == inputs(1, "b")
    assert inputs(1, "a") != inputs(2, "c")


def test_self_time_subtracts_children():
    tracer = tracing.Tracer("t")
    tracer.spans = [
        tracing.Span("fit.fit_full", 0.0, 10.0, None, "t"),
        tracing.Span("fit.inner_solve", 1.0, 4.0, 0, "t"),
        tracing.Span("fit.inner_solve", 5.0, 9.0, 0, "t"),
    ]
    inclusive, own = tracer.totals()
    assert inclusive == {"fit.fit_full": 10.0, "fit.inner_solve": 7.0}
    assert own == {"fit.fit_full": 3.0, "fit.inner_solve": 7.0}


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
