"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here, not configurable.
"""

import time

import numpy as np

from blockhawkes import (
    ExponentialKernel,
    HawkesModel,
    JumpConfig,
    SimConfig,
    SumExpKernel,
    clean_blocks,
    compensator,
    compensator_quadrature,
    extract_jumps,
    fit_full,
    fit_poisson,
    gof_report,
    intensity_naive,
    intensity_recursive,
    kernel_norms,
    ks_exp1,
    log_likelihood,
    loglik_and_grad,
    qq_exponential,
    simulate,
    slope_deviation,
    time_rescale,
)
from blockhawkes.errors import SimulationTruncatedError
from blockhawkes.fit import FitConfig
from blockhawkes.ingest import RETURNS_DTYPE

from conftest import (
    BENCH_ALPHA,
    BENCH_DECAYS,
    BENCH_MU,
    messy_block_fixture,
    random_sumexp_model,
    table,
)

from datetime import timedelta, timezone, datetime

T0 = datetime(2022, 2, 1, 0, 0, 0, tzinfo=timezone.utc)


def _report(criterion, ok, detail):
    print(f"\n[acceptance {criterion:>2}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def _simulate_capped(model, horizon, seed, cap=2000):
    try:
        return simulate(SimConfig(model, horizon, seed=seed, max_events=cap))
    except SimulationTruncatedError as err:
        return err.partial


def test_criterion_1_recursion_matches_naive():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    total_events = 0
    for trial in range(100):
        model = random_sumexp_model(rng, dim=3, num_decays=int(rng.integers(1, 4)))
        rate = float(np.sum(np.linalg.solve(np.eye(3) - model.kernel.norms(), model.mu)))
        target_n = int(rng.integers(100, 1500))
        seq = _simulate_capped(model, target_n / rate, seed=trial)
        assert len(seq) <= 2000
        total_events += len(seq)
        lambdas, _ = intensity_recursive(model, seq)
        naive = np.array(
            [intensity_naive(model, seq, int(d), float(t)) for t, d in zip(seq.times, seq.marks)]
        )
        if len(seq):
            worst = max(worst, float(np.max(np.abs(lambdas - naive) / (1.0 + np.abs(naive)))))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    _report(1, ok, f"100 models, {total_events} events, worst rel err {worst:.2e}, {elapsed:.1f}s (<30s)")


def test_criterion_2_compensator_closed_forms_match_quadrature():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    worst = 0.0
    for trial in range(50):
        if trial % 2 == 0:
            model = random_sumexp_model(rng, dim=2, num_decays=int(rng.integers(1, 4)))
        else:
            alpha = rng.uniform(0.0, 0.6, (2, 2))
            beta = rng.uniform(0.5, 5.0, (2, 2))
            norms = alpha / beta
            rho = np.max(np.abs(np.linalg.eigvals(norms)))
            alpha *= rng.uniform(0.2, 0.8) / max(rho, 1e-12)
            model = HawkesModel(rng.uniform(0.3, 1.5, 2), ExponentialKernel(alpha, beta))
        rate = float(np.sum(np.linalg.solve(np.eye(2) - model.kernel.norms(), model.mu)))
        seq = _simulate_capped(model, 80.0 / rate, seed=1000 + trial, cap=400)
        checks = [(1, seq.horizon), (2, seq.horizon), (1 + trial % 2, 0.5 * seq.horizon)]
        for i, t in checks:
            cf = compensator(model, seq, i, t)
            quad = compensator_quadrature(model, seq, i, t)
            if quad > 0:
                worst = max(worst, abs(cf - quad) / abs(quad))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(2, ok, f"50 models, worst rel err {worst:.2e}, {elapsed:.1f}s (<60s)")


def test_criterion_3_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(303)
    gen = random_sumexp_model(rng, dim=3, num_decays=2)
    rate = float(np.sum(np.linalg.solve(np.eye(3) - gen.kernel.norms(), gen.mu)))
    seq = _simulate_capped(gen, 200.0 / rate, seed=33, cap=220)
    assert 150 <= len(seq) <= 220
    decays = np.array([0.7, 5.0])
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        mu = rng.uniform(0.2, 2.0, 3)
        alpha = rng.uniform(0.05, 0.8, (2, 3, 3))
        _, dmu, dalpha = loglik_and_grad(seq, decays, mu, alpha)

        def l_of(mu_, alpha_):
            return log_likelihood(HawkesModel(mu_, SumExpKernel(alpha_, decays)), seq)

        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (l_of(mu + e, alpha) - l_of(mu - e, alpha)) / (2 * h)
            worst = max(worst, abs(dmu[i] - fd) / (1.0 + abs(fd)))
        for idx in np.ndindex(2, 3, 3):
            e = np.zeros((2, 3, 3))
            e[idx] = h
            fd = (l_of(mu, alpha + e) - l_of(mu, alpha - e)) / (2 * h)
            worst = max(worst, abs(dalpha[idx] - fd) / (1.0 + abs(fd)))
    ok = worst <= 1e-4
    _report(3, ok, f"20 random points on n={len(seq)} events, worst rel err {worst:.2e}")


def test_criterion_4_univariate_parameter_recovery():
    truth = dict(mu=1.0, alpha=0.8, beta=1.2)
    model = HawkesModel([truth["mu"]], SumExpKernel(np.array([[[truth["alpha"]]]]), [truth["beta"]]))
    horizon = 3333.0  # stationary rate 3/h -> about 10000 events
    start = time.monotonic()
    hits = 0
    errs = []
    for seed in range(10):
        seq = simulate(SimConfig(model, horizon, seed=seed))
        result = fit_full(seq, FitConfig(num_decays=1, decay_init=(0.5,)))
        k = result.model.kernel
        rel = (
            abs(result.model.mu[0] - truth["mu"]) / truth["mu"],
            abs(k.alpha[0, 0, 0] - truth["alpha"]) / truth["alpha"],
            abs(k.decays[0] - truth["beta"]) / truth["beta"],
        )
        errs.append(max(rel))
        hits += all(r <= 0.15 for r in rel)
    elapsed = time.monotonic() - start
    ok = hits >= 8 and elapsed < 300.0
    _report(4, ok, f"{hits}/10 seeds within 15% (worst rel err per seed, median "
                   f"{np.median(errs):.3f}), {elapsed:.0f}s (<300s)")


def test_criterion_5_published_parameter_round_trip():
    model = HawkesModel(BENCH_MU, SumExpKernel(BENCH_ALPHA, BENCH_DECAYS))
    K = model.kernel.norms()
    implied = np.linalg.solve(np.eye(3) - K, BENCH_MU)
    start = time.monotonic()
    seq = simulate(SimConfig(model, 480.0, seed=1))
    assert len(seq) >= 20000
    result = fit_full(seq)  # default config: decay search starts at (0.5, 5, 50)
    err = float(np.max(np.abs(result.kernel_norm_matrix - K)))
    elapsed = time.monotonic() - start
    ok = err <= 0.1
    _report(5, ok, f"n={len(seq)}, implied rates {implied.round(1)}/h, "
                   f"max |norm err| {err:.4f} (<=0.1), {elapsed:.0f}s")


def test_criterion_6_time_rescaling_law():
    model = HawkesModel([1.0], SumExpKernel(np.array([[[0.5]]]), [1.0]))
    passed = 0
    for seed in range(100):
        seq = simulate(SimConfig(model, 250.0, seed=seed))
        rescaled = time_rescale(model, seq)[0]
        _, p = ks_exp1(rescaled)
        passed += p > 0.01
    long_seq = simulate(SimConfig(model, 1200.0, seed=9999))
    rescaled = time_rescale(model, long_seq)[0]
    assert rescaled.size >= 2000
    dev = slope_deviation(qq_exponential(rescaled))
    ok = passed >= 95 and dev < 0.05
    _report(6, ok, f"KS passed {passed}/100 seeds (need >=95); slope dev {dev:.4f} "
                   f"at n={rescaled.size} (<0.05)")


def test_criterion_7_hawkes_beats_poisson_on_clustered_data():
    truth = HawkesModel([1.0], SumExpKernel(np.array([[[0.6]]]), [1.0]))
    wins = 0
    start = time.monotonic()
    for seed in range(100):
        seq = simulate(SimConfig(truth, 400.0, seed=seed))
        hawkes_fit = fit_full(seq, FitConfig(num_decays=1, decay_init=(1.0,)))
        poisson_view = fit_poisson(seq).to_hawkes_model()
        dev_h = gof_report(hawkes_fit.model, seq, "hawkes").components[0].slope_deviation
        dev_p = gof_report(poisson_view, seq, "poisson").components[0].slope_deviation
        wins += dev_h < dev_p
    elapsed = time.monotonic() - start
    ok = wins >= 90
    _report(7, ok, f"hawkes fit beat poisson fit in {wins}/100 trials (need >=90), {elapsed:.0f}s")


def test_criterion_8_kernel_norm_arithmetic():
    model = HawkesModel(BENCH_MU, SumExpKernel(BENCH_ALPHA, BENCH_DECAYS))
    norms = kernel_norms(model)
    # independent arithmetic oracle: plain loops over sum alpha^u_ij / beta^u
    oracle = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            for u in range(3):
                oracle[i, j] += BENCH_ALPHA[u, i, j] / BENCH_DECAYS[u]
    exact = float(np.max(np.abs(norms - oracle)))
    spot_11 = abs(norms[0, 0] - 0.686) < 5e-4
    spot_23 = abs(norms[1, 2] - 0.436) < 5e-4
    off = {(i + 1, j + 1): norms[i, j] for i in range(3) for j in range(3) if i != j}
    top4 = {pair for pair, _ in sorted(off.items(), key=lambda kv: -kv[1])[:4]}
    ordering = top4 == {(1, 2), (1, 3), (2, 3), (3, 2)}
    ok = exact <= 1e-12 and spot_11 and spot_23 and ordering
    _report(8, ok, f"oracle match {exact:.1e} (<=1e-12); (1,1)={norms[0,0]:.4f}, "
                   f"(2,3)={norms[1,2]:.4f}; top off-diagonals {sorted(top4)}")


def test_criterion_9_cleaning_fixture():
    rows = messy_block_fixture()
    cleaned, report = clean_blocks(rows)
    counts = report.counts()
    increasing = bool(np.all(np.diff(cleaned["timestamp"]) > 0))
    again, rerun_report = clean_blocks(cleaned)
    idempotent = np.array_equal(again, cleaned) and rerun_report.counts()["duplicates_dropped"] == 0 \
        and rerun_report.counts()["reordered"] == 0
    ok = counts["duplicates_dropped"] == 2 and counts["reordered"] == 14 and increasing and idempotent
    _report(9, ok, f"counts {counts}, strictly increasing {increasing}, idempotent {idempotent}")


def test_criterion_10_jump_flagging_rate():
    rng = np.random.default_rng(404)
    n = 50_000
    values = rng.normal(0.0, 1e-3, n)
    returns = table(RETURNS_DTYPE, [(T0 + timedelta(minutes=5 * k), float(v))
                                    for k, v in enumerate(values)])
    up, down = extract_jumps(returns, JumpConfig())
    fraction = (len(up) + len(down)) / n
    ok = abs(fraction - 0.20) <= 0.03
    _report(10, ok, f"flagged fraction {fraction:.4f} (target 0.20 +/- 0.03) on {n} iid returns")
