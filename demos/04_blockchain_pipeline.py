# =============================================================================
# End-to-end blockchain pipeline on synthetic raw files
#
# Recreates the full workflow against self-generated "raw" exports, so it
# runs offline:
#
#   blocks.csv  (with injected timestamp errors)      price.csv (5-min VWAP)
#        |                                                 |
#   clean_blocks                              log_returns + extract_jumps
#        `------------------ build_trivariate ------------------'
#                                  |
#                  fit_full (sum-of-exponentials kernel)
#                                  |
#              gof_report: Hawkes fit vs Poisson baseline
#
# Every step has a CLI twin (shown in comments): the same run works as
#   blockhawkes clean-blocks / build-events / fit / gof
#
# Run:  python demos/04_blockchain_pipeline.py
# =============================================================================

import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from blockhawkes import (
    FitConfig,
    HawkesModel,
    SimConfig,
    SumExpKernel,
    build_trivariate,
    clean_blocks,
    extract_jumps,
    fit_full,
    fit_poisson,
    gof_report,
    log_returns,
    simulate,
)
from blockhawkes.ingest import (
    BLOCKS_CSV_DTYPE,
    PRICE_CSV_DTYPE,
    read_blocks_csv,
    timestamp_us,
    write_blocks_csv,
)

rng = np.random.default_rng(99)
START = datetime(2022, 2, 1, tzinfo=timezone.utc)
DAYS = 14

# -----------------------------------------------------------------------------
# 1. Fabricate raw inputs
# -----------------------------------------------------------------------------
# Block arrivals: a self-exciting stream around one block per 10 minutes,
# then classic timestamp defects are injected: a duplicated timestamp (the
# lower-transaction copy must be dropped) and out-of-order stamps (miners
# fudging the clock).  Stamps are second-precision, so a couple of extra
# duplicate collisions arise naturally, exactly as on the real chain.
# Ingest works on numpy structured arrays whose timestamps are int64 UTC
# microseconds since the Unix epoch.
horizon_h = DAYS * 24.0
block_model = HawkesModel([4.5], SumExpKernel(np.array([[[2.0]]]), [8.0]))  # rate 6/h
block_times = simulate(SimConfig(block_model, horizon_h, seed=11)).times
start_us = timestamp_us(START.isoformat())

blocks = np.empty(block_times.size, dtype=BLOCKS_CSV_DTYPE)
blocks["height"] = 720000 + np.arange(block_times.size)
blocks["timestamp"] = start_us + (block_times * 3600.0).astype(np.int64) * 1_000_000
blocks["tx_count"] = rng.integers(800, 3200, block_times.size)
dupe = blocks[40].copy()  # same stamp, fewer transactions: must be dropped
dupe["height"], dupe["tx_count"] = 729999, dupe["tx_count"] - 250
blocks = np.insert(blocks, 41, dupe)
for k in (100, 300, 500):  # swap neighbours -> out-of-order stamps
    blocks[[k, k + 1]] = blocks[[k + 1, k]]

# Price bars: geometric walk with slowly varying volatility (AR(1) log-vol),
# so extreme returns arrive in bursts -- the clustering the Hawkes jump
# components are meant to capture.
n_bars = DAYS * 24 * 12
log_vol = np.zeros(n_bars)
for k in range(1, n_bars):
    log_vol[k] = 0.97 * log_vol[k - 1] + rng.normal(0.0, 0.28)
returns_raw = np.exp(log_vol) * rng.normal(0.0, 8e-4, n_bars)
prices = 42_000.0 * np.exp(np.cumsum(returns_raw))
bars = np.empty(n_bars, dtype=PRICE_CSV_DTYPE)
bars["timestamp"] = start_us + 300_000_000 * np.arange(1, n_bars + 1)
bars["vwap"] = prices

with tempfile.TemporaryDirectory(prefix="blockhawkes_demo_") as workdir:
    raw_csv = Path(workdir) / "blocks_raw.csv"
    write_blocks_csv(blocks, raw_csv)
    raw_blocks = read_blocks_csv(raw_csv)
print(f"raw blocks written to and read back from {raw_csv}")

# -----------------------------------------------------------------------------
# 2. Clean the block stream
#    CLI: blockhawkes clean-blocks blocks_raw.csv blocks_clean.csv report.json
# -----------------------------------------------------------------------------
cleaned, report = clean_blocks(raw_blocks)
print("\ncleaning report:", report.counts())
assert np.all(np.diff(cleaned["timestamp"]) > 0)

# -----------------------------------------------------------------------------
# 3. Price jumps from rolling-quantile thresholds (3 h window, 10%/90%)
#    CLI: blockhawkes build-events blocks_clean.csv price.csv events.csv
# -----------------------------------------------------------------------------
returns, gaps = log_returns(bars)
up, down = extract_jumps(returns)
print(f"\n{len(returns)} returns -> {len(up)} upward and {len(down)} downward jump events "
      f"({len(gaps)} grid gaps)")

window = (start_us, timestamp_us((START + timedelta(days=DAYS)).isoformat()))
seq, dropped = build_trivariate(cleaned["timestamp"], up, down, window)
counts = seq.counts()
print(f"trivariate sequence: {counts[0]} blocks, {counts[1]} up jumps, "
      f"{counts[2]} down jumps over {seq.horizon:.0f} h ({dropped} outside window)")

# -----------------------------------------------------------------------------
# 4. Fit the trivariate model
#    CLI: blockhawkes fit events.csv fit.json --num-decays 2 --decay-init 0.5,8
# -----------------------------------------------------------------------------
config = FitConfig(num_decays=2, decay_init=(0.5, 8.0), outer_max_iter=60)
result = fit_full(seq, config)
print(f"\nfit: log_lik={result.log_lik:.1f}, converged={result.converged}, "
      f"decays={np.round(result.model.kernel.decays, 3)}")
print("kernel norms (row = receiving component; B, P_u, P_d):")
print(np.round(result.kernel_norm_matrix, 3))

# -----------------------------------------------------------------------------
# 5. Hawkes fit vs Poisson baseline through the time-rescaling lens
#    CLI: blockhawkes gof events.csv fit.json gof.json qq.csv
# -----------------------------------------------------------------------------
poisson_view = fit_poisson(seq).to_hawkes_model()
hawkes_rep = gof_report(result.model, seq, "hawkes")
poisson_rep = gof_report(poisson_view, seq, "poisson")

print(f"\n{'component':>10} {'hawkes slope dev':>18} {'poisson slope dev':>19}")
names = ["B", "P_u", "P_d"]
wins = 0
for h, p, name in zip(hawkes_rep.components, poisson_rep.components, names):
    wins += h.slope_deviation < p.slope_deviation
    print(f"{name:>10} {h.slope_deviation:>18.4f} {p.slope_deviation:>19.4f}")

print(f"\nthe self-exciting fit beats the memoryless baseline on {wins}/3")
print("components: blocks are self-exciting by construction and the")
print("volatility bursts make jump events cluster, which Poisson cannot absorb.")
