"""Shared fixtures: benchmark models, random generators, cleaning fixtures."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from blockhawkes import EventSequence, HawkesModel, SumExpKernel
from blockhawkes.events import EPOCH
from blockhawkes.ingest import BLOCKS_CSV_DTYPE

# Benchmark trivariate configuration (block arrivals / up jumps / down jumps)
# used across estimation and goodness-of-fit tests.
BENCH_ALPHA = np.array(
    [
        [[1.377, 1.635, 1.615], [0.244, 0.118, 0.558], [0.326, 0.497, 0.096]],
        [[1.526, 0.0, 0.215], [0.0, 0.0, 2.131], [0.0, 0.147, 0.0]],
        [[0.02, 0.0, 0.0], [0.0, 0.0, 1.357], [0.0, 0.0, 1.383]],
    ]
)
BENCH_DECAYS = np.array([2.340, 15.730, 21.875])
BENCH_MU = np.array([3.0, 1.0, 1.0])


@pytest.fixture
def bench_model():
    return HawkesModel(BENCH_MU, SumExpKernel(BENCH_ALPHA, BENCH_DECAYS))


def random_sumexp_model(rng, dim=3, num_decays=2, max_norm=0.8):
    """Random stable sum-of-exponentials model."""
    decays = np.sort(rng.uniform(0.3, 20.0, num_decays))
    while np.any(np.diff(decays) < 1e-3):
        decays = np.sort(rng.uniform(0.3, 20.0, num_decays))
    alpha = rng.uniform(0.0, 1.0, (num_decays, dim, dim))
    norms = np.tensordot(1.0 / decays, alpha, axes=(0, 0))
    rho = np.max(np.abs(np.linalg.eigvals(norms)))
    target = rng.uniform(0.2, max_norm)
    alpha *= target / rho
    mu = rng.uniform(0.3, 2.0, dim)
    return HawkesModel(mu, SumExpKernel(alpha, decays))


def random_sequence(rng, dim=3, n=200, horizon=100.0):
    """Sequence of uniform random event times (not from any Hawkes law);
    fine for exercising deterministic evaluation code."""
    times = np.sort(rng.uniform(0.0, horizon, n))
    marks = rng.integers(1, dim + 1, n)
    return EventSequence(times, marks, horizon, dim)


def tied_sequence(rng, dim, n, step=0.5):
    """Events on a grid of ``step`` that includes 0, so most draws hold tie
    groups, some across several components, and events at the window start."""
    times = rng.integers(0, max(2, n // 3), n) * step
    marks = rng.integers(1, dim + 1, n)
    keep = np.unique(np.column_stack((times, marks)), axis=0, return_index=True)[1]
    return EventSequence(times[keep], marks[keep], times.max(initial=0.0) + step, dim)


def table(dtype, rows):
    """Structured ingest array of ``dtype`` from rows of cells; datetime
    cells become int64 UTC microseconds since the epoch."""
    def cell(value):
        if isinstance(value, datetime):
            return (value - EPOCH) // timedelta(microseconds=1)
        return value
    return np.array([tuple(map(cell, row)) for row in rows], dtype=dtype)


def messy_block_fixture():
    """Block array with 2 duplicate-timestamp pairs and 7 adjacent swaps.

    The swaps disorder exactly 14 records (two per swap); the duplicate
    extras carry fewer transactions than their partners, so cleaning must
    drop exactly the two extras and report 14 reordered records.
    """
    t0 = datetime(2022, 1, 20, 9, 0, 0, tzinfo=timezone.utc)
    blocks = [(719500 + k, t0 + timedelta(minutes=k), 1000 + 7 * k) for k in range(40)]
    for k in (8, 11, 14, 25, 28, 31, 34):  # disjoint adjacent swaps
        blocks[k], blocks[k + 1] = blocks[k + 1], blocks[k]
    dup_a = (719601, blocks[5][1], blocks[5][2] - 50)
    dup_b = (719701, blocks[20][1], blocks[20][2] - 10)
    rows = blocks[:6] + [dup_a] + blocks[6:21] + [dup_b] + blocks[21:]
    return table(BLOCKS_CSV_DTYPE, rows)
