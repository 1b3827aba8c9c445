import hashlib

import numpy as np
import pytest

from blockhawkes import (
    EventSequence,
    ExponentialKernel,
    HawkesModel,
    PowerLawKernel,
    SimConfig,
    SumExpKernel,
    simulate,
    time_rescale,
    ks_exp1,
)
from blockhawkes.errors import InvalidInputError, SimulationTruncatedError, StabilityError

from conftest import BENCH_ALPHA, BENCH_DECAYS, BENCH_MU


def poisson_model(mu=2.0):
    return HawkesModel([mu], SumExpKernel(np.zeros((1, 1, 1)), [1.0]))


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        model = HawkesModel([1.0], SumExpKernel(np.array([[[0.5]]]), [1.0]))
        config = SimConfig(model, 500.0, seed=123)
        a = simulate(config)
        b = simulate(config)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.marks, b.marks)

    def test_outputs_pinned(self):
        # SHA-256 of the times and marks for fixed seeds, one model per
        # simulator state; any change to the thinning draws moves it.
        exponential = ExponentialKernel([[0.3, 0.1], [0.0, 0.4]], [[1.0, 2.0], [1.5, 3.0]])
        cases = [
            (HawkesModel(BENCH_MU, SumExpKernel(BENCH_ALPHA, BENCH_DECAYS)), 20.0, (1, 2)),
            (HawkesModel([0.8, 0.5], exponential), 200.0, (3,)),
            (HawkesModel([1.0], PowerLawKernel([[0.5]], [[1.0]], [[2.0]])), 100.0, (4,)),
        ]
        digest = hashlib.sha256()
        for model, horizon, seeds in cases:
            for seed in seeds:
                seq = simulate(SimConfig(model, horizon, seed=seed))
                digest.update(np.asarray(seq.times, dtype="<f8").tobytes())
                digest.update(np.asarray(seq.marks, dtype="<i8").tobytes())
        expected = "6bcc69568c91460bcd9fa15adeac2e7fe3b15bf61421342e5b95177adb83543e"
        assert digest.hexdigest() == expected

    def test_different_seeds_differ(self):
        model = poisson_model()
        a = simulate(SimConfig(model, 100.0, seed=1))
        b = simulate(SimConfig(model, 100.0, seed=2))
        assert a.times.shape != b.times.shape or not np.array_equal(a.times, b.times)


class TestLaw:
    def test_poisson_count_within_sampling_band(self):
        seq = simulate(SimConfig(poisson_model(mu=2.0), 1000.0, seed=77))
        assert abs(len(seq) - 2000) <= 4 * np.sqrt(2000)

    def test_univariate_stationary_rate(self):
        # mu/(1 - alpha/beta) = 1/(1-0.5) = 2 events per hour
        model = HawkesModel([1.0], SumExpKernel(np.array([[[0.5]]]), [1.0]))
        rates = [
            len(simulate(SimConfig(model, 2000.0, seed=seed))) / 2000.0
            for seed in range(50)
        ]
        assert abs(np.mean(rates) - 2.0) / 2.0 < 0.05

    def test_trivariate_stationary_rate_matches_linear_system(self):
        alpha = np.array([[[0.2, 0.1, 0.0], [0.0, 0.15, 0.2], [0.1, 0.0, 0.1]]])
        decays = np.array([1.0])
        mu = np.array([0.5, 0.4, 0.3])
        model = HawkesModel(mu, SumExpKernel(alpha, decays))
        K = model.kernel.norms()
        expected = np.linalg.solve(np.eye(3) - K, mu)
        counts = np.zeros(3)
        n_seeds = 8
        for seed in range(n_seeds):
            counts += simulate(SimConfig(model, 2000.0, seed=seed)).counts()
        observed = counts / (n_seeds * 2000.0)
        np.testing.assert_allclose(observed, expected, rtol=0.05)

    def test_rescaled_residuals_pass_ks_smoke(self):
        model = HawkesModel([1.0], SumExpKernel(np.array([[[0.6]]]), [1.2]))
        seq = simulate(SimConfig(model, 1500.0, seed=9))
        rescaled = time_rescale(model, seq)[0]
        _, p = ks_exp1(rescaled)
        assert p > 1e-3

    def test_exponential_kernel_path(self):
        model = HawkesModel(
            [0.8, 0.5],
            ExponentialKernel([[0.3, 0.1], [0.0, 0.4]], [[1.0, 2.0], [1.5, 3.0]]),
        )
        K = model.kernel.norms()
        expected = np.linalg.solve(np.eye(2) - K, model.mu)
        counts = np.zeros(2)
        for seed in range(6):
            counts += simulate(SimConfig(model, 1500.0, seed=seed)).counts()
        np.testing.assert_allclose(counts / (6 * 1500.0), expected, rtol=0.07)

    def test_power_law_kernel_path(self):
        model = HawkesModel(
            [1.0], PowerLawKernel([[0.5]], [[1.0]], [[2.0]])
        )
        # norm = 0.5 * 1^{-1} / 1 = 0.5 -> stationary rate 2
        counts = sum(len(simulate(SimConfig(model, 500.0, seed=s))) for s in range(6))
        assert abs(counts / (6 * 500.0) - 2.0) / 2.0 < 0.1


class TestGuards:
    def test_unstable_model_refused(self):
        model = HawkesModel([1.0], SumExpKernel(np.array([[[1.5]]]), [1.0]))
        with pytest.raises(StabilityError):
            simulate(SimConfig(model, 10.0, seed=0))

    def test_unstable_override(self):
        model = HawkesModel([1.0], SumExpKernel(np.array([[[1.5]]]), [1.0]))
        seq = simulate(SimConfig(model, 1.0, seed=0, allow_unstable=True, max_events=50_000))
        assert isinstance(seq, EventSequence)

    def test_truncation_carries_partial_sequence(self):
        with pytest.raises(SimulationTruncatedError) as err:
            simulate(SimConfig(poisson_model(mu=5.0), 1000.0, seed=4, max_events=20))
        partial = err.value.partial
        assert len(partial) == 20
        assert partial.horizon == 1000.0

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            SimConfig(poisson_model(), horizon=0.0, seed=1)
        with pytest.raises(InvalidInputError):
            SimConfig(poisson_model(), horizon=1.0, seed=1, max_events=0)
        with pytest.raises(InvalidInputError):
            SimConfig(poisson_model(), horizon=1.0, seed=-1)
