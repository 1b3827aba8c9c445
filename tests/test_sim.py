import hashlib
import re

import numpy as np
import pytest
from scipy.stats import ks_2samp

from blockhawkes import (
    EventSequence,
    ExponentialKernel,
    HawkesModel,
    SimConfig,
    SumExpKernel,
    simulate,
    time_rescale,
    ks_exp1,
)
from blockhawkes.errors import InvalidInputError, SimulationTruncatedError, StabilityError

from conftest import BENCH_ALPHA, BENCH_DECAYS, BENCH_MU
from thinning_oracle import thinning_simulate


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

    @staticmethod
    def pinned_digest(simulator):
        # SHA-256 of the times and marks for fixed seeds, one model per
        # kernel constructor; any change to the draws moves it.
        exponential = ExponentialKernel([[0.3, 0.1], [0.0, 0.4]], [[1.0, 2.0], [1.5, 3.0]])
        cases = [
            (HawkesModel(BENCH_MU, SumExpKernel(BENCH_ALPHA, BENCH_DECAYS)), 20.0, (1, 2)),
            (HawkesModel([0.8, 0.5], exponential), 200.0, (3,)),
        ]
        digest = hashlib.sha256()
        for model, horizon, seeds in cases:
            for seed in seeds:
                seq = simulator(SimConfig(model, horizon, seed=seed))
                digest.update(np.asarray(seq.times, dtype="<f8").tobytes())
                digest.update(np.asarray(seq.marks, dtype="<i8").tobytes())
        return digest.hexdigest()

    def test_outputs_pinned(self):
        # Recorded on the branching simulator; the thinning simulator it
        # replaced gave the digest pinned in the next test.
        expected = "73b70c56303c2822bd334528801721cf212c47a54b340dc37ffc97104cb07f1c"
        assert self.pinned_digest(simulate) == expected

    def test_thinning_oracle_is_the_former_simulator(self):
        expected = "223b827b258dadb5803de0cc56613f86d85bdbf3d3e66b8f4696aa20372f23bc"
        assert self.pinned_digest(thinning_simulate) == expected

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


class TestAgainstThinning:
    """Branching and thinning draws agree in law, seed set against seed set.

    For each model: two-sample KS tests on the per-component counts,
    on the per-seed KS p-values of the rescaled residuals, and on the
    residuals pooled over seeds.  The pooled residuals are compared with
    the thinning draws' and not with Exp(1): on a 40 h window the censored
    last interarrival of each component is missing, which biases them.
    """

    MODELS = {
        "sumexp": HawkesModel(
            [0.5, 0.4, 0.3],
            SumExpKernel(
                [[[0.2, 0.1, 0.0], [0.0, 0.15, 0.2], [0.1, 0.0, 0.1]],
                 [[1.6, 0.0, 0.8], [0.8, 0.8, 0.0], [0.0, 1.6, 0.8]]],
                [1.0, 8.0],
            ),
        ),
        "exponential": HawkesModel(
            [0.8, 0.5], ExponentialKernel([[0.3, 0.1], [0.0, 0.4]], [[1.0, 2.0], [1.5, 3.0]])
        ),
    }
    SEEDS = range(300)
    HORIZON = 40.0

    @classmethod
    def draws(cls, simulator, model):
        counts, pvalues, residuals = [], [], []
        for seed in cls.SEEDS:
            seq = simulator(SimConfig(model, cls.HORIZON, seed=seed))
            counts.append(seq.counts())
            rescaled = time_rescale(model, seq)
            pvalues.append([ks_exp1(r)[1] if r.size >= 2 else np.nan for r in rescaled])
            residuals.extend(rescaled)
        return np.array(counts), np.array(pvalues), np.concatenate(residuals)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_same_law_as_thinning(self, name):
        model = self.MODELS[name]
        counts, pvalues, residuals = self.draws(simulate, model)
        ref_counts, ref_pvalues, ref_residuals = self.draws(thinning_simulate, model)
        for i in range(model.dim):
            assert ks_2samp(counts[:, i], ref_counts[:, i]).pvalue > 1e-3, i
            p, ref_p = pvalues[:, i], ref_pvalues[:, i]
            assert ks_2samp(p[~np.isnan(p)], ref_p[~np.isnan(ref_p)]).pvalue > 1e-3, i
        assert ks_2samp(residuals, ref_residuals).pvalue > 1e-3


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

    def test_supercritical_truncation_stops_at_the_prefix(self):
        # The mean intensity grows like exp(0.5 t), so the realisation on
        # [0, 200 h] has of order e^100 events; the cut-off at the running
        # max_events-th time is what lets this finish.
        model = HawkesModel([1.0], SumExpKernel(np.array([[[1.5]]]), [1.0]))
        config = SimConfig(model, 200.0, seed=3, max_events=1000, allow_unstable=True)
        with pytest.raises(SimulationTruncatedError) as err:
            simulate(config)
        partial = err.value.partial
        assert len(partial) == 1000
        assert np.all(np.diff(partial.times) >= 0.0)
        assert partial.times[-1] < 200.0
        assert partial.horizon == 200.0

    def test_generation_size_bounded_after_the_cut_off(self):
        # Once max_events is passed, only events before the running
        # (max_events + 1)-th time have children, so a generation holds about
        # (max_events + 1) * norm children however supercritical the model.
        drawn = []

        class Counting(SumExpKernel):
            def draw_lags(self, rng, i, j):
                drawn.append(np.size(i))
                return super().draw_lags(rng, i, j)

        model = HawkesModel([1.0], Counting(np.array([[[100.0]]]), [1.0]))
        for seed in (0, 1):
            drawn.clear()
            with pytest.raises(SimulationTruncatedError):
                simulate(SimConfig(model, 1.0, seed=seed, max_events=1000, allow_unstable=True))
            assert 0 < max(drawn) <= 2 * 100 * 1001

    def test_truncated_prefix_has_the_law_of_the_full_prefix(self):
        # The partial's last time and mark counts against those of the first
        # 60 events of untruncated runs (other seeds), two-sample KS.
        model = HawkesModel(
            [0.6, 0.4], ExponentialKernel([[0.3, 0.2], [0.1, 0.4]], [[1.0, 2.0], [1.5, 3.0]])
        )
        k, cut, full = 60, [], []
        for seed in range(300):
            with pytest.raises(SimulationTruncatedError) as err:
                simulate(SimConfig(model, 200.0, seed=seed, max_events=k))
            cut.append((err.value.partial.times[-1], np.sum(err.value.partial.marks == 1)))
            seq = simulate(SimConfig(model, 200.0, seed=1000 + seed))
            full.append((seq.times[k - 1], np.sum(seq.marks[:k] == 1)))
        cut, full = np.array(cut), np.array(full)
        assert ks_2samp(cut[:, 0], full[:, 0]).pvalue > 1e-3
        assert ks_2samp(cut[:, 1], full[:, 1]).pvalue > 1e-3

    @pytest.mark.parametrize("k", [1, 50])
    def test_long_horizon_draws_only_the_first_immigrants(self, k):
        # 3e12 immigrants are never materialised.  For a Poisson model the
        # partial's last time is Gamma(k, 1/3) and its mark-1 count
        # Binomial(k, 2/3), over 300 seeds.
        from scipy.stats import gamma, kstest

        model = HawkesModel([2.0, 1.0], SumExpKernel(np.zeros((1, 2, 2)), [1.0]))
        last, ones = [], []
        for seed in range(300):
            with pytest.raises(SimulationTruncatedError) as err:
                simulate(SimConfig(model, 1e12, seed=seed, max_events=k))
            partial = err.value.partial
            assert len(partial) == k
            last.append(partial.times[-1])
            ones.append(np.sum(partial.marks == 1))
        assert kstest(last, gamma(k, scale=1 / 3).cdf).pvalue > 1e-3
        assert abs(np.mean(ones) - k * 2 / 3) < 4 * np.sqrt(k * (2 / 9) / 300)

    def test_max_events_at_the_count_changes_nothing(self):
        model = HawkesModel([1.0], SumExpKernel(np.array([[[0.5]]]), [1.0]))
        full = simulate(SimConfig(model, 300.0, seed=8))
        exact = simulate(SimConfig(model, 300.0, seed=8, max_events=len(full)))
        np.testing.assert_array_equal(exact.times, full.times)
        np.testing.assert_array_equal(exact.marks, full.marks)
        with pytest.raises(SimulationTruncatedError) as err:
            simulate(SimConfig(model, 300.0, seed=8, max_events=len(full) - 1))
        assert len(err.value.partial) == len(full) - 1

    def test_poisson_means_numpy_cannot_draw_rejected(self):
        with pytest.raises(InvalidInputError, match="numpy's limit"):
            simulate(SimConfig(poisson_model(), 1e20, seed=1))
        # Two rates each under the limit whose immigrant total is not.
        twin = HawkesModel([5e18, 5e18], SumExpKernel(np.zeros((1, 2, 2)), [1.0]))
        with pytest.raises(InvalidInputError, match="numpy's limit"):
            simulate(SimConfig(twin, 1.0, seed=1))
        huge = HawkesModel([1.0], SumExpKernel(np.array([[[1e20]]]), [1.0]))
        with pytest.raises(StabilityError):
            simulate(SimConfig(huge, 1.0, seed=1))
        with pytest.raises(InvalidInputError, match="numpy's limit"):
            simulate(SimConfig(huge, 1.0, seed=1, allow_unstable=True))

    @pytest.mark.parametrize("alpha, unstable, children", [
        ([[[0.0, 1e18], [0.0, 0.0]]], False, "1e+18"), ([[[1e18]]], True, "2e+18")],
        ids=["stable", "unstable"])
    def test_generation_numpy_cannot_allocate_rejected(self, alpha, unstable, children):
        # Kernel-norm column sums of 1e18, under POISSON_MEAN_MAX: the first
        # generation's parent index needs 8e18 or 1.6e19 bytes, which numpy
        # refuses (MemoryError, ValueError) before it allocates anything.
        alpha = np.array(alpha)
        model = HawkesModel(np.ones(alpha.shape[1]), SumExpKernel(alpha, [1.0]))
        config = SimConfig(model, 1.0, seed=1, max_events=10, allow_unstable=unstable)
        with pytest.raises(InvalidInputError, match=(
                f"^a generation of {re.escape(children)} children is too large to allocate$")):
            simulate(config)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            SimConfig(poisson_model(), horizon=0.0, seed=1)
        with pytest.raises(InvalidInputError):
            SimConfig(poisson_model(), horizon=1.0, seed=1, max_events=0)
        with pytest.raises(InvalidInputError):
            SimConfig(poisson_model(), horizon=1.0, seed=-1)
