import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockhawkes import (
    EventSequence,
    ExponentialKernel,
    HawkesModel,
    PowerLawKernel,
    SimConfig,
    SumExpKernel,
    compensator,
    compensator_quadrature,
    intensity_naive,
    intensity_recursive,
    kernel_norms,
    log_likelihood,
    simulate,
    spectral_radius,
    time_rescale,
)
from blockhawkes.errors import (
    DomainError,
    InvalidInputError,
    LikelihoodUndefinedError,
    StationarityWarning,
    UnsupportedKernelError,
)

from conftest import random_sequence, random_sumexp_model


def single_exp_model(mu=1.0, alpha=2.0, beta=1.0):
    return HawkesModel([mu], ExponentialKernel([[alpha]], [[beta]]))


class TestHawkesModel:
    def test_kernel_is_kept_as_passed(self):
        kernel = ExponentialKernel([[0.5]], [[2.0]])
        assert HawkesModel([1.0], kernel).kernel is kernel

    def test_unknown_kernel_type_rejected(self):
        class ForeignKernel:
            dim = 1

        with pytest.raises(UnsupportedKernelError):
            HawkesModel([1.0], ForeignKernel())


class TestIntensityNaive:
    def test_empty_sequence_gives_background(self):
        seq = EventSequence([], [], 10.0, 1)
        assert intensity_naive(single_exp_model(), seq, 1, 3.7) == 1.0

    def test_zero_kernel_reduces_to_poisson(self):
        seq = EventSequence([1.0, 2.0, 3.0], [1, 1, 1], 10.0, 1)
        model = single_exp_model(mu=1.3, alpha=0.0)
        for t in (0.0, 2.5, 10.0):
            assert intensity_naive(model, seq, 1, t) == 1.3

    def test_hand_computed_value(self):
        # one event at t=1: lambda(2) = mu + alpha e^{-beta}
        seq = EventSequence([1.0], [1], 5.0, 1)
        lam = intensity_naive(single_exp_model(), seq, 1, 2.0)
        np.testing.assert_allclose(lam, 1.0 + 2.0 * np.exp(-1.0))

    def test_left_limit_excludes_event_at_query_time(self):
        seq = EventSequence([1.0], [1], 5.0, 1)
        assert intensity_naive(single_exp_model(), seq, 1, 1.0) == 1.0

    def test_never_below_background(self):
        rng = np.random.default_rng(5)
        model = random_sumexp_model(rng)
        seq = random_sequence(rng, n=100)
        for t in rng.uniform(0, seq.horizon, 25):
            lam = intensity_naive(model, seq, 1, t)
            assert lam >= model.mu[0]

    def test_domain_and_dimension_errors(self):
        seq = EventSequence([1.0], [1], 5.0, 1)
        with pytest.raises(DomainError):
            intensity_naive(single_exp_model(), seq, 1, 5.1)
        with pytest.raises(DomainError):
            intensity_naive(single_exp_model(), seq, 1, -0.1)
        model2 = HawkesModel([1.0, 1.0], ExponentialKernel(np.zeros((2, 2)), np.ones((2, 2))))
        with pytest.raises(InvalidInputError):
            intensity_naive(model2, seq, 1, 1.0)


class TestIntensityRecursive:
    def test_empty_sequence(self):
        model = HawkesModel([1.0], SumExpKernel(np.array([[[0.5]]]), [1.0]))
        lambdas, end_state = intensity_recursive(model, EventSequence([], [], 5.0, 1))
        assert lambdas.size == 0
        np.testing.assert_array_equal(end_state, np.zeros((1, 1)))

    def test_hand_computed_two_events(self):
        model = HawkesModel([1.0], SumExpKernel(np.array([[[2.0]]]), [1.0]))
        seq = EventSequence([1.0, 2.0], [1, 1], 3.0, 1)
        lambdas, _ = intensity_recursive(model, seq)
        np.testing.assert_allclose(lambdas, [1.0, 1.0 + 2.0 * np.exp(-1.0)])

    def test_matches_naive_on_random_trivariate(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            model = random_sumexp_model(rng, dim=3, num_decays=rng.integers(1, 4))
            n = int(rng.integers(200, 2001))
            seq = random_sequence(rng, dim=3, n=n, horizon=200.0)
            lambdas, _ = intensity_recursive(model, seq)
            naive = np.array(
                [intensity_naive(model, seq, int(d), float(t)) for t, d in zip(seq.times, seq.marks)]
            )
            np.testing.assert_allclose(lambdas, naive, rtol=1e-10, atol=1e-10)

    def test_tied_events_do_not_excite_each_other(self):
        model = HawkesModel([1.0, 1.0], SumExpKernel(np.full((1, 2, 2), 0.5), [1.0]))
        seq = EventSequence([1.0, 1.0, 2.0], [1, 2, 1], 3.0, 2)
        lambdas, end_state = intensity_recursive(model, seq)
        np.testing.assert_allclose(lambdas, [1.0, 1.0, 1.0 + np.exp(-1.0)])
        np.testing.assert_allclose(end_state, [[np.exp(-2.0) + np.exp(-1.0), np.exp(-2.0)]])

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(min_value=1, max_value=3),
        num_decays=st.integers(min_value=1, max_value=3),
        n=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_naive_with_ties_and_events_at_zero(self, dim, num_decays, n, seed):
        # Times on a coarse grid that includes 0, so most draws hold ties,
        # some across several components, and events at the window start.
        rng = np.random.default_rng(seed)
        times = rng.integers(0, max(2, n // 3), n) * 0.5
        marks = rng.integers(1, dim + 1, n)
        keep = np.unique(np.column_stack((times, marks)), axis=0, return_index=True)[1]
        seq = EventSequence(times[keep], marks[keep], float(times.max()) + 1.0, dim)
        model = random_sumexp_model(rng, dim=dim, num_decays=num_decays)
        lambdas, _ = intensity_recursive(model, seq)
        naive = [intensity_naive(model, seq, int(d), float(t)) for t, d in zip(seq.times, seq.marks)]
        np.testing.assert_allclose(lambdas, naive, rtol=1e-12)

    @pytest.mark.parametrize("decay_horizon", [7.1e4, 1e7, 1e8])
    def test_exact_at_extreme_decay_horizon_products(self, decay_horizon):
        # Clusters a few decay lengths wide, spread over the paper's 1416 h
        # window; the excitation dominates mu at nearly every event, so any
        # loss of precision in the states shows in the intensities.
        horizon = 1416.0
        b = decay_horizon / horizon
        rng = np.random.default_rng(0)
        centers = rng.uniform(0.0, horizon - 1.0, (300, 1))
        times = np.sort((centers + np.cumsum(rng.exponential(1.0 / b, (300, 5)), axis=1)).ravel())
        seq = EventSequence(times, rng.integers(1, 3, times.size), horizon, 2)
        alpha = np.array([[[0.4, 0.3], [0.2, 0.5]]]) * b
        model = HawkesModel([0.01, 0.02], SumExpKernel(alpha, [b]))

        lambdas, _ = intensity_recursive(model, seq)
        naive = np.array(
            [intensity_naive(model, seq, int(d), float(t)) for t, d in zip(seq.times, seq.marks)]
        )
        np.testing.assert_allclose(lambdas, naive, rtol=1e-10, atol=0)
        for i, rescaled in enumerate(time_rescale(model, seq), start=1):
            taus = [compensator(model, seq, i, t) for t in seq.component_times(i)]
            np.testing.assert_allclose(np.cumsum(rescaled), taus, rtol=1e-10, atol=0)

    def test_requires_shared_decays(self):
        model = HawkesModel([1.0], PowerLawKernel([[0.5]], [[1.0]], [[2.0]]))
        with pytest.raises(UnsupportedKernelError):
            intensity_recursive(model, EventSequence([], [], 1.0, 1))

    def test_end_state_decayed_to_horizon(self):
        model = HawkesModel([1.0], SumExpKernel(np.array([[[2.0]]]), [1.5]))
        seq = EventSequence([1.0], [1], 3.0, 1)
        _, end_state = intensity_recursive(model, seq)
        np.testing.assert_allclose(end_state, [[np.exp(-1.5 * 2.0)]])


class TestCompensator:
    def test_zero_kernel_is_linear(self):
        seq = EventSequence([1.0, 4.0], [1, 1], 10.0, 1)
        model = single_exp_model(mu=1.7, alpha=0.0)
        for t in (0.0, 3.3, 10.0):
            np.testing.assert_allclose(compensator(model, seq, 1, t), 1.7 * t)

    def test_hand_computed_value(self):
        seq = EventSequence([1.0], [1], 5.0, 1)
        value = compensator(single_exp_model(), seq, 1, 2.0)
        np.testing.assert_allclose(value, 2.0 + 2.0 * (1 - np.exp(-1.0)))

    def test_starts_at_zero_and_nondecreasing(self):
        rng = np.random.default_rng(3)
        model = random_sumexp_model(rng)
        seq = random_sequence(rng, n=150)
        assert compensator(model, seq, 2, 0.0) == 0.0
        grid = np.linspace(0, seq.horizon, 60)
        values = [compensator(model, seq, 2, t) for t in grid]
        assert np.all(np.diff(values) >= 0)

    def test_tiny_decay_has_no_cancellation(self):
        # (1 - exp(-b lag)) / b is exactly 0 once b * lag < 1.1e-16.
        seq = EventSequence([1.0, 2.0, 4.0], [1, 1, 1], 10.0, 1)
        for kernel in (
            SumExpKernel(np.array([[[0.5]]]), [1e-20]),
            ExponentialKernel([[0.5]], [[1e-20]]),
        ):
            model = HawkesModel([1.0], kernel)
            np.testing.assert_allclose(compensator(model, seq, 1, 10.0), 21.5, rtol=1e-14)

    def test_closed_form_matches_quadrature_sumexp(self):
        rng = np.random.default_rng(17)
        model = random_sumexp_model(rng, dim=2, num_decays=2)
        seq = random_sequence(rng, dim=2, n=60, horizon=30.0)
        for i in (1, 2):
            cf = compensator(model, seq, i, seq.horizon)
            q = compensator_quadrature(model, seq, i, seq.horizon)
            np.testing.assert_allclose(cf, q, rtol=1e-6)

    def test_power_law_antiderivative_matches_quadrature(self):
        rng = np.random.default_rng(23)
        model = HawkesModel(
            [0.8, 1.1],
            PowerLawKernel(
                rng.uniform(0.1, 0.6, (2, 2)),
                rng.uniform(0.2, 1.0, (2, 2)),
                rng.uniform(1.5, 3.0, (2, 2)),
            ),
        )
        seq = random_sequence(rng, dim=2, n=50, horizon=20.0)
        for i in (1, 2):
            cf = compensator(model, seq, i, seq.horizon)
            q = compensator_quadrature(model, seq, i, seq.horizon)
            np.testing.assert_allclose(cf, q, rtol=1e-6)


class TestLogLikelihood:
    def test_poisson_closed_form(self):
        seq = EventSequence([1.0, 2.0, 5.0], [1, 1, 1], 8.0, 1)
        model = single_exp_model(mu=1.5, alpha=0.0)
        np.testing.assert_allclose(
            log_likelihood(model, seq), 3 * np.log(1.5) - 1.5 * 8.0
        )

    def test_hand_expanded_two_events(self):
        model = HawkesModel([1.0], SumExpKernel(np.array([[[2.0]]]), [1.0]))
        seq = EventSequence([1.0, 2.0], [1, 1], 2.0, 1)
        expected = (
            np.log(1.0)
            + np.log(1.0 + 2.0 * np.exp(-1.0))
            - (2.0 + 2.0 * (1 - np.exp(-1.0)) + 2.0 * (1 - 1.0))
        )
        np.testing.assert_allclose(log_likelihood(model, seq), expected)

    def test_matches_slow_oracle(self):
        rng = np.random.default_rng(29)
        model = random_sumexp_model(rng, dim=3, num_decays=2)
        seq = random_sequence(rng, dim=3, n=300, horizon=120.0)
        slow = sum(
            np.log(intensity_naive(model, seq, int(d), float(t)))
            for t, d in zip(seq.times, seq.marks)
        ) - sum(compensator(model, seq, i, seq.horizon) for i in (1, 2, 3))
        np.testing.assert_allclose(log_likelihood(model, seq), slow, rtol=1e-8)

    def test_zero_weight_component_extension(self):
        # Adding an inert component shifts the log-likelihood by exactly
        # -mu_new * T and leaves the original terms untouched.
        rng = np.random.default_rng(31)
        model = random_sumexp_model(rng, dim=2, num_decays=2)
        seq = random_sequence(rng, dim=2, n=150, horizon=80.0)
        base = log_likelihood(model, seq)

        U = model.kernel.num_decays
        alpha_ext = np.zeros((U, 3, 3))
        alpha_ext[:, :2, :2] = model.kernel.alpha
        mu_new = 0.37
        model_ext = HawkesModel(
            np.append(model.mu, mu_new), SumExpKernel(alpha_ext, model.kernel.decays)
        )
        seq_ext = EventSequence(seq.times, seq.marks, seq.horizon, 3)
        np.testing.assert_allclose(
            log_likelihood(model_ext, seq_ext), base - mu_new * seq.horizon, rtol=1e-12
        )

    def test_vanishing_intensity_raises_with_index(self):
        model = HawkesModel([1e-305], SumExpKernel(np.array([[[0.0]]]), [1.0]))
        seq = EventSequence([1.0], [1], 2.0, 1)
        with pytest.raises(LikelihoodUndefinedError) as err:
            log_likelihood(model, seq)
        assert err.value.event_index == 0


class TestPerPairExponentialPath:
    """ExponentialKernel runs on the shared-decay recursion; the naive
    per-pair sums (intensity_naive, compensator) are the oracle."""

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(min_value=1, max_value=3),
        distinct_betas=st.integers(min_value=1, max_value=9),
        n=st.integers(min_value=0, max_value=250),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_recursive_paths_match_naive_oracle(self, dim, distinct_betas, n, seed):
        rng = np.random.default_rng(seed)
        # A small pool of decays makes ties among the pairs likely.
        pool = np.exp(rng.uniform(np.log(0.1), np.log(50.0), distinct_betas))
        beta = rng.choice(pool, (dim, dim))
        alpha = rng.uniform(0.0, 1.0, (dim, dim)) * beta / dim
        model = HawkesModel(rng.uniform(0.3, 2.0, dim), ExponentialKernel(alpha, beta))
        seq = random_sequence(rng, dim=dim, n=n, horizon=float(rng.uniform(5.0, 100.0)))

        naive = np.array(
            [intensity_naive(model, seq, int(d), float(t)) for t, d in zip(seq.times, seq.marks)]
        )
        lambdas, _ = intensity_recursive(model, seq)
        np.testing.assert_allclose(lambdas, naive, rtol=1e-10)

        slow = np.log(naive).sum() - sum(
            compensator(model, seq, i, seq.horizon) for i in range(1, dim + 1)
        )
        np.testing.assert_allclose(log_likelihood(model, seq), slow, rtol=1e-10)

        for i, rescaled in enumerate(time_rescale(model, seq), start=1):
            times_i = seq.component_times(i)
            if times_i.size < 2:
                assert rescaled.size == 0
                continue
            taus = [compensator(model, seq, i, t) for t in times_i]
            np.testing.assert_allclose(np.cumsum(rescaled), taus, rtol=1e-10)


class TestKernelNorms:
    def test_zero_kernel(self):
        model = single_exp_model(alpha=0.0)
        np.testing.assert_array_equal(kernel_norms(model), [[0.0]])

    def test_stationarity_warning(self):
        model = single_exp_model(mu=1.0, alpha=2.0, beta=1.0)  # norm 2 >= 1
        with pytest.warns(StationarityWarning):
            kernel_norms(model)

    def test_spectral_radius(self):
        np.testing.assert_allclose(spectral_radius([[0.5, 0.0], [0.0, 0.25]]), 0.5)


class TestMartingaleProperty:
    def test_count_minus_compensator_centered(self):
        # N_i(T) - Lambda_i(T) is a martingale: its mean over replicates
        # should sit within 3 standard errors of 0.
        model = HawkesModel([1.0], SumExpKernel(np.array([[[0.5]]]), [1.0]))
        horizon = 50.0
        diffs = []
        for seed in range(200):
            seq = simulate(SimConfig(model, horizon, seed=seed))
            diffs.append(len(seq) - compensator(model, seq, 1, horizon))
        diffs = np.array(diffs)
        se = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert abs(diffs.mean()) <= 3 * se
