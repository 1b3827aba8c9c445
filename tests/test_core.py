import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockhawkes import (
    EventSequence,
    ExponentialKernel,
    HawkesModel,
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
    NumericalError,
    StationarityWarning,
    UnsupportedKernelError,
)

from blockhawkes.core import _horizon_moments, _StateSolver
from blockhawkes.kernels import exp_first_moment, exp_integral, exp_second_moment

from conftest import random_sequence, random_sumexp_model, tied_sequence


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

    def test_mu_checked_against_the_kernel(self):
        kernel = ExponentialKernel([[0.5]], [[2.0]])
        with pytest.raises(InvalidInputError, match=r"^mu must be a vector, got shape \(1, 1\)$"):
            HawkesModel([[1.0]], kernel)
        with pytest.raises(InvalidInputError, match=r"^kernel dimension 1 != len\(mu\) 2$"):
            HawkesModel([1.0, 1.0], kernel)


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
        with pytest.raises(InvalidInputError, match="^component 2 not in 1..1$"):
            intensity_naive(single_exp_model(), seq, 2, 1.0)


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

    def test_end_state_decayed_to_horizon(self):
        model = HawkesModel([1.0], SumExpKernel(np.array([[[2.0]]]), [1.5]))
        seq = EventSequence([1.0], [1], 3.0, 1)
        _, end_state = intensity_recursive(model, seq)
        np.testing.assert_allclose(end_state, [[np.exp(-1.5 * 2.0)]])
        # Two decays and two components: row u holds decay u's states at T.
        model = HawkesModel([1.0, 1.0], SumExpKernel(np.full((2, 2, 2), 0.3), [0.4, 1.5]))
        seq = EventSequence([1.0, 2.0, 2.5], [1, 2, 1], 3.0, 2)
        _, end_state = intensity_recursive(model, seq)
        lags = {1: np.array([2.0, 0.5]), 2: np.array([1.0])}
        np.testing.assert_allclose(end_state, [[np.exp(-b * lags[j]).sum() for j in (1, 2)]
                                               for b in (0.4, 1.5)], rtol=1e-15)


def states_as_read(seq, decay):
    """S as each event reads it and at the horizon, R, I and Q at the events."""
    S, R, Q, I = (np.empty((len(seq) + 1, seq.dim), order="F") for _ in range(4))
    solve = _StateSolver(seq)
    solve(decay, S, R, Q)
    return S[solve.reads], S[-1], R[:-1], solve.integral(decay, S, I)[:-1], Q[:-1]


def fsum_states(seq, decay, columns):
    """Reference S, R, I and Q at events ``columns`` by exactly rounded double
    sums over the events strictly before each (for S at the horizon, all)."""
    t, m = seq.times, seq.dim
    out = np.zeros((5, len(columns), m))
    for row, k in enumerate(columns):
        for j in range(m):
            lags = t[k] - t[(t < t[k]) & (seq.marks == j + 1)]
            out[0, row, j] = math.fsum(np.exp(-decay * lags))
            out[1, row, j] = math.fsum(lags * np.exp(-decay * lags))
            out[2, row, j] = math.fsum(-np.expm1(-decay * lags) / decay)
            out[4, row, j] = math.fsum(lags**2 * np.exp(-decay * lags))
            ends = seq.horizon - t[seq.marks == j + 1]
            out[3, row, j] = math.fsum(np.exp(-decay * ends))
    return out


class TestStateRecursion:
    """The forward substitution against exactly rounded sums.  The atol of
    1e-300 forgives only subnormal results, whose spacing is 5e-324."""

    @settings(max_examples=80, deadline=None)
    @given(
        dim=st.integers(min_value=1, max_value=3),
        n=st.integers(min_value=1, max_value=80),
        log_bt=st.floats(min_value=-8.0, max_value=4.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_fsum_with_ties_and_events_at_zero(self, dim, n, log_bt, seed):
        rng = np.random.default_rng(seed)
        seq = tied_sequence(rng, dim, n, float(rng.choice([0.25, 0.5, 1.0])))
        decay = 10.0**log_bt / seq.horizon
        S, S_end, R, I, Q = states_as_read(seq, decay)
        ref = fsum_states(seq, decay, np.arange(len(seq)))
        for got, want in ((S, ref[0]), (R, ref[1]), (I, ref[2]), (S_end, ref[3, 0]), (Q, ref[4])):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)

    def test_no_error_growth_over_a_long_sequence(self):
        # At b T ~ 1e-6 every factor is ~1 and S counts the events, so each
        # of the 50k steps rounds a value as large as its index.
        rng = np.random.default_rng(3)
        seq = tied_sequence(rng, 3, 90_000, 0.01)
        assert len(seq) >= 50_000 and np.sum(np.diff(seq.times) == 0) >= 10_000
        decay = 1e-6 / seq.horizon
        S, S_end, R, I, Q = states_as_read(seq, decay)
        columns = np.r_[rng.choice(len(seq), 40, replace=False), len(seq) - 1]
        ref = fsum_states(seq, decay, columns)
        for got, want in ((S, ref[0]), (R, ref[1]), (I, ref[2]), (Q, ref[4])):
            np.testing.assert_allclose(got[columns], want, rtol=1e-12, atol=0)
        np.testing.assert_allclose(S_end, ref[3, 0], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("decay_horizon", [1e-8, 1e-6, 1.0, 1e4])
    def test_equal_gap_error_stays_within_criterion_1(self, decay_horizon):
        # Equal gaps round every factor alike, so the error grows as n u; at
        # 10^6 events it must still meet criterion 1's 1e-10.  On the grid,
        # S[k] = sum_{j=1..k} e^{-j x} with x = b g.
        n, gap = 10**6, 0.01
        seq = EventSequence(np.arange(n) * gap, np.ones(n, dtype=int), n * gap, 1)
        decay = decay_horizon / seq.horizon
        S = np.empty((n + 1, 1), order="F")
        _StateSolver(seq)(decay, S)
        x, k = decay * gap, np.arange(n + 1)
        closed = np.exp(-x) * np.expm1(-k * x) / np.expm1(-x)
        np.testing.assert_allclose(S[:, 0], closed, rtol=1e-10, atol=0)

    def test_only_the_decay_gradient_solves_for_r(self):
        # R (the gradient) and Q (the Hessian) of one decay are solved only when
        # given, and solving them moves neither S nor, for Q, R.
        seq = EventSequence([0.0, 1.0, 1.0, 2.5], [1, 1, 2, 2], 4.0, 2)
        solve = _StateSolver(seq)
        for decay in (0.5, 3.0):
            S, S_1, R_1, S_2, R_2, Q_2 = (np.full((5, 2), np.nan, order="F") for _ in range(6))
            solve(decay, S)
            solve(decay, S_1, R_1)
            solve(decay, S_2, R_2, Q_2)
            assert not np.isnan(np.c_[S, R_1, Q_2]).any()
            np.testing.assert_array_equal(S, S_1)
            np.testing.assert_array_equal(S, S_2)
            np.testing.assert_array_equal(R_1, R_2)


MOMENTS = (exp_integral, exp_first_moment, exp_second_moment)


def moments_oracle(seq, decays):
    """(M, D, E) as per-event sums: every event's moment, summed by bincount."""
    lags, cols = seq.horizon - seq.times, seq.marks - 1
    return np.array([[np.bincount(cols, f(b, lags), minlength=seq.dim) for b in decays]
                     for f in MOMENTS])


def moments_fsum(seq, decays):
    """(M, D, E) by exactly rounded sums over each component's events."""
    return np.array([[[math.fsum(f(b, seq.horizon - seq.component_times(j + 1)))
                       for j in range(seq.dim)] for b in decays] for f in MOMENTS])


class TestHorizonMoments:
    """The tail-only sums against the per-event oracle and exactly rounded sums.

    Decays of 1e-8 to 1e4 /h put every event in the tail (b T <= 50) at one
    end and only the event at t = T at the other.  Measured worst relative
    errors over seeds 0-199 of this generator: 2.2e-15 against the oracle,
    whose own sequential sum carries most of it, and 1.5e-15 against fsum
    (on a 12,128-event pipeline file at these decays: 2.0e-13 and 6.5e-15)."""

    DECAYS = np.geomspace(1e-8, 1e4, 25)

    @pytest.mark.parametrize("seed", range(4))
    def test_tail_only_sums_match_per_event_sums(self, seed):
        rng = np.random.default_rng(seed)
        tied = tied_sequence(rng, 2, 400, 0.25)
        # Component 3 never fires, and one event sits at t = T.
        seq = EventSequence(np.r_[tied.times, tied.horizon], np.r_[tied.marks, 1],
                            tied.horizon, 3)
        assert np.sum(np.diff(seq.times) == 0) >= 10
        got = _horizon_moments(seq, self.DECAYS)
        assert got.shape == (3, self.DECAYS.size, 3)
        assert np.all(got[:, :, 2] == 0.0)
        np.testing.assert_allclose(got, moments_oracle(seq, self.DECAYS), rtol=1e-14, atol=0)
        np.testing.assert_allclose(got, moments_fsum(seq, self.DECAYS), rtol=5e-15, atol=0)

    def test_all_tail_and_no_tail(self):
        seq = EventSequence([0.0, 1.0, 1.0, 4.0], [1, 2, 1, 2], 4.0, 2)
        for decays in ([1e-8], [1e4]):
            np.testing.assert_allclose(_horizon_moments(seq, decays), moments_fsum(seq, decays),
                                       rtol=5e-15, atol=0)
        # At 1e4 /h only the event at T is short of b (T - t) = 50; it adds 0.
        M, D, E = _horizon_moments(seq, [1e4])[:, 0]
        np.testing.assert_array_equal(M, [2e-4, 1e-4])
        np.testing.assert_array_equal(D, [2 / 1e8, 1 / 1e8])
        np.testing.assert_array_equal(E, [2 * (2 / 1e12), 2 / 1e12])

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(min_value=1, max_value=3),
        n=st.integers(min_value=1, max_value=300),
        log_decay=st.floats(min_value=-4.0, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_solver_integral_at_the_horizon_is_the_moment(self, dim, n, log_decay, seed):
        # Two independent formulas for the integral of S over [0, T]: the solver's
        # cumulative sum over the gaps and the per-event sums of exp_integral(b, T - t_k).
        # Measured worst over 3,000 draws of these sizes: 2.4e-15 relative.
        rng = np.random.default_rng(seed)
        seq, decay = tied_sequence(rng, dim, n, float(rng.choice([0.25, 0.5, 1.0]))), 10**log_decay
        S, I = (np.empty((len(seq) + 1, dim), order="F") for _ in range(2))
        solve = _StateSolver(seq)
        solve(decay, S)
        moment = _horizon_moments(seq, [decay])[0, 0]
        np.testing.assert_allclose(solve.integral(decay, S, I)[-1], moment, rtol=1e-14, atol=0)


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
        assert compensator_quadrature(model, seq, 2, 0.0) == 0.0
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

    def test_quadrature_resolves_fast_decays(self):
        # phi = b exp(-b s) puts unit mass within a few 1/b of each event.
        # Without break points on those spikes QUADPACK stepped over them:
        # 12.0 at b = 1e4 and 10.0 from b = 1e5 on, with no error raised.
        seq = EventSequence([0.5, 1.0, 2.0], [1, 1, 1], 10.0, 1)
        for b in (1e2, 1e4, 1e5, 1e6, 1e8):
            model = HawkesModel([1.0], SumExpKernel([[[b]]], [b]))
            assert compensator(model, seq, 1, 10.0) == 13.0
            np.testing.assert_allclose(compensator_quadrature(model, seq, 1, 10.0), 13.0,
                                       rtol=1e-9, err_msg=f"b = {b}")

    @pytest.mark.parametrize("decay", [300.0, 3000.0])
    def test_quadrature_resolves_many_fast_spikes(self, decay):
        # 400 events 0.25 h apart with alpha = b/2: at b = 300 and 3000
        # QUADPACK ran out of subdivisions without the spike break points.
        n = 400
        seq = EventSequence(np.arange(n) * 0.25, np.ones(n, dtype=int), 100.0, 1)
        model = HawkesModel([1.0], SumExpKernel([[[decay / 2]]], [decay]))
        np.testing.assert_allclose(compensator_quadrature(model, seq, 1, 100.0),
                                   compensator(model, seq, 1, 100.0), rtol=1e-9)

    QUADRATURE_FAILURE = (
        "compensator quadrature did not converge for component 1 at t=10.0: "
        "estimate 12.9998, error bound 0.000455; "
        "Extremely bad integrand behavior occurs at some points of the\n"
        "  integration interval."
    )

    def quadrature_failure_case(self):
        # At b = 1e12 each event's spike, of height 1e12, is 1e-12 h wide:
        # narrower than the intervals QUADPACK still bisects near t = 1.
        model = HawkesModel([1.0], SumExpKernel([[[1e12]]], [1e12]))
        return model, EventSequence([0.5, 1.0, 2.0], [1, 1, 1], 10.0, 1)

    def test_quadrature_failure_names_quadpack_message(self):
        model, seq = self.quadrature_failure_case()
        with pytest.raises(NumericalError) as err:
            compensator_quadrature(model, seq, 1, 10.0)
        assert str(err.value) == self.QUADRATURE_FAILURE

    def test_quadrature_touches_no_warning_filter(self, monkeypatch):
        # catch_warnings swaps process-wide state and is not thread-safe.
        def refuse(*args, **kwargs):
            raise AssertionError("compensator_quadrature entered warnings.catch_warnings")

        model, seq = self.quadrature_failure_case()
        # Undone before pytest, which needs catch_warnings, reports a failure.
        with monkeypatch.context() as patch:
            patch.setattr(warnings, "catch_warnings", refuse)
            value = compensator_quadrature(single_exp_model(), EventSequence([1.0], [1], 5.0, 1), 1, 2.0)
            with pytest.raises(NumericalError) as err:
                compensator_quadrature(model, seq, 1, 10.0)
        np.testing.assert_allclose(value, 2.0 + 2.0 * (1 - np.exp(-1.0)), rtol=1e-7)
        assert str(err.value) == self.QUADRATURE_FAILURE


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


def per_pair_sums(alpha, beta, seq, times, rows):
    """At each times[k], the sums over events strictly before it of
    alpha[i, j] exp(-beta[i, j] lag) and of its integral over [0, lag], with
    i = rows[k] and j the event's component (0-based)."""
    lag = times[:, None] - seq.times[None, :]
    before = lag > 0.0
    lag = np.where(before, lag, 0.0)
    a, b = alpha[rows[:, None], seq.marks - 1], beta[rows[:, None], seq.marks - 1]
    phi = np.where(before, a * np.exp(-b * lag), 0.0).sum(axis=1)
    integral = np.where(before, a * -np.expm1(-b * lag) / b, 0.0).sum(axis=1)
    return phi, integral


class TestPerPairExponentialPath:
    """ExponentialKernel runs on the shared-decay recursion; sums of
    alpha_ij exp(-beta_ij t) and its integral over the drawn matrices,
    written in the test, are the oracle."""

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(min_value=1, max_value=3),
        distinct_betas=st.integers(min_value=1, max_value=9),
        n=st.integers(min_value=0, max_value=250),
        log_bt=st.floats(min_value=-8.0, max_value=4.0),
        tied=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_recursive_paths_match_naive_oracle(self, dim, distinct_betas, n, log_bt, tied, seed):
        rng = np.random.default_rng(seed)
        if tied:
            seq = tied_sequence(rng, dim, n, float(rng.choice([0.25, 0.5, 1.0])))
        else:
            seq = random_sequence(rng, dim=dim, n=n, horizon=float(rng.uniform(5.0, 100.0)))
        # A small pool of decays, b T from 10**log_bt down two decades (at
        # least 1e-8), makes ties among the pairs likely.  Below b = 1/T the
        # weights scale with 1/T, so the excitation still shows in l.
        log_pool = np.maximum(log_bt - rng.uniform(0.0, 2.0, distinct_betas), -8.0)
        beta = rng.choice(10.0**log_pool / seq.horizon, (dim, dim))
        alpha = rng.uniform(0.0, 1.0, (dim, dim)) * np.maximum(beta, 1.0 / seq.horizon) / dim
        mu = rng.uniform(0.3, 2.0, dim)
        model = HawkesModel(mu, ExponentialKernel(alpha, beta))

        rows = seq.marks - 1
        excitation, _ = per_pair_sums(alpha, beta, seq, seq.times, rows)
        lambdas, _ = intensity_recursive(model, seq)
        np.testing.assert_allclose(lambdas, mu[rows] + excitation, rtol=1e-10)

        _, excited = per_pair_sums(alpha, beta, seq, np.full(dim, seq.horizon), np.arange(dim))
        slow = np.log(mu[rows] + excitation).sum() - (seq.horizon * mu + excited).sum()
        np.testing.assert_allclose(log_likelihood(model, seq), slow, rtol=1e-10)

        for i, rescaled in enumerate(time_rescale(model, seq), start=1):
            times_i = seq.component_times(i)
            if times_i.size < 2:
                assert rescaled.size == 0
                continue
            _, excited = per_pair_sums(alpha, beta, seq, times_i, np.full(times_i.size, i - 1))
            np.testing.assert_allclose(np.cumsum(rescaled), mu[i - 1] * times_i + excited,
                                       rtol=1e-10)


class TestKernelNorms:
    def test_zero_kernel(self):
        model = single_exp_model(alpha=0.0)
        np.testing.assert_array_equal(kernel_norms(model), [[0.0]])

    def test_stationarity_warning(self):
        model = single_exp_model(mu=1.0, alpha=2.0, beta=1.0)  # norm 2 >= 1
        with pytest.warns(StationarityWarning):
            kernel_norms(model)

    @pytest.mark.parametrize("alpha, beta, radius", [(0.5, 1e-300, "5e+299"), (1.25, 1.0, "1.25")])
    def test_stationarity_warning_is_short(self, alpha, beta, radius):
        with pytest.warns(StationarityWarning) as record:
            kernel_norms(single_exp_model(alpha=alpha, beta=beta))
        message = str(record[0].message)
        assert len(message) < 200 and f"spectral radius {radius} >= 1:" in message

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
