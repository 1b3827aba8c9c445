import copy
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockhawkes import (
    EventSequence,
    ExponentialKernel,
    FitConfig,
    HawkesModel,
    SimConfig,
    SumExpKernel,
    fit_full,
    fit_given_decays,
    fit_poisson,
    fit_result_to_dict,
    kernel_norms,
    log_likelihood,
    loglik_and_grad,
    model_from_dict,
    model_to_dict,
    simulate,
    spectral_radius,
)
from blockhawkes.errors import (
    DegenerateComponentWarning,
    InvalidInputError,
    LikelihoodUndefinedError,
    StationarityWarning,
)

from conftest import (
    BENCH_ALPHA,
    BENCH_DECAYS,
    BENCH_MU,
    random_sequence,
    random_sumexp_model,
    tied_sequence,
)
from thinning_oracle import thinning_simulate


def simulate_univariate(mu=1.0, alpha=0.8, beta=1.2, horizon=1000.0, seed=0):
    model = HawkesModel([mu], SumExpKernel(np.array([[[alpha]]]), [beta]))
    return model, simulate(SimConfig(model, horizon, seed=seed))


class TestFitConfig:
    def test_decay_init_canonically_sorted(self):
        config = FitConfig(num_decays=3, decay_init=(50.0, 0.5, 5.0))
        assert config.decay_init == (0.5, 5.0, 50.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            FitConfig(num_decays=2, decay_init=(1.0, 2.0, 3.0))

    def test_duplicate_decays_rejected(self):
        with pytest.raises(InvalidInputError):
            FitConfig(num_decays=2, decay_init=(1.0, 1.0))

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0])
    @pytest.mark.parametrize("name", ["inner_tol", "outer_tol"])
    def test_non_finite_tolerance_rejected(self, name, value):
        with pytest.raises(InvalidInputError, match="tolerances"):
            FitConfig(**{name: value})

    @pytest.mark.parametrize("name", ["inner_max_iter", "outer_max_iter"])
    def test_negative_budget_rejected(self, name):
        with pytest.raises(InvalidInputError, match="^iteration budgets must be >= 0$"):
            FitConfig(**{name: -1})

    def test_no_decays_rejected(self):
        with pytest.raises(InvalidInputError, match="num_decays"):
            FitConfig(num_decays=0, decay_init=())
        seq = EventSequence([1.0, 2.0], [1, 1], 5.0, 1)
        for decays in ([], [[1.0, 2.0]], 1.0, [1.0, -2.0], [2.0, 2.0], [np.inf]):
            with pytest.raises(InvalidInputError):
                fit_given_decays(seq, decays)


class TestGradient:
    def test_tiny_decay_compensator_weights_exact(self):
        # (1 - exp(-b lag)) / b is exactly 0 once b * lag < 1.1e-16.
        seq = EventSequence([1.0, 2.0, 4.0], [1, 1, 1], 10.0, 1)
        ll, _, dalpha = loglik_and_grad(seq, [1e-20], [1.0], [[[0.5]]])
        np.testing.assert_allclose(ll, np.log(1.5) + np.log(2.0) - 21.5, rtol=1e-14)
        np.testing.assert_allclose(dalpha, [[[1.0 / 1.5 + 1.0 - 23.0]]], rtol=1e-14)
        with pytest.raises(InvalidInputError, match="^parameter shapes do not match"):
            loglik_and_grad(seq, [1.0], [1.0], [[0.5]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mu, decay", [(0.0, 1.0), (-1.0, 1.0), (np.nan, 1.0), (1.0, -1.0),
                                           (1.0, 0.0), (1.0, np.inf)])
    def test_invalid_parameters_rejected(self, mu, decay):
        # These returned -inf, nan or a finite l, where every other public function raises.
        seq = EventSequence([1.0, 2.0, 4.0], [1, 1, 1], 10.0, 1)
        with pytest.raises(InvalidInputError):
            loglik_and_grad(seq, [decay], [mu], [[[0.0]]])

    @pytest.mark.filterwarnings("error")
    def test_intensity_below_the_floor_raises_as_log_likelihood_does(self):
        # mu = 1e-310 is a valid rate, but no event intensity reaches the
        # 1e-300 floor: l came back as -2141.40 with an infinite gradient.
        seq = EventSequence([1.0, 2.0, 4.0], [1, 1, 1], 10.0, 1)
        with pytest.raises(LikelihoodUndefinedError) as got:
            loglik_and_grad(seq, [1.0], [1e-310], [[[0.0]]])
        with pytest.raises(LikelihoodUndefinedError) as want:
            log_likelihood(HawkesModel([1e-310], SumExpKernel([[[0.0]]], [1.0])), seq)
        assert (got.value.event_index, got.value.intensity) == (0, 1e-310)
        assert str(got.value) == str(want.value)
    def test_matches_central_differences(self):
        rng = np.random.default_rng(41)
        seq = random_sequence(rng, dim=2, n=200, horizon=80.0)
        decays = np.array([0.8, 6.0])
        h = 1e-5
        for _ in range(3):
            mu = rng.uniform(0.2, 2.0, 2)
            alpha = rng.uniform(0.05, 0.8, (2, 2, 2))
            l, dmu, dalpha = loglik_and_grad(seq, decays, mu, alpha)

            def l_at(mu_, alpha_):
                model = HawkesModel(mu_, SumExpKernel(alpha_, decays))
                return log_likelihood(model, seq)

            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (l_at(mu + e, alpha) - l_at(mu - e, alpha)) / (2 * h)
                np.testing.assert_allclose(dmu[i], fd, rtol=1e-4, atol=1e-6)
            for idx in np.ndindex(2, 2, 2):
                e = np.zeros((2, 2, 2))
                e[idx] = h
                fd = (l_at(mu, alpha + e) - l_at(mu, alpha - e)) / (2 * h)
                np.testing.assert_allclose(dalpha[idx], fd, rtol=1e-4, atol=1e-6)


def tie_heavy_sequence():
    """A trivariate simulation with times rounded to 0.01 h: tied events across components."""
    rng = np.random.default_rng(57)
    model = random_sumexp_model(rng, dim=3, num_decays=2)
    sim = simulate(SimConfig(model, 300.0, seed=57))
    times = np.round(sim.times, 2)
    keep = np.unique(np.column_stack((times, sim.marks)), axis=0, return_index=True)[1]
    seq = EventSequence(times[keep], sim.marks[keep], 300.0, 3)
    assert np.sum(np.diff(seq.times) == 0) >= 50
    return seq


def reseeded_sample():
    """A univariate sample, and a two-decay config whose first descent leaves a decay idle."""
    model = HawkesModel([1.0], SumExpKernel(np.array([[[0.4]], [[3.0]]]), [1.0, 10.0]))
    return simulate(SimConfig(model, 1000.0, seed=1)), FitConfig(num_decays=2, decay_init=(0.5, 200.0))


class TestProfileGradient:
    def test_matches_central_differences_with_ties(self):
        from blockhawkes import fit as fit_module

        seq = tie_heavy_sequence()
        decays = np.array([1.0, 6.0, 30.0])
        profile = fit_module._Profile(seq, 3)
        fit = fit_given_decays(seq, decays, profile=profile)
        grad, pairs = fit.decay_gradient, fit.pair_gradient
        assert pairs.shape == (3, 3, 3)
        # The gradient is the envelope terms plus the inner gradient dl/dtheta at the
        # returned (mu, alpha) along the slopes dtheta/d log b the profile keeps.
        _, dmu, dalpha = loglik_and_grad(seq, decays, fit.model.mu, fit.model.kernel.alpha)
        dtheta = np.column_stack((dmu, dalpha.transpose(1, 0, 2).reshape(3, 9)))
        residual = np.einsum("ipu,ip->u", profile.slope, dtheta)
        np.testing.assert_allclose(pairs.sum(axis=(1, 2)) + residual, grad, rtol=0.0,
                                   atol=1e-13 * np.abs(pairs).sum())
        h = 1e-4
        for u in range(3):
            step = np.exp(h * (np.arange(3) == u))
            fd = (fit_given_decays(seq, decays * step).log_lik
                  - fit_given_decays(seq, decays / step).log_lik) / (2 * h)
            assert abs(grad[u] - fd) <= 1e-5 * abs(fd)


    @pytest.mark.parametrize("decays", [(1.0, 6.0, 30.0), (0.05, 3.0, 100.0), (0.7, 12.6)])
    def test_invariant_under_time_scaling(self, decays):
        # Times times 2^k and decays over 2^k leave every b g_k, so the profile
        # gradient in log-decays, unchanged; but l shifts by n k log 2, so the
        # inner solves' stop rule ends them at other iterates (5 steps, not 6, for
        # k <= -3).  Measured over k = -8..8: the gradient moves at most 7.7e-10 of
        # its largest entry, and the envelope terms alone up to 7.4e-5.
        seq, decays = tie_heavy_sequence(), np.array(decays)
        base = fit_given_decays(seq, decays).decay_gradient
        for k in range(-8, 9):
            c = 2.0**k
            scaled = EventSequence(seq.times * c, seq.marks, seq.horizon * c, seq.dim)
            grad = fit_given_decays(scaled, decays / c).decay_gradient
            assert np.max(np.abs(grad - base)) <= 4e-9 * np.max(np.abs(base)), k

    def test_closer_to_the_tight_profile_than_the_envelope_terms(self):
        # The reference is the profile l solved to inner_tol 1e-13, differenced at
        # h = 2e-3 and 1e-3 and Richardson-extrapolated: it meets that profile's own
        # gradient to 1e-10.  At inner_tol 1e-6 and 1e-4 the gradient was measured
        # within 9.5e-11 and 5.3e-9 of it, the envelope terms alone 3.7e-9 and 1.5e-3.
        seq, decays = tie_heavy_sequence(), np.array([1.0, 6.0, 30.0])
        tight = FitConfig(num_decays=3, decay_init=decays, inner_tol=1e-13)

        def differences(h):
            out = np.empty(3)
            for u in range(3):
                step = np.exp(h * (np.arange(3) == u))
                out[u] = (fit_given_decays(seq, decays * step, tight).log_lik
                          - fit_given_decays(seq, decays / step, tight).log_lik) / (2 * h)
            return out

        reference = (4 * differences(1e-3) - differences(2e-3)) / 3
        for tol, bound in ((1e-6, 5e-10), (1e-4, 3e-8)):
            fit = fit_given_decays(seq, decays, replace(tight, inner_tol=tol))
            error = np.max(np.abs(fit.decay_gradient - reference))
            envelope = np.max(np.abs(fit.pair_gradient.sum(axis=(1, 2)) - reference))
            assert error <= bound and 10 * error < envelope, (tol, error, envelope)


class TestProfileHessian:
    @pytest.mark.parametrize("decays", [(1.0, 6.0, 30.0), (0.05, 3.0, 100.0)])
    def test_matches_central_differences_of_the_gradient(self, decays):
        # Measured: at h = 1e-4 the differences agree to 2.8e-9 and 2.0e-8 of
        # the largest entry at these decays; the bound leaves 5x.  14 alpha
        # entries sit on their bound at 0, where the profile holds them.
        seq, decays, h = tie_heavy_sequence(), np.array(decays), 1e-4
        fit = fit_given_decays(seq, decays)
        assert np.sum(fit.model.kernel.alpha == 0.0) >= 10
        fd = np.empty((3, 3))
        for u in range(3):
            step = np.exp(h * (np.arange(3) == u))
            fd[:, u] = (fit_given_decays(seq, decays * step).decay_gradient
                        - fit_given_decays(seq, decays / step).decay_gradient) / (2 * h)
        hess = fit.decay_hessian
        assert np.max(np.abs(hess - fd)) <= 1e-7 * np.max(np.abs(hess))

    @pytest.mark.parametrize("decays", [(1e-6, 1.0, 1e4), (1e-6, 2e-6, 1e4), (1.0, 1e4, 2e4)])
    def test_finite_at_the_extremes_of_the_search(self, decays):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StationarityWarning)
            fit = fit_given_decays(tie_heavy_sequence(), decays)
        assert np.all(np.isfinite(fit.decay_hessian)) and np.all(np.isfinite(fit.decay_gradient))

    def test_singular_inner_hessian_takes_the_least_squares_solve(self):
        # Two equal decays give equal design rows: H is singular on the free
        # set, and the curvature is l_bb + B^T pinv(H) B, finite.
        from blockhawkes import fit as fit_module

        rng = np.random.default_rng(0)
        s, r, q = rng.uniform(0.1, 2.0, (3, 50))
        Z, RZ, QZ = np.vstack([np.ones(50), s, s]), np.vstack([r, r]), np.vstack([q, q])
        x, DV, E = np.array([1.0, 0.3, 0.5]), np.array([[0.2], [0.2]]), np.array([[0.4], [0.4]])
        # The slope dx/db is pinv(H) B, the minimum-norm least-squares solve.
        a, inv = x[1:, None], 1.0 / (x @ Z)
        got, slope = fit_module._curvature(Z, RZ, QZ, x @ Z, x, np.zeros(3), DV, E,
                                           np.empty_like(Z))
        rho = a * RZ
        B = Z @ (rho * inv**2).T + np.array([[0.0, 0.0], [0.2, 0.0], [0.0, 0.2]])
        W = Z * inv
        l_bb = np.diag((a * (QZ @ inv)[:, None] - a * E)[:, 0]) - (rho * inv**2) @ rho.T
        want = np.linalg.pinv(W @ W.T) @ B
        assert np.all(np.isfinite(got)) and slope.shape == (3, 2)
        np.testing.assert_allclose(got, l_bb + B.T @ want, rtol=1e-9)
        np.testing.assert_allclose(slope, want, rtol=1e-9, atol=1e-12 * np.max(np.abs(want)))
        # Parameters on their bound are pinned: zero slope, no share of the curvature.
        got, slope = fit_module._curvature(Z, RZ, QZ, x @ Z, x, x, DV, E, np.empty_like(Z))
        assert np.array_equal(slope, np.zeros((3, 2)))
        np.testing.assert_allclose(got, l_bb, rtol=1e-12)


class TestFitPoisson:
    def test_closed_form_rate(self):
        times = np.linspace(0.1, 5.9, 36)
        seq = EventSequence(times, np.ones(36, dtype=int), 6.0, 1)
        fit = fit_poisson(seq)
        np.testing.assert_allclose(fit.rates, [6.0])
        np.testing.assert_allclose(fit.log_lik, 36 * np.log(6.0) - 36.0)

    def test_empty_sequence_flagged(self):
        fit = fit_poisson(EventSequence([], [], 4.0, 2))
        np.testing.assert_array_equal(fit.rates, [0.0, 0.0])
        assert fit.empty_components == (1, 2)

    def test_simulated_rate_within_band(self):
        seq = simulate(SimConfig(HawkesModel([2.0], SumExpKernel(np.zeros((1, 1, 1)), [1.0])), 500.0, seed=21))
        fit = fit_poisson(seq)
        assert abs(fit.rates[0] - 2.0) <= 4 * np.sqrt(2.0 / 500.0)

    def test_to_hawkes_model_round_trip(self):
        seq = EventSequence([1.0, 2.0], [1, 1], 4.0, 2)
        model = fit_poisson(seq).to_hawkes_model()
        assert model.mu[0] == 0.5
        assert model.mu[1] == 1e-10  # floored empty component
        assert np.all(model.kernel.alpha == 0)


class TestFitGivenDecays:
    def test_poisson_data_drives_alpha_to_zero(self):
        seq = simulate(SimConfig(HawkesModel([2.0], SumExpKernel(np.zeros((1, 1, 1)), [1.0])), 2600.0, seed=0))
        assert len(seq) >= 5000
        result = fit_given_decays(seq, [1.0])
        assert result.model.kernel.alpha[0, 0, 0] <= 0.05
        assert abs(result.model.mu[0] - 2.0) / 2.0 <= 0.05

    def test_result_invariants(self):
        _, seq = simulate_univariate(seed=3)
        result = fit_given_decays(seq, [1.2])
        np.testing.assert_allclose(
            result.log_lik, log_likelihood(result.model, seq), rtol=0, atol=1e-8 * (1 + abs(result.log_lik))
        )
        np.testing.assert_array_equal(result.kernel_norm_matrix, kernel_norms(result.model))

    def test_exceeds_poisson_baseline(self):
        _, seq = simulate_univariate(seed=5)
        result = fit_given_decays(seq, [1.2])
        assert result.log_lik >= fit_poisson(seq).log_lik - 1e-9

    def test_degenerate_component_pinned(self):
        rng = np.random.default_rng(2)
        times = np.sort(rng.uniform(0, 50, 120))
        marks = rng.integers(1, 3, 120)  # component 3 never fires
        seq = EventSequence(times, marks, 50.0, 3)
        with pytest.warns(DegenerateComponentWarning):
            result = fit_given_decays(seq, [1.0])
        assert result.model.mu[2] == 1e-10
        assert np.all(result.model.kernel.alpha[:, 2, :] == 0.0)
        assert result.messages

    @pytest.mark.filterwarnings("ignore::blockhawkes.errors.StationarityWarning")
    def test_structural_zero_columns_pinned(self):
        # Component 1 fires only before component 2 does, and component 3
        # never fires: the design columns for 2 -> 1 and 3 -> anything are
        # all zero, which leaves the Hessian singular unless pinned.
        rng = np.random.default_rng(12)
        first = np.sort(rng.uniform(0.0, 25.0, 60))
        second = np.sort(rng.uniform(25.0, 50.0, 60))
        seq = EventSequence(
            np.concatenate([first, second]), np.repeat([1, 2], 60), 50.0, 3
        )
        with pytest.warns(DegenerateComponentWarning):
            result = fit_given_decays(seq, [0.5, 4.0])
        alpha = result.model.kernel.alpha
        assert result.converged
        assert result.model.mu[2] == 1e-10
        assert np.all(alpha[:, 2, :] == 0.0)
        assert np.all(alpha[:, :, 2] == 0.0)
        assert np.all(alpha[:, 0, 1] == 0.0)

    def test_inner_trace_and_iteration_count(self):
        # The trace holds the one profile evaluation.  The step count is the
        # smallest cap that does not cut the solve short.
        _, seq = simulate_univariate(seed=9, horizon=400.0)
        result = fit_given_decays(seq, [1.2])
        steps = result.inner_iterations
        assert result.converged and not result.messages
        assert result.optimizer_trace == [(1, result.log_lik)]
        at_cap = fit_given_decays(seq, [1.2], FitConfig(1, (1.2,), inner_max_iter=steps))
        assert at_cap.log_lik == result.log_lik and not at_cap.messages
        below = fit_given_decays(seq, [1.2], FitConfig(1, (1.2,), inner_max_iter=steps - 1))
        assert below.messages == (f"component 1: inner solve stopped at the {steps - 1}-step cap",)

    def test_step_cap_reported(self):
        _, seq = simulate_univariate(seed=9, horizon=400.0)
        config = FitConfig(num_decays=1, decay_init=(1.2,), inner_max_iter=2)
        result = fit_given_decays(seq, [1.2], config)
        assert result.inner_iterations == 2
        assert not result.converged
        assert any("2-step cap" in msg for msg in result.messages)

    def test_no_progress_reported(self):
        # Steps count only when a line search accepts one, so a target below
        # rounding ends on the no-progress exit, never at the cap.
        _, seq = simulate_univariate(seed=9, horizon=300.0)
        config = FitConfig(num_decays=1, decay_init=(1.2,), inner_tol=1e-300)
        result = fit_given_decays(seq, [1.2], config)
        assert result.inner_iterations == 7
        assert not result.converged
        assert result.messages == (
            "component 1: inner solve stopped without progress above the gradient tolerance",
        )

    # Log-likelihoods reached by the former L-BFGS-B inner solve at the same
    # decays; the Newton solve must do at least as well.  The data come from
    # the thinning oracle, which draws what the simulator drew when these
    # values were recorded.
    @pytest.mark.parametrize("case, reference", [
        ("bench", 6653.973131768578),
        ("random", -355.5661872897672),
    ])
    def test_not_below_former_solver(self, case, reference):
        if case == "bench":
            model = HawkesModel(BENCH_MU, SumExpKernel(BENCH_ALPHA, BENCH_DECAYS))
            seq, decays = thinning_simulate(SimConfig(model, 20.0, seed=5)), [1.0, 8.0, 30.0]
        else:
            model = random_sumexp_model(np.random.default_rng(7), dim=2, num_decays=2)
            seq, decays = thinning_simulate(SimConfig(model, 300.0, seed=11)), [0.7, 12.6]
        result = fit_given_decays(seq, decays)
        assert result.converged
        assert result.log_lik >= reference - 1e-9 * abs(reference)

    @settings(max_examples=30, deadline=None)
    @given(
        dim=st.integers(min_value=1, max_value=3),
        num_decays=st.integers(min_value=1, max_value=2),
        n=st.integers(min_value=5, max_value=300),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_kkt_at_inner_optimum(self, dim, num_decays, n, seed):
        rng = np.random.default_rng(seed)
        seq = random_sequence(rng, dim=dim, n=n, horizon=float(rng.uniform(5.0, 200.0)))
        decays = np.sort(np.exp(rng.uniform(np.log(1e-3), np.log(1e3), num_decays)))
        config = FitConfig(num_decays=num_decays, decay_init=tuple(decays))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = fit_given_decays(seq, decays, config)
        mu, alpha = result.model.mu, result.model.kernel.alpha
        assert np.all(mu >= 1e-10) and np.all(alpha >= 0.0)

        l, dmu, dalpha = loglik_and_grad(seq, decays, mu, alpha)
        pg = np.concatenate([
            np.where((mu <= 1e-10) & (dmu < 0), 0.0, dmu),
            np.where((alpha <= 0.0) & (dalpha < 0), 0.0, dalpha).ravel(),
        ])
        assert result.converged
        assert np.max(np.abs(pg)) <= config.inner_tol * (1.0 + abs(l))

        # Concavity bounds l(theta') by l + g.(theta' - theta); beyond that
        # first-order term only rounding may favor a feasible perturbation.
        for _ in range(20):
            mu_p = np.maximum(mu + rng.normal(0.0, 0.1, mu.shape) * (mu + 0.1), 1e-10)
            alpha_p = np.maximum(alpha + rng.normal(0.0, 0.1, alpha.shape) * (alpha + 0.1), 0.0)
            l_p, _, _ = loglik_and_grad(seq, decays, mu_p, alpha_p)
            shift = np.abs(mu_p - mu).sum() + np.abs(alpha_p - alpha).sum()
            assert l >= l_p - np.max(np.abs(pg)) * shift - 1e-12 * (1.0 + abs(l))

    def test_reproducible(self):
        _, seq = simulate_univariate(seed=8, horizon=400.0)
        a = fit_given_decays(seq, [1.2])
        b = fit_given_decays(seq, [1.2])
        np.testing.assert_array_equal(a.model.mu, b.model.mu)
        np.testing.assert_array_equal(a.model.kernel.alpha, b.model.kernel.alpha)
        assert a.log_lik == b.log_lik

    def test_scale_consistency(self):
        # Rescaling time by s: decays and mu scale by 1/s, kernel norms invariant.
        _, seq = simulate_univariate(seed=10, horizon=600.0)
        s = 4.0
        scaled = EventSequence(seq.times * s, seq.marks, seq.horizon * s, 1)
        base = fit_given_decays(seq, [1.2])
        rescaled = fit_given_decays(scaled, [1.2 / s])
        np.testing.assert_allclose(rescaled.model.mu, base.model.mu / s, rtol=1e-4)
        np.testing.assert_allclose(
            rescaled.model.kernel.alpha, base.model.kernel.alpha / s, rtol=1e-3, atol=1e-9
        )
        np.testing.assert_allclose(
            rescaled.kernel_norm_matrix, base.kernel_norm_matrix, rtol=1e-3, atol=1e-9
        )


class TestNewtonComponent:
    def test_singular_hessian_falls_back_to_the_gradient_step(self, monkeypatch):
        # Z = [1, x, x, y]: one design row twice, its cost split evenly between the
        # copies, so H = W W^T is singular and dpotrf fails on most steps; the diagonally
        # scaled projected-gradient step stands in there.  The solve must still stop on
        # the gradient tolerance (reason None) at the optimum of the merged design
        # [1, x, y].  Measured: 18 of 26 factorizations fail, and the objectives differ
        # by 4.2e-16 relative (at most 4.8e-15 over decays 0.3, 1, 3 and all three
        # components of this sequence).
        from scipy.linalg import lapack

        from blockhawkes import fit as fit_module

        factor, failed = lapack.dpotrf, []

        def counted(*args, **kwargs):
            L, info = factor(*args, **kwargs)
            failed.append(info != 0)
            return L, info

        monkeypatch.setattr(lapack, "dpotrf", counted)
        profile, config = fit_module._Profile(tie_heavy_sequence(), 1), FitConfig()
        c = profile.design(np.array([1.0]))[0]
        z, lower = profile.Z[0], np.r_[fit_module.MU_FLOOR, 0.0, 0.0, 0.0]
        tol = 0.1 * config.inner_tol

        def solve(Z, cost, bound):
            x, lam, _, _, reason = fit_module._newton_component(
                Z, cost, bound, profile.theta[0, : bound.size], config.inner_max_iter, tol,
                np.empty_like(Z))
            return np.log(lam).sum() - cost @ x, reason

        split, reason = solve(z[[0, 1, 1, 2]], c[[0, 1, 1, 2]] / [1, 2, 2, 1], lower)
        assert reason is None and any(failed)
        merged, reason = solve(z[:3], c[:3] / [1, 2, 1], lower[:3])
        assert reason is None
        assert abs(split - merged) <= 1e-14 * abs(merged)


class TestFitFull:
    def test_profile_grid_oracle(self):
        # Data generated at beta=2: the profile likelihood over a decay grid
        # peaks at the generating value.
        model = HawkesModel([1.0], SumExpKernel(np.array([[[1.0]]]), [2.0]))
        seq = simulate(SimConfig(model, 3000.0, seed=6))
        grid = [0.5, 1.0, 2.0, 4.0, 8.0]
        profile = [fit_given_decays(seq, [b]).log_lik for b in grid]
        assert grid[int(np.argmax(profile))] == 2.0

    def test_zero_outer_budget_returns_init(self):
        _, seq = simulate_univariate(seed=14, horizon=300.0)
        config = FitConfig(num_decays=1, decay_init=(0.9,), outer_max_iter=0)
        result = fit_full(seq, config)
        assert result.model.kernel.decays[0] == 0.9
        assert result.converged is False
        assert result.outer_iterations == 0

    def test_monotone_outer_progress(self):
        _, seq = simulate_univariate(seed=15, horizon=500.0)
        result = fit_full(seq, FitConfig(num_decays=1, decay_init=(0.5,)))
        values = [l for _, l in result.optimizer_trace]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == result.log_lik

    def test_criterion_5_seed_3_converges(self):
        # Criterion 5's parameters at 480 h, seed 3 (154,293 events): with the
        # envelope terms alone as its gradient the search stopped after 25
        # iterations at a gradient of 0.0185 with converged=False.
        model = HawkesModel(BENCH_MU, SumExpKernel(BENCH_ALPHA, BENCH_DECAYS))
        result = fit_full(simulate(SimConfig(model, 480.0, seed=3)))
        assert result.converged and result.messages == ()
        assert np.max(np.abs(result.decay_gradient)) <= FitConfig().outer_tol
        assert result.outer_iterations <= 12

    def test_univariate_recovery(self):
        truth_mu, truth_alpha, truth_beta = 1.0, 0.8, 1.2
        model, seq = simulate_univariate(truth_mu, truth_alpha, truth_beta, horizon=3333.0, seed=30)
        assert len(seq) >= 8000
        result = fit_full(seq, FitConfig(num_decays=1, decay_init=(0.5,)))
        k = result.model.kernel
        assert abs(result.model.mu[0] - truth_mu) / truth_mu <= 0.15
        assert abs(k.alpha[0, 0, 0] - truth_alpha) / truth_alpha <= 0.15
        assert abs(k.decays[0] - truth_beta) / truth_beta <= 0.15

    def test_reseeding_lifts_an_idle_decay(self, monkeypatch):
        from blockhawkes import fit as fit_module

        # From (0.5, 200) the first descent leaves the fast decay at ~1271 /h
        # with 0.2 % of the kernel norm, where its gradient is ~0.
        seq, config = reseeded_sample()
        with monkeypatch.context() as patch:
            patch.setattr(fit_module, "RESEED_ROUNDS", 0)
            first = fit_full(seq, config)
        norms = first.model.kernel.alpha.sum(axis=(1, 2)) / first.model.kernel.decays
        assert first.converged and norms[1] <= fit_module.RESEED_SHARE * norms.sum()
        result = fit_full(seq, config)
        assert result.converged
        assert result.log_lik > first.log_lik + 1.0
        assert np.all(result.model.kernel.alpha.sum(axis=(1, 2)) > 0.0)

    def test_split_follows_the_pair_gradient_spread(self, monkeypatch):
        # Pairs (1,1) and (2,1) excite at decay 1, pair (2,2) at decay 4.  From
        # (2, 300) the first descent shares one decay among all three pairs and
        # leaves the fast one idle; the shared decay's pair terms disagree.
        from blockhawkes import fit as fit_module

        alpha = np.zeros((2, 2, 2))
        alpha[0, 0, 0], alpha[0, 1, 0], alpha[1, 1, 1] = 0.5, 0.2, 2.0
        model = HawkesModel([1.0, 1.0], SumExpKernel(alpha, [1.0, 4.0]))
        seq = simulate(SimConfig(model, 2000.0, seed=1))
        config = FitConfig(num_decays=2, decay_init=(2.0, 300.0))
        with monkeypatch.context() as patch:
            patch.setattr(fit_module, "RESEED_ROUNDS", 0)
            first = fit_full(seq, config)
        norms = first.model.kernel.alpha.sum(axis=(1, 2)) / first.model.kernel.decays
        assert first.converged and norms[1] <= fit_module.RESEED_SHARE * norms.sum()
        assert int(np.argmax(np.ptp(first.pair_gradient, axis=(1, 2)))) == 0
        result = fit_full(seq, config)
        assert result.converged
        assert np.all(result.model.kernel.alpha.sum(axis=(1, 2)) > 0.0)
        assert result.log_lik >= first.log_lik + 40.0

    def test_one_decay_is_not_split(self, monkeypatch):
        # The first descent leaves the only decay idle on uniform events, and
        # there is no other decay to split it off: no evaluation follows.
        from blockhawkes import fit as fit_module

        rng = np.random.default_rng(3)
        seq = EventSequence(np.sort(rng.uniform(0.0, 500.0, 500)), np.ones(500, dtype=int), 500.0, 1)
        config = FitConfig(num_decays=1, decay_init=(1.0,))
        solve, calls = fit_module.fit_given_decays, []
        monkeypatch.setattr(fit_module, "fit_given_decays",
                            lambda *args, **kwargs: calls.append(args[1]) or solve(*args, **kwargs))
        with monkeypatch.context() as patch:
            patch.setattr(fit_module, "RESEED_ROUNDS", 0)
            first = fit_full(seq, config)
        descent = len(calls)
        assert first.converged and first.model.kernel.alpha.sum() == 0.0
        result = fit_full(seq, config)
        assert len(calls) == 2 * descent
        assert result.log_lik == first.log_lik

    def test_verdict_is_the_projected_gradient(self):
        _, seq = simulate_univariate(seed=14, horizon=300.0)
        capped = fit_full(seq, FitConfig(num_decays=1, decay_init=(0.2,), outer_max_iter=1))
        assert capped.outer_iterations == 1
        assert np.max(np.abs(capped.decay_gradient)) > FitConfig().outer_tol
        assert capped.converged is False
        assert capped.messages == (
            "decay search descent 1: Maximum number of iterations has been exceeded.",)
        full = fit_full(seq, FitConfig(num_decays=1, decay_init=(0.2,)))
        assert full.converged is True
        assert np.max(np.abs(full.decay_gradient)) <= FitConfig().outer_tol

    @pytest.mark.parametrize("case", ["univariate", "pinned", "reseeded"])
    def test_returns_the_end_point_of_its_best_descent(self, case, monkeypatch):
        # The returned fit is the record of the last accepted trust-region
        # iterate: the inner fit at its decays, warm-started there, so it
        # agrees with a cold fit_given_decays to assert_near_fit's bounds, and
        # it passes the gradient test that converged=True claims.
        from blockhawkes import fit as fit_module

        if case == "univariate":
            _, seq = simulate_univariate(seed=15, horizon=500.0)
            config = FitConfig(num_decays=1, decay_init=(0.5,))
        elif case == "pinned":
            model = random_sumexp_model(np.random.default_rng(7), dim=2, num_decays=2)
            seq = thinning_simulate(SimConfig(model, 300.0, seed=11))
            config = FitConfig(num_decays=2, decay_init=(0.5, 5.0))
        else:
            seq, config = reseeded_sample()
        solve, calls = fit_module.fit_given_decays, []
        monkeypatch.setattr(fit_module, "fit_given_decays",
                            lambda *args, **kwargs: calls.append(args[1]) or solve(*args, **kwargs))
        result = fit_full(seq, config)
        assert result.converged
        assert np.max(np.abs(result.decay_gradient)) <= config.outer_tol
        assert any(np.array_equal(d, result.model.kernel.decays) for d in calls)
        assert len(calls) == len(result.optimizer_trace)  # no evaluation beyond the search's
        assert_near_fit(result, solve(seq, result.model.kernel.decays, config))

    def test_rerun_is_bitwise_equal(self):
        # Each evaluation starts from the one before it; the history is
        # deterministic, so a rerun repeats every bit, re-seeded descent included.
        seq, config = reseeded_sample()
        assert_same_fit(fit_full(seq, config), fit_full(seq, config))

    def test_warm_start_takes_fewer_newton_steps(self, monkeypatch):
        # The same search with every inner solve started cold (a fresh profile
        # per evaluation) takes 67 Newton steps here; the warm start takes 27.
        # Both make the same 10 component solves and agree to 1.1e-11 nats.
        from blockhawkes import fit as fit_module

        seq, config = reseeded_sample()
        newton, solve, steps = fit_module._newton_component, fit_module.fit_given_decays, []

        def counted(*args):
            result = newton(*args)
            steps.append(result[3])
            return result

        monkeypatch.setattr(fit_module, "_newton_component", counted)
        warm = fit_full(seq, config)
        warm_steps, steps[:] = list(steps), []
        monkeypatch.setattr(fit_module, "fit_given_decays",
                            lambda seq, decays, config, profile: solve(seq, decays, config))
        cold = fit_full(seq, config)
        assert warm.converged and cold.converged
        assert len(warm_steps) == len(steps)
        assert sum(warm_steps) < sum(steps)
        assert abs(warm.log_lik - cold.log_lik) <= 1e-10

    @pytest.mark.parametrize("scale", [8.0, 60.0])
    def test_time_unit_moves_no_fit(self, scale):
        # Times and horizon times c, decays over c: l shifts by -n log c.
        # Measured: 2.8e-9 nats and 6.5e-7 relative in the decays.
        model = random_sumexp_model(np.random.default_rng(1))
        seq = simulate(SimConfig(model, 100.0, seed=1))
        base = fit_full(seq, FitConfig(num_decays=2, decay_init=(0.5, 5.0)))
        moved = fit_full(EventSequence(seq.times * scale, seq.marks, seq.horizon * scale, 3),
                         FitConfig(num_decays=2, decay_init=(0.5 / scale, 5.0 / scale)))
        assert base.converged and moved.converged
        assert abs(moved.log_lik + len(seq) * np.log(scale) - base.log_lik) <= 1e-7
        np.testing.assert_allclose(moved.model.kernel.decays * scale, base.model.kernel.decays,
                                   rtol=1e-5)

    def test_warns_once_for_the_returned_model(self):
        rng = np.random.default_rng(2)
        times = np.sort(rng.uniform(0, 50, 120))
        marks = rng.integers(1, 3, 120)  # component 3 never fires
        seq = EventSequence(times, marks, 50.0, 3)
        with pytest.warns(DegenerateComponentWarning) as record:
            result = fit_full(seq, FitConfig(num_decays=1, decay_init=(1.0,)))
        assert result.outer_iterations > 1
        categories = [w.category for w in record]
        assert categories.count(DegenerateComponentWarning) == 1
        rho = spectral_radius(result.kernel_norm_matrix)
        assert categories.count(StationarityWarning) == int(rho >= 1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf objective values in scipy
    def test_all_vertex_failure_raises(self, monkeypatch):
        from blockhawkes import fit as fit_module
        from blockhawkes.errors import FittingError

        _, seq = simulate_univariate(seed=16, horizon=100.0)

        def always_fails(*args, **kwargs):
            raise FittingError("synthetic inner failure")

        monkeypatch.setattr(fit_module, "fit_given_decays", always_fails)
        with pytest.raises(FittingError, match="every profile evaluation failed"):
            fit_module.fit_full(seq, FitConfig(num_decays=1, decay_init=(1.0,)))

    def test_inner_solver_bug_propagates(self, monkeypatch):
        # Only typed toolkit and linear-algebra failures score a vertex as
        # -inf; anything else is a defect and must surface.
        from blockhawkes import fit as fit_module

        _, seq = simulate_univariate(seed=16, horizon=100.0)

        def broken(*args, **kwargs):
            raise TypeError("synthetic solver defect")

        monkeypatch.setattr(fit_module, "_newton_component", broken)
        with pytest.raises(TypeError, match="synthetic solver defect"):
            fit_module.fit_full(seq, FitConfig(num_decays=1, decay_init=(1.0,)))

    def test_two_decay_norm_recovery(self):
        alpha = np.array([[[0.4]], [[3.0]]])
        decays = np.array([1.0, 10.0])
        model = HawkesModel([1.0], SumExpKernel(alpha, decays))
        truth_norm = model.kernel.norms()[0, 0]  # 0.7
        seq = simulate(SimConfig(model, 6000.0, seed=44))
        assert len(seq) >= 15000
        result = fit_full(seq, FitConfig(num_decays=2, decay_init=(0.5, 5.0)))
        fitted_norm = result.kernel_norm_matrix[0, 0]
        assert abs(fitted_norm - truth_norm) / truth_norm <= 0.10


def assert_same_fit(a, b):
    """Every FitResult field equal, arrays bit for bit."""
    def arrays(r):
        return (r.model.mu, r.model.kernel.alpha, r.model.kernel.decays,
                r.kernel_norm_matrix, r.decay_gradient, r.pair_gradient, r.decay_hessian)

    for x, y in zip(arrays(a), arrays(b)):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    for name in ("log_lik", "converged", "inner_iterations", "outer_iterations",
                 "optimizer_trace", "messages"):
        assert getattr(a, name) == getattr(b, name), name


def assert_near_fit(a, b):
    """a, warm-started, is b's fit at the same decays to the inner tolerance: l to
    1e-10 nats and (mu, alpha) to 2e-6 of the largest.  Measured on the fits
    compared in this file: at most 1.2e-11 nats and 4.1e-7."""
    def theta(r):
        return np.r_[r.model.mu, r.model.kernel.alpha.ravel()]

    assert np.array_equal(a.model.kernel.decays, b.model.kernel.decays)
    assert abs(a.log_lik - b.log_lik) <= 1e-10
    assert np.max(np.abs(theta(a) - theta(b))) <= 2e-6 * np.max(theta(b))
    assert (a.converged, a.messages) == (b.converged, b.messages)


class TestRelabelling:
    """Relabelling the components permutes the fitted (mu, alpha) and keeps l.

    The bounds are measured.  Over 1,000 draws of the fit_given_decays case,
    each under all six relabellings, l agreed to 8.9e-14 (1 + |l|) and the
    parameters to 1.6e-11 of the largest: those of a component whose inner
    Hessian has condition number 6.4e6 move by rounding alone.  The fit_full
    case agreed to 1e-13 here and to 2.0e-11 over 12 seeds.
    """

    @staticmethod
    def assert_permuted(base, moved, perm, l_tol, tol):
        # Component i + 1 of the base fit is component perm[i] + 1 of the moved one.
        assert abs(moved.log_lik - base.log_lik) <= l_tol * (1.0 + abs(base.log_lik))
        np.testing.assert_allclose(moved.model.kernel.decays, base.model.kernel.decays,
                                   rtol=tol, atol=0.0)
        theta = np.r_[base.model.mu, base.model.kernel.alpha.ravel()]
        back = np.r_[moved.model.mu[perm], moved.model.kernel.alpha[:, perm][:, :, perm].ravel()]
        assert np.max(np.abs(back - theta)) <= tol * np.max(theta)

    @staticmethod
    def relabelled(seq, perm):
        return EventSequence(seq.times, np.asarray(perm)[seq.marks - 1] + 1, seq.horizon, seq.dim)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        tied=st.booleans(),
        perm=st.permutations(range(3)),
    )
    def test_fit_given_decays(self, seed, tied, perm):
        rng = np.random.default_rng(seed)
        model = random_sumexp_model(rng)
        seq = tied_sequence(rng, 3, 300) if tied else simulate(SimConfig(model, 60.0, seed=seed))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            base = fit_given_decays(seq, model.kernel.decays)
            moved = fit_given_decays(self.relabelled(seq, perm), model.kernel.decays)
        assert moved.converged == base.converged
        self.assert_permuted(base, moved, list(perm), 1e-12, 1e-10)

    def test_fit_full(self):
        model = random_sumexp_model(np.random.default_rng(0))
        seq = simulate(SimConfig(model, 100.0, seed=0))
        config = FitConfig(num_decays=2, decay_init=(0.5, 5.0))
        base = fit_full(seq, config)
        moved = fit_full(self.relabelled(seq, [2, 0, 1]), config)
        assert base.converged and moved.converged
        assert moved.outer_iterations == base.outer_iterations
        self.assert_permuted(base, moved, [2, 0, 1], 1e-10, 1e-10)


class TestProfile:
    def test_shared_buffers_carry_nothing_between_decays(self):
        # Component 3 never fires, so its design block is empty and pinned.
        from blockhawkes import fit as fit_module

        model = random_sumexp_model(np.random.default_rng(7), dim=2, num_decays=2)
        sim = thinning_simulate(SimConfig(model, 300.0, seed=11))
        seq = EventSequence(sim.times, sim.marks, sim.horizon, 3)
        # Only the continuation state carries over: evaluations warm-started
        # from it agree with cold ones to the inner tolerance, and with it
        # reset to a fresh profile's, A after B is A bit for bit.
        a, b = np.array([0.7, 12.6]), np.array([0.05, 40.0])
        profile = fit_module._Profile(seq, 2)
        cold = [profile.theta, profile.slope, profile.x]
        shared = [fit_given_decays(seq, d, profile=profile) for d in (a, b, a)]
        with pytest.warns(DegenerateComponentWarning):
            alone = [fit_given_decays(seq, d) for d in (a, b, a)]
        assert shared[1].log_lik != shared[0].log_lik
        assert_same_fit(shared[0], alone[0])
        for x, y in zip(shared, alone):
            assert_near_fit(x, y)
        profile.theta, profile.slope, profile.x = cold
        assert_same_fit(fit_given_decays(seq, a, profile=profile), alone[0])
        assert shared[0].messages[0].startswith("components [3] have no events")

    def test_workspaces_never_leak_into_records(self):
        # The state and Newton workspaces are overwritten by every evaluation:
        # A, B, then A again (warm-started) agree to the inner tolerance, an
        # earlier record is unchanged by later evaluations, and no recorded
        # array shares memory with a workspace or the continuation state.
        from blockhawkes import fit as fit_module

        def arrays(*objs):
            for obj in objs:
                if isinstance(obj, np.ndarray):
                    yield obj
                elif isinstance(obj, (list, tuple)):
                    yield from arrays(*obj)

        seq = tie_heavy_sequence()
        config = FitConfig(num_decays=2, decay_init=(0.7, 12.6))
        profile = fit_module._Profile(seq, 2)
        made = list(arrays(list(vars(profile).values())))
        a, b = np.log([0.7, 12.6]), np.log([0.05, 40.0])
        first = profile(a, config)
        kept = copy.deepcopy(first)
        second = profile(b, config)
        again = fit_given_decays(seq, np.exp(a), config, profile=profile)
        assert second[0].log_lik != first[0].log_lik
        assert_same_fit(first[0], kept[0])
        assert_near_fit(again, first[0])
        assert len(profile.records) == 2
        for x, y in zip(first[1:], kept[1:]):
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes()
        workspaces = list(arrays(list(vars(profile.solve).values()), profile.states, profile.Z,
                                 profile.RZ, profile.QZ, profile.W))
        assert len(workspaces) == 6 + 3 + 3 * 4
        # Every workspace an evaluation writes was made with the profile.
        assert all(any(w is x for x in made) for w in workspaces[6:])
        workspaces += [profile.theta, profile.slope, profile.x]
        for record in profile.records.values():
            fit, *rest = record
            for x in arrays(fit.model.mu, fit.model.kernel.alpha, fit.model.kernel.decays,
                            fit.kernel_norm_matrix, fit.decay_gradient, fit.pair_gradient,
                            fit.decay_hessian, rest):
                assert not any(np.shares_memory(x, w) for w in workspaces)

    def test_working_set_per_event(self):
        # Every array a three-decay profile of a trivariate sample holds, the state
        # solver's included, grows by at most 456 B per event: 72 B of solver
        # arrays, 72 B for one decay's S, R and Q, 8 B of reads, and the gathers
        # Z, RZ, QZ and W, (1 + U*m) or U*m rows of 8 B each.
        from blockhawkes import fit as fit_module

        def nbytes(profile):
            def arrays(obj):
                if isinstance(obj, np.ndarray):
                    yield obj
                elif isinstance(obj, (list, tuple)):
                    for x in obj:
                        yield from arrays(x)
            found = [x for obj in (vars(profile), vars(profile.solve)) for v in obj.values()
                     for x in arrays(v)]
            return sum(x.nbytes for x in found)

        model = HawkesModel(BENCH_MU, SumExpKernel(BENCH_ALPHA, BENCH_DECAYS))
        seqs = [simulate(SimConfig(model, horizon, seed=1)) for horizon in (10.0, 40.0)]
        sizes = [nbytes(fit_module._Profile(seq, 3)) for seq in seqs]
        assert (sizes[1] - sizes[0]) / (len(seqs[1]) - len(seqs[0])) <= 456

    def test_failed_evaluation_leaves_the_continuation_state(self, monkeypatch):
        # An evaluation whose last component fails replaces neither theta, the
        # slopes nor x: the next evaluation starts as if it had not run.
        from blockhawkes import fit as fit_module

        seq = tie_heavy_sequence()
        config = FitConfig(num_decays=2, decay_init=(0.7, 12.6))
        a, b, c = np.log([0.7, 12.6]), np.log([0.05, 40.0]), np.log([0.8, 11.0])
        profile, clean = fit_module._Profile(seq, 2), fit_module._Profile(seq, 2)
        profile(a, config)
        clean(a, config)
        state = [profile.theta, profile.slope, profile.x]
        kept = copy.deepcopy(state)
        curvature, calls = fit_module._curvature, []

        def last_fails(*args):
            calls.append(1)
            if len(calls) == seq.dim:
                raise np.linalg.LinAlgError("synthetic failure in the last component")
            return curvature(*args)

        with monkeypatch.context() as patch:
            patch.setattr(fit_module, "_curvature", last_fails)
            failed = profile(b, config)
        assert failed[0] is None and failed[1] == np.inf and len(calls) == seq.dim
        assert profile.failures[0].endswith("synthetic failure in the last component")
        for now, before, copied in zip([profile.theta, profile.slope, profile.x], state, kept):
            assert now is before and now.tobytes() == copied.tobytes()
        assert_same_fit(profile(c, config)[0], clean(c, config)[0])

    @pytest.mark.parametrize("case", ["published", "ties", "pinned"])
    def test_loglik_and_grad_is_the_fits_log_likelihood(self, case):
        # Both read _Profile.design, so they agree bit for bit: the published
        # parameters over 60 h (10,120 events), the tie-heavy sequence, and a
        # sample read as dim 3, whose empty component 3 is pinned.
        if case == "published":
            model = HawkesModel(BENCH_MU, SumExpKernel(BENCH_ALPHA, BENCH_DECAYS))
            seq, decays = simulate(SimConfig(model, 60.0, seed=3)), (1.0, 8.0, 30.0)
        elif case == "ties":
            seq, decays = tie_heavy_sequence(), (0.7, 12.6)
        else:
            model = random_sumexp_model(np.random.default_rng(7), dim=2, num_decays=2)
            sim = thinning_simulate(SimConfig(model, 300.0, seed=11))
            seq, decays = EventSequence(sim.times, sim.marks, sim.horizon, 3), (0.7, 12.6)
        config = FitConfig(num_decays=len(decays), decay_init=decays)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fits = [fit_given_decays(seq, decays, config), fit_full(seq, config)]
        for fit in fits:
            got = loglik_and_grad(seq, fit.model.kernel.decays, fit.model.mu, fit.model.kernel.alpha)
            assert got[0] == fit.log_lik

    def test_one_inner_solve_per_profile_evaluation(self, monkeypatch):
        # Tracing wraps the module's fit_given_decays and reads the config as
        # its third argument: each evaluation calls it once, failed or not.
        from blockhawkes import fit as fit_module
        from blockhawkes.errors import FittingError

        _, seq = simulate_univariate(seed=15, horizon=500.0)
        config = FitConfig(num_decays=1, decay_init=(0.5,))
        solve, calls = fit_module.fit_given_decays, []

        def third_fails(*args, **kwargs):
            calls.append(args[2])
            if len(calls) == 3:
                raise FittingError("synthetic inner failure")
            return solve(*args, **kwargs)

        monkeypatch.setattr(fit_module, "fit_given_decays", third_fails)
        result = fit_full(seq, config)
        failures = [msg for msg in result.messages if msg.startswith("decays ")]
        assert len(failures) == 1 and failures[0].endswith("synthetic inner failure")
        assert len(calls) == len(result.optimizer_trace) + len(failures)
        assert all(c is config for c in calls)

    def test_empty_sequence_fails_before_any_evaluation(self, monkeypatch):
        from blockhawkes import fit as fit_module
        from blockhawkes.errors import FittingError

        calls = []
        monkeypatch.setattr(fit_module, "fit_given_decays",
                            lambda *args, **kwargs: calls.append(args))
        for fit in (fit_full, lambda seq: fit_given_decays(seq, [1.0])):
            with pytest.raises(FittingError, match="^cannot fit an empty event sequence$"):
                fit(EventSequence([], [], 10.0, 2))
        assert calls == []

    def test_pinned_fit(self):
        # The search path of this fit, pinned: a change that moves it must
        # say why and record the new values.  Recorded for the trust-region
        # Newton search, which takes 5 evaluations here, with inner solves
        # warm-started from the predictor.  Their iterates differ from cold
        # ones within the inner tolerance, which moved the envelope gradient
        # by 3.9e-6 and, on this flat profile, the decays by 1.1e-5 relative
        # (cold: l -352.9534756859349, decays 4.21631057939245, 17.818532823887907).
        # The gradient's inner-residual term then moved the decays by 5.7e-7
        # and 1.2e-7 relative (before: l -352.9534756988531, decays
        # 4.216355632588226, 17.818549984254407).
        model = random_sumexp_model(np.random.default_rng(7), dim=2, num_decays=2)
        seq = thinning_simulate(SimConfig(model, 300.0, seed=11))
        result = fit_full(seq, FitConfig(num_decays=2, decay_init=(0.5, 5.0)))
        assert result.converged
        np.testing.assert_allclose(result.log_lik, -352.95347569964264, rtol=1e-9)
        np.testing.assert_allclose(result.model.kernel.decays,
                                   [4.216358051402916, 17.81855208413395], rtol=1e-9)


class TestSerialization:
    def test_model_round_trip(self):
        rng = np.random.default_rng(50)
        model = random_sumexp_model(rng, dim=2, num_decays=2)
        back = model_from_dict(model_to_dict(model))
        np.testing.assert_allclose(back.mu, model.mu)
        np.testing.assert_allclose(back.kernel.alpha, model.kernel.alpha)
        np.testing.assert_allclose(back.kernel.decays, model.kernel.decays)

    def test_fit_result_document_fields(self):
        _, seq = simulate_univariate(seed=18, horizon=200.0)
        result = fit_given_decays(seq, [1.2])
        doc = fit_result_to_dict(result)
        for key in ("mu", "alpha", "beta", "log_lik", "kernel_norms", "converged"):
            assert key in doc
        assert doc["beta"] == [1.2]
        assert np.asarray(doc["alpha"]).shape == (1, 1, 1)

    def test_messages_written_when_present(self):
        # Component 2 never fires: its note goes into the document as written.
        _, seq = simulate_univariate(seed=18, horizon=200.0)
        assert "messages" not in fit_result_to_dict(fit_given_decays(seq, [1.2]))
        with pytest.warns(DegenerateComponentWarning):
            result = fit_given_decays(EventSequence(seq.times, seq.marks, seq.horizon, 2), [1.2])
        doc = fit_result_to_dict(result)
        assert doc["messages"] == list(result.messages)
        assert doc["messages"][0].startswith("components [2] have no events")

    def test_per_pair_model_serializes_as_its_shared_decay_form(self):
        model = HawkesModel([0.5, 0.7], ExponentialKernel([[0.2, 0.1], [0.0, 0.3]],
                                                          [[2.0, 0.5], [2.0, 4.0]]))
        doc = model_to_dict(model)
        assert doc["beta"] == [0.5, 2.0, 4.0]
        assert doc["alpha"] == [[[0.0, 0.1], [0.0, 0.0]], [[0.2, 0.0], [0.0, 0.0]],
                                [[0.0, 0.0], [0.0, 0.3]]]
        np.testing.assert_array_equal(model_from_dict(doc).kernel.norms(), model.kernel.norms())

    def test_malformed_document_rejected(self):
        with pytest.raises(InvalidInputError):
            model_from_dict({"mu": [1.0]})
