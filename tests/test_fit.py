import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockhawkes import (
    EventSequence,
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
from blockhawkes.errors import DegenerateComponentWarning, InvalidInputError, StationarityWarning

from conftest import BENCH_ALPHA, BENCH_DECAYS, BENCH_MU, random_sequence, random_sumexp_model
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


class TestProfileGradient:
    def test_matches_central_differences_with_ties(self):
        # Times rounded to 0.01 h leave tied events across components.
        rng = np.random.default_rng(57)
        model = random_sumexp_model(rng, dim=3, num_decays=2)
        sim = simulate(SimConfig(model, 300.0, seed=57))
        times = np.round(sim.times, 2)
        keep = np.unique(np.column_stack((times, sim.marks)), axis=0, return_index=True)[1]
        seq = EventSequence(times[keep], sim.marks[keep], 300.0, 3)
        assert np.sum(np.diff(seq.times) == 0) >= 50
        decays = np.array([1.0, 6.0, 30.0])
        grad = fit_given_decays(seq, decays).decay_gradient
        h = 1e-4
        for u in range(3):
            step = np.exp(h * (np.arange(3) == u))
            fd = (fit_given_decays(seq, decays * step).log_lik
                  - fit_given_decays(seq, decays / step).log_lik) / (2 * h)
            assert abs(grad[u] - fd) <= 1e-5 * abs(fd)


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
        _, seq = simulate_univariate(seed=9, horizon=400.0)
        result = fit_given_decays(seq, [1.2])
        values = [l for _, l in result.optimizer_trace]
        assert result.converged and not result.messages
        assert [k for k, _ in result.optimizer_trace] == list(range(1, result.inner_iterations + 1))
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(result.log_lik, rel=1e-12)

    def test_step_cap_reported(self):
        _, seq = simulate_univariate(seed=9, horizon=400.0)
        config = FitConfig(num_decays=1, decay_init=(1.2,), inner_max_iter=2)
        result = fit_given_decays(seq, [1.2], config)
        assert result.inner_iterations == 2
        assert not result.converged
        assert any("2-step cap" in msg for msg in result.messages)

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

        model = HawkesModel([1.0], SumExpKernel(np.array([[[0.4]], [[3.0]]]), [1.0, 10.0]))
        seq = simulate(SimConfig(model, 1000.0, seed=1))
        config = FitConfig(num_decays=2, decay_init=(0.01, 2.0))
        with monkeypatch.context() as patch:
            patch.setattr(fit_module, "RESEED_ROUNDS", 0)
            first = fit_full(seq, config)
        assert first.converged and first.model.kernel.alpha[0].sum() == 0.0  # idle, zero gradient
        result = fit_full(seq, config)
        assert result.converged
        assert result.log_lik > first.log_lik + 1.0
        assert np.all(result.model.kernel.alpha.sum(axis=(1, 2)) > 0.0)

    def test_verdict_is_the_projected_gradient(self):
        _, seq = simulate_univariate(seed=14, horizon=300.0)
        capped = fit_full(seq, FitConfig(num_decays=1, decay_init=(0.2,), outer_max_iter=1))
        assert capped.outer_iterations == 1
        assert np.max(np.abs(capped.decay_gradient)) > FitConfig().outer_tol
        assert capped.converged is False
        full = fit_full(seq, FitConfig(num_decays=1, decay_init=(0.2,)))
        assert full.converged is True
        assert np.max(np.abs(full.decay_gradient)) <= FitConfig().outer_tol

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

    def test_malformed_document_rejected(self):
        with pytest.raises(InvalidInputError):
            model_from_dict({"mu": [1.0]})
