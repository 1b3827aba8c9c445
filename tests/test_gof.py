import math

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
    compensator,
    fit_full,
    fit_poisson,
    gof_report,
    ks_exp1,
    qq_exponential,
    qq_slope,
    simulate,
    slope_deviation,
    time_rescale,
)
from blockhawkes.errors import InvalidInputError, UndefinedSlopeError
from blockhawkes.gof import report_to_dict, write_qq_csv

from conftest import random_sequence, random_sumexp_model, tied_sequence


def poisson_hawkes(mu):
    m = len(mu)
    return HawkesModel(np.asarray(mu), SumExpKernel(np.zeros((1, m, m)), [1.0]))


class TestTimeRescale:
    def test_poisson_compensator_is_linear(self):
        mu = 1.7
        seq = EventSequence([1.0, 2.0, 4.0], [1, 1, 1], 5.0, 1)
        rescaled = time_rescale(poisson_hawkes([mu]), seq)[0]
        np.testing.assert_allclose(rescaled, [mu * 1.0, mu * 1.0, mu * 2.0])

    def test_cumulative_values_nondecreasing(self):
        rng = np.random.default_rng(61)
        model = random_sumexp_model(rng)
        seq = random_sequence(rng, n=300)
        for rescaled in time_rescale(model, seq):
            assert np.all(rescaled > 0)

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(min_value=1, max_value=3),
        log_decays=st.lists(
            st.floats(min_value=-8.0, max_value=4.0), min_size=1, max_size=3, unique=True
        ),
        n=st.integers(min_value=0, max_value=80),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_cumulative_values_nondecreasing_from_zero(self, dim, log_decays, n, seed):
        # Extreme decays, tie groups across components and events at t = 0.
        rng = np.random.default_rng(seed)
        decays = np.unique(10.0 ** np.array(log_decays))
        alpha = rng.uniform(0.0, 1.0, (decays.size, dim, dim)) * decays[:, None, None]
        model = HawkesModel(rng.uniform(0.1, 2.0, dim), SumExpKernel(alpha, decays))
        seq = tied_sequence(rng, dim, n)
        for rescaled in time_rescale(model, seq):
            assert np.all(np.isfinite(rescaled))
            assert np.all(rescaled >= 0.0)  # Lambda_i(t_1) >= 0, then its increments

    def test_fast_path_matches_direct_compensator(self):
        rng = np.random.default_rng(62)
        model = random_sumexp_model(rng, dim=2, num_decays=3)
        cases = [
            (model, random_sequence(rng, dim=2, n=250, horizon=90.0)),
            # b * lag ~ 1e-20: a compensator formed as (count - S) / b loses the
            # kernel part here.  Cumulative rescaled times are (1, 2.5, 6.5).
            (
                HawkesModel([1.0], SumExpKernel(np.array([[[0.5]]]), [1e-20])),
                EventSequence([1.0, 2.0, 4.0], [1, 1, 1], 10.0, 1),
            ),
        ]
        for model, seq in cases:
            fast = time_rescale(model, seq)
            for i in range(1, seq.dim + 1):
                times_i = seq.component_times(i)
                taus = np.array([compensator(model, seq, i, t) for t in times_i])
                np.testing.assert_allclose(
                    fast[i - 1], np.diff(taus, prepend=0.0), rtol=1e-9, atol=1e-9
                )

    def test_sparse_component_gives_empty(self):
        seq = EventSequence([1.0, 2.0, 3.0], [1, 1, 2], 5.0, 2)
        rescaled = time_rescale(poisson_hawkes([1.0, 1.0]), seq)
        assert rescaled[1].size == 0

    def test_dimension_mismatch_reads_as_in_core(self):
        seq = EventSequence([1.0, 2.0, 3.0], [1, 1, 2], 5.0, 2)
        with pytest.raises(InvalidInputError,
                           match="^model dimension 1 != sequence dimension 2$"):
            time_rescale(poisson_hawkes([1.0]), seq)

    def test_rescaled_mean_near_one_under_true_model(self):
        model = HawkesModel([1.0], SumExpKernel(np.array([[[0.5]]]), [1.0]))
        seq = simulate(SimConfig(model, 1000.0, seed=19))
        rescaled = time_rescale(model, seq)[0]
        n = rescaled.size
        assert n >= 1000
        assert abs(rescaled.mean() - 1.0) <= 4.0 / np.sqrt(n)


class TestQqExponential:
    def test_exact_quantiles_land_on_diagonal(self):
        n = 200
        p = np.arange(1, n + 1) / (n + 1)
        samples = -np.log1p(-p)
        pairs = qq_exponential(samples)
        np.testing.assert_allclose(pairs[:, 0], pairs[:, 1], rtol=1e-12)
        assert slope_deviation(pairs) < 1e-12

    def test_single_sample(self):
        pairs = qq_exponential([math.log(2.0)])
        np.testing.assert_allclose(pairs, [[math.log(2.0), math.log(2.0)]])

    def test_sorted_both_coordinates(self):
        rng = np.random.default_rng(63)
        pairs = qq_exponential(rng.exponential(1.0, 500))
        assert np.all(np.diff(pairs[:, 0]) > 0)
        assert np.all(np.diff(pairs[:, 1]) >= 0)

    def test_empty_input(self):
        assert qq_exponential([]).shape == (0, 2)

    def test_large_sample_slope_near_one(self):
        rng = np.random.default_rng(64)
        pairs = qq_exponential(rng.exponential(1.0, 10_000))
        assert slope_deviation(pairs) < 0.03


class TestSlope:
    def test_diagonal_slope(self):
        pairs = np.column_stack([np.arange(1, 6.0), np.arange(1, 6.0)])
        assert slope_deviation(pairs) == 0.0

    def test_doubling_slope(self):
        x = np.array([0.5, 1.0, 2.0])
        pairs = np.column_stack([x, 2 * x])
        np.testing.assert_allclose(qq_slope(pairs), 2.0)
        np.testing.assert_allclose(slope_deviation(pairs), 1.0)

    def test_too_few_pairs(self):
        with pytest.raises(UndefinedSlopeError):
            qq_slope(np.array([[1.0, 1.0]]))

    def test_degenerate_abscissae(self):
        with pytest.raises(UndefinedSlopeError):
            qq_slope(np.array([[1.0, 1.0], [1.0, 2.0]]))

    @settings(max_examples=50, deadline=None)
    @given(
        scale=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_scale_covariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0.01, 5.0, 20))
        y = rng.uniform(0.01, 5.0, 20)
        pairs = np.column_stack([x, y])
        scaled = np.column_stack([x, scale * y])
        np.testing.assert_allclose(qq_slope(scaled), scale * qq_slope(pairs), rtol=1e-9)


class TestKs:
    def test_construction_bound(self):
        n = 100
        p = np.arange(1, n + 1) / (n + 1)
        stat, _ = ks_exp1(-np.log1p(-p))
        assert stat <= 1.0 / (n + 1) + 1e-12

    def test_degenerate_mass(self):
        stat, p = ks_exp1(np.full(50, 0.1))
        assert stat >= 0.9 - (1 - math.exp(-0.1))
        assert p < 1e-6

    def test_unit_exponential_draws_pass(self):
        passed = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            _, p = ks_exp1(rng.exponential(1.0, 5000))
            passed += p > 0.01
        assert passed >= 95

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            ks_exp1([])


class TestReport:
    def test_structure_and_labels(self):
        rng = np.random.default_rng(65)
        model = random_sumexp_model(rng, dim=2)
        seq = random_sequence(rng, dim=2, n=200)
        report = gof_report(model, seq, "hawkes")
        assert report.model_label == "hawkes"
        assert [c.component for c in report.components] == [1, 2]
        for comp in report.components:
            pairs = qq_exponential(comp.rescaled_interarrivals)
            assert pairs.shape[0] == comp.rescaled_interarrivals.size
            assert comp.slope == qq_slope(pairs)
            assert comp.slope_deviation >= 0

    def test_bad_label_rejected(self):
        with pytest.raises(InvalidInputError):
            gof_report(poisson_hawkes([1.0]), EventSequence([], [], 1.0, 1), "other")

    def test_degenerate_component_flagged_and_serialized(self, tmp_path):
        seq = EventSequence([0.5, 1.0, 2.0], [1, 1, 1], 5.0, 2)
        report = gof_report(poisson_hawkes([1.0, 1.0]), seq, "poisson")
        assert report.components[1].degenerate
        doc = report_to_dict(report)
        assert doc["components"][1]["slope"] is None
        paths = write_qq_csv(report, tmp_path / "qq.csv")
        assert len(paths) == 1 and paths[0].endswith("qq_c1.csv")

    def test_no_spurious_hawkes_advantage_on_memoryless_data(self):
        seq = simulate(SimConfig(poisson_hawkes([2.0]), 1500.0, seed=66))
        hawkes_fit = fit_full(seq, FitConfig(num_decays=1, decay_init=(1.0,)))
        poisson_view = fit_poisson(seq).to_hawkes_model()
        dev_h = gof_report(hawkes_fit.model, seq, "hawkes").components[0].slope_deviation
        dev_p = gof_report(poisson_view, seq, "poisson").components[0].slope_deviation
        assert abs(dev_h - dev_p) <= 0.02
