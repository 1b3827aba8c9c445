import numpy as np
import pytest

from blockhawkes import ExponentialKernel, PowerLawKernel, SumExpKernel
from blockhawkes.errors import InvalidInputError


class TestExponential:
    def test_phi_values(self):
        k = ExponentialKernel([[2.0]], [[1.0]])
        np.testing.assert_allclose(k.phi(1, 1, [0.0, 1.0]), [2.0, 2.0 * np.exp(-1)])

    def test_norms(self):
        k = ExponentialKernel([[1.0, 2.0], [0.0, 4.0]], [[2.0, 4.0], [1.0, 8.0]])
        np.testing.assert_allclose(k.norms(), [[0.5, 0.5], [0.0, 0.5]])

    def test_negative_alpha_rejected(self):
        with pytest.raises(InvalidInputError):
            ExponentialKernel([[-0.1]], [[1.0]])

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(InvalidInputError):
            ExponentialKernel([[1.0]], [[0.0]])

    def test_sumexp_form_is_the_same_kernel(self):
        # Tied betas share one decay of the shared-decay form.
        k = ExponentialKernel([[1.0, 2.0], [0.5, 4.0]], [[2.0, 4.0], [2.0, 8.0]])
        s = k.sumexp()
        np.testing.assert_array_equal(s.decays, [2.0, 4.0, 8.0])
        np.testing.assert_allclose(s.norms(), k.norms(), rtol=1e-15)
        lags = np.array([0.0, 0.3, 2.0])
        for i in (1, 2):
            for j in (1, 2):
                np.testing.assert_allclose(s.phi(i, j, lags), k.phi(i, j, lags), rtol=1e-15)
                np.testing.assert_allclose(
                    s.phi_integral(i, j, lags), k.phi_integral(i, j, lags), rtol=1e-15
                )


class TestSumExp:
    def test_phi_is_sum_of_terms(self):
        k = SumExpKernel(np.array([[[1.0]], [[0.5]]]), [1.0, 4.0])
        lag = 0.7
        expected = np.exp(-lag) + 0.5 * np.exp(-4 * lag)
        np.testing.assert_allclose(k.phi(1, 1, lag), expected)

    def test_norms_sum_over_decays(self):
        alpha = np.array([[[1.0, 0.2], [0.0, 0.4]], [[2.0, 0.0], [0.6, 0.0]]])
        k = SumExpKernel(alpha, [1.0, 4.0])
        np.testing.assert_allclose(k.norms(), alpha[0] / 1.0 + alpha[1] / 4.0)

    def test_single_term_matches_exponential_norms(self):
        # U=1 sum-of-exponentials and the plain exponential kernel with the
        # same shared decay integrate identically.
        alpha = np.array([[0.3, 0.1], [0.2, 0.5]])
        beta = 2.5
        sum_k = SumExpKernel(alpha[None, :, :], [beta])
        exp_k = ExponentialKernel(alpha, np.full((2, 2), beta))
        np.testing.assert_allclose(sum_k.norms(), exp_k.norms())

    def test_sumexp_form_is_itself(self):
        k = SumExpKernel(np.array([[[1.0]]]), [2.0])
        assert k.sumexp() is k

    def test_decays_must_increase(self):
        with pytest.raises(InvalidInputError, match="increasing"):
            SumExpKernel(np.zeros((2, 1, 1)), [2.0, 2.0])

    def test_shape_validation(self):
        with pytest.raises(InvalidInputError):
            SumExpKernel(np.zeros((2, 2, 3)), [1.0, 2.0])
        with pytest.raises(InvalidInputError):
            SumExpKernel(np.zeros((2, 2, 2)), [1.0])


class TestPowerLaw:
    def test_phi_values(self):
        k = PowerLawKernel([[1.5]], [[0.5]], [[2.0]])
        np.testing.assert_allclose(k.phi(1, 1, 1.0), 1.5 * 1.5**-2.0)

    def test_norms_closed_form(self):
        # integral of a (c+t)^-b over [0, inf) = a c^(1-b) / (b-1)
        a, c, b = 2.0, 0.5, 3.0
        k = PowerLawKernel([[a]], [[c]], [[b]])
        np.testing.assert_allclose(k.norms(), [[a * c ** (1 - b) / (b - 1)]])
        # cross-check against numerical quadrature
        from scipy.integrate import quad

        val, _ = quad(lambda t: a * (c + t) ** -b, 0, np.inf)
        np.testing.assert_allclose(k.norms()[0, 0], val, rtol=1e-10)

    def test_integrability_enforced(self):
        with pytest.raises(InvalidInputError, match="> 1"):
            PowerLawKernel([[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(InvalidInputError):
            PowerLawKernel([[1.0]], [[0.0]], [[2.0]])


class TestDrawLags:
    """Each kernel's lag draws follow phi_ij / ||phi_ij||, pair by pair."""

    KERNELS = {
        "sumexp": SumExpKernel(
            [[[0.6, 0.0], [0.2, 0.3]], [[0.4, 1.5], [0.0, 2.0]], [[3.0, 0.5], [1.0, 0.0]]],
            [0.5, 4.0, 30.0],
        ),
        "exponential": ExponentialKernel([[0.3, 0.1], [0.2, 0.4]], [[1.0, 2.0], [1.5, 3.0]]),
        "power_law": PowerLawKernel([[0.3, 0.2], [0.1, 0.4]], [[1.0, 0.5], [2.0, 1.0]],
                                    [[2.0, 2.5], [3.0, 1.8]]),
    }

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_empirical_cdf_matches_normalised_integral(self, name):
        from scipy.stats import kstest

        kernel = self.KERNELS[name]
        rng = np.random.default_rng(2024)
        marks = np.array([1, 2])
        i, j = (a.ravel() for a in np.meshgrid(marks, marks, indexing="ij"))
        n = 4000
        lags = kernel.draw_lags(rng, np.repeat(i, n), np.repeat(j, n)).reshape(i.size, n)
        norms = kernel.norms()
        for k in range(i.size):
            assert np.all(lags[k] >= 0.0)

            def cdf(x, a=i[k], b=j[k]):
                return kernel.phi_integral(a, b, x) / norms[a - 1, b - 1]

            assert kstest(lags[k], cdf).pvalue > 1e-3, (i[k], j[k])

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_scalar_marks_and_shape(self, name):
        kernel = self.KERNELS[name]
        lags = kernel.draw_lags(np.random.default_rng(1), 2, np.array([1, 2, 2]))
        assert lags.shape == (3,)
        a = kernel.draw_lags(np.random.default_rng(5), 1, np.array([2, 1]))
        b = kernel.draw_lags(np.random.default_rng(5), 1, np.array([2, 1]))
        np.testing.assert_array_equal(a, b)

    def test_power_law_short_lags_keep_precision(self):
        # V tiny: the lag is c * V / (beta - 1) to first order, not rounded to 0.
        class Tiny:
            def random(self, shape):
                return np.full(shape, 1e-18)

        k = PowerLawKernel([[1.0]], [[2.0]], [[3.0]])
        np.testing.assert_allclose(k.draw_lags(Tiny(), 1, np.array([1])), [1e-18], rtol=1e-12)
