import mpmath
import numpy as np
import pytest

from blockhawkes import ExponentialKernel, SumExpKernel
from blockhawkes.errors import InvalidInputError
from blockhawkes.kernels import exp_first_moment, exp_second_moment


class TestExpFirstMoment:
    @pytest.mark.parametrize("lag", [0.3, 7.0])
    def test_matches_quadrature(self, lag):
        # b * lag from 1e-8, where the closed form cancels, to 1e3.
        products = np.r_[np.logspace(-8.0, 3.0, 23), 0.5, 40.0]
        got = exp_first_moment(products / lag, lag)
        with mpmath.workdps(40):
            want = [float(mpmath.quad(lambda s: s * mpmath.exp(-mpmath.mpf(x / lag) * s), [0, lag]))
                    for x in products]
        np.testing.assert_allclose(got, want, rtol=2e-15, atol=0)

    def test_tiny_decay_is_half_the_squared_lag(self):
        lags = np.array([0.0, 1.0, 3.0, 1416.0])
        np.testing.assert_array_equal(exp_first_moment(1e-20, lags), lags**2 / 2)


class TestExpSecondMoment:
    @pytest.mark.parametrize("lag", [0.3, 7.0])
    def test_matches_quadrature(self, lag):
        # b * lag from 1e-12 to 1e3, on both sides of the series cut (2) and
        # of the skipped exp (50).
        from scipy import integrate

        products = np.r_[np.logspace(-12.0, 3.0, 31), np.nextafter(2.0, [0.0, 4.0]),
                         np.nextafter(50.0, [0.0, 100.0]), 2.0, 50.0]
        got = exp_second_moment(products / lag, lag)
        want = [integrate.quad(lambda s, b=x / lag: s * s * np.exp(-b * s), 0.0, lag,
                               epsabs=0.0, epsrel=1e-13, limit=200)[0] for x in products]
        np.testing.assert_allclose(got, want, rtol=2e-15, atol=0)

    def test_tiny_decay_is_a_third_of_the_cubed_lag(self):
        lags = np.array([0.0, 1.0, 3.0, 1416.0])
        np.testing.assert_array_equal(exp_second_moment(1e-20, lags), lags**3 / 3)


class TestExponential:
    def test_phi_values(self):
        k = ExponentialKernel([[2.0]], [[1.0]])
        np.testing.assert_allclose(k.phi(1, 1, [0.0, 1.0]), [2.0, 2.0 * np.exp(-1)])

    def test_norms(self):
        k = ExponentialKernel([[1.0, 2.0], [0.0, 4.0]], [[2.0, 4.0], [1.0, 8.0]])
        np.testing.assert_allclose(k.norms(), [[0.5, 0.5], [0.0, 0.5]])

    def test_builds_the_shared_decay_form(self):
        # Tied betas share one decay; each pair keeps its alpha at its own decay.
        k = ExponentialKernel([[1.0, 2.0], [0.5, 4.0]], [[2.0, 4.0], [2.0, 8.0]])
        assert isinstance(k, SumExpKernel)
        np.testing.assert_array_equal(k.decays, [2.0, 4.0, 8.0])
        np.testing.assert_array_equal(
            k.alpha, [[[1.0, 0.0], [0.5, 0.0]], [[0.0, 2.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 4.0]]]
        )

    def test_sumexp_form_is_the_same_kernel(self):
        # phi_ij(t) = alpha_ij exp(-beta_ij t), its integral and its norm,
        # written here from the drawn matrices.
        rng = np.random.default_rng(5)
        lags = np.array([0.0, 1e-9, 0.03, 0.7, 2.0, 50.0])
        for _ in range(5):
            beta = rng.choice(rng.uniform(0.05, 20.0, 3), (3, 3))  # a pool of 3: pairs tie
            alpha = rng.uniform(0.0, 2.0, (3, 3)) * (rng.random((3, 3)) < 0.8)
            k = ExponentialKernel(alpha, beta)
            np.testing.assert_array_equal(k.decays, np.unique(beta))
            np.testing.assert_allclose(k.norms(), alpha / beta, rtol=1e-15, atol=0)
            for i in range(1, 4):
                for j in range(1, 4):
                    a, b = alpha[i - 1, j - 1], beta[i - 1, j - 1]
                    np.testing.assert_allclose(k.phi(i, j, lags), a * np.exp(-b * lags),
                                               rtol=1e-15)
                    np.testing.assert_allclose(k.phi_integral(i, j, lags),
                                               a * -np.expm1(-b * lags) / b, rtol=1e-15)

    def test_negative_alpha_rejected(self):
        with pytest.raises(InvalidInputError, match="^alpha entries must be >= 0$"):
            ExponentialKernel([[-0.1]], [[1.0]])

    def test_nonpositive_beta_rejected(self):
        for beta in (0.0, -2.0):
            with pytest.raises(InvalidInputError, match="^beta entries must be > 0$"):
                ExponentialKernel([[1.0]], [[beta]])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(InvalidInputError, match="^alpha and beta must share a shape$"):
            ExponentialKernel(np.eye(2), [[1.0]])

    def test_matrices_checked(self):
        with pytest.raises(InvalidInputError, match=r"^alpha must be a square matrix, got shape"):
            ExponentialKernel([1.0], [[1.0]])
        with pytest.raises(InvalidInputError, match="^beta must be finite$"):
            ExponentialKernel([[1.0]], [[np.inf]])


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

    def test_decays_must_increase(self):
        with pytest.raises(InvalidInputError, match="increasing"):
            SumExpKernel(np.zeros((2, 1, 1)), [2.0, 2.0])

    def test_shape_validation(self):
        with pytest.raises(InvalidInputError):
            SumExpKernel(np.zeros((2, 2, 3)), [1.0, 2.0])
        with pytest.raises(InvalidInputError):
            SumExpKernel(np.zeros((2, 2, 2)), [1.0])
        with pytest.raises(InvalidInputError, match="^kernel parameters must be finite$"):
            SumExpKernel(np.full((1, 1, 1), np.nan), [1.0])
        with pytest.raises(InvalidInputError, match="^decays must be > 0$"):
            SumExpKernel(np.zeros((2, 1, 1)), [0.0, 1.0])


class TestDrawLags:
    """Each kernel's lag draws follow phi_ij / ||phi_ij||, pair by pair."""

    KERNELS = {
        "sumexp": SumExpKernel(
            [[[0.6, 0.0], [0.2, 0.3]], [[0.4, 1.5], [0.0, 2.0]], [[3.0, 0.5], [1.0, 0.0]]],
            [0.5, 4.0, 30.0],
        ),
        "exponential": ExponentialKernel([[0.3, 0.1], [0.2, 0.4]], [[1.0, 2.0], [1.5, 3.0]]),
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
