"""Parametric excitation kernels for multivariate Hawkes processes.

A kernel phi_ij(t) gives the boost a past event of component j adds to the
intensity of component i after a lag of t hours.  Three families are
supported:

* :class:`ExponentialKernel`   phi_ij(t) = alpha_ij * exp(-beta_ij * t)
* :class:`SumExpKernel`        phi_ij(t) = sum_u alpha^u_ij * exp(-beta^u * t),
  with decays beta^u shared across all (i, j) pairs
* :class:`PowerLawKernel`      phi_ij(t) = alpha_ij * (c_ij + t)^(-beta_ij),
  integrable only for beta_ij > 1

Each kernel answers ``phi``, its integral ``phi_integral`` over [0, lag],
``draw_lags`` from phi_ij normalised to a density (the simulator's offspring
lags), and ``sumexp()``, the equivalent :class:`SumExpKernel` or ``None``.
Only the exponential families have that finite Markov state and so admit
O(n) recursive evaluation; :class:`ExponentialKernel` maps onto it with one
shared decay per distinct beta.  The power-law kernel keeps the event
history for evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidInputError


def _as_matrix(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} must be finite")
    a.flags.writeable = False
    return a


def exp_integral(b, lags) -> np.ndarray:
    """Integral of exp(-b s) over [0, lag]; exact even when b * lag is tiny."""
    return -np.expm1(-b * lags) / b


# Taylor coefficients of (1 - exp(-x) (1 + x)) / x^2, highest first; 16 reach rounding at x <= 0.5
_MOMENT_SERIES = [(-1) ** k * (k - 1) / math.factorial(k) for k in range(17, 1, -1)]


def exp_first_moment(b, lags) -> np.ndarray:
    """Integral of s exp(-b s) over [0, lag], lag^2 (1 - exp(-x) (1 + x)) / x^2
    with x = b * lag.  A series serves x <= 0.5, where that form cancels, so
    it is lag^2 / 2 as b goes to 0; past x = 40 exp(-x) (1 + x) is below
    rounding, and skipping it skips a slow underflowing exp."""
    x = np.asarray(b * lags, dtype=float)
    ratio = np.maximum(x, 40.0, out=np.empty_like(x))
    ratio **= -2.0
    small = x <= 0.5
    mid = (x <= 40.0) & ~small
    ratio[small] = np.polyval(_MOMENT_SERIES, x[small])
    xm = x[mid]
    ratio[mid] = (-np.expm1(-xm) - xm * np.exp(-xm)) / xm**2
    return lags**2 * ratio


@dataclass(frozen=True)
class ExponentialKernel:
    """Single-exponential kernel with per-pair amplitudes and decays."""

    alpha: np.ndarray  # (m, m), >= 0
    beta: np.ndarray   # (m, m), > 0, per hour

    def __post_init__(self):
        alpha = _as_matrix(self.alpha, "alpha")
        beta = _as_matrix(self.beta, "beta")
        if alpha.shape != beta.shape:
            raise InvalidInputError("alpha and beta must share a shape")
        if np.any(alpha < 0):
            raise InvalidInputError("alpha entries must be >= 0")
        if np.any(beta <= 0):
            raise InvalidInputError("beta entries must be > 0")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def dim(self) -> int:
        return self.alpha.shape[0]

    def phi(self, i: int, j, lags) -> np.ndarray:
        """Evaluate phi_ij at nonnegative lags (1-based i; j a mark or marks)."""
        lags = np.asarray(lags, dtype=float)
        return self.alpha[i - 1, j - 1] * np.exp(-self.beta[i - 1, j - 1] * lags)

    def phi_integral(self, i: int, j, lags) -> np.ndarray:
        """Integral of phi_ij over [0, lag]."""
        lags = np.asarray(lags, dtype=float)
        return self.alpha[i - 1, j - 1] * exp_integral(self.beta[i - 1, j - 1], lags)

    def draw_lags(self, rng: np.random.Generator, i, j) -> np.ndarray:
        """One lag per (i, j) pair from phi_ij / ||phi_ij||, that is Exp(beta_ij)."""
        return self.sumexp().draw_lags(rng, i, j)

    def norms(self) -> np.ndarray:
        """Integral of each phi_ij over [0, inf): alpha / beta."""
        return self.alpha / self.beta

    def sumexp(self) -> SumExpKernel:
        """The same kernel with one shared decay per distinct beta."""
        decays = np.unique(self.beta)
        alpha = np.where(self.beta == decays[:, None, None], self.alpha, 0.0)
        return SumExpKernel(alpha, decays)


@dataclass(frozen=True)
class SumExpKernel:
    """Sum-of-exponentials kernel with decays shared across pairs.

    The shared decays are what make the intensity a finite-dimensional
    Markov state, enabling O(n) evaluation over an event sequence.
    """

    alpha: np.ndarray   # (U, m, m), >= 0
    decays: np.ndarray  # (U,), > 0, strictly increasing

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        decays = np.asarray(self.decays, dtype=float)
        if alpha.ndim != 3 or alpha.shape[1] != alpha.shape[2]:
            raise InvalidInputError(f"alpha must have shape (U, m, m), got {alpha.shape}")
        if decays.ndim != 1 or decays.shape[0] != alpha.shape[0]:
            raise InvalidInputError("decays must be a vector of length U")
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(decays))):
            raise InvalidInputError("kernel parameters must be finite")
        if np.any(alpha < 0):
            raise InvalidInputError("alpha entries must be >= 0")
        if np.any(decays <= 0):
            raise InvalidInputError("decays must be > 0")
        if np.any(np.diff(decays) <= 0):
            raise InvalidInputError("decays must be strictly increasing (canonical order)")
        alpha.flags.writeable = False
        decays.flags.writeable = False
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "decays", decays)

    @property
    def dim(self) -> int:
        return self.alpha.shape[1]

    @property
    def num_decays(self) -> int:
        return self.alpha.shape[0]

    def phi(self, i: int, j, lags) -> np.ndarray:
        lags = np.asarray(lags, dtype=float)
        out = np.zeros_like(lags, dtype=float)
        for u in range(self.num_decays):
            out += self.alpha[u, i - 1, j - 1] * np.exp(-self.decays[u] * lags)
        return out

    def phi_integral(self, i: int, j, lags) -> np.ndarray:
        lags = np.asarray(lags, dtype=float)
        out = np.zeros_like(lags, dtype=float)
        for u in range(self.num_decays):
            out += self.alpha[u, i - 1, j - 1] * exp_integral(self.decays[u], lags)
        return out

    def draw_lags(self, rng: np.random.Generator, i, j) -> np.ndarray:
        """One lag per (i, j) pair from phi_ij / ||phi_ij|| (1-based marks, broadcast).

        A mixture of Exp(beta^u) with weights alpha^u_ij / beta^u: one uniform
        picks u, then a standard exponential is divided by beta^u.
        """
        i, j = np.broadcast_arrays(np.asarray(i) - 1, np.asarray(j) - 1)
        cum = np.cumsum(np.moveaxis(self.alpha, 0, -1)[i, j] / self.decays, axis=-1)
        pick = rng.random(i.shape)[..., None] * cum[..., -1:]
        u = np.sum(cum[..., :-1] <= pick, axis=-1)
        return rng.standard_exponential(i.shape) / self.decays[u]

    def norms(self) -> np.ndarray:
        """sum_u alpha^u / beta^u."""
        return np.tensordot(1.0 / self.decays, self.alpha, axes=(0, 0))

    def sumexp(self) -> SumExpKernel:
        return self


@dataclass(frozen=True)
class PowerLawKernel:
    """Shifted power-law kernel, capturing long-memory excitation."""

    alpha: np.ndarray  # (m, m), >= 0
    c: np.ndarray      # (m, m), > 0 (shift, hours)
    beta: np.ndarray   # (m, m), > 1 (integrability)

    def __post_init__(self):
        alpha = _as_matrix(self.alpha, "alpha")
        c = _as_matrix(self.c, "c")
        beta = _as_matrix(self.beta, "beta")
        if alpha.shape != c.shape or alpha.shape != beta.shape:
            raise InvalidInputError("alpha, c, beta must share a shape")
        if np.any(alpha < 0):
            raise InvalidInputError("alpha entries must be >= 0")
        if np.any(c <= 0):
            raise InvalidInputError("c entries must be > 0")
        if np.any(beta <= 1):
            raise InvalidInputError("beta entries must be > 1 for an integrable kernel")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "beta", beta)

    @property
    def dim(self) -> int:
        return self.alpha.shape[0]

    def phi(self, i: int, j, lags) -> np.ndarray:
        lags = np.asarray(lags, dtype=float)
        a = self.alpha[i - 1, j - 1]
        return a * (self.c[i - 1, j - 1] + lags) ** (-self.beta[i - 1, j - 1])

    def phi_integral(self, i: int, j, lags) -> np.ndarray:
        """alpha/(beta-1) * (c^(1-beta) - (c + lag)^(1-beta))."""
        lags = np.asarray(lags, dtype=float)
        a, c, b = self.alpha[i - 1, j - 1], self.c[i - 1, j - 1], self.beta[i - 1, j - 1]
        return a / (b - 1.0) * (c ** (1.0 - b) - (c + lags) ** (1.0 - b))

    def draw_lags(self, rng: np.random.Generator, i, j) -> np.ndarray:
        """One lag per (i, j) pair from phi_ij / ||phi_ij|| (1-based marks, broadcast).

        The inverse CDF at a uniform V, c * ((1 - V)^(-1/(beta - 1)) - 1), in
        expm1/log1p form so that short lags keep their relative precision.
        """
        i, j = np.broadcast_arrays(np.asarray(i) - 1, np.asarray(j) - 1)
        v = rng.random(i.shape)
        return self.c[i, j] * np.expm1(-np.log1p(-v) / (self.beta[i, j] - 1.0))

    def norms(self) -> np.ndarray:
        """alpha * c^(1-beta) / (beta - 1)."""
        return self.alpha * self.c ** (1.0 - self.beta) / (self.beta - 1.0)

    def sumexp(self) -> None:
        """No finite Markov state: evaluation keeps the event history."""
        return None


KernelSpec = Union[ExponentialKernel, SumExpKernel, PowerLawKernel]
