"""Parametric excitation kernels for multivariate Hawkes processes.

A kernel phi_ij(t) gives the boost a past event of component j adds to the
intensity of component i after a lag of t hours.  One kernel family,
:class:`SumExpKernel`: phi_ij(t) = sum_u alpha^u_ij * exp(-beta^u * t), with
decays beta^u shared across all (i, j) pairs, whose finite Markov state
admits O(n) recursive evaluation.  :func:`ExponentialKernel` builds the
per-pair exponential phi_ij(t) = alpha_ij * exp(-beta_ij * t) as its
shared-decay form, with one decay per distinct beta.

The kernel answers ``phi``, its integral ``phi_integral`` over [0, lag] and
``draw_lags`` from phi_ij normalised to a density (the simulator's offspring
lags).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .events import set_fields


def _as_matrix(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} must be finite")
    return a


def exp_integral(b, lags) -> np.ndarray:
    """Integral of exp(-b s) over [0, lag]; exact even when b * lag is tiny."""
    return -np.expm1(-b * lags) / b


def _series(k: int, terms: int) -> np.ndarray:
    """Taylor coefficients of (k + 1) int_0^1 t^k exp(-x t) dt in x, highest first."""
    return np.array([(k + 1) * (-1) ** j / (math.factorial(j) * (j + k + 1))
                     for j in reversed(range(terms))])


# Per moment k: the series (and how many terms reach rounding) up to x = cut;
# past x = skip, exp(-x) sum_{i<=k} x^i / i! is below rounding and not computed.
_MOMENTS = {1: (0.5, 40.0, _series(1, 16)), 2: (2.0, 50.0, _series(2, 25))}


def _exp_moment(k: int, b, lags) -> np.ndarray:
    """Integral of s^k exp(-b s) over [0, lag], k! / b^(k+1) times 1 - exp(-x) sum_{i<=k}
    x^i / i! with x = b * lag.  A series, one product with the powers of x, serves small x,
    where that form cancels, so it is lag^(k+1) / (k+1) as b goes to 0; at large x the
    bracket is 1 to rounding, and skipping it skips a slow underflowing exp."""
    cut, skip, series = _MOMENTS[k]
    x = np.asarray(b * lags, dtype=float)
    moment = np.array(np.broadcast_to(math.factorial(k) / np.power(b, k + 1.0), x.shape))
    small = x <= cut
    mid = (x <= skip) & ~small
    near = np.broadcast_to(lags, x.shape)[small]
    moment[small] = near ** (k + 1) * (np.vander(x[small], series.size) @ series) / (k + 1)
    xm = x[mid]
    tail = [1.0 / math.factorial(i) for i in range(k, 0, -1)] + [0.0]
    moment[mid] *= -np.expm1(-xm) - np.exp(-xm) * np.polyval(tail, xm)
    return moment[()]


def exp_first_moment(b, lags) -> np.ndarray:
    """Integral of s exp(-b s) over [0, lag]: lag^2 / 2 as b goes to 0."""
    return _exp_moment(1, b, lags)


def exp_second_moment(b, lags) -> np.ndarray:
    """Integral of s^2 exp(-b s) over [0, lag]: lag^3 / 3 as b goes to 0."""
    return _exp_moment(2, b, lags)


@dataclass(frozen=True)
class SumExpKernel:
    """Sum-of-exponentials kernel with decays shared across pairs.

    The shared decays are what make the intensity a finite-dimensional
    Markov state, enabling O(n) evaluation over an event sequence.  Both
    arrays are stored as read-only copies.
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
        set_fields(self, alpha=alpha, decays=decays)

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


def ExponentialKernel(alpha, beta) -> SumExpKernel:
    """phi_ij(t) = alpha_ij * exp(-beta_ij * t) with per-pair decays beta > 0,
    as a :class:`SumExpKernel` with one shared decay per distinct beta."""
    alpha = _as_matrix(alpha, "alpha")
    beta = _as_matrix(beta, "beta")
    if alpha.shape != beta.shape:
        raise InvalidInputError("alpha and beta must share a shape")
    if np.any(beta <= 0):
        raise InvalidInputError("beta entries must be > 0")
    decays = np.unique(beta)
    return SumExpKernel(np.where(beta == decays[:, None, None], alpha, 0.0), decays)
