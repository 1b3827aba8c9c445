"""Exact evaluation of conditional intensities, compensators and the
log-likelihood of multivariate Hawkes processes.

Conventions
-----------
* Times are hours since the window start; the observation window is
  [0, seq.horizon].
* Left-limit intensities: lambda_i(t) sums kernel contributions of events
  strictly before t, so an event never excites itself.
* Simultaneous events of distinct components are stored in (time, mark)
  order, and none excites another: like every event, each reads only the
  events strictly before its time.

All functions are pure: they never mutate their inputs and hold no shared
state, so concurrent calls are safe.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import get_args

import numpy as np
from scipy import integrate

from .errors import (
    DomainError,
    InvalidInputError,
    LikelihoodUndefinedError,
    NumericalError,
    StationarityWarning,
    UnsupportedKernelError,
)
from .events import EventSequence
from .kernels import KernelSpec, exp_integral

INTENSITY_FLOOR = 1e-300


@dataclass(frozen=True)
class HawkesModel:
    """Background rates plus an excitation kernel.

    Parameters
    ----------
    mu : array_like, shape (m,)
        Background rates, events per hour, all strictly positive.
    kernel : KernelSpec
        Excitation kernel with matching dimension.
    """

    mu: np.ndarray
    kernel: KernelSpec

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 1:
            raise InvalidInputError(f"mu must be a vector, got shape {mu.shape}")
        if not np.all(np.isfinite(mu)) or np.any(mu <= 0):
            raise InvalidInputError("background rates must be finite and > 0")
        if not isinstance(self.kernel, get_args(KernelSpec)):
            raise UnsupportedKernelError(f"unknown kernel type {type(self.kernel).__name__}")
        if self.kernel.dim != mu.shape[0]:
            raise InvalidInputError(
                f"kernel dimension {self.kernel.dim} != len(mu) {mu.shape[0]}"
            )
        mu.flags.writeable = False
        object.__setattr__(self, "mu", mu)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


def _check_pair(model: HawkesModel, seq: EventSequence, i: int, t=None):
    """Check that model and sequence match and ``i`` is a component; if
    given, check that ``t`` lies in [0, horizon] and return it as a float."""
    if model.dim != seq.dim:
        raise InvalidInputError(
            f"model dimension {model.dim} != sequence dimension {seq.dim}"
        )
    if not 1 <= i <= model.dim:
        raise InvalidInputError(f"component {i} not in 1..{model.dim}")
    if t is not None:
        t = float(t)
        if not 0.0 <= t <= seq.horizon:
            raise DomainError(f"t={t} outside the observation window [0, {seq.horizon}]")
    return t


def intensity_naive(model: HawkesModel, seq: EventSequence, i: int, t: float) -> float:
    """Conditional intensity lambda_i(t) by direct O(n) summation.

    Sums phi_{i,d_k}(t - t_k) over events strictly before ``t`` (left-limit
    convention) and adds the background rate.
    """
    t = _check_pair(model, seq, i, t)
    mask = seq.times < t
    contrib = model.kernel.phi(i, seq.marks[mask], t - seq.times[mask])
    return float(model.mu[i - 1] + contrib.sum())


def _sumexp_event_states(seq: EventSequence, decays: np.ndarray):
    """Exact excitation states for shared decays, their time integrals and
    their decay derivatives.

    Returns ``(S, I, R)`` of shape (U, m, n + 1); column k < n is event k in
    (time, mark) order and column n the horizon.  S[u, j, k] sums
    exp(-b_u (t_k - t_l)) over component-(j+1) events l with t_l < t_k,
    I[u, j, k] is its integral over [0, t_k], and R = -dS/db_u sums
    (t_k - t_l) exp(-b_u (t_k - t_l)) over the same events.

    S[k+1] = exp(-b g_k) (S[k] + e_{d_k}), with g_k = t_{k+1} - t_k (the last
    gap runs to the horizon), is solved per decay by a doubling
    (Hillis-Steele) scan: ceil(log2(n + 1)) vectorized passes that only
    multiply by factors <= 1 and add nonnegative terms, so the states are
    exact to rounding at any b * T.  R[k+1] = exp(-b g_k) (R[k] + g_k (S[k]
    + e_{d_k})) rides in the same passes, each adding F (D s + r) of the
    span before, with F its decay and D its length, so R is as exact.  I
    sums exp_integral(b, g_k) (S[k] + e_{d_k}).  Tied events pass through
    the recursion at lag 0, so once I is summed each reads S at the first
    event of its tie group; a zero lag adds 0 to R and I.
    """
    decays = np.asarray(decays, dtype=float)[:, None]
    n, U, m = len(seq), decays.size, seq.dim
    jumps = np.arange(1, m + 1)[:, None] == seq.marks  # (m, n) one-hot marks
    gaps = np.diff(seq.times, append=seq.horizon)
    clock = np.append(seq.times, seq.horizon)  # the time of each column
    factor = np.exp(-decays * gaps)  # (U, n)
    S = np.zeros((U, m, n + 1))
    np.multiply(factor[:, None, :], jumps, out=S[..., 1:])  # own jumps, decayed
    R = S * np.r_[0.0, gaps]
    shifts = 2 ** np.arange(n.bit_length())  # 1, 2, 4, ... <= n
    spans = [clock[shift:] - clock[:-shift] for shift in shifts]
    work = np.empty((m, n))
    # One decay at a time keeps each pass's arrays small enough for the cache.
    for s, r, carry in zip(S, R, np.pad(factor, ((0, 0), (1, 0)))):
        # Before each pass s[:, k] holds the jumps of events k-shift..k-1
        # decayed to t_k, r[:, k] the same times their lags, and carry[k]
        # the decay from t_{k-shift} to t_k; once all carries are 0, the
        # passes left would add exact zeros.
        for shift, span in zip(shifts, spans):
            decay = carry[shift:]
            if not decay.any():
                break
            w = work[:, : n + 1 - shift]
            np.multiply(span, s[:, :-shift], out=w)
            w += r[:, :-shift]
            w *= decay
            r[:, shift:] += w
            np.multiply(decay, s[:, :-shift], out=w)
            s[:, shift:] += w
            decay *= carry[:-shift]
    I = np.zeros((U, m, n + 1))
    np.add(S[..., :-1], jumps, out=I[..., 1:])
    I[..., 1:] *= exp_integral(decays, gaps)[:, None, :]
    np.cumsum(I[..., 1:], axis=-1, out=I[..., 1:])
    tied = np.flatnonzero(gaps[:-1] == 0.0) + 1
    if tied.size:
        first = np.arange(n)
        first[tied] = 0
        S[..., tied] = S[..., np.maximum.accumulate(first)[tied]]
    return S, I, R


def intensity_recursive(model: HawkesModel, seq: EventSequence):
    """Intensities lambda_{d_k}(t_k) at every event, in O(n m U log n).

    Works for any exponential kernel, through its shared-decay form
    ``kernel.sumexp()`` (shared decays are what make the excitation a
    finite Markov state), whose states come from the exact scan of
    :func:`_sumexp_event_states`.  Returns ``(lambdas, end_state)`` where
    ``end_state[u, j]`` is the excitation state of decay ``u`` of that form
    decayed to the horizon; ``lambdas`` agrees with :func:`intensity_naive`
    at every event time to rounding, however large decay * horizon is.
    """
    k = model.kernel.sumexp()
    if k is None:
        raise UnsupportedKernelError(
            "recursive evaluation needs an exponential kernel; "
            f"got {type(model.kernel).__name__}"
        )
    _check_pair(model, seq, 1)
    S, _, _ = _sumexp_event_states(seq, k.decays)
    rows = seq.marks - 1
    excitation = np.einsum("ujk,ukj->k", S[..., :-1], k.alpha[:, rows, :])
    return model.mu[rows] + excitation, S[..., -1].copy()


def compensator(model: HawkesModel, seq: EventSequence, i: int, t: float) -> float:
    """Integrated intensity Lambda_i(t) = int_0^t lambda_i(s) ds.

    Sums the closed-form per-event integrals ``kernel.phi_integral`` over
    events before ``t``.  Nondecreasing in t with Lambda_i(0) = 0.
    """
    t = _check_pair(model, seq, i, t)
    mask = seq.times < t
    total = model.kernel.phi_integral(i, seq.marks[mask], t - seq.times[mask]).sum()
    return float(model.mu[i - 1] * t + total)


def compensator_quadrature(
    model: HawkesModel,
    seq: EventSequence,
    i: int,
    t: float,
    abs_tol: float = 1e-9,
    rel_tol: float = 1e-7,
) -> float:
    """Lambda_i(t) by adaptive quadrature of :func:`intensity_naive`.

    Serves as the independent cross-check for the closed forms.  Event times
    are passed as break points since the intensity jumps there.
    """
    t = _check_pair(model, seq, i, t)
    if t == 0.0:
        return 0.0
    interior = seq.times[(seq.times > 0.0) & (seq.times < t)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", integrate.IntegrationWarning)
        value, abserr = integrate.quad(
            lambda s: intensity_naive(model, seq, i, s),
            0.0,
            t,
            points=interior,
            limit=max(200, 2 * interior.size + 50),
            epsabs=abs_tol,
            epsrel=rel_tol,
        )
    trouble = [w for w in caught if issubclass(w.category, integrate.IntegrationWarning)]
    if trouble or abserr > 100.0 * max(abs_tol, rel_tol * abs(value)):
        raise NumericalError(
            f"compensator quadrature did not converge for component {i} at t={t}: "
            f"estimate {value:.6g}, error bound {abserr:.3g}"
            + (f"; {trouble[0].message}" if trouble else "")
        )
    return float(value)


def log_likelihood(model: HawkesModel, seq: EventSequence) -> float:
    """Log-likelihood: sum_k ln lambda_{d_k}(t_k) - sum_i Lambda_i(T).

    Uses the O(n) recursive evaluator for any exponential kernel and direct
    summation otherwise.  Raises
    :class:`~blockhawkes.errors.LikelihoodUndefinedError` if any event's
    intensity falls below the 1e-300 floor (surfacing optimizer
    pathologies instead of returning -inf).
    """
    _check_pair(model, seq, 1)
    if model.kernel.sumexp() is None:
        lambdas = np.array(
            [intensity_naive(model, seq, int(d), float(t)) for t, d in zip(seq.times, seq.marks)]
        )
    else:
        lambdas, _ = intensity_recursive(model, seq)
    if lambdas.size:
        bad = np.nonzero(lambdas < INTENSITY_FLOOR)[0]
        if bad.size:
            raise LikelihoodUndefinedError(bad[0], lambdas[bad[0]])
    total_comp = sum(compensator(model, seq, i, seq.horizon) for i in range(1, model.dim + 1))
    return float(np.log(lambdas).sum() - total_comp)


def kernel_norms(model: HawkesModel) -> np.ndarray:
    """Matrix of kernel integrals ||phi_ij|| over [0, inf).

    Entry (i, j) is the expected number of direct type-i offspring of one
    type-j event.  Emits :class:`~blockhawkes.errors.StationarityWarning`
    when the spectral radius reaches 1 (non-stationary regime).
    """
    norms = model.kernel.norms()
    rho = spectral_radius(norms)
    if rho >= 1.0:
        warnings.warn(
            f"kernel-norm spectral radius {rho:.4f} >= 1: process is non-stationary",
            StationarityWarning,
            stacklevel=2,
        )
    return norms


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue magnitude; < 1 is the stationarity condition."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(matrix, dtype=float)))))
