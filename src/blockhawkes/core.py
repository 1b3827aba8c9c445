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

Exponential kernels have the O(n) state recursion of Ozaki (1979): a unit
lower-bidiagonal system per shared decay, which :class:`_StateSolver`
solves by LAPACK forward substitution.  Callers take only what they read:
the states, their time integrals (residuals) or decay derivatives (fit).

All functions are pure: they never mutate their inputs and hold no module
state.  A :class:`_StateSolver` and the buffers it writes belong to one fit.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import get_args

import numpy as np

from .errors import (
    DomainError,
    InvalidInputError,
    LikelihoodUndefinedError,
    NumericalError,
    StationarityWarning,
    UnsupportedKernelError,
)
from .events import EventSequence, set_fields
from .kernels import KernelSpec, exp_first_moment, exp_integral, exp_second_moment

INTENSITY_FLOOR = 1e-300
# Tolerances of compensator_quadrature's adaptive quadrature.
QUAD_ABS_TOL = 1e-9
QUAD_REL_TOL = 1e-7


@dataclass(frozen=True)
class HawkesModel:
    """Background rates plus an excitation kernel.

    Parameters
    ----------
    mu : array_like, shape (m,)
        Background rates, events per hour, all > 0; kept as a read-only copy.
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
        set_fields(self, mu=mu)

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


class _StateSolver:
    """The per-sequence set-up of :func:`_sumexp_event_states`, built once: a call solves S
    (R, Q if given) of decay u in place in columns u*m:(u+1)*m of F-ordered (n + 1, U*m)."""

    def __init__(self, seq: EventSequence):
        from scipy.linalg import lapack

        n, self.m, self.gaps = len(seq), seq.dim, np.diff(seq.times, append=seq.horizon)[:, None]
        self.jumps = np.asfortranarray(np.eye(seq.dim)[seq.marks - 1])  # S's rhs is f_k e_{d_k}
        self.ab = np.ones((2, n + 1), order="F")  # band storage; the unit diagonal is not read
        self.lag, self.f = np.r_[[[0.0]], self.gaps], np.empty_like(self.gaps)  # R's rhs: g_k S[k+1]
        self.solve = functools.partial(lapack.dtbtrs, self.ab, uplo="L", diag="U", overwrite_b=True)

    def __call__(self, decays, S, R=None, Q=None):
        for u, b in enumerate(decays):
            s, r, q = (X if X is None else X[:, u * self.m : (u + 1) * self.m] for X in (S, R, Q))
            f = np.exp(np.multiply(self.gaps, -b, out=self.f), out=self.f)  # 2x a strided exp
            np.negative(f, out=self.ab[1, :-1, None])  # the band's subdiagonal is -f_k
            s[0] = 0.0
            np.multiply(self.jumps, f, out=s[1:])
            self.solve(s)
            if r is not None:
                self.solve(np.multiply(s, self.lag, out=r))
            if q is not None:  # g_k (f_k R[k] + R[k+1]), built in place: temporaries cost faults
                q[0] = 0.0
                np.add(r[1:], np.multiply(f, r[:-1], out=q[1:]), out=q[1:])
                self.solve(np.multiply(q, self.lag, out=q))


def _sumexp_event_states(seq: EventSequence, decays, lagged: int = 0):
    """Exact excitation states for shared decays: yields ``(S, R, Q)`` per decay b.

    S[k, j], shape (n + 1, m), sums exp(-b (t_k - t_l)) over component-(j+1)
    events l < k in (time, mark) order; row n is the horizon.  Tied events
    count one another there at lag 0, so event k reads row
    ``_tie_reads(seq)[k]``, the first of its tie group.  R = -dS/db and
    Q = d^2S/db^2 weight the same sum by t_k - t_l and its square (so are
    equal over a tie group); ``lagged`` counts how many of them are solved
    (else None), as only the decay gradient and Hessian read them.

    With f_k = exp(-b g_k), g_k = t_{k+1} - t_k (the last gap runs to T),
    S[k+1] = f_k (S[k] + e_{d_k}) is a unit lower-bidiagonal system.  One
    LAPACK forward substitution (dtbtrs) solves it for all m columns as
    x_{k+1} = rhs_{k+1} + f_k x_k: a multiply by a factor <= 1 and an add of
    a nonnegative term per entry, exact to rounding at any b * T.  On equal
    gaps every f_k carries the same rounding, so the relative error adds up
    coherently to about n u (u = 2^-53): 1.1e-11 at n = 10^6.  R[k+1] =
    f_k R[k] + g_k S[k+1] and Q[k+1] = f_k Q[k] + g_k (f_k R[k] + R[k+1]) are
    solves with the same matrix.  One :class:`_StateSolver` fills fresh arrays.
    """
    solve, shape = _StateSolver(seq), (len(seq) + 1, seq.dim)
    for b in np.asarray(decays, dtype=float):
        S, R, Q = (np.empty(shape, order="F") if k <= lagged else None for k in range(3))
        solve([b], S, R, Q)
        yield S, R, Q


def _tie_reads(seq: EventSequence) -> np.ndarray:
    """Row of the states each event reads: the first event of its tie group."""
    first = np.arange(len(seq))
    first[1:][np.diff(seq.times) == 0.0] = 0
    return np.maximum.accumulate(first)


def _integrated_state(seq: EventSequence, decay: float, S: np.ndarray) -> np.ndarray:
    """The integral over [0, t_k] of the states S of ``decay``, at each row of
    S: one cumulative sum of exp_integral(b, g_k) (S[k] + e_{d_k})."""
    I = np.zeros_like(S)
    I[1:] = S[:-1]
    I[np.arange(1, len(seq) + 1), seq.marks - 1] += 1.0
    I[1:] *= exp_integral(decay, np.diff(seq.times, append=seq.horizon))[:, None]
    np.cumsum(I[1:], axis=0, out=I[1:])
    return I


def _horizon_moments(seq: EventSequence, decays, counts=None) -> np.ndarray:
    """``(M, D, E)``, (U, m) each: exp_integral, exp_first_moment and exp_second_moment of
    (b_u, T - t_k) summed over component-(j+1) events k, given ``seq.counts()`` if held.  Past
    b (T - t_k) = 50 each is its limit 1/b, 1/b^2 or 2/b^3 (at lag inf), counted, not summed."""
    decays, (n, m) = np.asarray(decays, dtype=float), (len(seq), seq.dim)
    U, starts = decays.size, np.searchsorted(seq.times, seq.horizon - 50.0 / decays)
    tail = np.concatenate([np.arange(k, n) for k in starts])
    bins = np.repeat(np.arange(U) * m, n - starts) + seq.marks[tail] - 1  # u m + j, in time order
    counts = seq.counts() if counts is None else counts
    head = counts - np.bincount(bins, minlength=U * m).reshape(U, m)
    b = np.append(np.repeat(decays, n - starts), decays)
    lags = np.append(seq.horizon - seq.times[tail], [np.inf] * U)
    values = [f(b, lags) for f in (exp_integral, exp_first_moment, exp_second_moment)]
    return np.stack([head * v[-U:, None] + np.bincount(bins, v[:-U], U * m).reshape(U, m)
                     for v in values])


def intensity_recursive(model: HawkesModel, seq: EventSequence):
    """Intensities lambda_{d_k}(t_k) at every event, in O(n m^2 U).

    Works for any exponential kernel, through the states of its shared-decay
    form ``kernel.sumexp()`` (:func:`_sumexp_event_states`).  Returns
    ``(lambdas, end_state)`` where ``end_state[u, j]`` is the excitation
    state of decay ``u`` of that form decayed to the horizon; ``lambdas``
    agrees with :func:`intensity_naive` at every event time to rounding,
    however large decay * horizon is.
    """
    k = model.kernel.sumexp()
    if k is None:
        raise UnsupportedKernelError(
            "recursive evaluation needs an exponential kernel; "
            f"got {type(model.kernel).__name__}"
        )
    _check_pair(model, seq, 1)
    reads, rows = _tie_reads(seq), seq.marks - 1
    excitation = np.zeros(len(seq))
    end_state = np.empty((k.num_decays, seq.dim))
    for u, (S, _, _) in enumerate(_sumexp_event_states(seq, k.decays)):
        excitation += (S @ k.alpha[u].T)[reads, rows]
        end_state[u] = S[-1]
    return model.mu[rows] + excitation, end_state


def compensator(model: HawkesModel, seq: EventSequence, i: int, t: float) -> float:
    """Integrated intensity Lambda_i(t) = int_0^t lambda_i(s) ds.

    Sums the closed-form per-event integrals ``kernel.phi_integral`` over
    events before ``t``.  Nondecreasing in t with Lambda_i(0) = 0.
    """
    t = _check_pair(model, seq, i, t)
    mask = seq.times < t
    total = model.kernel.phi_integral(i, seq.marks[mask], t - seq.times[mask]).sum()
    return float(model.mu[i - 1] * t + total)


def compensator_quadrature(model: HawkesModel, seq: EventSequence, i: int, t: float) -> float:
    """Lambda_i(t) by adaptive quadrature of :func:`intensity_naive`.

    Serves as the independent cross-check for the closed forms.  Event times
    are passed as break points since the intensity jumps there.
    """
    from scipy import integrate

    t = _check_pair(model, seq, i, t)
    if t == 0.0:
        return 0.0
    interior = seq.times[(seq.times > 0.0) & (seq.times < t)]
    # full_output returns QUADPACK's complaint, if any, instead of warning it.
    value, abserr, _, *trouble = integrate.quad(
        lambda s: intensity_naive(model, seq, i, s),
        0.0,
        t,
        full_output=1,
        points=interior,
        limit=max(200, 2 * interior.size + 50),
        epsabs=QUAD_ABS_TOL,
        epsrel=QUAD_REL_TOL,
    )
    if trouble or abserr > 100.0 * max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(value)):
        raise NumericalError(
            f"compensator quadrature did not converge for component {i} at t={t}: "
            f"estimate {value:.6g}, error bound {abserr:.3g}"
            + (f"; {trouble[0]}" if trouble else "")
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
    kernel = model.kernel.sumexp()
    if kernel is None:
        lambdas = np.array(
            [intensity_naive(model, seq, int(d), float(t)) for t, d in zip(seq.times, seq.marks)]
        )
        total_comp = sum(compensator(model, seq, i, seq.horizon) for i in range(1, model.dim + 1))
    else:
        lambdas, _ = intensity_recursive(model, seq)
        excited = np.einsum("uij,uj->", kernel.alpha, _horizon_moments(seq, kernel.decays)[0])
        total_comp = seq.horizon * model.mu.sum() + excited
    if lambdas.size:
        bad = np.nonzero(lambdas < INTENSITY_FLOOR)[0]
        if bad.size:
            raise LikelihoodUndefinedError(bad[0], lambdas[bad[0]])
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
            f"kernel-norm spectral radius {rho:.4g} >= 1: process is non-stationary",
            StationarityWarning,
            stacklevel=2,
        )
    return norms


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue magnitude; < 1 is the stationarity condition."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(matrix, dtype=float)))))
