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

Every kernel is a sum of exponentials, with the O(n) state recursion of
Ozaki (1979): a unit lower-bidiagonal system per shared decay, which
:class:`_StateSolver` solves by LAPACK forward substitution into (n + 1, m)
buffers, one decay per call.  It also holds the row each event reads and
integrates the states over time, so callers loop over the decays and take
only what they read: the states at the reads, their time integrals
(residuals) or decay derivatives (fit).

All functions are pure: they never mutate their inputs and hold no module
state.  A :class:`_StateSolver` and the buffers it writes belong to one fit.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

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
from .kernels import SumExpKernel, exp_first_moment, exp_integral, exp_second_moment

INTENSITY_FLOOR = 1e-300
# Tolerances of compensator_quadrature's adaptive quadrature.
QUAD_ABS_TOL = 1e-9
QUAD_REL_TOL = 1e-7
# The quadrature also breaks at t_k + (1, 8, 64) / b for each decay b under a tenth of the
# mean gap, b t > QUAD_FAST_DECAY (events before t + 1): QUADPACK steps over spikes 1/b wide.
# Without them, events (0.5, 1, 2), T = 10 and alpha = b gave 12.0 at b = 1e4 and 10.0
# from b = 1e5, not 13.0, and 400 events on 100 h with alpha = b/2 hit the subdivision
# limit at b = 300.  Breaking at every decay took criterion 2 from 4.4 s to 27.6 s.
QUAD_FAST_DECAY = 10.0


@dataclass(frozen=True)
class HawkesModel:
    """Background rates plus an excitation kernel.

    Parameters
    ----------
    mu : array_like, shape (m,)
        Background rates, events per hour, all > 0; kept as a read-only copy.
    kernel : SumExpKernel
        Excitation kernel with matching dimension.
    """

    mu: np.ndarray
    kernel: SumExpKernel

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 1:
            raise InvalidInputError(f"mu must be a vector, got shape {mu.shape}")
        if not np.all(np.isfinite(mu)) or np.any(mu <= 0):
            raise InvalidInputError("background rates must be finite and > 0")
        if not isinstance(self.kernel, SumExpKernel):
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
    """Exact excitation states of one decay at a time, set up once per sequence.

    A call solves S (R, Q if given) of decay b in place in F-ordered (n + 1, m)
    buffers.  S[k, j] sums exp(-b (t_k - t_l)) over component-(j+1) events
    l < k in (time, mark) order; row n is the horizon.  Tied events count one
    another there at lag 0, so event k reads row ``reads[k]``, the first of its
    tie group.  R = -dS/db and Q = d^2S/db^2 weight the same sum by t_k - t_l
    and its square (so are equal over a tie group); only the decay gradient and
    Hessian read them, and only the residuals read :meth:`integral`.  Callers
    loop over their decays, each reading one decay's states before the next.

    With f_k = exp(-b g_k), g_k = t_{k+1} - t_k (the last gap runs to T),
    S[k+1] = f_k (S[k] + e_{d_k}) is a unit lower-bidiagonal system.  One
    LAPACK forward substitution (dtbtrs) solves it for all m columns as
    x_{k+1} = rhs_{k+1} + f_k x_k: a multiply by a factor <= 1 and an add of
    a nonnegative term per entry, exact to rounding at any b * T.  On equal
    gaps every f_k carries the same rounding, so the relative error adds up
    coherently to about n u (u = 2^-53): 1.1e-11 at n = 10^6.  R[k+1] =
    f_k R[k] + g_k S[k+1] and Q[k+1] = f_k Q[k] + g_k (f_k R[k] + R[k+1]) are
    solves with the same matrix.
    """

    def __init__(self, seq: EventSequence):
        from scipy.linalg import lapack

        n, self.gaps = len(seq), np.diff(seq.times, append=seq.horizon)[:, None]
        self.reads = np.maximum.accumulate(np.arange(n) * np.r_[1, self.gaps[:-1, 0] != 0.0])
        self.jumps = np.asfortranarray(np.eye(seq.dim)[seq.marks - 1])  # S's rhs is f_k e_{d_k}
        self.ab = np.ones((2, n + 1), order="F")  # band storage; the unit diagonal is not read
        self.lag, self.f = np.r_[[[0.0]], self.gaps], np.empty_like(self.gaps)  # R's rhs: g_k S[k+1]
        self.solve = functools.partial(lapack.dtbtrs, self.ab, uplo="L", diag="U", overwrite_b=True)

    def __call__(self, b, S, R=None, Q=None):
        f = np.exp(np.multiply(self.gaps, -b, out=self.f), out=self.f)  # 2x a strided exp
        np.negative(f, out=self.ab[1, :-1, None])  # the band's subdiagonal is -f_k
        S[0] = 0.0
        np.multiply(self.jumps, f, out=S[1:])
        self.solve(S)
        if R is not None:
            self.solve(np.multiply(S, self.lag, out=R))
        if Q is not None:  # g_k (f_k R[k] + R[k+1]), built in place: temporaries cost faults
            Q[0] = 0.0
            np.add(R[1:], np.multiply(f, R[:-1], out=Q[1:]), out=Q[1:])
            self.solve(np.multiply(Q, self.lag, out=Q))

    def integral(self, decay, S, I):
        """The integral over [0, t_k] of the states S of ``decay`` at each row k of S, into I
        (S's shape): a cumulative sum of exp_integral(b, g_k) (S[k] + e_{d_k}) after a zero row."""
        I[0] = 0.0
        np.multiply(np.add(S[:-1], self.jumps, out=I[1:]), exp_integral(decay, self.gaps), out=I[1:])
        return np.cumsum(I, axis=0, out=I)


def _horizon_moments(seq: EventSequence, decays) -> np.ndarray:
    """``(M, D, E)``, (U, m) each: exp_integral, exp_first_moment and exp_second_moment of
    (b_u, T - t_k) summed over component-(j+1) events k.  Past b (T - t_k) = 50 each is its
    limit 1/b, 1/b^2 or 2/b^3 (at lag inf), counted, not summed."""
    decays, (n, m) = np.asarray(decays, dtype=float), (len(seq), seq.dim)
    U, starts = decays.size, np.searchsorted(seq.times, seq.horizon - 50.0 / decays)
    tail = np.concatenate([np.arange(k, n) for k in starts])
    bins = np.repeat(np.arange(U) * m, n - starts) + seq.marks[tail] - 1  # u m + j, in time order
    head = seq.counts() - np.bincount(bins, minlength=U * m).reshape(U, m)
    b = np.append(np.repeat(decays, n - starts), decays)
    lags = np.append(seq.horizon - seq.times[tail], [np.inf] * U)
    values = [f(b, lags) for f in (exp_integral, exp_first_moment, exp_second_moment)]
    return np.stack([head * v[-U:, None] + np.bincount(bins, v[:-U], U * m).reshape(U, m)
                     for v in values])


def intensity_recursive(model: HawkesModel, seq: EventSequence):
    """Intensities lambda_{d_k}(t_k) at every event, in O(n m^2 U).

    Returns ``(lambdas, end_state)`` where ``end_state[u, j]`` is the
    excitation state of decay ``u`` decayed to the horizon (the last row of its
    :class:`_StateSolver` S); ``lambdas`` agrees with
    :func:`intensity_naive` at every event time to rounding, however large
    decay * horizon is.
    """
    _check_pair(model, seq, 1)
    k, rows, solve = model.kernel, seq.marks - 1, _StateSolver(seq)
    S, end_state = np.empty((len(seq) + 1, seq.dim), order="F"), np.empty((k.num_decays, seq.dim))
    excitation = np.zeros(len(seq))
    for b, a, end in zip(k.decays, k.alpha, end_state):
        solve(b, S)
        excitation += (S @ a.T)[solve.reads, rows]
        end[:] = S[-1]
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
    are passed as break points since the intensity jumps there, and so are
    points on the decay of each event's spike for fast decays.
    """
    from scipy import integrate

    t = _check_pair(model, seq, i, t)
    if t == 0.0:
        return 0.0
    past, decays = seq.times[seq.times < t], model.kernel.decays
    fast = decays[decays * t > QUAD_FAST_DECAY * (past.size + 1)]
    spikes = np.add.outer(past, np.outer((1, 8, 64), 1 / fast)).ravel()  # t_k + s / b
    points = np.r_[past[past > 0.0], spikes[spikes < t]]
    # full_output returns QUADPACK's complaint, if any, instead of warning it.
    value, abserr, _, *trouble = integrate.quad(
        lambda s: intensity_naive(model, seq, i, s),
        0.0,
        t,
        full_output=1,
        points=points,
        limit=max(200, 2 * points.size + 50),
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

    Uses the O(n) recursive evaluator and the closed-form horizon moments.
    Raises :class:`~blockhawkes.errors.LikelihoodUndefinedError` if any
    event's intensity falls below the 1e-300 floor (surfacing optimizer
    pathologies instead of returning -inf).
    """
    lambdas, _ = intensity_recursive(model, seq)
    M = _horizon_moments(seq, model.kernel.decays)[0]
    total_comp = seq.horizon * model.mu.sum() + np.einsum("uij,uj->", model.kernel.alpha, M)
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
