"""Maximum-likelihood estimation of sum-of-exponentials Hawkes models.

The estimation is split into two nested problems:

* **inner** -- with the shared decays held fixed, the log-likelihood
  splits into one concave problem per component i,
  ``sum_k log(mu_i + X_i[k] . a_i) - mu_i T - a_i . M`` in
  ``(mu_i, a_i = alpha[:, i, :])`` with 1 + U*m parameters.  Each is
  solved by a projected Newton method on its exact Hessian
  ``Z_i^T diag(lambda^-2) Z_i`` with ``Z_i = [1, X_i]``.  The
  box-constrained step lands alpha entries exactly on 0, reproducing
  structural zeros.
* **outer** -- L-BFGS-B over the log-decays on the maximized (profile)
  inner log-likelihood, whose gradient comes free at the inner optimum by
  the envelope theorem: b_u dl/db_u at fixed (mu, alpha).  Decays left with
  almost no kernel norm, where it vanishes, are re-seeded between descents.

A homogeneous-Poisson baseline fit is provided for model comparison.
Fitting consumes no randomness: fixed data and config give identical
results.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize

from .core import HawkesModel, _sumexp_event_states, kernel_norms
from .errors import DegenerateComponentWarning, FittingError, HawkesError, InvalidInputError
from .events import EventSequence
from .kernels import SumExpKernel, exp_first_moment

MU_FLOOR = 1e-10
ARMIJO = 1e-4

# A decay with at most RESEED_SHARE of the kernel norm has a profile gradient
# of about 0: on pipeline_cli events files descents stalled there 1.5-4.7 nats
# below the optimum that moving it next to another decay reached.  Candidates,
# one profile evaluation each: every other decay times RESEED_STEP ** +-1, and
# RESEED_GRID per hour.  At most RESEED_ROUNDS rounds.
RESEED_SHARE = 0.05
RESEED_STEP = 1.25
RESEED_GRID = np.logspace(-1.0, 2.0, 7)
RESEED_ROUNDS = 3


@dataclass(frozen=True)
class FitConfig:
    """Estimation settings.

    ``decay_init`` seeds the outer decay search (canonically sorted
    ascending).  ``inner_max_iter`` caps the Newton steps of each
    component's inner solve; ``inner_tol`` is the contract's stationarity
    target, a projected gradient of at most ``inner_tol * (1 + |l|)``.
    ``outer_max_iter`` caps the decay search's L-BFGS-B iterations, and
    ``outer_tol`` bounds its projected gradient, in nats per unit log-decay.
    """

    num_decays: int = 3
    decay_init: tuple = (0.5, 5.0, 50.0)
    inner_max_iter: int = 500
    outer_max_iter: int = 150
    inner_tol: float = 1e-6
    outer_tol: float = 1e-2

    def __post_init__(self):
        if self.num_decays < 1:
            raise InvalidInputError("num_decays must be >= 1")
        init = np.asarray(self.decay_init, dtype=float)
        if init.shape != (self.num_decays,):
            raise InvalidInputError(
                f"decay_init must hold num_decays={self.num_decays} values"
            )
        init = np.sort(init)
        if np.any(init <= 0) or not np.all(np.isfinite(init)):
            raise InvalidInputError("decay_init must be strictly positive and finite")
        if np.any(np.diff(init) <= 0):
            raise InvalidInputError("decay_init values must be distinct")
        if self.inner_max_iter < 0 or self.outer_max_iter < 0:
            raise InvalidInputError("iteration budgets must be >= 0")
        if self.inner_tol <= 0 or self.outer_tol <= 0:
            raise InvalidInputError("tolerances must be > 0")
        object.__setattr__(self, "decay_init", tuple(init))


@dataclass
class FitResult:
    """Fitted model plus optimizer diagnostics.

    ``inner_iterations`` is the largest Newton step count over the
    components (at the returned decays, for :func:`fit_full`): it reaches
    ``inner_max_iter`` only if a component hit the cap.  ``decay_gradient``
    is the profile gradient dl/d log b_u at the fitted decays.
    ``optimizer_trace`` holds (iteration, objective) pairs: for
    :func:`fit_given_decays`, per Newton step k, the sum over components of
    each one's objective after min(k, its last) steps, which is
    nondecreasing; for :func:`fit_full`, the best profile log-likelihood
    after each profile evaluation.  ``messages`` names pinned components,
    component solves stopped at the cap or without progress, and failed
    profile evaluations.
    """

    model: HawkesModel
    log_lik: float
    kernel_norm_matrix: np.ndarray
    converged: bool
    inner_iterations: int
    outer_iterations: int
    optimizer_trace: list
    decay_gradient: np.ndarray
    messages: tuple = ()


@dataclass(frozen=True)
class PoissonFit:
    """Homogeneous-Poisson MLE: rates N_i(T)/T per component."""

    rates: np.ndarray
    log_lik: float
    empty_components: tuple

    def to_hawkes_model(self, rate_floor: float = MU_FLOOR) -> HawkesModel:
        """Zero-kernel HawkesModel view, usable for residual analysis.

        Empty components get ``rate_floor`` since background rates must be
        strictly positive.
        """
        m = self.rates.size
        mu = np.maximum(self.rates, rate_floor)
        kernel = SumExpKernel(np.zeros((1, m, m)), np.array([1.0]))
        return HawkesModel(mu, kernel)


def fit_poisson(seq: EventSequence) -> PoissonFit:
    """Closed-form Poisson MLE with per-component log-likelihood.

    Components without events get rate 0 and are flagged in
    ``empty_components`` (their 0*ln(0) likelihood term is 0).
    """
    counts = seq.counts().astype(float)
    rates = counts / seq.horizon
    occupied = counts > 0
    log_lik = float(
        np.sum(counts[occupied] * np.log(rates[occupied])) - rates.sum() * seq.horizon
    )
    empty = tuple(int(i + 1) for i in np.nonzero(~occupied)[0])
    return PoissonFit(rates, log_lik, empty)


# ---------------------------------------------------------------------------
# Inner problem: concave likelihood in (mu, alpha) at fixed decays
# ---------------------------------------------------------------------------

def _design(seq: EventSequence, decays: np.ndarray):
    """Sufficient statistics of the inner problem and of the decay gradient.

    Returns per-component design matrices X[i] of shape (n_i, U*m) with the
    recursion states at component-i events; the flattened compensator
    weights Mvec[u*m + j], the integrated state at the horizon (the sum over
    component-j events of exp_integral(b_u, T - t_k)); the lag-weighted
    states R at every event, shape (U*m, n); and D[u, j] = -dMvec[u*m +
    j]/db_u, the same sum of exp_first_moment(b_u, T - t_k).
    """
    S, I, R = _sumexp_event_states(seq, decays)
    U, m = decays.size, seq.dim
    X = [S[..., :-1][..., seq.marks == i + 1].reshape(U * m, -1).T for i in range(m)]
    moments = exp_first_moment(decays[:, None], seq.horizon - seq.times)
    D = np.stack([np.bincount(seq.marks - 1, weights=row, minlength=m) for row in moments])
    return X, I[..., -1].flatten(), R[..., :-1].reshape(U * m, -1), D


def _loglik_and_grad(X, Mvec, horizon, mu, alpha):
    """Log-likelihood and gradient from the design of :func:`_design`."""
    U, m, _ = alpha.shape
    ll = 0.0
    dmu = np.empty(m)
    dalpha = np.empty_like(alpha)
    for i in range(m):
        a = alpha[:, i, :].reshape(U * m)
        lam = mu[i] + X[i] @ a
        ll += np.log(lam).sum() - mu[i] * horizon - a @ Mvec
        inv = 1.0 / lam
        dmu[i] = inv.sum() - horizon
        dalpha[:, i, :] = (X[i].T @ inv - Mvec).reshape(U, m)
    return float(ll), dmu, dalpha


def loglik_and_grad(seq: EventSequence, decays, mu, alpha):
    """Log-likelihood and its analytic gradient at fixed decays.

    ``alpha`` has shape (U, m, m).  Returns ``(l, dl_dmu, dl_dalpha)``; the
    gradient reuses the same recursion states as the recursive intensity
    evaluator, so it is exact up to accumulation error.
    """
    decays = np.asarray(decays, dtype=float)
    mu = np.asarray(mu, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    m, U = seq.dim, decays.size
    if mu.shape != (m,) or alpha.shape != (U, m, m):
        raise InvalidInputError("parameter shapes do not match the sequence/decays")
    X, Mvec, _, _ = _design(seq, decays)
    return _loglik_and_grad(X, Mvec, seq.horizon, mu, alpha)


def _decay_gradient(X, R, D, marks, decays, mu, alpha):
    """dl/d log b_u at fixed (mu, alpha), from :func:`_design`: b_u sum_ij
    alpha[u,i,j] (D[u,j] - sum over component-i events k of R[u,j,k] / lambda_k)."""
    U, m, _ = alpha.shape
    inv = np.zeros((marks.size, m))
    for i in range(m):
        inv[marks == i + 1, i] = 1.0 / (mu[i] + X[i] @ alpha[:, i, :].reshape(U * m))
    V = (R @ inv).reshape(U, m, m).transpose(0, 2, 1)  # V[u, i, j]
    return decays * np.sum(alpha * (D[:, None, :] - V), axis=(1, 2))


def _newton_component(Z, c, lower, x, max_steps, tol):
    """Maximize ``sum(log(Z @ x)) - c @ x`` subject to ``x >= lower``.

    Projected Newton on the exact Hessian ``H = W^T W``, ``W = Z / lambda``
    row-wise.  Parameters on their bound with a nonpositive gradient are
    held there, which pins those of all-zero (singular) columns of ``Z``.
    On the rest, with ``H = L L^T``, the quadratic model's maximizer on the
    box is ``lower + nnls(L^T, L^-1 (g + H (x - lower)))``; if ``H`` is not
    positive definite a diagonally scaled projected-gradient step stands in.
    Armijo backtracking runs along the segment to it.  Stops at a projected
    gradient of at most ``tol * (1 + |f|)``, after a step that gains at most
    1e-15 * |f|, or after ``max_steps`` steps.  Returns ``(x, history,
    reason)``: the objective before and after every step, and why the solve
    stopped short of ``tol`` (``None`` if it did not).
    """
    lam = Z @ x
    f = np.log(lam).sum() - c @ x
    history = [f]
    stalled = False
    W = np.empty_like(Z)
    while True:
        inv = 1.0 / lam
        g = inv @ Z - c
        free = (x > lower) | (g > 0)
        if np.max(np.abs(g[free]), initial=0.0) <= tol * (1.0 + abs(f)):
            return x, history, None
        if stalled:
            return x, history, "stopped without progress above the gradient tolerance"
        if len(history) > max_steps:
            return x, history, f"stopped at the {max_steps}-step cap"
        np.multiply(Z, inv[:, None], out=W)
        H = (W.T @ W)[np.ix_(free, free)]
        target = x.copy()
        try:
            L = np.linalg.cholesky(H)
            rhs = np.linalg.solve(L, g[free] + H @ (x - lower)[free])
            target[free] = lower[free] + optimize.nnls(L.T, rhs)[0]
        except np.linalg.LinAlgError:
            target[free] = np.maximum(x[free] + g[free] / np.diag(H), lower[free])
        # Gains are summed in log1p form, accurate where f cannot resolve them.
        d = target - x
        r = (Z @ d) / lam
        cd = c @ d
        slope = g @ d
        t = 1.0
        stalled = True
        while slope > 0 and t > 1e-12:
            gain = np.log1p(t * r).sum() - t * cd
            if gain >= ARMIJO * t * slope:
                stalled = gain <= 1e-15 * abs(f)
                x = (1.0 - t) * x + t * target
                lam = Z @ x
                f += gain
                history.append(f)
                break
            t *= 0.5


def fit_given_decays(
    seq: EventSequence, decays, config: FitConfig | None = None, *, warn: bool = True
) -> FitResult:
    """Maximize the log-likelihood over (mu, alpha) with decays held fixed.

    Each component with events is solved on its own by
    :func:`_newton_component`, cold-started at mu = 0.5 n_i / T, alpha = 0,
    to a projected gradient of at most ``0.1 * inner_tol * (1 + |l_i|)``.
    Components with zero events are pinned (mu at the 1e-10 floor, their
    alpha row at 0) with a :class:`DegenerateComponentWarning`; columns
    describing their influence stay at 0 since the data carry no signal
    about them.  A fitted kernel-norm spectral radius >= 1 gives a
    :class:`StationarityWarning`.  ``warn=False`` leaves both warnings to
    the caller; :func:`fit_full` passes it at every profile evaluation.
    Non-convergence within the iteration budget returns the best iterate
    with ``converged=False`` rather than raising.
    """
    decays = np.asarray(decays, dtype=float)
    given = FitConfig(num_decays=decays.size, decay_init=decays)  # checks the decays
    decays = np.array(given.decay_init)
    if config is None:
        config = given
    if len(seq) == 0:
        raise FittingError("cannot fit an empty event sequence")

    m, U = seq.dim, decays.size
    horizon = seq.horizon
    counts = seq.counts()
    degenerate = np.nonzero(counts == 0)[0]
    messages = []
    if degenerate.size:
        labels = [int(i + 1) for i in degenerate]
        msg = f"components {labels} have no events; mu and alpha rows pinned to floors"
        messages.append(msg)
        if warn:
            warnings.warn(msg, DegenerateComponentWarning, stacklevel=2)

    X, Mvec, R, D = _design(seq, decays)
    c = np.r_[horizon, Mvec]
    lower = np.r_[MU_FLOOR, np.zeros(U * m)]
    mu = np.full(m, MU_FLOOR)
    alpha = np.zeros((U, m, m))
    histories = [[-MU_FLOOR * horizon] for _ in degenerate]
    for i in np.nonzero(counts)[0]:
        Z = np.column_stack((np.ones(X[i].shape[0]), X[i]))
        start = np.r_[max(0.5 * counts[i] / horizon, MU_FLOOR), lower[1:]]
        theta, history, reason = _newton_component(
            Z, c, lower, start, config.inner_max_iter, 0.1 * config.inner_tol
        )
        mu[i] = theta[0]
        alpha[:, i, :] = theta[1:].reshape(U, m)
        histories.append(history)
        if reason is not None:
            messages.append(f"component {i + 1}: inner solve {reason}")

    steps = max(len(h) for h in histories) - 1
    trace = [(k, float(sum(h[min(k, len(h) - 1)] for h in histories))) for k in range(1, steps + 1)]

    # Convergence verdict on the whole problem, per the contract.
    log_lik, dmu, dalpha = _loglik_and_grad(X, Mvec, horizon, mu, alpha)
    grad = np.r_[dmu, dalpha.ravel()]
    at_bound = np.r_[mu <= MU_FLOOR, alpha.ravel() <= 0.0]
    worst = np.max(np.abs(np.where(at_bound & (grad < 0), 0.0, grad)))
    converged = bool(worst <= config.inner_tol * (1.0 + abs(log_lik)))
    model = HawkesModel(mu, SumExpKernel(alpha, decays))
    return FitResult(
        model=model,
        log_lik=log_lik,
        kernel_norm_matrix=kernel_norms(model) if warn else model.kernel.norms(),
        converged=converged,
        inner_iterations=steps,
        outer_iterations=0,
        optimizer_trace=trace,
        decay_gradient=_decay_gradient(X, R, D, seq.marks, decays, mu, alpha),
        messages=tuple(messages),
    )


# ---------------------------------------------------------------------------
# Outer problem: L-BFGS-B over log-decays, profile likelihood objective
# ---------------------------------------------------------------------------

def fit_full(seq: EventSequence, config: FitConfig | None = None) -> FitResult:
    """Full fit: gradient search over shared decays on the profile likelihood.

    L-BFGS-B descends from ``decay_init`` over the log-decays, one inner
    :func:`fit_given_decays` (with its envelope gradient) per profile
    evaluation, to a projected gradient of at most ``outer_tol``; a stalled
    objective never stops it.  Then a decay with at most RESEED_SHARE of the
    kernel norm moves to the best of its candidate places and the search
    descends again, until a round gains nothing.  ``outer_max_iter`` caps
    the L-BFGS-B iterations over all descents; 0 returns the inner fit at
    ``decay_init`` with ``converged=False``.  The best point is returned,
    ``converged`` if its projected gradient is at most ``outer_tol`` and its
    inner fit converged.  A failed evaluation ends its descent and is named
    in ``messages``.  Warnings come once, for the returned model.
    """
    if config is None:
        config = FitConfig()
    decay0 = np.asarray(config.decay_init, dtype=float)

    if config.outer_max_iter == 0:
        inner = fit_given_decays(seq, decay0, config)
        return replace(inner, converged=False, optimizer_trace=[(0, inner.log_lik)])

    best = None
    trace, failures = [], []

    def profile(x):
        nonlocal best
        order = np.argsort(x)
        decays = np.exp(x[order])
        try:
            inner = fit_given_decays(seq, decays, config, warn=False)
        except (HawkesError, np.linalg.LinAlgError, FloatingPointError) as exc:
            failures.append(f"decays {decays.round(6).tolist()}: {exc}")
            return np.inf, np.zeros_like(x)
        if best is None or inner.log_lik > best.log_lik:
            best = inner
        trace.append((len(trace) + 1, best.log_lik))
        return -inner.log_lik, -inner.decay_gradient[np.argsort(order)]

    x, iterations, before = np.log(decay0), 0, -np.inf
    for round_ in range(RESEED_ROUNDS + 1):
        res = optimize.minimize(
            profile, x, jac=True, method="L-BFGS-B",
            options={"maxiter": config.outer_max_iter - iterations,
                     "gtol": config.outer_tol, "ftol": 0.0},
        )
        iterations += res.nit
        if best is None:
            raise FittingError(f"every profile evaluation failed; first failure: {failures[0]}")
        if best.log_lik <= before or round_ == RESEED_ROUNDS or iterations >= config.outer_max_iter:
            break
        before = best.log_lik
        decays = best.model.kernel.decays
        norms = best.model.kernel.alpha.sum(axis=(1, 2)) / decays
        weak = int(np.argmin(norms))
        if norms[weak] > RESEED_SHARE * norms.sum():
            break
        others = np.delete(decays, weak)
        places = np.concatenate([others * RESEED_STEP, others / RESEED_STEP, RESEED_GRID])
        starts = np.tile(np.log(decays), (places.size, 1))
        starts[:, weak] = np.log(places)
        x = min(starts[~np.isin(places, decays)], key=lambda start: profile(start)[0])

    stationary = np.max(np.abs(best.decay_gradient)) <= config.outer_tol
    if np.any(seq.counts() == 0):  # the pinning note leads the messages
        warnings.warn(best.messages[0], DegenerateComponentWarning, stacklevel=2)
    return replace(
        best,
        kernel_norm_matrix=kernel_norms(best.model),
        converged=bool(stationary) and best.converged,
        outer_iterations=iterations,
        optimizer_trace=trace,
        messages=best.messages + tuple(failures),
    )


# ---------------------------------------------------------------------------
# JSON-friendly serialization (field names are part of the file contract)
# ---------------------------------------------------------------------------

def model_to_dict(model: HawkesModel) -> dict:
    """Serialize a sum-of-exponentials model as plain lists."""
    kernel = model.kernel
    if not isinstance(kernel, SumExpKernel):
        raise InvalidInputError("only sum-of-exponentials models serialize to JSON")
    return {
        "mu": model.mu.tolist(),
        "alpha": kernel.alpha.tolist(),
        "beta": kernel.decays.tolist(),
    }


def model_from_dict(data: dict) -> HawkesModel:
    """Inverse of :func:`model_to_dict`."""
    try:
        mu = np.asarray(data["mu"], dtype=float)
        alpha = np.asarray(data["alpha"], dtype=float)
        beta = np.asarray(data["beta"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"model document missing or malformed field: {exc}")
    return HawkesModel(mu, SumExpKernel(alpha, beta))


def fit_result_to_dict(result: FitResult) -> dict:
    doc = model_to_dict(result.model)
    doc.update(
        log_lik=result.log_lik,
        kernel_norms=result.kernel_norm_matrix.tolist(),
        converged=result.converged,
        iterations={"inner": result.inner_iterations, "outer": result.outer_iterations},
    )
    if result.messages:
        doc["messages"] = list(result.messages)
    return doc
