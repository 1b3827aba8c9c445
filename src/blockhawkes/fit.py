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
  the envelope theorem: b_u dl/db_u at fixed (mu, alpha).  A decay left with
  almost no kernel norm is split off the decay whose per-pair terms disagree.

A homogeneous-Poisson baseline fit is provided for model comparison.
Fitting consumes no randomness: fixed data and config give identical
results.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import HawkesModel, _horizon_moments, _sumexp_event_states, _tie_reads, kernel_norms
from .errors import DegenerateComponentWarning, FittingError, HawkesError, InvalidInputError
from .events import EventSequence, set_fields
from .kernels import SumExpKernel, exp_first_moment, exp_integral

MU_FLOOR = 1e-10
ARMIJO = 1e-4

# A decay with at most RESEED_SHARE of the kernel norm has a profile gradient
# of about 0: on pipeline_cli events files descents stalled there 1.5-4.7 nats
# below better optima.  The best of 11 scored candidate places always sat at
# RESEED_STEP ** +-1 times the decay whose pair gradients spread widest, so that
# decay is split instead, at no evaluations (BENCH_reseed.json: seeds 1-8, 2,105
# -> 1,357 evaluations, higher summed l).  At most RESEED_ROUNDS rounds.
RESEED_SHARE = 0.05
RESEED_STEP = 1.25
RESEED_ROUNDS = 3


@dataclass(frozen=True)
class FitConfig:
    """Estimation settings.

    ``decay_init`` seeds the outer decay search (kept as a tuple sorted
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
        if not all(0 < tol < np.inf for tol in (self.inner_tol, self.outer_tol)):
            raise InvalidInputError("tolerances must be finite and > 0")
        set_fields(self, decay_init=tuple(init))


@dataclass
class FitResult:
    """Fitted model plus optimizer diagnostics.

    ``inner_iterations`` is the largest Newton step count over the
    components (at the returned decays, for :func:`fit_full`): it reaches
    ``inner_max_iter`` only if a component hit the cap.  ``decay_gradient``
    is the profile gradient dl/d log b_u at the fitted decays, and
    ``pair_gradient[u, i, j]`` its per-pair terms b_u alpha[u,i,j] (D[u,j] -
    V[u,i,j]), which sum over (i, j) to it.  ``optimizer_trace`` holds
    (profile evaluation, best log-likelihood so far) pairs: one,
    ``(1, log_lik)``, for :func:`fit_given_decays`.  ``messages`` names
    pinned components, component solves stopped at the cap or without
    progress, and failed profile evaluations.
    """

    model: HawkesModel
    log_lik: float
    kernel_norm_matrix: np.ndarray
    converged: bool
    inner_iterations: int
    outer_iterations: int
    optimizer_trace: list
    decay_gradient: np.ndarray
    pair_gradient: np.ndarray
    messages: tuple = ()


@dataclass(frozen=True)
class PoissonFit:
    """Homogeneous-Poisson MLE: rates N_i(T)/T per component, kept as a read-only copy."""

    rates: np.ndarray
    log_lik: float
    empty_components: tuple

    def __post_init__(self):
        set_fields(self, rates=np.asarray(self.rates, dtype=float))

    def to_hawkes_model(self) -> HawkesModel:
        """Zero-kernel HawkesModel view, usable for residual analysis.

        Empty components get ``MU_FLOOR`` since background rates must be
        strictly positive.
        """
        m = self.rates.size
        mu = np.maximum(self.rates, MU_FLOOR)
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

class _Profile:
    """What no decay changes in fits of ``seq`` at U decays (the empty-component
    note, bounds, cold starts, read rows and :meth:`design` buffers), and, as
    the L-BFGS-B objective over log-decays, the best inner fit, trace and failures."""

    def __init__(self, seq: EventSequence, num_decays: int):
        m, U, counts = seq.dim, num_decays, seq.counts()
        empty = [int(i + 1) for i in np.nonzero(counts == 0)[0]]
        self.seq = seq
        note = f"components {empty} have no events; mu and alpha rows pinned to floors"
        self.pinned = (note,) if empty else ()
        self.lower = np.r_[MU_FLOOR, np.zeros(U * m)]
        self.starts = [np.r_[max(0.5 * n / seq.horizon, MU_FLOOR), self.lower[1:]] for n in counts]
        tie_reads = _tie_reads(seq)
        self.reads = [tie_reads[seq.marks == i + 1] for i in range(m)]
        self.Z = [np.ones((1 + U * m, r.size)) for r in self.reads]
        self.RZ = [np.empty((U * m, r.size)) for r in self.reads]
        self.best, self.trace, self.failures = None, [], []

    def design(self, decays: np.ndarray):
        """``(Z, c, RZ, D)``: Z[i], (1 + U*m, n_i), holds ones, then S_u[:, j] of
        :func:`_sumexp_event_states` at component i's reads in row 1 + u*m + j,
        so (mu_i, alpha[:, i, :].ravel()) @ Z[i] is the intensity there; RZ[i]
        holds R alike.  The cost c = (T, Mvec) and D = -dMvec/db hold
        :func:`_horizon_moments` of exp_integral (raveled) and exp_first_moment."""
        seq, m = self.seq, self.seq.dim
        # Every read is in range; "clip" spares take the bounds check that buffers its output.
        for u, (S, R) in enumerate(_sumexp_event_states(seq, decays, lagged=True)):
            for i, r in enumerate(self.reads):
                np.take(S.T, r, axis=1, out=self.Z[i][1 + u * m : 1 + (u + 1) * m], mode="clip")
                np.take(R.T, r, axis=1, out=self.RZ[i][u * m : (u + 1) * m], mode="clip")
        Mvec, D = (_horizon_moments(seq, decays, f) for f in (exp_integral, exp_first_moment))
        return self.Z, np.r_[seq.horizon, Mvec.ravel()], self.RZ, D

    def __call__(self, x, config: FitConfig):
        """Negated profile l and gradient over the log-decays ``x``, any order."""
        order = np.argsort(x)
        decays = np.exp(x[order])
        try:
            inner = fit_given_decays(self.seq, decays, config, profile=self)
        except (HawkesError, np.linalg.LinAlgError, FloatingPointError) as exc:
            self.failures.append(f"decays {decays.round(6).tolist()}: {exc}")
            return np.inf, np.zeros_like(x)
        if self.best is None or inner.log_lik > self.best.log_lik:
            self.best = inner
        self.trace.append((len(self.trace) + 1, self.best.log_lik))
        return -inner.log_lik, -inner.decay_gradient[np.argsort(order)]


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
    Z, c, _, _ = _Profile(seq, U).design(decays)
    theta = np.column_stack((mu, alpha.transpose(1, 0, 2).reshape(m, U * m)))
    ll, grad = 0.0, np.empty_like(theta)
    for i, (z, x) in enumerate(zip(Z, theta)):
        lam = x @ z
        ll += np.log(lam).sum() - c @ x
        grad[i] = z @ (1.0 / lam) - c
    return float(ll), grad[:, 0], grad[:, 1:].reshape(m, U, m).transpose(1, 0, 2)


def _newton_component(Z, c, lower, x, max_steps, tol):
    """Maximize ``sum(log(x @ Z)) - c @ x`` subject to ``x >= lower``, for a
    component's (parameters, events) design block ``Z`` of :meth:`_Profile.design`.

    Projected Newton on the exact Hessian ``H = W W^T``, ``W = Z / lambda``
    column-wise.  Parameters on their bound with a nonpositive gradient are
    held there, which pins those of all-zero (singular) rows of ``Z``.  On
    the rest, with ``H = L L^T``, the quadratic model's maximizer on the box
    is ``lower + nnls(L^T, L^-1 (g + H (x - lower)))``; if ``H`` is not
    positive definite a diagonally scaled projected-gradient step stands
    in.  Armijo backtracking runs along the segment to it.  Stops at a projected
    gradient of at most ``tol * (1 + |f|)``, after a step that gains at most
    1e-15 * |f|, or after ``max_steps`` steps.  Returns ``(x, lam, g,
    steps, reason)``: the last iterate, its intensities and the gradient the
    stop rule was tested on there, the number of steps taken, and why the
    solve stopped short of ``tol`` (``None`` if it did not).
    """
    from scipy import optimize

    lam = x @ Z
    f = np.log(lam).sum() - c @ x
    steps, stalled = 0, False
    W = np.empty_like(Z)
    while True:
        inv = 1.0 / lam
        g = Z @ inv - c
        free = (x > lower) | (g > 0)
        if np.max(np.abs(g[free]), initial=0.0) <= tol * (1.0 + abs(f)):
            return x, lam, g, steps, None
        if stalled:
            return x, lam, g, steps, "stopped without progress above the gradient tolerance"
        if steps >= max_steps:
            return x, lam, g, steps, f"stopped at the {max_steps}-step cap"
        np.multiply(Z, inv, out=W)
        H = (W @ W.T)[np.ix_(free, free)]
        target = x.copy()
        try:
            L = np.linalg.cholesky(H)
            rhs = np.linalg.solve(L, g[free] + H @ (x - lower)[free])
            target[free] = lower[free] + optimize.nnls(L.T, rhs)[0]
        except np.linalg.LinAlgError:
            target[free] = np.maximum(x[free] + g[free] / np.diag(H), lower[free])
        # Gains are summed in log1p form, accurate where f cannot resolve them.
        d = target - x
        r = (d @ Z) / lam
        cd = c @ d
        slope = g @ d
        t = 1.0
        stalled = True
        while slope > 0 and t > 1e-12:
            gain = np.log1p(t * r).sum() - t * cd
            if gain >= ARMIJO * t * slope:
                stalled = gain <= 1e-15 * abs(f)
                x = (1.0 - t) * x + t * target
                lam = x @ Z
                f += gain
                steps += 1
                break
            t *= 0.5


def fit_given_decays(
    seq: EventSequence, decays, config: FitConfig | None = None, *, profile: _Profile | None = None
) -> FitResult:
    """Maximize the log-likelihood over (mu, alpha) with decays held fixed.

    One loop solves each component by :func:`_newton_component`, cold-started
    at mu = 0.5 n_i / T, alpha = 0, to a projected gradient of at most
    ``0.1 * inner_tol * (1 + |l_i|)``; l, the verdict and the decay gradient
    with its per-pair terms come from each solve's last intensities and
    gradient.  A component with zero events has an empty design block, so
    its solve stops at once with mu on the 1e-10 floor and its alpha row at
    0, and a :class:`DegenerateComponentWarning` names it.  A fitted kernel-norm
    spectral radius >= 1 gives a :class:`StationarityWarning`.  Given the
    ``profile`` that :func:`fit_full` passes, it reuses that object's arrays
    and leaves both warnings to fit_full.  Non-convergence within the budget
    returns the best iterate with ``converged=False`` rather than raising.
    """
    decays = np.asarray(decays, dtype=float)
    given = FitConfig(num_decays=decays.size, decay_init=decays)  # checks the decays
    decays = np.array(given.decay_init)
    if config is None:
        config = given
    alone = profile is None
    if alone:
        if len(seq) == 0:
            raise FittingError("cannot fit an empty event sequence")
        profile = _Profile(seq, decays.size)
        for note in profile.pinned:
            warnings.warn(note, DegenerateComponentWarning, stacklevel=2)

    m, U = seq.dim, decays.size
    messages = list(profile.pinned)
    Z, c, RZ, D = profile.design(decays)
    # Row i: theta_i = (mu_i, alpha[:, i, :].ravel()) and dl/dtheta_i.
    # V[u, i, j] sums R_u[:, j] / lambda over component-i events.
    theta, grad, V = np.empty((m, 1 + U * m)), np.empty((m, 1 + U * m)), np.empty((U, m, m))
    log_lik, steps = 0.0, 0
    for i in range(m):
        theta[i], lam, grad[i], taken, reason = _newton_component(
            Z[i], c, profile.lower, profile.starts[i], config.inner_max_iter, 0.1 * config.inner_tol
        )
        log_lik += np.log(lam).sum() - c @ theta[i]
        V[:, i] = (RZ[i] @ (1.0 / lam)).reshape(U, m)
        steps = max(steps, taken)
        if reason is not None:
            messages.append(f"component {i + 1}: inner solve {reason}")

    # Convergence verdict on the whole problem, per the contract.
    worst = np.max(np.abs(np.where((theta <= profile.lower) & (grad < 0), 0.0, grad)))
    converged = bool(worst <= config.inner_tol * (1.0 + abs(log_lik)))
    alpha = theta[:, 1:].reshape(m, U, m).transpose(1, 0, 2)
    model = HawkesModel(theta[:, 0], SumExpKernel(alpha, decays))
    # Envelope gradient at fixed (mu, alpha), per pair: alpha[u,i,j] (D[u,j] - V[u,i,j]), times b_u.
    pairs = alpha * (D[:, None, :] - V)
    return FitResult(
        model=model,
        log_lik=float(log_lik),
        kernel_norm_matrix=kernel_norms(model) if alone else model.kernel.norms(),
        converged=converged,
        inner_iterations=steps,
        outer_iterations=0,
        optimizer_trace=[(1, float(log_lik))],
        decay_gradient=decays * np.sum(pairs, axis=(1, 2)),
        pair_gradient=decays[:, None, None] * pairs,
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
    kernel norm is split off the other decay whose ``pair_gradient`` spreads
    widest (max - min), the two moving to it times RESEED_STEP ** +-1, and
    the search descends again until a round gains nothing (one decay: at
    once).  ``outer_max_iter`` caps the L-BFGS-B iterations over all
    descents; 0 returns the inner fit at ``decay_init``, ``converged=False``.
    The best point is returned, ``converged`` if its projected gradient is at
    most ``outer_tol`` and its inner fit converged.  A failed evaluation ends
    its descent and is named in ``messages``.  Warnings come once, for it.
    """
    from scipy import optimize

    if config is None:
        config = FitConfig()
    decay0 = np.asarray(config.decay_init, dtype=float)

    if config.outer_max_iter == 0:
        return replace(fit_given_decays(seq, decay0, config), converged=False)
    if len(seq) == 0:
        raise FittingError("cannot fit an empty event sequence")

    profile = _Profile(seq, config.num_decays)
    x, iterations, before = np.log(decay0), 0, -np.inf
    for round_ in range(RESEED_ROUNDS + 1):
        res = optimize.minimize(
            profile, x, args=(config,), jac=True, method="L-BFGS-B",
            options={"maxiter": config.outer_max_iter - iterations,
                     "gtol": config.outer_tol, "ftol": 0.0},
        )
        iterations += res.nit
        best = profile.best
        if best is None:
            raise FittingError(f"every profile evaluation failed; first failure: {profile.failures[0]}")
        if best.log_lik <= before or round_ == RESEED_ROUNDS or iterations >= config.outer_max_iter:
            break
        before = best.log_lik
        decays = best.model.kernel.decays
        norms = best.model.kernel.alpha.sum(axis=(1, 2)) / decays
        weak = int(np.argmin(norms))
        if decays.size == 1 or norms[weak] > RESEED_SHARE * norms.sum():
            break
        spread = np.ptp(best.pair_gradient, axis=(1, 2))
        spread[weak] = -np.inf
        near = int(np.argmax(spread))
        x = np.log(decays)
        x[weak] = x[near] + np.log(RESEED_STEP)
        x[near] -= np.log(RESEED_STEP)

    stationary = np.max(np.abs(best.decay_gradient)) <= config.outer_tol
    for note in profile.pinned:
        warnings.warn(note, DegenerateComponentWarning, stacklevel=2)
    return replace(
        best,
        kernel_norm_matrix=kernel_norms(best.model),
        converged=bool(stationary) and best.converged,
        outer_iterations=iterations,
        optimizer_trace=profile.trace,
        messages=best.messages + tuple(profile.failures),
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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
