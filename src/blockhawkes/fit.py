"""Maximum-likelihood estimation of sum-of-exponentials Hawkes models.

The estimation is split into two nested problems:

* **inner** -- with the shared decays held fixed, the log-likelihood splits into one
  concave problem per component i, ``sum_k log(mu_i + X_i[k] . a_i) - mu_i T - a_i . M``
  in ``(mu_i, a_i = alpha[:, i, :])`` with 1 + U*m parameters.  Each is solved by a
  projected Newton method on its exact Hessian ``Z_i^T diag(lambda^-2) Z_i`` with
  ``Z_i = [1, X_i]``, whose box-constrained step lands alpha entries exactly on 0,
  reproducing structural zeros.  Within a fit each solve starts from a predictor: the
  last evaluation's optimum moved along its slope in the log-decays (implicit function
  theorem), clipped to the bounds.
* **outer** -- trust-region Newton (scipy's ``trust-exact``) over the log-decays on the
  maximized (profile) inner log-likelihood, whose gradient comes free at the inner
  optimum by the envelope theorem: b_u dl/db_u at fixed (mu, alpha); its Hessian is
  exact by the implicit function theorem.  A decay left with almost no kernel norm is
  split off the decay whose per-pair terms disagree.

A homogeneous-Poisson baseline fit is provided for model comparison.  Fitting consumes
no randomness: fixed data and config give identical results, warm starts included.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import INTENSITY_FLOOR, HawkesModel, _horizon_moments, _StateSolver, kernel_norms
from .errors import (DegenerateComponentWarning, FittingError, HawkesError, InvalidInputError,
                     LikelihoodUndefinedError)
from .events import EventSequence, set_fields
from .kernels import SumExpKernel

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
    ``outer_max_iter`` caps the decay search's trust-region iterations (one
    profile evaluation each), and ``outer_tol`` bounds its gradient, in nats
    per unit log-decay.
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

    ``inner_iterations`` is the largest Newton step count over the components
    (for :func:`fit_full`, warm-started at the returned decays): it reaches
    ``inner_max_iter`` only if a component hit the cap.  ``decay_gradient``
    is the profile gradient dl/d log b_u at the fitted decays, and
    ``pair_gradient[u, i, j]`` its per-pair terms b_u alpha[u,i,j] (D[u,j] -
    V[u,i,j]), which sum over (i, j) to it; ``decay_hessian`` is the profile's
    d^2 l / d log b_u d log b_v there.  ``outer_iterations`` counts trust-region
    iterations.  ``optimizer_trace`` holds (profile evaluation, best
    log-likelihood so far among the search's iterates) pairs: one,
    ``(1, log_lik)``, for :func:`fit_given_decays`.  ``messages`` names
    pinned components, component solves stopped at the cap or without
    progress, failed profile evaluations and descents stopped short of their
    gradient test.
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
    decay_hessian: np.ndarray
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
    """What no decay changes in fits of ``seq`` at U decays (the empty-component note, bounds,
    read rows, state solver, and every workspace an evaluation writes: S, R, Q, their gathers
    Z, RZ, QZ and the Newton W per component); the continuation state, the last successful
    evaluation's rows theta = (mu_i, alpha[:, i, :]), slopes dtheta/dx and sorted log-decays
    x, from which the next starts at max(theta + slope (log b - x), lower) (at first the cold
    starts); and, as the trust-exact objective over log-decays, each record and the failures."""

    def __init__(self, seq: EventSequence, num_decays: int):
        m, U, counts = seq.dim, num_decays, seq.counts()
        empty = [int(i + 1) for i in np.nonzero(counts == 0)[0]]
        self.seq, self.counts = seq, counts
        note = f"components {empty} have no events; mu and alpha rows pinned to floors"
        self.pinned = (note,) if empty else ()
        self.lower = np.r_[MU_FLOOR, np.zeros(U * m)]
        self.theta = np.c_[np.maximum(0.5 * counts / seq.horizon, MU_FLOOR), np.zeros((m, U * m))]
        self.slope, self.x = np.zeros((m, 1 + U * m, U)), np.zeros(U)
        self.solve = _StateSolver(seq)
        self.reads = [self.solve.reads[seq.marks == i + 1] for i in range(m)]
        self.Z = [np.ones((1 + U * m, r.size)) for r in self.reads]
        self.S, self.R, self.Q = (np.empty((len(seq) + 1, U * m), order="F") for _ in range(3))
        self.RZ, self.QZ, self.W = ([np.empty_like(z[k:]) for z in self.Z] for k in (1, 1, 0))
        self.records, self.failures = {}, []

    def design(self, decays: np.ndarray):
        """Solve S, R, Q of :class:`_StateSolver` at ``decays`` into Z, RZ, QZ: Z[i], (1 + U*m,
        n_i), holds ones, then S_u[:, j] at component i's reads in row 1 + u*m + j, so
        (mu_i, alpha[:, i, :].ravel()) @ Z[i] is the intensity there; RZ[i] and QZ[i] hold R and
        Q alike.  Returns ``(c, D, E)``: the cost c = (T, Mvec), D = -dMvec/db and E =
        d^2Mvec/db^2 of :func:`_horizon_moments` (M raveled)."""
        self.solve(decays, self.S, self.R, self.Q)
        # One take per component and state; reads are in range, and "clip" skips a buffered check.
        for r, *outs in zip(self.reads, (z[1:] for z in self.Z), self.RZ, self.QZ):
            for X, out in zip((self.S, self.R, self.Q), outs):
                np.take(X.T, r, axis=1, out=out, mode="clip")
        M, D, E = _horizon_moments(self.seq, decays, self.counts)
        return np.r_[self.seq.horizon, M.ravel()], D, E

    def __call__(self, x, config: FitConfig):
        """``(fit, -l, -gradient, -Hessian)`` at the log-decays ``x``, any order,
        from one :func:`fit_given_decays` per distinct x (trust-exact asks for
        the Hessian at each trial point before l).  A failed one scores -l = inf."""
        key = x.tobytes()
        if key not in self.records:
            decays, back = np.exp(np.sort(x)), np.argsort(np.argsort(x))
            try:
                fit = fit_given_decays(self.seq, decays, config, profile=self)
            except (HawkesError, np.linalg.LinAlgError, FloatingPointError) as exc:
                self.failures.append(f"decays {decays.round(6).tolist()}: {exc}")
                self.records[key] = (None, np.inf, np.zeros_like(x), np.zeros((x.size, x.size)))
            else:
                self.records[key] = (fit, -fit.log_lik, -fit.decay_gradient[back],
                                     -fit.decay_hessian[np.ix_(back, back)])
        return self.records[key]


def loglik_and_grad(seq: EventSequence, decays, mu, alpha):
    """Log-likelihood and its analytic gradient at fixed decays.

    ``alpha`` has shape (U, m, m).  Returns ``(l, dl_dmu, dl_dalpha)`` from the design
    a fit reads (:meth:`_Profile.design`), exact up to accumulation error.  Invalid
    parameters raise as in :class:`HawkesModel`, and an event intensity below the
    1e-300 floor as in :func:`log_likelihood`.
    """
    decays, mu, alpha = (np.asarray(v, dtype=float) for v in (decays, mu, alpha))
    m, U = seq.dim, decays.size
    if mu.shape != (m,) or alpha.shape != (U, m, m):
        raise InvalidInputError("parameter shapes do not match the sequence/decays")
    HawkesModel(mu, SumExpKernel(alpha, decays))  # checks the values
    profile = _Profile(seq, U)
    c = profile.design(decays)[0]
    theta = np.column_stack((mu, alpha.transpose(1, 0, 2).reshape(m, U * m)))
    ll, grad = 0.0, np.empty_like(theta)
    for i, (z, x) in enumerate(zip(profile.Z, theta)):
        lam = x @ z
        low = np.flatnonzero(lam < INTENSITY_FLOOR)
        if low.size:
            raise LikelihoodUndefinedError(np.flatnonzero(seq.marks == i + 1)[low[0]], lam[low[0]])
        ll += np.log(lam).sum() - c @ x
        grad[i] = z @ (1.0 / lam) - c
    return float(ll), grad[:, 0], grad[:, 1:].reshape(m, U, m).transpose(1, 0, 2)


def _newton_component(Z, c, lower, x, max_steps, tol, W):
    """Maximize ``sum(log(x @ Z)) - c @ x`` subject to ``x >= lower``, for a
    component's (parameters, events) design block ``Z`` of :meth:`_Profile.design`.

    Projected Newton on the exact Hessian ``H = W W^T``, ``W = Z / lambda`` column-wise
    (formed in ``W``).  Parameters on their bound with a nonpositive gradient are held
    there, which pins those of all-zero (singular) rows of ``Z``.  On the rest, with
    ``H = L L^T``, the quadratic model's maximizer on the box is the Newton point if that
    lies in it, else ``lower + nnls(L^T, L^-1 (g + H (x - lower)))``; if ``H`` is not
    positive definite a diagonally scaled projected-gradient step stands in.  Armijo
    backtracking runs along the segment to it.  Stops at a projected gradient of at most
    ``tol * (1 + |f|)``, after a step that gains at most 1e-15 * |f|, or after
    ``max_steps`` steps.  Returns ``(x, lam, g, steps, reason)``: the last iterate, its
    intensities and the gradient the stop rule was tested on there, the number of steps
    taken, and why the solve stopped short of ``tol`` (``None`` if it did not).
    """
    from scipy import linalg, optimize

    lam = x @ Z
    f = np.log(lam).sum() - c @ x
    steps, stalled = 0, False
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
        H = W @ W.T if free.all() else (W @ W.T)[np.ix_(free, free)]
        target = x.copy()
        L, info = linalg.lapack.dpotrf(H, lower=True)
        if info == 0:
            rhs = linalg.lapack.dtrtrs(L, g[free] + H @ (x - lower)[free], lower=True)[0]
            y = linalg.lapack.dtrtrs(L, rhs, lower=True, trans=1)[0]
            target[free] = lower[free] + (y if np.all(y >= 0) else optimize.nnls(L.T, rhs)[0])
        else:
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


def _curvature(Z, RZ, QZ, lam, x, lower, DV, E, work):
    """A component's share of d^2 l / db db^T, (U, U), at its inner optimum x, and dx/db.

    With a = alpha[:, i, :] and rho_u = a_u . RZ_u = -dlambda/db_u, l_bb is diag(a .
    (QZ / lambda - E)) - rho diag(lambda^-2) rho^T; B = dl_b/dx is Y rho^T, Y = Z
    diag(lambda^-2) (formed in ``work``), plus DV = D - V in each decay's block.
    The free parameters F = {x > lower} follow the decays (implicit function theorem),
    adding B_F^T H_FF^-1 B_F with H = Y Z^T, by a least-squares solve: finite also where
    H_FF is singular (near-collinear decays).  It is dx_F/db, returned as (1 + U*m, U) dx/db."""
    (U, m), inv = DV.shape, 1.0 / lam
    a, inv2 = x[1:].reshape(U, m), inv * inv
    rho = np.einsum("uj,ujk->uk", a, RZ.reshape(U, m, -1))
    Y = np.multiply(Z, inv2, out=work)
    B = Y @ rho.T
    B[1:].reshape(U, m, U)[np.arange(U), :, np.arange(U)] += DV  # rows of decay u, column u
    free, slope = x > lower, np.zeros((x.size, U))
    l_bb = np.diag(np.sum(a * ((QZ @ inv).reshape(U, m) - E), axis=1)) - (rho * inv2) @ rho.T
    slope[free] = np.linalg.lstsq((Y @ Z.T)[np.ix_(free, free)], B[free], rcond=None)[0]
    return l_bb + B[free].T @ slope[free], slope


def fit_given_decays(
    seq: EventSequence, decays, config: FitConfig | None = None, *, profile: _Profile | None = None
) -> FitResult:
    """Maximize the log-likelihood over (mu, alpha) with decays held fixed.

    One loop solves each component by :func:`_newton_component` from the profile's
    predictor (its last successful fit moved along the slope dtheta/d log b to these
    decays, clipped to the bounds; a fresh profile, as without ``profile``, starts cold
    at mu = 0.5 n_i / T, alpha = 0) to a projected gradient of at most ``0.1 *
    inner_tol * (1 + |l_i|)``; l, the verdict and the decay gradient with its per-pair
    terms and the decay Hessian come from each solve's last iterate, intensities and
    gradient.  A component with zero events has an empty design block, so its solve
    stops at once with mu on the 1e-10 floor and its alpha row at 0, and a
    :class:`DegenerateComponentWarning` names it.  A fitted kernel-norm
    spectral radius >= 1 gives a :class:`StationarityWarning`.  It refills the
    design of its own :class:`_Profile` or of the ``profile`` :func:`fit_full` passes
    (then leaving both warnings to fit_full).  Non-convergence within the budget
    returns the best iterate with ``converged=False`` rather than raising.
    """
    decays = np.asarray(decays, dtype=float)
    given = FitConfig(num_decays=decays.size, decay_init=decays)  # checks the decays
    decays = np.array(given.decay_init)
    config = given if config is None else config
    alone = profile is None
    if alone:
        if len(seq) == 0:
            raise FittingError("cannot fit an empty event sequence")
        profile = _Profile(seq, decays.size)
        for note in profile.pinned:
            warnings.warn(note, DegenerateComponentWarning, stacklevel=2)

    m, U = seq.dim, decays.size
    messages = list(profile.pinned)
    c, D, E = profile.design(decays)
    # Row i: theta_i = (mu_i, alpha[:, i, :].ravel()) and dl/dtheta_i.
    # V[u, i, j] sums R_u[:, j] / lambda over component-i events.
    theta, grad, V = np.empty((m, 1 + U * m)), np.empty((m, 1 + U * m)), np.empty((U, m, m))
    log_lik, steps, hess, slope = 0.0, 0, np.empty((m, U, U)), np.empty((m, 1 + U * m, U))
    starts = np.maximum(profile.theta + profile.slope @ (np.log(decays) - profile.x), profile.lower)
    for i, (z, rz, qz, w) in enumerate(zip(profile.Z, profile.RZ, profile.QZ, profile.W)):
        theta[i], lam, grad[i], taken, reason = _newton_component(
            z, c, profile.lower, starts[i], config.inner_max_iter, 0.1 * config.inner_tol, w)
        log_lik += np.log(lam).sum() - c @ theta[i]
        V[:, i] = (rz @ (1.0 / lam)).reshape(U, m)
        hess[i], slope[i] = _curvature(z, rz, qz, lam, theta[i], profile.lower, D - V[:, i], E, w)
        steps = max(steps, taken)
        if reason is not None:
            messages.append(f"component {i + 1}: inner solve {reason}")

    # Convergence verdict on the whole problem, per the contract.
    worst = np.max(np.abs(np.where((theta <= profile.lower) & (grad < 0), 0.0, grad)))
    converged = bool(worst <= config.inner_tol * (1.0 + abs(log_lik)))
    alpha = theta[:, 1:].reshape(m, U, m).transpose(1, 0, 2)
    model = HawkesModel(theta[:, 0], SumExpKernel(alpha, decays))
    profile.theta, profile.slope, profile.x = theta, slope * decays, np.log(decays)  # b d/db = d/dx
    # Envelope gradient at fixed (mu, alpha), per pair: alpha[u,i,j] (D[u,j] - V[u,i,j]), times b_u.
    pairs = alpha * (D[:, None, :] - V)
    gradient = decays * np.sum(pairs, axis=(1, 2))
    return FitResult(
        model=model,
        log_lik=float(log_lik),
        kernel_norm_matrix=kernel_norms(model) if alone else model.kernel.norms(),
        converged=converged,
        inner_iterations=steps,
        outer_iterations=0,
        optimizer_trace=[(1, float(log_lik))],
        decay_gradient=gradient,
        pair_gradient=decays[:, None, None] * pairs,
        # In log-decays: d^2 l / dx_u dx_v = b_u b_v l_bb + delta_uv b_u l_b.
        decay_hessian=np.outer(decays, decays) * hess.sum(axis=0) + np.diag(gradient),
        messages=tuple(messages),
    )


# ---------------------------------------------------------------------------
# Outer problem: trust-region Newton over log-decays, profile likelihood objective
# ---------------------------------------------------------------------------

def fit_full(seq: EventSequence, config: FitConfig | None = None) -> FitResult:
    """Full fit: Newton search over shared decays on the profile likelihood.

    scipy's ``trust-exact`` descends from ``decay_init`` over the log-decays,
    one inner :func:`fit_given_decays` (with its envelope gradient and exact
    profile Hessian) per profile evaluation, to a gradient norm below
    ``outer_tol``.  Then a decay with at most RESEED_SHARE of the kernel norm
    is split off the other decay whose ``pair_gradient`` spreads widest (max -
    min), the two moving to it times RESEED_STEP ** +-1, and the search
    descends again until a round's end point gains nothing (one decay: at
    once).  ``outer_max_iter`` caps the trust-region iterations over all
    descents; 0 returns the inner fit at ``decay_init``, ``converged=False``.
    The end point of the best descent is returned, ``converged`` if its
    gradient is at most ``outer_tol`` and its inner fit converged.  A descent
    stopped by anything but its gradient test, and a failed evaluation, are
    named in ``messages``.  Warnings come once, for the returned fit.
    """
    from scipy import optimize

    config = FitConfig() if config is None else config
    decay0 = np.asarray(config.decay_init, dtype=float)

    if config.outer_max_iter == 0:
        return replace(fit_given_decays(seq, decay0, config), converged=False)
    if len(seq) == 0:
        raise FittingError("cannot fit an empty event sequence")

    profile = _Profile(seq, config.num_decays)
    x, iterations, best, iterates, stops = np.log(decay0), 0, None, set(), []
    for round_ in range(RESEED_ROUNDS + 1):
        res = optimize.minimize(
            lambda x: profile(x, config)[1:3], x, jac=True, method="trust-exact",
            hess=lambda x: profile(x, config)[3],
            options={"maxiter": config.outer_max_iter - iterations,
                     "gtol": config.outer_tol, "return_all": True},
        )
        iterations += res.nit
        iterates.update(v.tobytes() for v in res.allvecs)
        if res.status != 0:
            stops.append(f"decay search descent {round_ + 1}: {res.message}")
        end = profile.records[res.x.tobytes()][0]
        if end is None or (best is not None and end.log_lik <= best.log_lik):
            break
        best = end
        if round_ == RESEED_ROUNDS or iterations >= config.outer_max_iter:
            break
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
    if best is None:
        raise FittingError(f"every profile evaluation failed; first failure: {profile.failures[0]}")

    # Per successful evaluation, the best l so far among the iterates: it ends at best's.
    reached = [fit.log_lik if key in iterates else -np.inf
               for key, (fit, *_) in profile.records.items() if fit is not None]
    trace = [(k, float(v)) for k, v in enumerate(np.maximum.accumulate(reached), 1)]
    stationary = np.max(np.abs(best.decay_gradient)) <= config.outer_tol
    for note in profile.pinned:
        warnings.warn(note, DegenerateComponentWarning, stacklevel=2)
    return replace(
        best,
        kernel_norm_matrix=kernel_norms(best.model),
        converged=bool(stationary) and best.converged,
        outer_iterations=iterations,
        optimizer_trace=trace,
        messages=best.messages + tuple(profile.failures) + tuple(stops),
    )


# ---------------------------------------------------------------------------
# JSON-friendly serialization (field names are part of the file contract)
# ---------------------------------------------------------------------------

def model_to_dict(model: HawkesModel) -> dict:
    """Serialize a sum-of-exponentials model as plain lists."""
    return {
        "mu": model.mu.tolist(),
        "alpha": model.kernel.alpha.tolist(),
        "beta": model.kernel.decays.tolist(),
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
