# =============================================================================
# Maximum-likelihood fitting: profile search over decays
#
# Demonstrates the two-level estimation scheme on a simulate-then-fit
# experiment where the truth is known:
#   inner  -- (mu, alpha) at fixed decays splits into one concave problem
#             per component, each solved by projected Newton steps
#   outer  -- trust-region Newton walks the log-decays on the profile
#             likelihood, whose gradient comes free at each inner optimum
#             (envelope theorem) and whose Hessian is exact (implicit
#             function theorem)
#
# Run:  python demos/03_fitting.py
# =============================================================================

import numpy as np

from blockhawkes import (
    FitConfig,
    HawkesModel,
    SimConfig,
    SumExpKernel,
    fit_full,
    fit_given_decays,
    fit_poisson,
    simulate,
)

np.set_printoptions(precision=4, suppress=True)

# -----------------------------------------------------------------------------
# 1. Ground truth and synthetic data
# -----------------------------------------------------------------------------
truth_mu, truth_alpha, truth_beta = 1.0, 0.8, 1.2
truth = HawkesModel([truth_mu], SumExpKernel(np.array([[[truth_alpha]]]), [truth_beta]))
horizon = 3333.0  # stationary rate = mu / (1 - alpha/beta) = 3/h -> ~10k events

seq = simulate(SimConfig(truth, horizon, seed=7))
print("=" * 70)
print(f"simulated {len(seq)} events; truth (mu, alpha, beta) = "
      f"({truth_mu}, {truth_alpha}, {truth_beta})")
print("=" * 70)

# -----------------------------------------------------------------------------
# 2. The profile likelihood over the decay parameter
# -----------------------------------------------------------------------------
print("\nprofile log-likelihood over a decay grid (inner fit at each point):")
print(f"{'decay':>8}  {'profile l':>14}")
grid = [0.3, 0.6, 1.0, 1.2, 1.5, 2.5, 5.0]
profile = []
for b in grid:
    value = fit_given_decays(seq, [b]).log_lik
    profile.append(value)
    marker = "  <-- near the truth" if b == 1.2 else ""
    print(f"{b:>8.2f}  {value:>14.2f}{marker}")
best_grid = grid[int(np.argmax(profile))]
print(f"grid maximum at decay {best_grid}")

# -----------------------------------------------------------------------------
# 3. Full fit: gradient search over log-decays + convergence diagnostics
# -----------------------------------------------------------------------------
result = fit_full(seq, FitConfig(num_decays=1, decay_init=(0.5,)))
k = result.model.kernel
print("\nfull fit (decay search started from 0.5):")
print(f"  mu    = {result.model.mu[0]:.4f}   (truth {truth_mu})")
print(f"  alpha = {k.alpha[0, 0, 0]:.4f}   (truth {truth_alpha})")
print(f"  beta  = {k.decays[0]:.4f}   (truth {truth_beta})")
print(f"  branching ratio alpha/beta = {result.kernel_norm_matrix[0, 0]:.4f} "
      f"(truth {truth_alpha / truth_beta:.4f})")
print(f"  converged={result.converged}, inner iters={result.inner_iterations}, "
      f"outer iters={result.outer_iterations}, "
      f"profile gradient d l/d log beta={result.decay_gradient[0]:.2e}")

print("\nouter progress (best log-likelihood among the search's iterates, per profile evaluation):")
trace = result.optimizer_trace
for it, value in trace[:: max(1, len(trace) // 6)]:
    print(f"  evaluation {it:>3}: {value:.3f}")

# -----------------------------------------------------------------------------
# 4. Against the memoryless baseline
# -----------------------------------------------------------------------------
baseline = fit_poisson(seq)
print(f"\nPoisson baseline: rate {baseline.rates[0]:.4f}/h, "
      f"log_lik {baseline.log_lik:.2f}")
print(f"Hawkes fit:       log_lik {result.log_lik:.2f} "
      f"(+{result.log_lik - baseline.log_lik:.1f} over {len(seq)} events)")
print("\nthe Hawkes family nests Poisson (alpha = 0), so the fitted")
print("log-likelihood can never fall below the baseline.")
