"""Reference simulator: the Ogata thinning loop that ``sim.simulate`` used
before the branching construction, kept verbatim as an oracle.

It draws a candidate from the current total intensity (a valid dominating
rate, since the kernel is nonincreasing in the lag), accepts it with
probability lambda(t-)/bound and picks its component from the intensities.  Its output on a seed is bitwise what ``simulate`` gave before;
the tests compare the two simulators in law, not draw for draw.
"""

import numpy as np

from blockhawkes.core import spectral_radius
from blockhawkes.errors import SimulationTruncatedError, StabilityError
from blockhawkes.events import EventSequence
from blockhawkes.kernels import SumExpKernel
from blockhawkes.sim import SimConfig


class _SumExpState:
    """Excitation sums S^u_j(t) for shared decays."""

    def __init__(self, kernel: SumExpKernel, mu: np.ndarray):
        self.alpha = kernel.alpha
        self.decays = kernel.decays
        self.mu = mu
        self.s = np.zeros((kernel.num_decays, kernel.dim))
        self.last_t = 0.0

    def intensities_at(self, t: float) -> np.ndarray:
        decayed = self.s * np.exp(-self.decays * (t - self.last_t))[:, None]
        return self.mu + np.einsum("uij,uj->i", self.alpha, decayed)

    def register(self, t: float, mark: int):
        self.s *= np.exp(-self.decays * (t - self.last_t))[:, None]
        self.s[:, mark - 1] += 1.0
        self.last_t = t


def thinning_simulate(config: SimConfig) -> EventSequence:
    """Draw one realisation of the model on [0, horizon] by Ogata thinning.

    Raises
    ------
    StabilityError
        If the kernel-norm spectral radius is >= 1 and ``allow_unstable``
        is not set.
    SimulationTruncatedError
        If ``max_events`` is exceeded; the partial sequence rides on the
        exception's ``partial`` attribute.
    """
    model = config.model
    rho = spectral_radius(model.kernel.norms())
    if rho >= 1.0 and not config.allow_unstable:
        raise StabilityError(
            f"kernel-norm spectral radius {rho:.4f} >= 1; pass allow_unstable=True "
            "to simulate a supercritical model anyway"
        )
    rng = np.random.default_rng(int(config.seed))
    state = _SumExpState(model.kernel, model.mu)
    m = model.dim
    horizon = float(config.horizon)

    times: list[float] = []
    marks: list[int] = []
    t = 0.0
    # Dominating rate: total intensity just after the last accepted or
    # rejected point (valid: intensity is nonincreasing between events).
    bound = float(state.intensities_at(t).sum())
    while True:
        t = t + rng.exponential(1.0 / bound)
        if t > horizon:
            break
        lam = state.intensities_at(t)  # left limit: all registered events are < t
        total = float(lam.sum())
        if rng.random() * bound <= total:
            mark = int(rng.choice(m, p=lam / total)) + 1
            if len(times) >= config.max_events:
                partial = EventSequence(np.array(times), np.array(marks), horizon, m)
                raise SimulationTruncatedError(
                    f"simulation exceeded max_events={config.max_events} "
                    f"at t={t:.4f} of horizon {horizon}",
                    partial,
                )
            times.append(t)
            marks.append(mark)
            state.register(t, mark)
            bound = float(state.intensities_at(t).sum())
        else:
            bound = total  # a rejection leaves the state unchanged
    return EventSequence(np.array(times), np.array(marks), horizon, m)
