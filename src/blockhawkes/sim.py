"""Exact simulation of multivariate Hawkes processes by their branching structure.

A linear Hawkes process started empty at 0 is a cluster process (Hawkes &
Oakes 1974): component i has Poisson(mu_i) immigrants per hour, and each
type-j event has Poisson(||phi_ij||) type-i children at lags drawn from
phi_ij / ||phi_ij||.  ``simulate`` draws it one generation at a time with
whole-generation numpy calls, exact in law (Moller & Rasmussen 2005); the
lags come from the kernel's ``draw_lags``, so no kernel family is named here.

Draw order: one Poisson immigrant count per component, then one uniform time
per immigrant.  Then, per generation, each as one array call: a Poisson
count of children per parent (mean sum_i ||phi_ij||), one uniform per child
picking its type i with probability ||phi_ij|| / sum_i ||phi_ij|| (the same
law as independent counts per type), then the kernel's lag draws.  Past
``max_events + 1`` immigrants, only the first ``max_events + 1`` in time
order are drawn.  One PCG64 generator seeded from the config is consumed in
that order, so equal configs give bitwise-equal output.  For independent
replicates, pass distinct integer seeds, e.g. ``int(s.generate_state(1)[0])``
for each child ``s`` of ``SeedSequence(master).spawn(n)``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .core import HawkesModel, spectral_radius
from .errors import InvalidInputError, SimulationTruncatedError, StabilityError
from .events import EventSequence

# The largest mean numpy's Generator.poisson accepts (POISSON_LAM_MAX in
# numpy/random/_common.pyx); above it numpy raises "lam value too large".
POISSON_MEAN_MAX = 9.223372006484771e18


@dataclass(frozen=True)
class SimConfig:
    """Inputs of one simulation run.

    ``allow_unstable`` opts into simulating supercritical models
    (kernel-norm spectral radius >= 1), which is occasionally useful for
    short-horizon error-path experiments.
    """

    model: HawkesModel
    horizon: float
    seed: int
    max_events: int = 1_000_000
    allow_unstable: bool = False

    def __post_init__(self):
        if not np.isfinite(self.horizon) or self.horizon <= 0:
            raise InvalidInputError(f"horizon must be positive, got {self.horizon}")
        try:  # numpy integers pass; floats are not truncated
            seed, max_events = operator.index(self.seed), operator.index(self.max_events)
        except TypeError as exc:
            raise InvalidInputError(f"seed and max_events must be integers: {exc}") from exc
        if max_events < 1:
            raise InvalidInputError("max_events must be >= 1")
        if not 0 <= seed < 2**64:
            raise InvalidInputError("seed must fit in an unsigned 64-bit integer")


def simulate(config: SimConfig) -> EventSequence:
    """Draw one realisation of the model on [0, horizon], in (time, mark) order.

    Raises
    ------
    StabilityError
        If the kernel-norm spectral radius is >= 1 and ``allow_unstable``
        is not set.
    InvalidInputError
        If sum_i mu_i * horizon or a kernel-norm column sum, the mean of a
        Poisson count, exceeds ``POISSON_MEAN_MAX``, or numpy refuses to
        allocate a generation's children.
    SimulationTruncatedError
        If the realisation has more than ``max_events`` events.  Its
        ``partial`` holds the first ``max_events`` of them, an exact
        realisation on [0, t_(max_events)].  Events later than the running
        ``max_events + 1``-th time are dropped before they have offspring,
        which bounds the work even for a supercritical model.
    """
    model = config.model
    norms = model.kernel.norms()
    rho = spectral_radius(norms)
    if rho >= 1.0 and not config.allow_unstable:
        raise StabilityError(
            f"kernel-norm spectral radius {rho:.4g} >= 1; pass allow_unstable=True "
            "to simulate a supercritical model anyway"
        )
    m = model.dim
    horizon = float(config.horizon)
    limit = config.max_events
    type_cum = np.cumsum(norms, axis=0)
    mean = max(model.mu.sum() * horizon, type_cum[-1].max())
    if mean > POISSON_MEAN_MAX:
        raise InvalidInputError(
            f"Poisson mean {mean:.4g} (sum of mu_i * horizon, or a kernel-norm column sum) "
            f"exceeds numpy's limit {POISSON_MEAN_MAX:.4g}"
        )
    rng = np.random.default_rng(int(config.seed))

    counts = rng.poisson(model.mu * horizon)
    n, first = int(counts.sum()), limit + 1
    if n <= first:
        marks = np.repeat(np.arange(1, m + 1), counts)
        times = horizon * rng.random(n)
    else:  # only the first `limit + 1` immigrants can matter: draw just those
        last = horizon * rng.beta(first, n - first + 1)  # their latest time
        marks = np.searchsorted(counts.cumsum(), rng.choice(n, first, replace=False), "right") + 1
        times = last * rng.random(first)
        times[-1] = last  # the subset comes in random order
    events = [(times, marks)]
    kept, cutoff = times.size, horizon
    while times.size:
        if kept > limit:  # only the first `limit + 1` events and their offspring matter
            all_times, all_marks = map(np.concatenate, zip(*events))
            cutoff = np.partition(all_times, limit)[limit]
            early, keep = all_times <= cutoff, times <= cutoff
            events, kept = [(all_times[early], all_marks[early])], early.sum()
            times, marks = times[keep], marks[keep]
        children = rng.poisson(type_cum[-1, marks - 1])
        try:  # numpy refuses a generation past memory or address space before allocating it
            parent = np.repeat(np.arange(times.size), children)
        except (MemoryError, ValueError):
            raise InvalidInputError(f"a generation of {children.sum(dtype=float):.4g} children "
                                    "is too large to allocate") from None
        cum = type_cum[:, marks[parent] - 1]
        pick = rng.random(parent.size) * cum[-1]
        child_marks = np.sum(cum[:-1] <= pick, axis=0) + 1
        child_times = times[parent] + model.kernel.draw_lags(rng, child_marks, marks[parent])
        keep = child_times <= cutoff
        times, marks = child_times[keep], child_marks[keep]
        events.append((times, marks))
        kept += times.size

    times, marks = map(np.concatenate, zip(*events))
    order = np.lexsort((marks, times))
    times, marks = times[order], marks[order]
    if times.size > limit:
        raise SimulationTruncatedError(
            f"simulation exceeded max_events={limit} before the horizon {horizon}; "
            f"the partial sequence is exact on [0, {times[limit - 1]:.4f}]",
            EventSequence(times[:limit], marks[:limit], horizon, m),
        )
    return EventSequence(times, marks, horizon, m)
