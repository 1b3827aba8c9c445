"""Goodness-of-fit by the random time change theorem.

Mapping each component's event times through its compensator turns a
correctly specified model's events into a unit-rate Poisson process, so the
rescaled interarrivals are i.i.d. Exp(1).  Fit quality is then read off a
Q-Q plot against Exp(1): the origin-anchored regression slope's deviation
from 1, and a one-sample Kolmogorov-Smirnov test.

The same report is produced for Hawkes fits and for the homogeneous-Poisson
baseline (``model_label`` distinguishes them), which is what makes the two
models directly comparable on one dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import special

from .core import HawkesModel, _sumexp_event_states, compensator
from .errors import InvalidInputError, UndefinedSlopeError
from .events import EventSequence, write_csv

MODEL_LABELS = ("hawkes", "poisson")


@dataclass
class ComponentGof:
    component: int
    rescaled_interarrivals: np.ndarray
    qq_pairs: np.ndarray  # (k, 2): theoretical, empirical, both ascending
    slope: float
    slope_deviation: float
    ks_statistic: float
    ks_p_value: float
    degenerate: bool = False


@dataclass
class GofReport:
    model_label: str
    components: list


def time_rescale(model: HawkesModel, seq: EventSequence) -> list:
    """Per-component rescaled interarrivals under ``model``.

    Component i's event times t_1 < t_2 < ... map to Lambda_i(t_k); the
    returned list holds the successive differences (with Lambda_i(t_1)
    first), using the left-limit compensator.  Components with fewer than
    two events yield an empty array (flagged downstream).
    """
    if model.dim != seq.dim:
        raise InvalidInputError(f"model dimension {model.dim} != sequence {seq.dim}")
    out = []
    kernel = model.kernel.sumexp()
    if kernel is not None:
        _, I, _ = _sumexp_event_states(seq, kernel.decays)
    for i in range(1, model.dim + 1):
        rows = seq.marks == i
        if rows.sum() < 2:
            out.append(np.empty(0))
            continue
        if kernel is None:
            taus = np.array([compensator(model, seq, i, t) for t in seq.times[rows]])
        else:
            # Lambda_i(t_k) = mu_i t_k + sum_{u,j} alpha[u,i,j] I[u,j,k]
            taus = model.mu[i - 1] * seq.times[rows] + np.einsum(
                "ujk,uj->k", I[..., :-1][..., rows], kernel.alpha[:, i - 1, :]
            )
        out.append(np.diff(taus, prepend=0.0))
    return out


def qq_exponential(samples) -> np.ndarray:
    """Q-Q pairs of ``samples`` against the unit exponential.

    Plotting positions j/(n+1) avoid the p=1 singularity of the exponential
    quantile function -ln(1-p).  Empty input gives an empty (0, 2) array.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        return np.empty((0, 2))
    p = np.arange(1, n + 1) / (n + 1.0)
    theoretical = -np.log1p(-p)
    return np.column_stack([theoretical, x])


def qq_slope(qq_pairs) -> float:
    """Origin-anchored least-squares slope of empirical on theoretical."""
    pairs = np.asarray(qq_pairs, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 2:
        raise UndefinedSlopeError("need at least 2 Q-Q pairs")
    x, y = pairs[:, 0], pairs[:, 1]
    if np.all(x == x[0]):
        raise UndefinedSlopeError("all theoretical quantiles are equal")
    return float((x @ y) / (x @ x))


def slope_deviation(qq_pairs) -> float:
    """|slope - 1| of the origin-anchored Q-Q regression."""
    return abs(qq_slope(qq_pairs) - 1.0)


def ks_exp1(samples):
    """One-sample KS statistic and asymptotic p-value against Exp(1)."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise InvalidInputError("KS test needs at least one sample")
    cdf = -np.expm1(-x)
    d_plus = np.max(np.arange(1, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0, n) / n)
    stat = float(max(d_plus, d_minus))
    p = float(special.kolmogorov(math.sqrt(n) * stat))
    return stat, p


def gof_report(model: HawkesModel, seq: EventSequence, model_label: str) -> GofReport:
    """Full per-component report for ``model`` on ``seq``."""
    if model_label not in MODEL_LABELS:
        raise InvalidInputError(f"model_label must be one of {MODEL_LABELS}")
    components = []
    for i, rescaled in enumerate(time_rescale(model, seq), start=1):
        if rescaled.size < 2:
            components.append(
                ComponentGof(
                    component=i,
                    rescaled_interarrivals=rescaled,
                    qq_pairs=np.empty((0, 2)),
                    slope=math.nan,
                    slope_deviation=math.nan,
                    ks_statistic=math.nan,
                    ks_p_value=math.nan,
                    degenerate=True,
                )
            )
            continue
        pairs = qq_exponential(rescaled)
        slope = qq_slope(pairs)
        stat, p = ks_exp1(rescaled)
        components.append(
            ComponentGof(
                component=i,
                rescaled_interarrivals=rescaled,
                qq_pairs=pairs,
                slope=slope,
                slope_deviation=abs(slope - 1.0),
                ks_statistic=stat,
                ks_p_value=p,
            )
        )
    return GofReport(model_label=model_label, components=components)


def report_to_dict(report: GofReport) -> dict:
    """JSON-ready representation (NaN becomes null)."""

    def _clean(v):
        return None if isinstance(v, float) and math.isnan(v) else v

    return {
        "model_label": report.model_label,
        "components": [
            {
                "component": c.component,
                "rescaled_interarrivals": c.rescaled_interarrivals.tolist(),
                "qq_pairs": c.qq_pairs.tolist(),
                "slope": _clean(c.slope),
                "slope_deviation": _clean(c.slope_deviation),
                "ks_statistic": _clean(c.ks_statistic),
                "ks_p_value": _clean(c.ks_p_value),
                "degenerate": c.degenerate,
            }
            for c in report.components
        ],
    }


def write_qq_csv(report: GofReport, path) -> list:
    """Write one two-column Q-Q CSV per component next to ``path``.

    ``qq.csv`` becomes ``qq_c1.csv``, ``qq_c2.csv``, ...; returns the paths
    written (degenerate components are skipped).
    """
    base = Path(path)
    suffix = base.suffix or ".csv"
    written = []
    for comp in report.components:
        if comp.degenerate:
            continue
        target = base.with_name(f"{base.stem}_c{comp.component}{suffix}")
        rows = ((f"{theo:.12g}", f"{emp:.12g}") for theo, emp in comp.qq_pairs.tolist())
        write_csv(target, ("theoretical_quantile", "empirical_quantile"), rows)
        written.append(str(target))
    return written
