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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import HawkesModel, _check_pair, _StateSolver
from .errors import InvalidInputError, UndefinedSlopeError
from .events import EventSequence, _removed_on_error, write_csv

MODEL_LABELS = ("hawkes", "poisson")


@dataclass
class ComponentGof:
    component: int
    rescaled_interarrivals: np.ndarray  # Q-Q pairs are qq_exponential of these
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
    _check_pair(model, seq, 1)
    kernel, m, solve = model.kernel, model.dim, _StateSolver(seq)
    S, I = (np.empty((len(seq) + 1, m), order="F") for _ in range(2))  # states, integral
    excited = np.zeros((len(seq), m))  # Lambda_i(t_k) - mu_i t_k at [k, i-1]
    for b, a in zip(kernel.decays, kernel.alpha):
        solve(b, S)
        excited += solve.integral(b, S, I)[:-1] @ a.T
    out = []
    for i in range(1, m + 1):
        rows = seq.marks == i
        if rows.sum() < 2:
            out.append(np.empty(0))
            continue
        taus = model.mu[i - 1] * seq.times[rows] + excited[rows, i - 1]
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


def qq_slope(pairs) -> float:
    """Origin-anchored least-squares slope of empirical on theoretical."""
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 2:
        raise UndefinedSlopeError("need at least 2 Q-Q pairs")
    x, y = pairs[:, 0], pairs[:, 1]
    if np.all(x == x[0]):
        raise UndefinedSlopeError("all theoretical quantiles are equal")
    return float((x @ y) / (x @ x))


def slope_deviation(pairs) -> float:
    """|slope - 1| of the origin-anchored Q-Q regression."""
    return abs(qq_slope(pairs) - 1.0)


def ks_exp1(samples):
    """One-sample KS statistic and asymptotic p-value against Exp(1)."""
    from scipy import special

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
    """Full per-component report for ``model`` on ``seq``; a component with
    fewer than two residuals gets NaN statistics and ``degenerate=True``."""
    if model_label not in MODEL_LABELS:
        raise InvalidInputError(f"model_label must be one of {MODEL_LABELS}")
    components = []
    for i, rescaled in enumerate(time_rescale(model, seq), start=1):
        degenerate = rescaled.size < 2
        slope = math.nan if degenerate else qq_slope(qq_exponential(rescaled))
        stat, p = (math.nan, math.nan) if degenerate else ks_exp1(rescaled)
        components.append(ComponentGof(i, rescaled, slope, abs(slope - 1.0), stat, p, degenerate))
    return GofReport(model_label=model_label, components=components)


def report_to_dict(report: GofReport) -> dict:
    """JSON-ready representation (NaN becomes null).  The Q-Q pairs are not
    stored: :func:`write_qq_csv` derives them from the residuals."""
    doc = asdict(report)
    for comp in doc["components"]:
        comp.update({k: None for k, v in comp.items() if isinstance(v, float) and math.isnan(v)})
        comp["rescaled_interarrivals"] = comp["rescaled_interarrivals"].tolist()
    return doc


def write_qq_csv(report: GofReport, path) -> list:
    """Write one two-column Q-Q CSV per component next to ``path``.

    The rows are :func:`qq_exponential` of the component's rescaled
    interarrivals.  ``qq.csv`` becomes ``qq_c1.csv``, ``qq_c2.csv``, ...;
    returns the paths written (degenerate components are skipped).  When one
    cannot be written, those written before it are removed.
    """
    base = Path(path)
    suffix = base.suffix or ".csv"
    written = []
    with _removed_on_error(written):
        for comp in report.components:
            if comp.degenerate:
                continue
            target = base.with_name(f"{base.stem}_c{comp.component}{suffix}")
            pairs = qq_exponential(comp.rescaled_interarrivals)
            write_csv(target, ("theoretical_quantile", "empirical_quantile"),
                      "%.12g,%.12g\r\n", pairs.T.tolist())
            written.append(str(target))
    return written
