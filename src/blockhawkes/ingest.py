"""Turn raw blockchain and price exports into trivariate event streams.

Pipeline: clean block timestamps (drop duplicate-timestamp blocks keeping
the one with more transactions, re-sort out-of-order timestamps), convert
VWAP bars to log returns, flag returns outside rolling-window quantile
thresholds as positive/negative price-jump events, and assemble everything
into one :class:`~blockhawkes.events.EventSequence` with marks
1 = block arrival, 2 = positive jump, 3 = negative jump.

All timestamps are UTC; naive inputs are interpreted as UTC.  Event times
are converted to decimal hours since the window start.  The block and price
CSV files go through ``events.read_csv``/``write_csv``, which own the row rules.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone

import numpy as np

from .errors import ConfigError, InvalidInputError, ParseError
from .events import EventSequence, merge_components, read_csv, write_csv

BLOCKS_CSV_HEADER = ("height", "timestamp", "tx_count")
PRICE_CSV_HEADER = ("timestamp", "vwap")


def parse_timestamp(text: str) -> datetime:
    """Parse ISO-8601 (UTC assumed if naive) or integer Unix seconds."""
    text = text.strip()
    # No integer literal contains ":" or "T"; ISO stamps skip the failing int().
    if ":" not in text and "T" not in text:
        try:
            return datetime.fromtimestamp(int(text), tz=timezone.utc)
        except ValueError:
            pass
        except (OverflowError, OSError):
            raise InvalidInputError(f"Unix timestamp {text!r} out of range")
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise InvalidInputError(f"unparseable timestamp {text!r}")
    if dt.tzinfo is None:
        return dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def _format_timestamp(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True)
class BlockRecord:
    height: int
    timestamp: datetime
    tx_count: int

    def __post_init__(self):
        if self.height < 0 or self.tx_count < 0:
            raise InvalidInputError("height and tx_count must be nonnegative")


@dataclass(frozen=True)
class PriceBar:
    timestamp: datetime
    vwap: float

    def __post_init__(self):
        if not math.isfinite(self.vwap) or self.vwap <= 0:
            raise InvalidInputError(f"vwap must be positive, got {self.vwap}")


@dataclass(frozen=True)
class JumpConfig:
    """Rolling-quantile jump detection settings.

    The history window is the ``window_hours`` preceding each return,
    excluding the return itself; a point is skipped unless at least
    ``min_history`` samples (default: one hour of 5-minute bars) are
    available.  ``q_low``/``q_high`` of 0/1 are accepted so min/max
    thresholds can be expressed.
    """

    window_hours: float = 3.0
    q_low: float = 0.10
    q_high: float = 0.90
    min_history: int = 12

    def __post_init__(self):
        if not 0.0 <= self.q_low < self.q_high <= 1.0:
            raise ConfigError("need 0 <= q_low < q_high <= 1")
        if not 0 < self.window_hours < math.inf:
            raise ConfigError("window_hours must be finite and positive")
        if self.min_history < 1:
            raise ConfigError("min_history must be >= 1")


@dataclass
class CleaningReport:
    """Log of everything clean_blocks changed."""

    duplicates_dropped: list = field(default_factory=list)
    reordered: list = field(default_factory=list)
    ties: list = field(default_factory=list)

    def counts(self) -> dict:
        return {f.name: len(getattr(self, f.name)) for f in fields(self)}

    def to_dict(self) -> dict:
        return asdict(self)


def clean_blocks(records) -> tuple:
    """Deduplicate timestamps and re-sort out-of-order blocks.

    Among records sharing an identical timestamp the one with the larger
    transaction count survives (ties keep the lower height and are logged);
    survivors are then sorted by timestamp.  ``reordered`` logs every
    record whose rank changed in that sort, in input order; drops are
    logged by group, in order of each timestamp's first appearance.  Output
    timestamps are strictly increasing and the operation is idempotent.
    """
    records = list(records)
    if not records:
        raise InvalidInputError("clean_blocks needs at least one record")
    report = CleaningReport()
    groups: dict = {}
    for k, rec in enumerate(records):
        groups.setdefault(rec.timestamp, []).append(k)
    survivors = []
    for group in groups.values():
        best = group[0] if len(group) == 1 else min(
            group, key=lambda k: (-records[k].tx_count, records[k].height))
        survivors.append(best)
        kept = records[best]
        for rec in (records[k] for k in group if k != best):
            stamp = _format_timestamp(rec.timestamp)
            report.duplicates_dropped.append({"height": rec.height, "timestamp": stamp,
                                              "tx_count": rec.tx_count,
                                              "kept_height": kept.height})
            if rec.tx_count == kept.tx_count:
                report.ties.append({"timestamp": stamp, "kept_height": kept.height,
                                    "dropped_height": rec.height})
    survivors.sort()
    order = sorted(survivors, key=lambda k: records[k].timestamp)
    new_rank = {k: rank for rank, k in enumerate(order)}
    for old_rank, k in enumerate(survivors):
        if new_rank[k] != old_rank:
            rec = records[k]
            report.reordered.append({"height": rec.height,
                                     "timestamp": _format_timestamp(rec.timestamp),
                                     "from_rank": old_rank, "to_rank": new_rank[k]})
    return [records[k] for k in order], report


def log_returns(bars, grid_seconds: float = 300.0) -> tuple:
    """Log returns attached to the later bar, plus a grid-gap log.

    A hole in the bar grid still yields a single log difference spanning
    it, flagged in the gap log.  Bar positivity is enforced by
    :class:`PriceBar` itself; rows violating it are rejected at parse time.
    """
    bars = list(bars)
    if len(bars) < 2:
        raise InvalidInputError("need at least two price bars")
    times = [b.timestamp for b in bars]
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise InvalidInputError("price bars must be strictly increasing in time")
    returns = list(zip(times[1:], np.diff(np.log([b.vwap for b in bars])).tolist()))
    gaps = []
    for k in range(1, len(bars)):
        span = (bars[k].timestamp - bars[k - 1].timestamp).total_seconds()
        if span > grid_seconds + 1e-6:
            gaps.append(
                {
                    "index": k - 1,
                    "start": _format_timestamp(bars[k - 1].timestamp),
                    "end": _format_timestamp(bars[k].timestamp),
                    "missing_bars": int(round(span / grid_seconds)) - 1,
                }
            )
    return returns, gaps


def _weibull_quantile(ordered: list, q: float) -> float:
    """``np.quantile(ordered, q, method="weibull")`` of an ascending list.

    Same arithmetic as numpy, so the same bits: virtual index n·q + q − 1,
    clamped to the extremes, then a two-sided linear interpolation.
    """
    n = len(ordered)
    virtual = n * q + q - 1
    if virtual < 0:
        return ordered[0]
    if virtual >= n - 1:
        return ordered[-1]
    below = int(virtual)
    g = virtual - below
    a, b = ordered[below], ordered[below + 1]
    d = b - a
    return a + d * g if g < 0.5 else b - d * (1 - g)


def extract_jumps(returns, config: JumpConfig | None = None) -> tuple:
    """Flag returns outside rolling-quantile thresholds as jump events.

    For each return at time t the history is every return in
    [t - window, t), the current value excluded.  Its ``q_low``/``q_high``
    quantiles at Weibull plotting positions k/(n+1) are the thresholds:
    with the history sorted as x_0 <= ... <= x_{n-1}, quantile q sits at
    virtual index h = n·q + q − 1, is x_0 for h < 0, x_{n-1} for
    h >= n − 1, and otherwise interpolates linearly between x_floor(h) and
    x_floor(h)+1, exactly as ``np.quantile(method="weibull")``.  On i.i.d.
    data the expected flagged fraction is then q_low + (1 − q_high), with
    no finite-window inflation (numpy's default "linear" method overshoots
    by ~20 % at 36-sample histories).  Strictly greater than the upper threshold
    means an upward jump at t; strictly smaller than the lower one a
    downward jump.  Returns (up_times, down_times).

    The history is kept as one sorted list that slides with t: values
    leaving the window are bisect-deleted and the current return is
    insorted after it is judged, so each return costs O(log W) compares
    plus an O(W) list shift (W returns per window) and memory stays O(W).
    Non-finite returns raise :class:`InvalidInputError`.
    """
    if config is None:
        config = JumpConfig()
    returns = list(returns)
    if not returns:
        return [], []
    stamps = [t for t, _ in returns]
    if any(t2 <= t1 for t1, t2 in zip(stamps, stamps[1:])):
        raise InvalidInputError("returns must be strictly increasing in time")
    values = [float(r) for _, r in returns]
    for t, v in zip(stamps, values):
        if not math.isfinite(v):
            raise InvalidInputError(f"non-finite return {v} at {t.isoformat()}")
    seconds = [(t - stamps[0]).total_seconds() for t in stamps]
    if len(seconds) > 1:
        grid = min(b - a for a, b in zip(seconds, seconds[1:]))
        if config.window_hours * 3600.0 < grid:
            raise ConfigError(
                f"window of {config.window_hours} h is shorter than the "
                f"{grid:.0f} s grid spacing"
            )
    window = config.window_hours * 3600.0
    up, down = [], []
    history = []
    start = 0
    for k, value in enumerate(values):
        while seconds[start] < seconds[k] - window:
            del history[bisect_left(history, values[start])]
            start += 1
        if len(history) >= config.min_history:
            if value > _weibull_quantile(history, config.q_high):
                up.append(stamps[k])
            elif value < _weibull_quantile(history, config.q_low):
                down.append(stamps[k])
        insort(history, value)
    return up, down


def build_trivariate(blocks, up_times, down_times, window) -> tuple:
    """Assemble the trivariate sequence: blocks=1, up jumps=2, down jumps=3.

    ``window`` is a (start, end) datetime pair; times become hours since
    ``start`` and events outside [start, end] are dropped.  Returns
    ``(sequence, dropped_count)``.
    """
    start, end = window
    if end <= start:
        raise ConfigError("window end must be after window start")
    horizon = (end - start).total_seconds() / 3600.0
    dropped = 0
    streams = []
    for stamps in (
        [b.timestamp for b in blocks],
        list(up_times),
        list(down_times),
    ):
        hours = np.array([(t - start).total_seconds() / 3600.0 for t in stamps])
        inside = (hours >= 0.0) & (hours <= horizon)
        dropped += int(np.sum(~inside))
        streams.append(hours[inside])
    return merge_components(streams, horizon), dropped


# ---------------------------------------------------------------------------
# CSV input/output
# ---------------------------------------------------------------------------

def read_blocks_csv(path) -> list:
    """Read ``height,timestamp,tx_count`` rows into BlockRecords."""
    records = list(read_csv(path, BLOCKS_CSV_HEADER, lambda row: BlockRecord(
        int(row[0]), parse_timestamp(row[1]), int(row[2]))))
    if not records:
        raise ParseError(f"{path}: no block records")
    heights = Counter(r.height for r in records)
    if len(heights) != len(records):
        dupes = sorted(h for h, count in heights.items() if count > 1)
        raise ParseError(f"{path}: duplicate heights {dupes[:10]}")
    return records


def write_blocks_csv(records, path) -> None:
    write_csv(path, BLOCKS_CSV_HEADER, (
        (rec.height, _format_timestamp(rec.timestamp), rec.tx_count) for rec in records))


def read_price_csv(path) -> list:
    """Read ``timestamp,vwap`` rows into PriceBars (vwap must be > 0)."""
    bars = list(read_csv(path, PRICE_CSV_HEADER,
                         lambda row: PriceBar(parse_timestamp(row[0]), float(row[1]))))
    if not bars:
        raise ParseError(f"{path}: no price bars")
    return bars
