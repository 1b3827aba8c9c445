"""Turn raw blockchain and price exports into trivariate event streams.

Pipeline: clean block timestamps (drop duplicate-timestamp blocks keeping
the one with more transactions, re-sort out-of-order timestamps), convert
VWAP bars to log returns, flag returns outside rolling-window quantile
thresholds as positive/negative price-jump events, and assemble everything
into one :class:`~blockhawkes.events.EventSequence` with marks
1 = block arrival, 2 = positive jump, 3 = negative jump.

Blocks, price bars and returns are numpy structured arrays
(``BLOCKS_CSV_DTYPE``, ``PRICE_CSV_DTYPE``, ``RETURNS_DTYPE``) whose
``timestamp`` field holds int64 UTC microseconds since the Unix epoch, from
the CSV reader to the event times; every stage but the jump window's loop
works on whole columns; naive stamps are UTC.  Event times are decimal hours
since the window start.  The block and price CSV files go through
``events.read_csv``/``write_csv``, which own the row and stamp rules.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError, InvalidInputError, ParseError
from .events import merge_components, read_csv, timestamp_us, write_csv

BLOCKS_CSV_DTYPE = np.dtype(
    [("height", np.int64), ("timestamp", np.int64), ("tx_count", np.int64)])
PRICE_CSV_DTYPE = np.dtype([("timestamp", np.int64), ("vwap", np.float64)])
RETURNS_DTYPE = np.dtype([("timestamp", np.int64), ("log_return", np.float64)])
GRID_SECONDS = 300.0  # the price bar spacing; log_returns logs wider steps as gaps

def format_timestamps(us) -> np.ndarray:
    """``YYYY-MM-DDTHH:MM:SSZ`` of UTC microseconds, seconds floored, four-digit years."""
    return np.datetime_as_string(
        np.asarray(us, dtype=np.int64).astype("datetime64[us]"), unit="s", timezone="UTC")


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


def clean_blocks(blocks) -> tuple:
    """Deduplicate timestamps and re-sort out-of-order blocks.

    ``blocks`` is a ``BLOCKS_CSV_DTYPE`` array.  Among blocks sharing an
    identical timestamp the one with the larger transaction count survives
    (ties keep the lower height, then the earlier row, and are logged);
    survivors are then sorted by timestamp.  ``reordered`` logs every block
    whose rank changed in that sort, in input order; drops are logged by
    group, in order of each timestamp's first appearance.  Output timestamps
    are strictly increasing and the operation is idempotent.
    """
    n = len(blocks)
    if not n:
        raise InvalidInputError("clean_blocks needs at least one record")
    stamp, height, tx = blocks["timestamp"], blocks["height"], blocks["tx_count"]
    # Sorted by time, then most transactions, lowest height and first row,
    # so each timestamp's survivor leads its group.
    order = np.lexsort((np.arange(n), height, -tx, stamp))
    leads = np.r_[True, stamp[order[1:]] != stamp[order[:-1]]]
    starts = np.flatnonzero(leads)
    kept = order[starts]
    # Drops are logged by group in order of first appearance, then in input order.
    group = np.cumsum(leads)[~leads] - 1
    log = np.lexsort((order[~leads], np.minimum.reduceat(order, starts)[group]))
    dropped, keeper = order[~leads][log], kept[group[log]]
    heights, counts = height.tolist(), tx.tolist()
    report = CleaningReport()
    for k, best, text in zip(dropped.tolist(), keeper.tolist(),
                             format_timestamps(stamp[dropped]).tolist()):
        report.duplicates_dropped.append({"height": heights[k], "timestamp": text,
                                          "tx_count": counts[k], "kept_height": heights[best]})
        if counts[k] == counts[best]:
            report.ties.append({"timestamp": text, "kept_height": heights[best],
                                "dropped_height": heights[k]})
    survivors = np.sort(kept)
    rank = np.empty(n, dtype=np.int64)
    rank[kept] = np.arange(kept.size)
    moved = np.flatnonzero(rank[survivors] != np.arange(kept.size))
    for old_rank, k, text in zip(moved.tolist(), survivors[moved].tolist(),
                                 format_timestamps(stamp[survivors[moved]]).tolist()):
        report.reordered.append({"height": heights[k], "timestamp": text,
                                 "from_rank": old_rank, "to_rank": int(rank[k])})
    return blocks[kept], report


def log_returns(bars) -> tuple:
    """Log returns attached to the later bar, plus a grid-gap log.

    ``bars`` is a ``PRICE_CSV_DTYPE`` array, the returns a ``RETURNS_DTYPE``
    array.  A hole in the bar grid still yields a single log difference
    spanning it, flagged in the gap log.
    """
    if len(bars) < 2:
        raise InvalidInputError("need at least two price bars")
    stamp, vwap = bars["timestamp"], bars["vwap"]
    if np.any(np.diff(stamp) <= 0):
        raise InvalidInputError("price bars must be strictly increasing in time")
    if not np.all(np.isfinite(vwap) & (vwap > 0)):
        raise InvalidInputError("vwap must be finite and positive")
    returns = np.empty(len(bars) - 1, dtype=RETURNS_DTYPE)
    returns["timestamp"] = stamp[1:]
    returns["log_return"] = np.diff(np.log(vwap))
    seconds = np.diff(stamp) / 1e6
    gaps = []
    for k in np.flatnonzero(seconds > GRID_SECONDS + 1e-6).tolist():
        start, end = format_timestamps(stamp[k:k + 2]).tolist()
        gaps.append({"index": k, "start": start, "end": end,
                     "missing_bars": int(round(float(seconds[k]) / GRID_SECONDS)) - 1})
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
    ``returns`` is a ``RETURNS_DTYPE`` array; the jump times are its int64
    microsecond stamps.  Non-finite returns raise :class:`InvalidInputError`.
    """
    if config is None:
        config = JumpConfig()
    stamps = returns["timestamp"]
    if np.any(np.diff(stamps) <= 0):
        raise InvalidInputError("returns must be strictly increasing in time")
    bad = np.flatnonzero(~np.isfinite(returns["log_return"]))
    if bad.size:
        raise InvalidInputError(f"non-finite return at {format_timestamps(stamps[bad[0]])}")
    values = returns["log_return"].tolist()
    # Float seconds round as timedelta.total_seconds() does: exact integer
    # microseconds, then one division.
    seconds = (stamps - stamps[:1]) / 1e6
    if len(seconds) > 1:
        grid = np.diff(seconds).min()
        if config.window_hours * 3600.0 < grid:
            raise ConfigError(
                f"window of {config.window_hours} h is shorter than the "
                f"{grid:.0f} s grid spacing"
            )
    seconds = seconds.tolist()
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
                up.append(k)
            elif value < _weibull_quantile(history, config.q_low):
                down.append(k)
        insort(history, value)
    return stamps[np.array(up, dtype=np.intp)], stamps[np.array(down, dtype=np.intp)]


def build_trivariate(block_times, up_times, down_times, window) -> tuple:
    """Assemble the trivariate sequence: blocks=1, up jumps=2, down jumps=3.

    The three streams and the (start, end) ``window`` are UTC microsecond
    stamps; times become hours since ``start`` and events outside
    [start, end] are dropped.  Returns ``(sequence, dropped_count)``.
    """
    start, end = window
    if end <= start:
        raise ConfigError("window end must be after window start")
    horizon = (end - start) / 1e6 / 3600.0
    dropped = 0
    streams = []
    for stamps in (block_times, up_times, down_times):
        hours = (np.asarray(stamps, dtype=np.int64) - start) / 1e6 / 3600.0
        inside = (hours >= 0.0) & (hours <= horizon)
        dropped += int(np.sum(~inside))
        streams.append(hours[inside])
    return merge_components(streams, horizon), dropped


# ---------------------------------------------------------------------------
# CSV input/output
# ---------------------------------------------------------------------------

def read_blocks_csv(path) -> np.ndarray:
    """Read ``height,timestamp,tx_count`` rows into a ``BLOCKS_CSV_DTYPE``
    array (heights and counts >= 0, heights distinct)."""
    blocks = read_csv(path, BLOCKS_CSV_DTYPE, (int, timestamp_us, int),
                      lambda b: (b["height"] >= 0) & (b["tx_count"] >= 0))
    if not blocks.size:
        raise ParseError(f"{path}: no block records")
    heights, counts = np.unique(blocks["height"], return_counts=True)
    if counts.max() > 1:
        raise ParseError(f"{path}: duplicate heights {heights[counts > 1][:10].tolist()}")
    return blocks


def write_blocks_csv(blocks, path) -> None:
    write_csv(path, BLOCKS_CSV_DTYPE.names, "%d,%s,%d\r\n", (
        blocks["height"].tolist(), format_timestamps(blocks["timestamp"]).tolist(),
        blocks["tx_count"].tolist()))


def read_price_csv(path) -> np.ndarray:
    """Read ``timestamp,vwap`` rows into a ``PRICE_CSV_DTYPE`` array (vwap
    finite and > 0)."""
    bars = read_csv(path, PRICE_CSV_DTYPE, (timestamp_us, float),
                    lambda b: np.isfinite(b["vwap"]) & (b["vwap"] > 0))
    if not bars.size:
        raise ParseError(f"{path}: no price bars")
    return bars
