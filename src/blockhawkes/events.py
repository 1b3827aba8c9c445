"""Time-ordered marked event sequences on a finite observation window.

All times are decimal hours since the start of the observation window.
Marks are 1-based component labels (1..dim); for the blockchain dataset the
convention is 1 = block arrival, 2 = positive price jump, 3 = negative
price jump.

:func:`read_csv` and :func:`write_csv` own the CSV row rules of every file
the toolkit reads or writes (events, blocks, prices, Q-Q): the header check,
skipping whitespace-only rows, and one ParseError for all malformed rows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ParseError

EVENTS_CSV_HEADER = ("time_hours", "mark")


@dataclass(frozen=True)
class EventSequence:
    """Marked point-process realisation on [0, horizon].

    Parameters
    ----------
    times : array_like, shape (n,)
        Event times in hours, nondecreasing, all within [0, horizon].
    marks : array_like, shape (n,)
        Component label of each event, integers in 1..dim.
    horizon : float
        Window length T in hours (> 0).
    dim : int
        Number of components m.

    Ties across distinct marks are permitted and are canonically ordered by
    (time, mark); two events of the same component at the identical instant
    are rejected.
    """

    times: np.ndarray
    marks: np.ndarray
    horizon: float
    dim: int

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        marks = np.asarray(self.marks, dtype=np.int64)
        if times.ndim != 1 or marks.ndim != 1 or times.shape != marks.shape:
            raise InvalidInputError("times and marks must be 1-D arrays of equal length")
        horizon = float(self.horizon)
        dim = int(self.dim)
        if not np.isfinite(horizon) or horizon <= 0:
            raise InvalidInputError(f"horizon must be positive, got {horizon}")
        if dim < 1:
            raise InvalidInputError(f"dim must be >= 1, got {dim}")
        if times.size:
            if not np.all(np.isfinite(times)):
                raise InvalidInputError("event times must be finite")
            if np.any(np.diff(times) < 0):
                raise InvalidInputError("event times must be nondecreasing")
            if times[0] < 0 or times[-1] > horizon:
                raise InvalidInputError("event times must lie within [0, horizon]")
            if marks.min() < 1 or marks.max() > dim:
                raise InvalidInputError(f"marks must lie in 1..{dim}")
            # Canonical order: ties across components sorted by mark.
            order = np.lexsort((marks, times))
            times = times[order]
            marks = marks[order]
            same = (np.diff(times) == 0) & (np.diff(marks) == 0)
            if np.any(same):
                k = int(np.nonzero(same)[0][0])
                raise InvalidInputError(
                    f"two events of component {marks[k]} share time {times[k]:.9g}"
                )
        times.flags.writeable = False
        marks.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "dim", dim)

    def __len__(self):
        return self.times.size

    def counts(self) -> np.ndarray:
        """Per-component event counts N_i(horizon), shape (dim,)."""
        return np.bincount(self.marks - 1, minlength=self.dim)

    def component_times(self, i: int) -> np.ndarray:
        """Event times of component ``i`` (1-based)."""
        if not 1 <= i <= self.dim:
            raise InvalidInputError(f"component {i} not in 1..{self.dim}")
        return self.times[self.marks == i]


def read_csv(path, header, parse_row):
    """Yield ``parse_row(row)`` for each data row of the CSV file ``path``.

    The first row must equal ``header`` (cells stripped).  A row whose parse
    raises ``ValueError``, ``IndexError`` or ``InvalidInputError`` is skipped
    if all its cells are whitespace and collected otherwise; once the file is
    read, the collected rows are raised as one :class:`ParseError` with
    their 1-based line numbers.
    """
    bad = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found is None or [h.strip() for h in found] != list(header):
            raise ParseError(f"{path}: expected header {','.join(header)!r}, got {found}")
        for lineno, row in enumerate(reader, start=2):
            try:
                yield parse_row(row)
            except (ValueError, IndexError, InvalidInputError):
                # Blankness is tested only here, so parsed rows pay nothing for it.
                if any(cell.strip() for cell in row):
                    bad.append((lineno, ",".join(row)))
    if bad:
        raise ParseError(f"{path}: {len(bad)} malformed row(s)", bad_lines=bad)


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` (iterables of cells) to ``path``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_events_csv(seq: EventSequence, path) -> None:
    """Write the interchange CSV: header ``time_hours,mark``, times with
    9+ significant digits."""
    rows = zip(seq.times.tolist(), seq.marks.tolist())
    write_csv(path, EVENTS_CSV_HEADER, ((f"{t:.12g}", d) for t, d in rows))


def _parse_event(row):
    mark = int(row[1])
    if mark.bit_length() > 63:  # would overflow the int64 mark column
        raise ValueError(f"mark {mark} out of range")
    return float(row[0]), mark


def read_events_csv(path, horizon: float | None = None, dim: int | None = None) -> EventSequence:
    """Read the interchange CSV written by :func:`write_events_csv`.

    The file carries no window metadata, so ``horizon`` defaults to the last
    event time and ``dim`` to the largest mark seen.
    """
    rows = read_csv(path, EVENTS_CSV_HEADER, _parse_event)
    events = np.fromiter(rows, dtype=[("time", float), ("mark", np.int64)])
    if not events.size:
        raise ParseError(f"{path}: no events")
    times, marks = events["time"], events["mark"]
    if horizon is None:
        # Python's max skips a NaN after the first time, which EventSequence then reports.
        horizon = max(times.tolist())
    if dim is None:
        dim = marks.max()
    return EventSequence(times, marks, horizon, dim)


def merge_components(streams: list[np.ndarray], horizon: float) -> EventSequence:
    """Build an EventSequence from per-component time arrays.

    ``streams[i]`` holds the times of component ``i+1``; each stream may be
    in any order.
    """
    times = np.concatenate([np.asarray(s, dtype=float) for s in streams]) if streams else np.empty(0)
    marks = np.concatenate(
        [np.full(len(s), i + 1, dtype=np.int64) for i, s in enumerate(streams)]
    ) if streams else np.empty(0, dtype=np.int64)
    order = np.lexsort((marks, times))
    return EventSequence(times[order], marks[order], horizon, max(len(streams), 1))
