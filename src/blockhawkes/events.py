"""Time-ordered marked event sequences on a finite observation window.

All times are decimal hours since the start of the observation window.
Marks are 1-based component labels (1..dim); for the blockchain dataset the
convention is 1 = block arrival, 2 = positive price jump, 3 = negative
price jump.

:func:`read_csv` and :func:`write_csv` own the CSV row rules of every file
the toolkit reads or writes (events, blocks, prices, Q-Q): the header check,
skipping whitespace-only rows, and one ParseError for all malformed rows,
each named by the line on which it starts; :func:`timestamp_us` owns stamp
cells.  :func:`read_csv` converts plain ASCII files in C and others column by
column, walking rows only when a check fails; :func:`write_csv` uses one ``%``.
"""

from __future__ import annotations

import csv
import io
import os
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from operator import itemgetter

import numpy as np

from .errors import InvalidInputError, ParseError

EVENTS_CSV_DTYPE = np.dtype([("time_hours", np.float64), ("mark", np.int64)])
_ROW_ERRORS = (ValueError, IndexError, OverflowError, InvalidInputError)

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_NAIVE_EPOCH = datetime(1970, 1, 1)  # naive stamps are UTC
_US = timedelta(microseconds=1)
# Years 1 to 9999, the range of datetime and of the written stamps.
_US_MIN = (datetime.min.replace(tzinfo=timezone.utc) - EPOCH) // _US
_US_MAX = (datetime.max.replace(tzinfo=timezone.utc) - EPOCH) // _US
# A canonical stamp, digits as 0; cells are read one wider, so a longer one fails.
_STAMP_FORM = np.frombuffer(b"0000-00-00T00:00:00Z\0", dtype=np.uint8)


def set_fields(obj, **fields) -> None:
    """Set the fields of the frozen dataclass ``obj``, each ndarray as a read-only
    copy that it owns: the caller's arrays stay writable and never reach it."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value = value.copy()
            value.flags.writeable = False
        object.__setattr__(obj, name, value)


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
    are rejected.  ``times`` and ``marks`` are stored as read-only copies.
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
        if not np.all(np.isfinite(times)):
            raise InvalidInputError("event times must be finite")
        horizon = float(self.horizon)
        dim = int(self.dim)
        if not np.isfinite(horizon) or horizon <= 0:
            raise InvalidInputError(f"horizon must be positive, got {horizon}")
        if dim < 1:
            raise InvalidInputError(f"dim must be >= 1, got {dim}")
        if times.size:
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
        set_fields(self, times=times, marks=marks, horizon=horizon, dim=dim)

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


def read_text(path) -> str:
    """The text of the file ``path``, line breaks as written.  Undecodable
    bytes are a :class:`ParseError` that names the file."""
    try:
        with open(path, newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid text: {exc}") from exc


def timestamp_us(text: str) -> int:
    """UTC microseconds since the Unix epoch of ISO-8601 text or integer Unix seconds.

    The text is stripped.  Text without ``:`` or ``T`` that ``int`` reads is
    Unix seconds; anything else is ISO-8601 with ``Z``, an offset or none
    (UTC).  Unparseable text (any with a NUL) and instants outside years
    1-9999 raise :class:`InvalidInputError`.
    """
    text = text.strip()
    us = None
    # No integer literal contains ":" or "T"; ISO stamps skip the failing int().
    if ":" not in text and "T" not in text:
        with suppress(ValueError):
            us = int(text) * 1_000_000
    if us is None:
        try:
            if "\0" in text:  # fromisoformat stops reading at a NUL
                raise ValueError
            dt = datetime.fromisoformat(text)
        except ValueError:
            raise InvalidInputError(f"unparseable timestamp {text!r}") from None
        us = (dt - (EPOCH if dt.tzinfo else _NAIVE_EPOCH)) // _US
    if not _US_MIN <= us <= _US_MAX:
        raise InvalidInputError(f"timestamp {text!r} out of range")
    return us


def read_csv(path, dtype, converters, valid=None) -> np.ndarray:
    """Read the CSV file ``path`` into a structured array of ``dtype``.

    The first row must equal ``dtype.names`` (cells stripped).  Field k is
    column k of the data rows, converted by ``converters[k]`` (``int``,
    ``float`` or :func:`timestamp_us`), in C by :func:`_loaded` if it can;
    ``valid``, if given, maps the array to a mask of the rows that hold.  Rows
    whose cells are all whitespace are skipped.  Only when a conversion still
    raises ``ValueError``, ``IndexError``, ``OverflowError`` or
    ``InvalidInputError``, or a row is not valid, are the rows walked one by
    one, to raise the failing ones as one :class:`ParseError` with the 1-based
    line on which each starts and its lines as written, without the last
    line break.  The text is read by :func:`read_text`.
    """
    text = read_text(path)
    body = io.StringIO(text, newline="")
    reader = csv.reader(body)
    found = next(reader, None)
    if found is None or [h.strip() for h in found] != list(dtype.names):
        raise ParseError(f"{path}: expected header {','.join(dtype.names)!r}, got {found}")
    start = body.tell()
    table = _loaded(text, body, dtype, converters)
    if table is not None and (valid is None or valid(table).all()):
        return table
    body.seek(start)
    rows = [row for row in reader if any(cell.strip() for cell in row)]
    table = _table(rows, dtype, converters, valid)
    if table is not None:
        return table
    bad = []
    lines = io.StringIO(text, newline="").readlines()
    reader = csv.reader(lines)
    next(reader)
    start = reader.line_num + 1
    for row in reader:
        if any(cell.strip() for cell in row) and _table([row], dtype, converters, valid) is None:
            bad.append((start, "".join(lines[start - 1:reader.line_num]).rstrip("\r\n")))
        start = reader.line_num + 1
    raise ParseError(f"{path}: {len(bad)} malformed row(s)", bad_lines=bad)


def _loaded(text, body, dtype, converters):
    """The data rows left in ``body``, a reader of the file ``text``, converted
    in C by one ``np.loadtxt``, stamp columns read as bytes; None where it
    fails, warns or could differ."""
    # numpy reads some non-ASCII letters as digits, strips \x1c-\x1f and ends a
    # stamp cell at a NUL in its 21st place, where the converters do not.
    if not text.isascii() or any(c in text for c in "\0\x1c\x1d\x1e\x1f"):
        return None
    stamps = [convert is timestamp_us for convert in converters]
    layout = [(n, f"S{_STAMP_FORM.size}" if s else dtype[n]) for n, s in zip(dtype.names, stamps)]
    try:
        with warnings.catch_warnings(action="error"):
            cells = np.loadtxt(body, layout, delimiter=",", comments=None, quotechar=None, ndmin=1)
        table = np.empty(len(cells), dtype)
        for name, stamp in zip(dtype.names, stamps):
            table[name] = _stamps_us(cells[name]) if stamp else cells[name]
    except (ValueError, Warning):
        return None
    return table


def _stamps_us(cells):
    """Canonical stamp cells as :func:`timestamp_us` reads them; else ValueError."""
    codes = np.ascontiguousarray(cells).view(np.uint8).reshape(len(cells), -1)
    us = cells.astype("S19").astype("datetime64[us]").view(np.int64)
    if not ((np.where(codes - ord("0") < 10, ord("0"), codes) == _STAMP_FORM).all()
            and _US_MIN <= us.min() and us.max() <= _US_MAX):  # numpy reads year 0
        raise ValueError("not canonical stamps")
    return us


def _table(rows, dtype, converters, valid):
    """The structured array of ``rows``, or None if a cell or a row check fails."""
    table = np.empty(len(rows), dtype)
    try:
        for k, (name, convert) in enumerate(zip(dtype.names, converters)):
            cells = map(convert, map(itemgetter(k), rows))
            table[name] = np.fromiter(cells, dtype[name], len(rows))
    except _ROW_ERRORS:
        return None
    return table if valid is None or valid(table).all() else None


@contextmanager
def _removed_on_error(paths):
    """Remove the outputs ``paths`` when the block raises; it may append to them."""
    try:
        yield
    except BaseException:
        for path in paths:
            os.remove(path)
        raise


def write_csv(path, header, row_format, columns) -> None:
    """Write ``header``, then one ``row_format`` line per row of ``columns``
    (equal-length lists) to ``path``."""
    n, k = len(columns[0]), len(columns)
    cells = [None] * (n * k)
    for j, column in enumerate(columns):
        cells[j::k] = column
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + row_format * n % tuple(cells))


def write_events_csv(seq: EventSequence, path) -> None:
    """Write the interchange CSV: header ``time_hours,mark``, times with
    9+ significant digits."""
    write_csv(path, EVENTS_CSV_DTYPE.names, "%.12g,%d\r\n",
              (seq.times.tolist(), seq.marks.tolist()))


def read_events_csv(path, horizon: float | None = None, dim: int | None = None) -> EventSequence:
    """Read the interchange CSV written by :func:`write_events_csv`.

    The file carries no window metadata, so ``horizon`` defaults to the last
    event time and ``dim`` to the largest mark seen.
    """
    events = read_csv(path, EVENTS_CSV_DTYPE, (float, int))
    if not events.size:
        raise ParseError(f"{path}: no events")
    times, marks = events["time_hours"], events["mark"]
    if horizon is None:
        horizon = times.max()
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
