"""Reference CSV readers: the row-by-row parse that the block, price and
events readers used before they converted whole columns, kept as an oracle.

Every data row goes through one Python parse with the former timestamp rule
(``fromisoformat`` after replacing ``Z``, then ``astimezone``).  A row whose
parse fails is skipped when all its cells are whitespace and otherwise
reported with the line on which it starts and its lines as written.
Readers return one list per column, timestamps as UTC microseconds; integer
cells outside int64 are malformed, as in the columnar readers.
"""

import csv
import math
from collections import Counter
from datetime import datetime, timedelta, timezone

from blockhawkes.errors import InvalidInputError, ParseError

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
US = timedelta(microseconds=1)


def parse_timestamp(text):
    text = text.strip()
    if ":" not in text and "T" not in text:
        try:
            return (datetime.fromtimestamp(int(text), tz=timezone.utc) - EPOCH) // US
        except ValueError:
            pass
        except (OverflowError, OSError):
            raise InvalidInputError(f"Unix timestamp {text!r} out of range")
    try:
        if "\0" in text:  # fromisoformat stops reading at a NUL
            raise ValueError
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise InvalidInputError(f"unparseable timestamp {text!r}")
    dt = dt.replace(tzinfo=timezone.utc) if dt.tzinfo is None else dt.astimezone(timezone.utc)
    return (dt - EPOCH) // US


def int64(text):
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{value} out of int64 range")
    return value


def block_row(row):
    height, stamp, tx_count = int64(row[0]), parse_timestamp(row[1]), int64(row[2])
    if height < 0 or tx_count < 0:
        raise InvalidInputError("height and tx_count must be nonnegative")
    return height, stamp, tx_count


def price_row(row):
    stamp, vwap = parse_timestamp(row[0]), float(row[1])
    if not math.isfinite(vwap) or vwap <= 0:
        raise InvalidInputError(f"vwap must be positive, got {vwap}")
    return stamp, vwap


def event_row(row):
    return float(row[0]), int64(row[1])


def read_rows(path, header, parse_row):
    """Parsed rows of ``path`` in file order, or one ParseError."""
    rows, bad = [], []
    with open(path, newline="") as fh:
        lines = fh.readlines()
    reader = csv.reader(lines)
    found = next(reader, None)
    if found is None or [h.strip() for h in found] != list(header):
        raise ParseError(f"{path}: expected header {','.join(header)!r}, got {found}")
    start = reader.line_num + 1
    for row in reader:
        try:
            rows.append(parse_row(row))
        except (ValueError, IndexError, InvalidInputError):
            if any(cell.strip() for cell in row):
                bad.append((start, "".join(lines[start - 1:reader.line_num]).rstrip("\r\n")))
        start = reader.line_num + 1
    if bad:
        raise ParseError(f"{path}: {len(bad)} malformed row(s)", bad_lines=bad)
    return rows


def read_blocks(path):
    rows = read_rows(path, ("height", "timestamp", "tx_count"), block_row)
    if not rows:
        raise ParseError(f"{path}: no block records")
    heights = Counter(height for height, _, _ in rows)
    if len(heights) != len(rows):
        dupes = sorted(h for h, count in heights.items() if count > 1)
        raise ParseError(f"{path}: duplicate heights {dupes[:10]}")
    return [list(column) for column in zip(*rows)]


def read_prices(path):
    rows = read_rows(path, ("timestamp", "vwap"), price_row)
    if not rows:
        raise ParseError(f"{path}: no price bars")
    return [list(column) for column in zip(*rows)]


def read_events(path):
    rows = read_rows(path, ("time_hours", "mark"), event_row)
    return [list(column) for column in zip(*rows)] if rows else [[], []]
