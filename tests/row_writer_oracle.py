"""Reference CSV writers: the ``csv.writer`` bodies that the events, block
and Q-Q writers used before they formatted the whole body with one ``%``,
kept as a byte oracle.

Each row goes through ``csv.writer`` with its default dialect: minimal
quoting and ``\\r\\n`` line ends.  Times and quantiles are ``.12g`` text.
"""

import csv
from pathlib import Path

from blockhawkes.gof import qq_exponential
from blockhawkes.ingest import format_timestamps


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_events_csv(seq, path):
    rows = zip(seq.times.tolist(), seq.marks.tolist())
    write_csv(path, ("time_hours", "mark"), ((f"{t:.12g}", d) for t, d in rows))


def write_blocks_csv(blocks, path):
    write_csv(path, ("height", "timestamp", "tx_count"), zip(
        blocks["height"].tolist(), format_timestamps(blocks["timestamp"]).tolist(),
        blocks["tx_count"].tolist()))


def write_qq_csv(report, path):
    """One file per component that is not degenerate; returns the paths."""
    base = Path(path)
    suffix = base.suffix or ".csv"
    written = []
    for comp in report.components:
        if comp.degenerate:
            continue
        target = base.with_name(f"{base.stem}_c{comp.component}{suffix}")
        pairs = qq_exponential(comp.rescaled_interarrivals).tolist()
        write_csv(target, ("theoretical_quantile", "empirical_quantile"),
                  ((f"{theo:.12g}", f"{emp:.12g}") for theo, emp in pairs))
        written.append(str(target))
    return written
