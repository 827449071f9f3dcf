"""The two text formats of meshpass records: CSV tables and key=value files.

A float is written as ``repr(float(v))``, the shortest text that reads
back to the same double; the cast keeps a numpy scalar from printing as
``np.float64(...)``. Any other value is written as ``str(v)``. The column
layout of each file stays with the code that owns the file.
"""

from __future__ import annotations

import csv


def text(value):
    """``value`` as it appears in a record."""
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([text(v) for v in row] for row in rows)


def write_key_values(path, entries):
    with open(path, "w") as fh:
        fh.writelines(f"{key}={text(value)}\n" for key, value in entries.items())


def read_key_values(path):
    """The ``key=value`` lines of ``path`` as a dict of stripped strings.

    Blank lines and lines starting with ``#`` are skipped; any other line
    without ``=`` raises ValueError naming the path and the line.
    """
    entries = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno} of {path} is not key=value: {line!r}")
            key, value = line.split("=", 1)
            entries[key.strip()] = value.strip()
    return entries
