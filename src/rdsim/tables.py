"""The one CSV table format behind every rdsim file.

Every file is a header row and then one row per record: edge lists,
attribute and forest files hold integer cells, result rows also hold
floats, booleans and text. An empty cell means "missing": ``None`` is
written as an empty cell, and an empty integer cell reads back as -1.
"""

from __future__ import annotations

import csv
import warnings
from contextlib import contextmanager

import numpy as np

__all__ = ["check_names", "in_file", "read_table", "write_table", "write_rows"]


@contextmanager
def in_file(path):
    """Prefix ``path`` to the message of a ``ValueError`` raised in the block."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def check_names(names) -> tuple[str, ...]:
    """``names`` as a tuple; a ``ValueError`` names the first one that is empty or repeated.

    Names are compared as :func:`read_table` reads a header back, stripped
    of surrounding blanks, so a header of accepted names reads back.
    """
    names = tuple(names)
    stripped = [str(name).strip() for name in names]
    for name, key in zip(names, stripped):
        if not key:
            raise ValueError(f"column name {name!r} is empty")
        if stripped.count(key) > 1:
            raise ValueError(f"column name {name!r} is repeated")
    return names


def _int_cell(text: str) -> int:
    return int(text) if text.strip() else -1


def read_table(path, fixed: tuple[str, ...], named: bool) -> tuple[tuple[str, ...], np.ndarray]:
    """Read an integer table whose header starts with the columns ``fixed``.

    ``named`` tables (attributes, forests) have at least one named column
    after ``fixed``; other tables (edge lists) have none. Returns those
    names, which must be distinct, and the int64 matrix of all columns,
    with -1 for empty cells. A malformed header or row is a ``ValueError``
    naming ``path``.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = [h.strip() for h in next(csv.reader(fh), [])]
        names = tuple(header[len(fixed):])
        if header[: len(fixed)] != list(fixed) or bool(names) != named or not all(names):
            expected = ",".join(fixed) + (",<name>,..." if named else "")
            raise ValueError(f"{path}: expected header '{expected}'")
        with in_file(path):
            check_names(names)
        with warnings.catch_warnings():
            # an edge list with no edges is a valid, empty table
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            with in_file(path):
                values = np.loadtxt(
                    fh, dtype=np.int64, delimiter=",", ndmin=2, comments=None, converters=_int_cell
                )
    if not values.size:
        values = values.reshape(0, len(header))
    if values.shape[1] != len(header):
        raise ValueError(f"{path}: rows have {values.shape[1]} cells, the header has {len(header)}")
    return names, values


def write_table(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` as CSV, with ``None`` as an empty cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _result_cell(value):
    if isinstance(value, float):  # most cells, so tested first; np.float64 is a float
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):  # a bool is an int, which csv writes as True
        return "true" if value else "false"
    return value


def write_rows(path, columns: list[str], rows: list[dict]) -> None:
    """Write result rows in the given column order; a missing value is an empty cell."""
    write_table(path, columns, ([_result_cell(row.get(column)) for column in columns] for row in rows))
