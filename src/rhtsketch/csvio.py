"""CSV point-set ingestion: one vector per row, optional single header row."""

from __future__ import annotations

import csv
import math

import numpy as np


class CsvFormatError(Exception):
    """The file is not a rectangular numeric CSV."""


def _parse_row(row: list[str], line_no: int) -> list[float]:
    try:
        return [float(cell) for cell in row]
    except ValueError as exc:
        raise CsvFormatError(f"line {line_no}: non-numeric cell ({exc})") from None


def read_points_csv(path: str) -> np.ndarray:
    """Load an (n, d) matrix of finite floats from UTF-8 text.

    A leading byte-order mark is dropped, and a non-numeric first non-blank
    row is skipped as a header.
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise CsvFormatError(f"cannot read {path}: {exc}") from None
    rows: list[list[float]] = []
    header_seen = False
    with fh:
        try:
            for line_no, row in enumerate(csv.reader(fh), start=1):
                if not row or all(cell.strip() == "" for cell in row):
                    continue
                try:
                    values = _parse_row(row, line_no)
                except CsvFormatError:
                    if rows or header_seen:
                        raise
                    header_seen = True
                    continue
                if not all(map(math.isfinite, values)):
                    raise CsvFormatError(f"line {line_no}: non-finite cell")
                rows.append(values)
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"{path}: not UTF-8 text ({exc})") from None
        except csv.Error as exc:
            raise CsvFormatError(f"{path}: {exc}") from None
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise CsvFormatError(
                f"{path}: ragged rows (row {i + 1} has {len(row)} cells, expected {width})"
            )
    return np.asarray(rows, dtype=np.float64)
