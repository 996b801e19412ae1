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
    """Load an (n, d) matrix of finite floats; a leading non-numeric row is skipped."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise CsvFormatError(f"cannot read {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        rows: list[list[float]] = []
        for line_no, row in enumerate(reader, start=1):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            try:
                values = _parse_row(row, line_no)
            except CsvFormatError:
                if line_no == 1:
                    continue  # header row
                raise
            if not all(map(math.isfinite, values)):
                raise CsvFormatError(f"line {line_no}: non-finite cell")
            rows.append(values)
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise CsvFormatError(
                f"{path}: ragged rows (row {i + 1} has {len(row)} cells, expected {width})"
            )
    return np.asarray(rows, dtype=np.float64)
