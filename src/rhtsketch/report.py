"""Deviation reports: the common result record for experiments and the CLI."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class DeviationReport:
    """A labeled set of per-case deviations with their maximum.

    ``params`` records whatever configuration produced the run (d, m, seed,
    eps, trials, ...); the report keeps a copy.  The cases are kept as
    (str, float) pairs, and ``max_deviation`` is their max (0.0 for an empty
    run).
    """

    label: str
    params: dict
    per_case: list[tuple[str, float]]
    runtime_ms: int = 0
    max_deviation: float = field(init=False)

    def __post_init__(self) -> None:
        self.params = dict(self.params)
        self.per_case = [(str(cid), float(dev)) for cid, dev in self.per_case]
        self.max_deviation = max((dev for _, dev in self.per_case), default=0.0)
        self.runtime_ms = int(self.runtime_ms)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "params": self.params,
            "per_case": [[cid, dev] for cid, dev in self.per_case],
            "max_deviation": self.max_deviation,
            "runtime_ms": self.runtime_ms,
        }


def write_csv_rows(fh, header: Sequence[str], rows) -> None:
    """A header row, then the rows; floats are written as repr(float(v))."""
    writer = csv.writer(fh)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
