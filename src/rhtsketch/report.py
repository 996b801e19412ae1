"""Deviation reports: the common result record for experiments and the CLI."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class DeviationReport:
    """A labeled set of per-case deviations with their maximum.

    ``params`` records whatever configuration produced the run (d, m, seed,
    eps, trials, ...).  ``max_deviation`` is always the max over ``per_case``
    (0.0 for an empty run).
    """

    label: str
    params: dict
    per_case: list[tuple[str, float]] = field(default_factory=list)
    max_deviation: float = 0.0
    runtime_ms: int = 0

    @classmethod
    def from_cases(
        cls,
        label: str,
        params: dict,
        cases: Sequence[tuple[str, float]],
        runtime_ms: int = 0,
    ) -> "DeviationReport":
        cases = [(str(cid), float(dev)) for cid, dev in cases]
        worst = max((dev for _, dev in cases), default=0.0)
        return cls(
            label=label,
            params=dict(params),
            per_case=cases,
            max_deviation=worst,
            runtime_ms=int(runtime_ms),
        )

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
