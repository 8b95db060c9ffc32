"""CSV ingestion and bundled data fixtures.

Input files carry a header row with a required ``value`` column, an
optional integer ``year`` column (strictly increasing), and any further
numeric columns, which are treated as covariates in the order they
appear.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["Dataset", "read_dataset", "fixture_path", "load_fixture"]

_DATA_DIR = Path(__file__).parent / "data"


@dataclass(frozen=True)
class Dataset:
    values: np.ndarray
    year: np.ndarray | None
    covariates: dict[str, np.ndarray] = field(default_factory=dict)
    source_path: str = ""

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")
        if self.year is not None and self.year.size and np.any(np.diff(self.year) <= 0):
            raise ValueError("year column must be strictly increasing")
        for name, col in self.covariates.items():
            if col.shape != self.values.shape:
                raise ValueError(f"covariate {name!r} length does not match values")

    @property
    def n(self) -> int:
        return self.values.size

    def covariate_matrix(self) -> np.ndarray | None:
        """Covariate columns as a design matrix, or None if there are none."""
        if not self.covariates:
            return None
        return np.column_stack(list(self.covariates.values()))

    def time_design(self) -> np.ndarray:
        """The time covariate t = year - year0 + 1 (or 1..n without years)."""
        if self.year is not None:
            t = self.year - self.year[0] + 1
        else:
            t = np.arange(1, self.n + 1)
        return np.asarray(t, dtype=float).reshape(-1, 1)


def read_dataset(path) -> Dataset:
    """Parse a CSV file into a :class:`Dataset`.

    Raises ValueError naming the offending line on malformed input.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        names = [h.strip().lower() for h in header]
        if "value" not in names:
            raise ValueError(f"{path}: line 1: missing required column 'value'")
        if len(set(names)) != len(names):
            raise ValueError(f"{path}: line 1: duplicate column names")

        columns: list[list[float]] = [[] for _ in names]
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(names):
                raise ValueError(
                    f"{path}: line {lineno}: expected {len(names)} fields, got {len(row)}"
                )
            for j, cell in enumerate(row):
                try:
                    columns[j].append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: non-numeric value {cell!r} "
                        f"in column {names[j]!r}"
                    ) from None

    if not columns[0]:
        raise ValueError(f"{path}: no data rows")

    values = None
    year = None
    covariates: dict[str, np.ndarray] = {}
    for name, col in zip(names, columns):
        arr = np.asarray(col, dtype=float)
        if name == "value":
            values = arr
        elif name == "year":
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{path}: year column must be finite")
            if np.any(arr != np.round(arr)):
                raise ValueError(f"{path}: year column must hold integers")
            year = arr.astype(int)
        else:
            covariates[name] = arr
    return Dataset(values, year, covariates, str(path))


def fixture_path(name: str) -> Path:
    return _DATA_DIR / name


def load_fixture(name: str) -> Dataset | None:
    """Load a bundled data file, or None if it is not shipped."""
    path = fixture_path(name)
    if not path.exists():
        return None
    return read_dataset(path)
