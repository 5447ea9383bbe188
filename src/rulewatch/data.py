"""Numeric feature tables: in-memory container plus CSV ingestion."""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np


class DataError(ValueError):
    """Malformed or otherwise unusable input data."""


class CsvFormatError(DataError):
    """A CSV cell could not be parsed as a decimal real."""


class InsufficientDataError(DataError):
    """Fewer rows are available than an operation requires."""


def _not_a_number(
    path: Path, rownum: int, names: tuple[str, ...], cells: list[str]
) -> CsvFormatError:
    """The error for the first cell of a row that does not parse as a real."""
    for name, cell in zip(names, cells):
        try:
            float(cell)
        except ValueError:
            break
    return CsvFormatError(
        f"{path}: row {rownum}, column {name!r}: not a number: {cell.strip()!r}"
    )


@dataclass(frozen=True)
class DataTable:
    """Feature matrix with named columns and an optional label column.

    Feature values are float64. Labels stay strings and never enter
    numeric computations; detection works the same with or without them.
    """

    columns: tuple[str, ...]
    X: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=np.float64)
        if X.ndim != 2:
            raise DataError(f"feature matrix must be 2-D, got shape {X.shape}")
        if X.shape[1] != len(self.columns):
            raise DataError(
                f"{len(self.columns)} column names for {X.shape[1]} data columns"
            )
        if self.labels is not None and len(self.labels) != X.shape[0]:
            raise DataError(
                f"{len(self.labels)} labels for {X.shape[0]} rows"
            )
        object.__setattr__(self, "X", X)
        X.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return int(self.X.shape[0])

    @property
    def n_features(self) -> int:
        return len(self.columns)

    @cached_property
    def column_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.columns)}

    def record(self, i: int) -> dict[str, float]:
        row = self.X[i]
        return {name: float(row[j]) for j, name in enumerate(self.columns)}

    def iter_records(self) -> Iterator[dict[str, float]]:
        for i in range(self.n_rows):
            yield self.record(i)

    def take(self, indices: np.ndarray) -> "DataTable":
        labels = None
        if self.labels is not None:
            labels = tuple(map(self.labels.__getitem__, indices.tolist()))
        return DataTable(self.columns, self.X[indices].copy(), labels)

    @classmethod
    def from_csv(cls, path: str | Path, label_column: str | None = None) -> "DataTable":
        """Load a CSV with a header row; values are decimal reals.

        The label column, when named, is split out as strings. Any other
        non-numeric or empty cell is a hard error. Values are gathered into
        one flat float64 buffer, not a Python float object per cell.
        """
        # Imported here: only ingestion needs it, and loading the extension
        # module adds about 0.2 MB of resident memory to every process.
        from array import array

        path = Path(path)
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            label_idx = None
            if label_column is not None:
                if label_column not in header:
                    raise DataError(
                        f"{path}: label column {label_column!r} not in header {header}"
                    )
                label_idx = header.index(label_column)
            feat_names = tuple(h for i, h in enumerate(header) if i != label_idx)
            values = array("d")
            n_rows = 0
            labels: list[str] = []
            for rownum, cells in enumerate(reader, start=2):
                if not cells or (len(cells) == 1 and not cells[0].strip()):
                    continue
                if len(cells) != len(header):
                    raise CsvFormatError(
                        f"{path}: row {rownum} has {len(cells)} cells, expected {len(header)}"
                    )
                if label_idx is not None:
                    labels.append(cells.pop(label_idx).strip())
                try:
                    values.extend(map(float, cells))
                except ValueError:
                    raise _not_a_number(path, rownum, feat_names, cells) from None
                n_rows += 1
        if not n_rows:
            raise DataError(f"{path}: no data rows")
        X = np.frombuffer(values, dtype=np.float64).reshape(n_rows, len(feat_names)).copy()
        return cls(feat_names, X, tuple(labels) if label_idx is not None else None)

    def to_csv(self, path: str | Path, label_column: str = "label") -> None:
        path = Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            header = list(self.columns)
            if self.labels is not None:
                header.append(label_column)
            writer.writerow(header)
            for i in range(self.n_rows):
                row = [repr(float(v)) for v in self.X[i]]
                if self.labels is not None:
                    row.append(self.labels[i])
                writer.writerow(row)
