"""Numeric feature tables: in-memory container plus CSV ingestion."""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

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
    ``X`` is read-only: a writeable float64 array is copied, so the caller's
    own array stays writeable and later writes to it do not reach the table;
    a read-only array is kept as is.
    """

    columns: tuple[str, ...]
    X: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=np.float64)
        if X.flags.writeable and (X is self.X or X.base is not None):
            X = X.copy()  # the caller can still write to its buffer: keep our own
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
        X = self.X[indices]
        X.setflags(write=False)  # a fresh gather, handed over uncopied
        return DataTable(self.columns, X, labels)

    @classmethod
    def from_csv(
        cls, path: str | Path, label_column: str | None = None, *, label_required: bool = True
    ) -> "DataTable":
        """Load a CSV with a header row; values are decimal reals.

        The label column, when named, is split out as strings; a header
        without it is an error unless ``label_required`` is false, in which
        case the table has no labels. Any other cell must parse as Python
        ``float()`` parses it; a non-numeric or empty cell is a hard error.
        The header is read once, so a pipe loads too. numpy's C reader is
        tried first and its table is kept only when the Python reader would
        build the same one; any other file is read again by the Python
        reader, which owns every error message.
        """
        path = Path(path)
        columns, X, labels = (_read_csv_numpy(path, label_column, label_required)
                              or _read_csv_python(path, label_column, label_required))
        X.setflags(write=False)  # handed over: the table keeps it uncopied
        return cls(columns, X, labels)

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


def read_csv_rows(lines: Iterable[str], source: str | Path) -> Iterator[tuple[int, list[str]]]:
    """``(row number, cells)`` of each CSV record in ``lines``, the header first.

    The header is row 1, its names stripped. Blank and whitespace-only lines
    are skipped; a row with another number of cells than the header, or a
    record the ``csv`` module refuses (a cell over its field limit, say), is a
    ``CsvFormatError`` naming ``source`` and the row; empty input is a
    ``DataError``. Rows are read one at a time, as they are asked for.
    """
    reader = csv.reader(lines)
    try:
        header = next(reader, None)
        if header is None:
            raise DataError(f"{source}: empty file")
        yield 1, [h.strip() for h in header]
        for rownum, cells in enumerate(reader, start=2):
            if not cells or (len(cells) == 1 and not cells[0].strip()):
                continue
            if len(cells) != len(header):
                raise CsvFormatError(
                    f"{source}: row {rownum} has {len(cells)} cells, expected {len(header)}"
                )
            yield rownum, cells
    except csv.Error as exc:
        raise CsvFormatError(f"{source}: row {reader.line_num}: {exc}") from None


def _read_csv_python(
    path: Path, label_column: str | None, label_required: bool = True
) -> tuple[tuple[str, ...], np.ndarray, tuple[str, ...] | None]:
    """Read a CSV through ``read_csv_rows``, one ``float()`` per cell.

    This reader defines what a valid file is and owns every error message.
    Values are gathered into one flat float64 buffer, not a Python float
    object per cell.
    """
    # Imported here: only this reader needs it, and loading the extension
    # module adds about 0.2 MB of resident memory to every process.
    from array import array

    with path.open(newline="") as fh:
        rows = read_csv_rows(fh, path)
        _, header = next(rows)
        label_idx = None
        if label_column in header:
            label_idx = header.index(label_column)
        elif label_column is not None and label_required:
            raise DataError(f"{path}: label column {label_column!r} not in header {header}")
        feat_names = tuple(h for i, h in enumerate(header) if i != label_idx)
        values = array("d")
        n_rows = 0
        labels: list[str] = []
        for rownum, cells in rows:
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
    return feat_names, X, tuple(labels) if label_idx is not None else None


def _read_csv_numpy(
    path: Path, label_column: str | None, label_required: bool = True
) -> tuple[tuple[str, ...], np.ndarray, tuple[str, ...] | None] | None:
    """Read a CSV with numpy's C reader; None unless it is ``_read_csv_python``'s table.

    Without a quote character in the header or a label, ``csv`` splits every
    line where numpy does: a quote in a feature cell fails to convert. numpy
    converts a cell where ``float()`` does, to the same value, since both
    strip Unicode whitespace and call ``PyOS_string_to_double``; it rejects
    what only ``float()`` reads (``1_000``, non-ASCII digits) and
    whitespace-only lines, which the Python reader skips. Such files, and
    every error, fall through. So do a label holding NUL, which ``csv``
    rejects before Python 3.11, and a table whose only column is the label,
    where numpy would keep whitespace-only lines as rows.
    """
    if not path.is_file():
        return None  # a pipe cannot be read a second time
    labels: list[str] = []

    def keep_label(cell: str) -> float:
        labels.append(cell.strip())
        return 0.0

    with path.open() as fh, warnings.catch_warnings():
        warnings.simplefilter("error")  # the empty-input warning, among others
        try:
            line = fh.readline()
            if '"' in line:
                return None
            header = [h.strip() for h in next(csv.reader([line]), [])]
            label_idx = None
            if label_column in header:
                if len(header) == 1:
                    return None
                label_idx = header.index(label_column)
            elif label_column is not None and label_required:
                return None
            # An explicit encoding: under numpy 1.x's default, "bytes",
            # converters would receive bytes.
            X = np.loadtxt(
                fh, delimiter=",", comments=None, ndmin=2, encoding=fh.encoding,
                converters=None if label_idx is None else {label_idx: keep_label},
            )
        except (ValueError, Warning, csv.Error):
            return None
    if not X.shape[0] or X.shape[1] != len(header):
        return None
    feat_names = tuple(h for i, h in enumerate(header) if i != label_idx)
    if label_idx is None:
        return feat_names, X, None
    joined = "".join(labels)
    if '"' in joined or "\0" in joined:
        return None
    return feat_names, _drop_column(X, label_idx), tuple(labels)


def _drop_column(X: np.ndarray, j: int) -> np.ndarray:
    """``np.delete(X, j, axis=1)`` for a fresh C-ordered X, made inside X's own buffer.

    Each block of rows is gathered before it is written to its place in the
    narrower layout, which ends before the next block's rows begin, so no
    row is overwritten before it has moved. Unlike ``np.delete`` this holds
    no second table: 12 MB less at 250k rows of 6 features.
    """
    n, c = X.shape
    keep = np.arange(c) != j
    flat = X.reshape(-1)
    for start in range(0, n, 4096):
        stop = min(start + 4096, n)
        flat[start * (c - 1) : stop * (c - 1)] = X[start:stop, keep].ravel()
    del flat
    X.resize((n, c - 1), refcheck=False)  # gives the freed tail back
    return X
