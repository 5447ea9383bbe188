"""Numeric feature tables: in-memory container plus CSV ingestion."""
from __future__ import annotations

import csv
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np


class DataError(ValueError):
    """Malformed or otherwise unusable input data."""


class CsvFormatError(DataError):
    """A CSV cell could not be parsed as a decimal real."""


class InsufficientDataError(DataError):
    """Fewer rows are available than an operation requires."""


def _not_a_number(
    path: str | Path, rownum: int, names: tuple[str, ...], cells: list[str]
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


def _check_finite(X: np.ndarray, names: Sequence[str], error: type[ValueError] = DataError) -> None:
    """Raise ``error`` naming the first NaN or infinite cell of ``X`` by its 0-based row."""
    bad = ~np.isfinite(X)
    if bad.any():
        row, f = np.argwhere(bad)[0]
        what = "NaN" if np.isnan(X[row, f]) else "infinite"
        raise error(f"row {row}: feature {names[f]!r} is {what}")


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
        cls,
        path: str | Path,
        label_column: str | None = None,
        *,
        label_required: bool = True,
        columns: Sequence[str] | None = None,
    ) -> "DataTable":
        """Load a CSV with a header row; values are decimal reals.

        The header is resolved by ``_header_layout``, before any cell is
        converted: the label column, when named and present, is split out
        as strings, and ``columns`` narrows the table to the columns named
        there. Each cell of a column the table
        holds must parse as Python ``float()`` parses it; a non-numeric or
        empty cell is a hard error. No other cell is converted, but every
        row must still have the header's number of cells
        (``read_csv_rows``). The header is read once, so a pipe loads
        too. numpy's C reader reads a file on which ``csv`` splits every
        line at every comma (``_read_csv_numpy``); any other file, or one
        it fails on, is read by the Python reader, which owns every error
        message.
        """
        path = Path(path)
        names, X, labels = (_read_csv_numpy(path, label_column, label_required, columns)
                            or _read_csv_python(path, label_column, label_required, columns))
        X.setflags(write=False)  # handed over: the table keeps it uncopied
        return cls(names, X, labels)

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


def _header_layout(
    source: str | Path, header: list[str], label_column: str | None = None,
    label_required: bool = True, columns: Sequence[str] | None = None,
) -> tuple[tuple[str, ...], list[int], int | None]:
    """The names and header positions of the columns a table holds, and the label's position.

    The labels are split out exactly when ``label_column`` is named and in
    the header (at its first position there); a named one the header lacks
    is an error unless ``label_required`` is false. Every other column is
    held, or with ``columns`` only those named there, in header order (a
    name the header repeats at its last position); a name the header lacks,
    or has only as its label, is an error naming ``source`` and the
    header's columns but the label.
    """
    label_idx = header.index(label_column) if label_column in header else None
    if label_idx is None and label_column is not None and label_required:
        raise DataError(f"{source}: label column {label_column!r} not in header {header}")
    kept = [i for i in range(len(header)) if i != label_idx]
    if columns is not None:
        last = {header[i]: i for i in kept}
        for name in columns:
            if name not in last:
                raise DataError(f"{source}: feature {name!r} not in columns "
                                f"{[header[i] for i in kept]}")
        kept = sorted({last[name] for name in columns})
    return tuple(header[i] for i in kept), kept, label_idx


def read_csv_records(
    lines: Iterable[str], source: str | Path, columns: Sequence[str]
) -> Iterator[dict[str, float]]:
    """The record of each data row of ``lines``, read as asked for.

    Rows are ``read_csv_rows``'s; the header is resolved (``_header_layout``)
    on the call, before any row is read. A record maps each name in
    ``columns`` to its cell converted by ``float()``; no other cell is
    converted, and one that does not parse is ``_not_a_number``'s error.
    """
    rows = read_csv_rows(lines, source)
    _, header = next(rows)
    names, kept, _ = _header_layout(source, header, columns=columns)
    layout = list(zip(names, kept))

    def records() -> Iterator[dict[str, float]]:
        for rownum, cells in rows:
            record: dict[str, float] = {}
            try:
                for name, i in layout:
                    record[name] = float(cells[i])
            except ValueError:
                raise _not_a_number(source, rownum, names, [cells[i] for i in kept]) from None
            yield record

    return records()


def _read_csv_python(
    path: Path,
    label_column: str | None,
    label_required: bool = True,
    columns: Sequence[str] | None = None,
) -> tuple[tuple[str, ...], np.ndarray, tuple[str, ...] | None]:
    """Read a CSV through ``read_csv_rows``, one ``float()`` per kept cell.

    This reader defines what a valid file is and owns every error message.
    Values are gathered into one flat float64 buffer, not a Python float
    object per cell, and the table is a view of that buffer.
    """
    # Imported here: only this reader needs it, and loading the extension
    # module adds about 0.2 MB of resident memory to every process.
    from array import array

    with path.open(newline="") as fh:
        rows = read_csv_rows(fh, path)
        _, header = next(rows)
        names, kept, label_idx = _header_layout(path, header, label_column, label_required,
                                                columns)
        values = array("d")
        n_rows = 0
        labels: list[str] = []
        for rownum, cells in rows:
            if label_idx is not None:
                labels.append(cells[label_idx].strip())
            cells = [cells[i] for i in kept]
            try:
                values.extend(map(float, cells))
            except ValueError:
                raise _not_a_number(path, rownum, names, cells) from None
            n_rows += 1
    if not n_rows:
        raise DataError(f"{path}: no data rows")
    X = np.frombuffer(values, dtype=np.float64).reshape(n_rows, len(names))
    return names, X, tuple(labels) if label_idx is not None else None


_BLOCK = 1 << 16  # bounds the memory of ``_splits_at_commas``
_OPENING_QUOTE = re.compile(rb'[,\r\n]"')


def _splits_at_commas(path: Path) -> bool:
    """Whether ``csv`` splits every line of ``path`` at every comma and nowhere else.

    It does when no byte is NUL, no field opens with a quote (a quote inside
    a field is a plain character) and no line is longer in bytes, so in
    characters, than ``csv.field_size_limit()``. Blocks are no longer than
    the limit, so only a line that crosses a block boundary is measured.
    """
    limit = csv.field_size_limit()
    with path.open("rb") as fh:
        prev, run = b"\n", 0  # the byte before the block; the length of the line it ends
        while block := fh.read(max(1, min(_BLOCK, limit))):
            if b"\0" in block or (b'"' in block and _OPENING_QUOTE.search(prev + block)):
                return False
            breaks = [i for i in (block.find(b"\n"), block.find(b"\r")) if i >= 0]
            if run + min(breaks, default=len(block)) > limit:
                return False
            last = max(block.rfind(b"\n"), block.rfind(b"\r"))
            run = run + len(block) if last < 0 else len(block) - last - 1
            prev = block[-1:]
    return True


def _read_csv_numpy(
    path: Path,
    label_column: str | None,
    label_required: bool = True,
    columns: Sequence[str] | None = None,
) -> tuple[tuple[str, ...], np.ndarray, tuple[str, ...] | None] | None:
    """Read a CSV with numpy's C reader; None unless it is ``_read_csv_python``'s table.

    Only a regular file where ``csv`` splits every line at every comma
    (``_splits_at_commas``) is read; numpy's reader, which knows no quotes,
    splits it the same way. Each kept column is a float64 field and every
    other one, the label included, a zero-width ``S0`` field (named by
    position, since a header may repeat a name), so numpy converts no cell
    the table does not hold and still refuses a row with another number of
    cells; a record is then the row's kept cells in header order, so the
    table is a view of the record array, not a copy. numpy converts a cell
    where ``float()`` does, to the same value, since both strip Unicode
    whitespace and call ``PyOS_string_to_double``; it rejects what only
    ``float()`` reads (``1_000``, non-ASCII digits) and whitespace-only
    lines, which the Python reader skips. Such files, and every error,
    fall through, as does a table that keeps no column, where numpy would
    keep whitespace-only lines as rows.
    """
    if not path.is_file() or not _splits_at_commas(path):  # a pipe cannot be read twice
        return None
    labels: list[str] = []

    def keep_label(cell: str) -> str:
        labels.append(cell.strip())
        return ""

    with path.open() as fh, warnings.catch_warnings():
        warnings.simplefilter("error")  # the empty-input warning, among others
        try:
            header = [h.strip() for h in next(csv.reader([fh.readline()]), [])]
            names, kept, label_idx = _header_layout(path, header, label_column,
                                                    label_required, columns)
            if not kept:
                return None
            fields = [(f"f{i}", np.float64 if i in kept else "S0") for i in range(len(header))]
            # An explicit encoding: under numpy 1.x's default, "bytes",
            # converters would receive bytes.
            A = np.loadtxt(
                fh, dtype=fields, delimiter=",", comments=None, ndmin=1, encoding=fh.encoding,
                converters=None if label_idx is None else {label_idx: keep_label},
            )
        except (ValueError, Warning):  # a DataError is a ValueError
            return None
    if not len(A):
        return None
    X = A.view(np.float64).reshape(len(A), len(kept))  # a record is its kept cells
    return names, X, None if label_idx is None else tuple(labels)
