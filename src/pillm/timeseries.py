"""Domain types for labeled multivariate HVAC time series.

A table is a fixed set of named feature columns over a shared, strictly
increasing timestamp axis, plus an optional 0/1 anomaly label column.
Tables are immutable after construction, so they can be shared freely
between threads and evaluated against many rules in parallel.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

VALID_ROLES = ("sensor", "command", "status", "derived")

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT_RE = re.compile(r"[+-]?\d+\Z")
_CSV_CHUNK = 256
_BOM = "\ufeff"
# Bytes that send a whole file to the row path: quotes mean something to
# csv.reader that numpy's tokenizer does not see, and a NUL would pass for the
# padding of a fixed-width text cell.
_ROW_PATH_CHARS = (b'"', b"\0")
# Both parsers end a line at \n or \r\n; a file with a \r anywhere else goes
# to the row path too.
_LONE_CR_RE = re.compile(rb"\r(?!\n)")
_CONTENT_RE = re.compile(rb"[^\r\n]")
# Stamp text is read 19 bytes wide and the last byte must stay NUL, so the
# check sees every character of a stamp the columnar path accepts.
_STAMP_WIDTH = 19
_MINUS, _ZERO = ord("-"), ord("0")
_INT64 = np.iinfo(np.int64)


class TableError(ValueError):
    """Base class for table construction and ingestion failures."""


class SchemaError(TableError):
    """A required column or metadata field is absent or malformed."""


class ParseError(TableError):
    """A cell could not be parsed; the message names the offending row."""


class OrderError(TableError):
    """Timestamps are not strictly increasing."""


class SplitRangeError(TableError):
    """A chronological split would leave one side empty."""


@dataclass(frozen=True)
class FeatureMeta:
    """Physical description of one feature column.

    The description is not decorative: it is forwarded verbatim into LLM
    prompts so that generated rules can be grounded in what each signal
    physically means.
    """

    name: str
    unit: str
    description: str
    role: str

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise SchemaError(f"invalid feature name {self.name!r}")
        if not self.description.strip():
            raise SchemaError(f"feature {self.name!r} has an empty description")
        if self.role not in VALID_ROLES:
            raise SchemaError(
                f"feature {self.name!r} has unknown role {self.role!r}; "
                f"expected one of {', '.join(VALID_ROLES)}"
            )


# The fields of a `meta.json` entry, in the order they are written.
_META_KEYS = tuple(f.name for f in fields(FeatureMeta))


@dataclass(frozen=True, eq=False)
class TimeSeriesTable:
    """Immutable table of feature columns over a shared timestamp axis."""

    features: tuple[FeatureMeta, ...]
    values: np.ndarray
    timestamps: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        feats = tuple(self.features)
        values = np.asarray(self.values, dtype=np.float64)
        timestamps = np.asarray(self.timestamps, dtype=np.int64)
        labels = self.labels
        if labels is not None:
            labels = np.asarray(labels, dtype=np.uint8)

        if values.ndim != 2:
            raise SchemaError("values must be a 2-D (rows x features) array")
        n_rows, n_cols = values.shape
        if n_rows < 1:
            raise SchemaError("table must contain at least one row")
        if n_cols != len(feats):
            raise SchemaError(
                f"values have {n_cols} columns but {len(feats)} features are declared"
            )
        names = [f.name for f in feats]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate feature names")
        if timestamps.shape != (n_rows,):
            raise SchemaError("timestamps must have one entry per row")
        if n_rows > 1 and not np.all(np.diff(timestamps) > 0):
            raise OrderError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ParseError("values must be finite; missing cells are rejected")
        if labels is not None:
            if labels.shape != (n_rows,):
                raise SchemaError("labels must have one entry per row")
            if not np.all((labels == 0) | (labels == 1)):
                raise ParseError("labels must be 0 or 1")

        for arr in (values, timestamps, labels):
            if arr is not None:
                arr.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "timestamps", timestamps)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    @property
    def num_rows(self) -> int:
        return self.values.shape[0]

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    @property
    def has_labels(self) -> bool:
        return self.labels is not None

    def column(self, name: str) -> np.ndarray:
        """Return one feature column as a read-only 1-D view."""
        index = self._index  # type: ignore[attr-defined]
        if name not in index:
            raise SchemaError(f"unknown feature {name!r}")
        return self.values[:, index[name]]

    def slice_rows(self, start: int, stop: int) -> "TimeSeriesTable":
        """Return the chronological sub-table covering rows [start, stop)."""
        if not 0 <= start < stop <= self.num_rows:
            raise SplitRangeError(f"invalid row span {start}:{stop}")
        labels = None if self.labels is None else self.labels[start:stop]
        return TimeSeriesTable(
            features=self.features,
            values=self.values[start:stop],
            timestamps=self.timestamps[start:stop],
            labels=labels,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeriesTable):
            return NotImplemented
        if self.features != other.features:
            return False
        if not np.array_equal(self.values, other.values):
            return False
        if not np.array_equal(self.timestamps, other.timestamps):
            return False
        if (self.labels is None) != (other.labels is None):
            return False
        return self.labels is None or np.array_equal(self.labels, other.labels)


def incidents_from_labels(labels: Sequence[int] | np.ndarray) -> tuple[tuple[int, int], ...]:
    """Group a 0/1 label vector into maximal runs of consecutive ones, as inclusive (start, end) spans.

    Every entry must already be 0 or 1: this function does not check it.
    """
    lab = np.asarray(labels)
    if lab.ndim != 1:
        raise ValueError("labels must be 1-D")
    padded = np.concatenate(([0], lab, [0]))
    edges = np.diff(padded)
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    return tuple(zip(starts.tolist(), ends.tolist()))


def _parse_timestamp(cell: str, row: int) -> int:
    text = cell.strip()
    if _INT_RE.match(text):
        value = int(text)
        if not _INT64.min <= value <= _INT64.max:
            raise ParseError(f"row {row}: timestamp {cell!r} is out of range")
        return value
    try:
        moment = datetime.fromisoformat(text)
    except ValueError:
        raise ParseError(f"row {row}: cannot parse timestamp {cell!r}") from None
    if moment.tzinfo is None:
        # Naive stamps are read as UTC so that ingestion does not depend on
        # the host timezone.
        moment = moment.replace(tzinfo=timezone.utc)
    return int(moment.timestamp())


def decode_text(data: bytes | str, what: str, error: type[Exception]) -> str:
    """UTF-8 text without a leading byte-order mark; a bad byte raises `error` with its offset."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(
                f"{what} is not valid UTF-8: byte 0x{exc.object[exc.start]:02x} "
                f"at offset {exc.start}"
            ) from None
    return data.removeprefix(_BOM)


def read_text(path: str | Path, what: str, error: type[Exception]) -> str:
    """A user's text file, decoded by `decode_text` and read with universal newlines.

    Rule files, configs, scripts and template overrides are all read here.
    """
    text = decode_text(Path(path).read_bytes(), what, error)
    # Universal newlines, as Path.read_text reads them.
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _column_positions(header: list[str], metas: Sequence[FeatureMeta]) -> dict[str, int]:
    """Map each header name to its first column; every required column must be there."""
    positions: dict[str, int] = {}
    for col_index, name in enumerate(header):
        positions.setdefault(name.strip(), col_index)
    if "timestamp" not in positions:
        raise SchemaError("missing required column 'timestamp'")
    for m in metas:
        if m.name not in positions:
            raise SchemaError(f"missing required column {m.name!r}")
    return positions


def load_csv(data: bytes | str, meta: Sequence[FeatureMeta]) -> TimeSeriesTable:
    """Parse CSV text into a table against the given feature metadata.

    The text is UTF-8, optionally behind a byte-order mark. The header must
    contain a ``timestamp`` column and every declared feature name; a
    ``label`` column is optional and extra columns are ignored. Row numbers
    in error messages count data rows from 1 (the header is row 0).

    Plain files are read a column at a time (`_load_columns`). Anything that
    path cannot vouch for, every malformed file included, is read again row
    by row (`_load_rows`), which gives each error its row number.
    """
    metas = tuple(meta)
    if not metas:
        raise SchemaError("feature metadata must declare at least one feature")
    # The columnar path reads ASCII bytes; text beyond ASCII goes row by row.
    if not (isinstance(data, bytes) and data.isascii()):
        text = decode_text(data, "CSV", ParseError)
        if not text.isascii():
            return _load_rows(text, metas)
        data = text.encode("ascii")
    table = _load_columns(data, metas)
    return table if table is not None else _load_rows(data.decode("ascii"), metas)


def _load_columns(data: bytes, metas: tuple[FeatureMeta, ...]) -> TimeSeriesTable | None:
    """The table of a plain ASCII CSV file, or None where `_load_rows` must decide.

    Plain means without quotes, NULs or carriage returns outside a CRLF
    line end, no row shorter than the header, increasing ``-?[0-9]+`` stamps
    of at most 18 characters, ``0``/``1`` labels and features that numpy's
    tokenizer converts. One `np.loadtxt` call reads every needed column,
    with no Python object per cell: the stamp as text and as int64, the
    features as float64 and the label as text.
    """
    if any(ch in data for ch in _ROW_PATH_CHARS):
        return None
    # The membership test is a fast scan; most files have no \r at all.
    if b"\r" in data and _LONE_CR_RE.search(data):
        return None
    header_end = data.find(b"\n")
    if header_end < 0 or not _CONTENT_RE.search(data, header_end + 1):
        return None
    header = data[:header_end].decode("ascii").split(",")
    positions = _column_positions(header, metas)
    ts_pos, label_pos = positions["timestamp"], positions.get("label")
    feature_pos = [positions[m.name] for m in metas]

    fields = [("stamp", f"S{_STAMP_WIDTH}"), ("ts", "i8"), ("values", "f8", (len(metas),))]
    usecols = [ts_pos, ts_pos, *feature_pos]
    if label_pos is not None:
        # Two bytes wide, so that a cell longer than "0" or "1" shows.
        fields.append(("label", "S2"))
        usecols.append(label_pos)
    if len(header) - 1 not in usecols:
        # Reading the last column makes numpy reject any row shorter than the header.
        fields.append(("last", "S1"))
        usecols.append(len(header) - 1)
    try:
        cells = np.loadtxt(
            io.BytesIO(data),
            dtype=np.dtype(fields),
            delimiter=",",
            comments=None,
            quotechar=None,
            skiprows=1,
            usecols=usecols,
            encoding="ascii",
            ndmin=1,
        )
    except ValueError:
        return None

    # numpy parsed the stamps as int64; the text is checked as well because
    # older numpy versions also read float text such as "5.0" into an int.
    stamp = _text_matrix(cells["stamp"])
    digit = (stamp - _ZERO) <= 9
    plain = digit | (stamp == 0)
    plain[:, 0] = digit[:, 0] | ((stamp[:, 0] == _MINUS) & digit[:, 1])
    if not plain.all() or stamp[:, -1].any():
        return None
    timestamps = np.ascontiguousarray(cells["ts"])
    if not np.all(np.diff(timestamps) > 0):
        return None
    labels = None
    if label_pos is not None:
        label = _text_matrix(cells["label"])
        labels = label[:, 0] - _ZERO
        if label[:, 1].any() or not np.all(labels <= 1):
            return None
    return TimeSeriesTable(
        features=metas,
        values=np.ascontiguousarray(cells["values"]),
        timestamps=timestamps,
        labels=labels,
    )


def _text_matrix(column: np.ndarray) -> np.ndarray:
    """A fixed-width bytes column as a (rows, width) uint8 matrix, NUL-padded."""
    return np.ascontiguousarray(column).view(np.uint8).reshape(len(column), -1)


def _csv_records(text: str) -> Iterator[list[str]]:
    """csv.reader's records; a line that csv.reader cannot split raises ParseError."""
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None


def _load_rows(text: str, metas: tuple[FeatureMeta, ...]) -> TimeSeriesTable:
    """Parse the CSV one row at a time, raising the first error in row order."""
    reader = _csv_records(text)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("CSV is empty") from None
    positions = _column_positions(header, metas)
    label_pos = positions.get("label")

    timestamps: list[int] = []
    rows: list[list[float]] = []
    labels: list[int] = []
    feature_pos = [positions[m.name] for m in metas]
    for row_num, record in enumerate(reader, start=1):
        if not record or all(not cell.strip() for cell in record):
            continue
        if len(record) < len(header):
            raise ParseError(f"row {row_num}: expected {len(header)} cells, got {len(record)}")
        ts = _parse_timestamp(record[positions["timestamp"]], row_num)
        if timestamps and ts <= timestamps[-1]:
            raise OrderError(f"row {row_num}: timestamp {ts} is not increasing")
        parsed = []
        for m, pos in zip(metas, feature_pos):
            cell = record[pos].strip()
            if not cell:
                raise ParseError(f"row {row_num}: missing value in column {m.name!r}")
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"row {row_num}: non-numeric value {record[pos]!r} in column {m.name!r}"
                ) from None
        if label_pos is not None:
            cell = record[label_pos].strip()
            if cell not in ("0", "1"):
                raise ParseError(f"row {row_num}: label must be 0 or 1, got {record[label_pos]!r}")
            labels.append(int(cell))
        timestamps.append(ts)
        rows.append(parsed)

    if not rows:
        raise SchemaError("CSV contains no data rows")
    return TimeSeriesTable(
        features=metas,
        values=np.array(rows, dtype=np.float64),
        timestamps=np.array(timestamps, dtype=np.int64),
        labels=np.array(labels, dtype=np.uint8) if label_pos is not None else None,
    )


def save_csv(table: TimeSeriesTable) -> bytes:
    """Serialize a table to CSV such that `load_csv` reproduces it exactly."""
    # Built a column at a time, _CSV_CHUNK rows at a time, so the temporary
    # cells stay small next to the output. No cell needs CSV quoting: names
    # match _NAME_RE and cells are numbers. repr() round-trips float64
    # exactly, which load_csv relies on.
    header = ["timestamp", *table.feature_names]
    if table.labels is not None:
        header.append("label")
    chunks = [",".join(header).encode("utf-8") + b"\n"]
    for start in range(0, table.num_rows, _CSV_CHUNK):
        rows = slice(start, start + _CSV_CHUNK)
        columns = [map(str, table.timestamps[rows].tolist())]
        columns.extend(map(repr, column.tolist()) for column in table.values[rows].T)
        if table.labels is not None:
            columns.append(map(str, table.labels[rows].tolist()))
        lines = [*map(",".join, zip(*columns)), ""]
        chunks.append("\n".join(lines).encode("utf-8"))
    return b"".join(chunks)


def cut_csv(data: bytes, num_rows: int, cut: int) -> tuple[bytes, bytes]:
    """CSV `data`, which `load_csv` reads as `num_rows` rows, cut before data row `cut`.

    Returns the bytes before that row, and the header line followed by the
    bytes from that row on, so that `load_csv` reads them as rows [0, cut)
    and [cut, num_rows), and the first followed by the second without its
    header is `data` again. Rows are counted as `load_csv` counts them: a
    blank record is no row (blank records just before the row stay with the
    first part), and a quoted cell may span lines.
    """
    if not 0 < cut < num_rows:
        raise SplitRangeError(f"cannot cut {num_rows} rows before row {cut}")
    if b'"' not in data:
        # Without quotes each line is one record. When the lines after the
        # header are as many as the rows, none is blank: row i is line i + 1.
        ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
        if len(ends) + (not data.endswith(b"\n")) == num_rows + 1:
            header, start = ends[0] + 1, ends[cut] + 1
            return data[:start], data[:header] + data[start:]
    line_ends: list[int] = []

    def lines() -> Iterator[str]:
        end = 0
        for line in io.BytesIO(data):  # split at b"\n" only, as load_csv splits
            end += len(line)
            line_ends.append(end)
            yield line.decode("utf-8")

    records = csv.reader(lines())
    next(records)
    header = start = line_ends[-1]
    row = 0
    for record in records:
        if any(cell.strip() for cell in record):
            if row == cut:
                break
            row += 1
        start = line_ends[-1]
    return data[:start], data[:header] + data[start:]


def load_meta(data: bytes | str) -> tuple[FeatureMeta, ...]:
    """Parse the feature-metadata JSON document (a list of feature objects).

    The text is UTF-8, optionally behind a byte-order mark.
    """
    text = decode_text(data, "metadata", SchemaError)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"metadata is not valid JSON: {exc}") from None
    if not isinstance(doc, list):
        raise SchemaError("metadata must be a JSON list of feature objects")
    metas = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise SchemaError(f"metadata entry {i} must be an object")
        for key in _META_KEYS:
            if key not in entry:
                raise SchemaError(f"metadata entry {i} is missing field {key!r}")
            if not isinstance(entry[key], str):
                raise SchemaError(f"metadata entry {i} field {key!r} must be a string, got {entry[key]!r}")
        metas.append(FeatureMeta(*(entry[key] for key in _META_KEYS)))
    if not metas:
        raise SchemaError("metadata must declare at least one feature")
    return tuple(metas)


def save_meta(metas: Sequence[FeatureMeta]) -> str:
    return json.dumps([asdict(m) for m in metas], indent=2) + "\n"


def split(table: TimeSeriesTable, train_fraction: float) -> tuple[TimeSeriesTable, TimeSeriesTable]:
    """Split chronologically at row floor(train_fraction * T).

    Both halves must be non-empty; anything else raises `SplitRangeError`.
    """
    if not 0.0 < train_fraction < 1.0:
        raise SplitRangeError(f"train_fraction must be in (0, 1), got {train_fraction}")
    cut = math.floor(train_fraction * table.num_rows)
    if cut <= 0 or cut >= table.num_rows:
        raise SplitRangeError(
            f"split at row {cut} leaves an empty side for {table.num_rows} rows"
        )
    return table.slice_rows(0, cut), table.slice_rows(cut, table.num_rows)
