"""Recorded IO and material-position traces: ingestion and correlation.

File formats (UTF-8 CSV, ``.`` decimal point, one sample per row). The
column names are owned by ``trace_format``, which imports nothing, so the
generator writes these files without loading numpy; this module
re-exports them for the loaders' callers:

* IO trace header: ``timestamp_ms,tag,value``
* RTLS trace header: ``timestamp_ms,tracker_id,x_m,y_m,z_m`` with an
  optional trailing ``location_label`` column (training data only).

Both traces load as numpy columns, one entry per sample, in time order:
an ``IoTrace`` and an ``RtlsTrace``. A file already in time order keeps
the parsed columns as the trace's own; any other is stably sorted once.
One ``_CsvShape`` per trace states its header, optional label column,
float fields and error words. One loader reads both files; it is the
only code that turns rows into a checked trace.

The loader parses the rows in blocks of whole lines. A plain block (no
quote, no ``\\r``, no NUL, the header's number of fields on every line)
is parsed column by column and its columns are checked as wholes. From
the first block that is not plain or fails the check, the rest of the
file goes through a row-by-row ``csv.reader`` loop, which defines
quoting, line endings, blank rows and every ``MalformedRowError``; its
row numbers continue after the rows already parsed, so results and
errors are the same either way. The columns are sized up front from the
file's line count and filled in place: four arrays grown side by side
left the peak RSS to the heap's layout, and one ``analyze-dynamics``
peaked anywhere from 40.4 to 43.9 MB with the plant's directory name.

The correlation chain is: one tag's samples -> its change-event times
(an int64 array) -> per-event nearest-in-time material position, a
binary search per event -> per-component mean position. The matched
positions stay one (n, 3) numpy array (``PositionSeries``; the event
times are not kept) from the RTLS trace to the mean position and the DTW
classifier. A ``PositionEstimate`` is Known exactly when its mean is set.
"""

from __future__ import annotations

import csv
import logging
import math
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import chain, compress, cycle, repeat

import numpy as np

from .errors import DataError
from .trace_format import IO_COLUMNS, RTLS_COLUMNS, RTLS_LABEL_COLUMN

logger = logging.getLogger(__name__)


class TraceError(DataError):
    pass


# Timestamps are int64 columns; below this magnitude the difference of
# any two also fits in int64.
_TIMESTAMP_LIMIT_MS = 2**62
_TIMESTAMP_ERROR = "timestamp magnitude must be below 2**62 ms"
_INTEGER_TIME_ERROR = "timestamp must be an integer number of ms"


class MalformedRowError(TraceError):
    def __init__(self, message: str, row: int):
        super().__init__(f"row {row}: {message}")
        self.row = row


@dataclass(frozen=True)
class _CsvShape:
    """The columns of one trace CSV and the words of its row errors. The
    first column is the timestamp and the second a name."""

    header: tuple[str, ...]
    label: str | None  # the optional trailing label column
    float_fields: range
    float_error: str
    name_error: str

    def name_columns(self, labeled: bool) -> tuple[int, ...]:
        """The name column, and the label column after the header's columns."""
        return (1, len(self.header)) if labeled else (1,)

    def values(self, flat: np.ndarray) -> np.ndarray:
        """The flat float fields as one number or one row of several per sample."""
        return flat.reshape(-1, len(self.float_fields)) if len(self.float_fields) > 1 else flat


_IO = _CsvShape(IO_COLUMNS, None, range(2, 3), "non-finite value", "empty tag name")
_RTLS = _CsvShape(RTLS_COLUMNS, RTLS_LABEL_COLUMN, range(2, 5), "non-finite coordinate", "empty tracker id")


def _int64_times(values) -> np.ndarray:
    """Timestamps as an int64 column. Raises ``TraceError`` if one is not
    an integer (a float or a bool is not, as ``int()`` refuses ``1.5`` in
    a CSV) or has a magnitude of 2**62 ms or more."""
    ts = np.asarray(values)
    if isinstance(values, (list, tuple)):  # numpy reads True beside ints as 1
        integral = all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values)
    else:
        integral = ts.dtype.kind in "iu" or not ts.size
    if not integral:
        raise TraceError(_INTEGER_TIME_ERROR)
    if ts.size and not (-_TIMESTAMP_LIMIT_MS < ts.min() and ts.max() < _TIMESTAMP_LIMIT_MS):
        raise TraceError(_TIMESTAMP_ERROR)
    return ts.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class IoTrace:
    """An IO trace as numpy columns, one entry per sample, time-sorted, as
    ``load_io_trace`` reads it from a checked CSV file.

    ``tag_codes`` index the sorted ``tag_names``, so code order is name
    order. Samples with equal timestamps keep their input order.
    """

    timestamps_ms: np.ndarray  # int64, shape (N,)
    values: np.ndarray  # float64, shape (N,)
    tag_codes: np.ndarray  # intp, shape (N,)
    tag_names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.timestamps_ms)


@dataclass(frozen=True, eq=False)
class RtlsTrace:
    """An RTLS trace as numpy columns, one entry per sample, time-sorted,
    as ``load_rtls_trace`` reads it from a checked CSV file.

    ``tracker_codes`` index ``tracker_names`` and ``label_codes`` index
    ``label_names``, with -1 for an unlabeled sample. Both name tuples are
    sorted, so code order is name order. Samples with equal timestamps
    keep their input order.
    """

    timestamps_ms: np.ndarray  # int64, shape (N,)
    points: np.ndarray  # float64, shape (N, 3): x, y, z in m
    tracker_codes: np.ndarray  # intp, shape (N,)
    label_codes: np.ndarray  # intp, shape (N,)
    tracker_names: tuple[str, ...]
    label_names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.timestamps_ms)


def _time_order(timestamps: np.ndarray) -> np.ndarray | None:
    """The stable time order of an int64 timestamp column, or None when
    the column is already non-decreasing, as a recorded trace usually is."""
    if not np.any(timestamps[1:] < timestamps[:-1]):
        return None
    return np.argsort(timestamps, kind="stable")


def _time_sorted(cls, order: np.ndarray | None, timestamps: np.ndarray, values, *coded):
    """A ``cls`` trace from per-sample columns, put in ``_time_order``'s
    ``order`` of ``timestamps`` (None: as they are).

    ``values`` has one leading entry per sample. Each of ``coded`` is a
    pair of first-seen codes and their name-to-code dict; it becomes a
    code column into the sorted names (None: -1), after the value
    columns, and the names tuple, after all code columns. The code
    columns are remapped in place, and columns already in time order
    become the trace's own: only out-of-order input is gathered.
    """
    code_columns, name_tuples = [], []
    for codes, first_seen in coded:
        names = sorted(n for n in first_seen if n is not None)
        rank = {n: r for r, n in enumerate(names)}
        remap = np.array([rank.get(n, -1) for n in first_seen], dtype=np.intp)
        codes = np.asarray(codes, dtype=np.intp)
        # In place: take reads each code before it writes that slot, and
        # unlike mode "raise" (the codes are in range) "clip" writes
        # ``out`` directly rather than through a copy.
        np.take(remap, codes, out=codes, mode="clip")
        code_columns.append(codes if order is None else codes[order])
        name_tuples.append(tuple(names))
    if order is not None:
        timestamps, values = timestamps[order], values[order]
    return cls(timestamps, values, *code_columns, *name_tuples)


@dataclass(eq=False)
class PositionSeries:
    """Time-ordered positions attributed to one component (or tracker):
    ``points`` (float64, shape (n, 3): x, y, z in m), one row per
    position. The constructor converts a sequence of (x, y, z) tuples."""

    owner_tag: str
    points: np.ndarray = ()

    def __post_init__(self) -> None:
        # C order: estimate_position's axis-0 sum then adds the rows in order.
        self.points = np.ascontiguousarray(self.points, dtype=float).reshape(-1, 3)

    def __len__(self) -> int:
        return len(self.points)


class EstimateStatus(str, Enum):
    KNOWN = "Known"
    UNKNOWN = "Unknown"


@dataclass
class PositionEstimate:
    """A component's mean position over its ``match_count`` matched
    positions; ``mean`` is None when too few matched."""

    owner_tag: str
    mean: tuple[float, float, float] | None
    match_count: int

    @property
    def status(self) -> EstimateStatus:
        """Known exactly when the mean is set."""
        return EstimateStatus.UNKNOWN if self.mean is None else EstimateStatus.KNOWN


# The loader reads a trace body in blocks of whole lines of about this
# many characters, and parses each plain block column by column.
_BLOCK_CHARS = 64 * 1024


def _parse_block(lines: list[str], is_float: tuple[bool, ...]):
    """A block of whole lines parsed column by column: its timestamps, its
    float fields in row order and all its fields, row after row. None if
    the block is not plain or a row breaks a rule: a non-finite float, an
    empty name or a timestamp out of bounds.

    A block is plain when it holds no ``"``, no ``\\r`` and no NUL (which
    ``csv.reader`` refuses before Python 3.11), each line has exactly one
    field per entry of ``is_float`` (so no line is blank), and the block
    is no longer than the csv field limit, so no field is either.
    ``csv.reader`` then reads each line as one row, split at its commas,
    and ``int`` and ``float`` see the strings the row loop sees. The
    first column is the timestamp and the second a name.
    """
    width = len(is_float)
    text = "".join(lines)
    if (
        '"' in text
        or "\r" in text
        or "\0" in text
        or len(text) > csv.field_size_limit()
        or set(map(str.count, lines, repeat(","))) != {width - 1}
    ):
        return None
    fields = text.replace("\n", ",").split(",")[: width * len(lines)]
    try:
        # array() fills faster from a list than from an iterator.
        timestamps = array("q", list(map(int, fields[0::width])))
        floats = array("d", list(map(float, compress(fields, cycle(is_float)))))
    except (ValueError, OverflowError):  # OverflowError: beyond int64
        return None
    ts = np.frombuffer(timestamps, dtype=np.int64)
    if not (
        np.isfinite(np.frombuffer(floats)).all()
        and all(fields[1::width])
        and -_TIMESTAMP_LIMIT_MS < ts.min()
        and ts.max() < _TIMESTAMP_LIMIT_MS
    ):
        return None
    return timestamps, floats, fields


def _code_column(first_seen: dict[str | None, int], names: list[str]):
    """A name column as first-seen codes, numbered as the row loop numbers
    them; an empty name is coded as None."""
    block = {n: first_seen.setdefault(n or None, len(first_seen)) for n in dict.fromkeys(names)}
    return list(map(block.__getitem__, names))


def _line_count(path) -> int:
    """The number of ``\\n`` in a file: at least its number of rows,
    unless it ends lines with a lone ``\\r`` or changes while read."""
    with open(path, "rb") as raw:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: raw.read(_BLOCK_CHARS), b""))


def _load_csv(path, shape: _CsvShape):
    """A trace CSV of ``shape`` as columns in file order: int64
    timestamps, the float fields and, per name column (``name_columns``),
    first-seen codes and their name-to-code dict.

    Each leading block that ``_parse_block`` parses is kept whole. From
    the first block it refuses, the rest of the file goes through the
    ``csv.reader`` row loop, its rows numbered on from that block: the
    one definition of quoting, line endings, blank rows and row errors.
    """
    rows = _line_count(path)
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise MalformedRowError("empty file, header expected", 1) from None
        except csv.Error as exc:  # such as a field beyond the csv field limit
            raise MalformedRowError(str(exc), 1) from None
        optional = (shape.label,) if shape.label else ()
        if tuple(header) not in (shape.header, shape.header + optional):
            raise MalformedRowError(
                f"header must be {','.join(shape.header)}"
                + (f"[,{shape.label}]" if shape.label else "")
                + f", got {','.join(header)}",
                1,
            )
        width = len(header)
        columns = shape.name_columns(width > len(shape.header))
        per_row = len(shape.float_fields)
        # Sized for every row; a slice assignment past the end extends.
        timestamps = array("q", [0]) * rows
        floats = array("d", [0.0]) * (rows * per_row)
        coded = [(array("q", [0]) * rows, {}) for _ in columns]
        is_float = tuple(k in shape.float_fields for k in range(width))
        parsed = 0  # the body rows the plain blocks filled in
        undecodable = None
        while True:
            try:
                lines = fh.readlines(_BLOCK_CHARS)
            except UnicodeDecodeError as exc:
                # readlines dropped the lines it read before the chunk it
                # could not decode. The row loop over the whole body meets
                # that chunk after the same rows, so it raises what it
                # raises on its own: a bad row before the chunk, or this.
                undecodable = exc
                fh.seek(0)
                next(csv.reader(fh))
                lines, parsed = [], 0
                break
            block = _parse_block(lines, is_float) if lines else None
            if block is None:
                break
            block_ts, block_floats, fields = block
            end = parsed + len(lines)
            timestamps[parsed:end] = block_ts
            floats[parsed * per_row : end * per_row] = block_floats
            for (codes, first_seen), k in zip(coded, columns):
                codes[parsed:end] = array("q", _code_column(first_seen, fields[k::width]))
            parsed = end
        # The row loop appends after the parsed rows.
        del timestamps[parsed:], floats[parsed * per_row :]
        for codes, _ in coded:
            del codes[parsed:]
        rowno = parsed + 1  # the last row read, the header being row 1
        float_fields = shape.float_fields
        try:
            for rowno, row in enumerate(csv.reader(chain(lines, fh)), start=rowno + 1):
                if not row:
                    continue
                if len(row) != width:
                    raise MalformedRowError(f"expected {width} fields, got {len(row)}", rowno)
                try:
                    ts = int(row[0])
                    values = [float(row[k]) for k in float_fields]
                except ValueError as exc:
                    raise MalformedRowError(str(exc), rowno) from None
                if not all(map(math.isfinite, values)):
                    raise MalformedRowError(shape.float_error, rowno)
                if not row[1]:
                    raise MalformedRowError(shape.name_error, rowno)
                if not -_TIMESTAMP_LIMIT_MS < ts < _TIMESTAMP_LIMIT_MS:
                    raise MalformedRowError(_TIMESTAMP_ERROR, rowno)
                timestamps.append(ts)
                floats.extend(values)
                for (codes, first_seen), k in zip(coded, columns):
                    codes.append(first_seen.setdefault(row[k] or None, len(first_seen)))
        except csv.Error as exc:  # such as a field beyond the csv field limit
            raise MalformedRowError(str(exc), rowno + 1) from None
    if undecodable is not None:
        raise undecodable  # the file changed while it was read
    coded = [(np.frombuffer(codes, dtype=np.int64), first_seen) for codes, first_seen in coded]
    return np.frombuffer(timestamps, dtype=np.int64), shape.values(np.frombuffer(floats)), coded


def load_io_trace(path) -> IoTrace:
    """Load and time-sort an IO trace.

    A malformed row is reported by its number; a tag whose timestamps go
    back is only a warning.
    """
    ts, values, [(codes, tags)] = _load_csv(path, _IO)
    # Each tag's samples in file order, one tag after the other.
    by_tag = np.argsort(codes, kind="stable")
    same_tag = codes[by_tag][1:] == codes[by_tag][:-1]
    if np.any(same_tag & (np.diff(ts[by_tag]) < 0)):
        logger.warning("%s: non-monotonic timestamps, sorting", path)
    trace = _time_sorted(IoTrace, _time_order(ts), ts, values, (codes, tags))
    logger.info("%s: %d IO samples", path, len(trace))
    return trace


def load_rtls_trace(path) -> RtlsTrace:
    """Load and time-sort an RTLS trace; the label column is optional.

    A malformed row is reported by its number; non-monotonic input is only
    a warning.
    """
    ts, points, coded = _load_csv(path, _RTLS)
    if len(coded) == 1:  # no label column: every sample is unlabeled
        coded.append((np.zeros(len(ts), dtype=np.int64), {None: 0}))
    order = _time_order(ts)
    if order is not None:
        logger.warning("%s: non-monotonic timestamps, sorting", path)
    trace = _time_sorted(RtlsTrace, order, ts, points, *coded)
    logger.info("%s: %d RTLS samples", path, len(trace))
    return trace


class SignalKind(str, Enum):
    BOOL = "Bool"
    ANALOG = "Analog"


def detect_events(
    timestamps_ms: np.ndarray,
    values: np.ndarray,
    kind: SignalKind = SignalKind.BOOL,
    threshold: float = 0.5,
    hysteresis: float = 0.0,
) -> np.ndarray:
    """One tag's change-event times (int64, strictly increasing).

    The columns hold one tag's samples in time order, as an ``IoTrace``
    does; unsorted timestamps raise ``TraceError`` instead of yielding
    wrong events. A Bool signal fires where ``value > 0.5`` changes. An
    analog signal fires through a Schmitt trigger: a sample at or above
    ``threshold + hysteresis`` is high, else one at or below ``threshold -
    hysteresis`` is low, and one in between keeps the last state. An
    event fires where the state flips, so noise inside the hysteresis
    band never fires. Equal timestamps can flip several times at once;
    each time is kept once.
    """
    ts = np.asarray(timestamps_ms, dtype=np.int64)
    if np.any(ts[1:] < ts[:-1]):
        raise TraceError("samples must be sorted by timestamp")
    values = np.asarray(values, dtype=float)
    if kind is SignalKind.BOOL:
        state = values > 0.5
    else:
        state = np.where(
            values >= threshold + hysteresis, 1, np.where(values <= threshold - hysteresis, -1, 0)
        )
        known = state != 0
        ts, state = ts[known], state[known]
    return np.unique(ts[1:][state[1:] != state[:-1]])


def match_events(
    tag: str,
    events_ms,
    rtls: RtlsTrace,
    window_ms: int = 500,
) -> PositionSeries:
    """Attach the nearest-in-time material position to each of ``tag``'s
    event times, given in increasing order.

    Any tracker may supply the position. Events with no sample within
    ``window_ms`` are skipped. Ties on time distance are broken by the
    earlier sample, then by lexicographically smaller tracker id, then by
    trace order.
    """
    n = len(rtls)
    if n == 0 or not len(events_ms):
        return PositionSeries(owner_tag=tag)
    times = rtls.timestamps_ms
    at = _int64_times(events_ms)
    # The samples just before (or at) and just after each event hold the
    # nearest time; an equal distance goes to the earlier one.
    after = np.searchsorted(times, at, side="right")
    t_before = times[np.maximum(after - 1, 0)]
    t_after = times[np.minimum(after, n - 1)]
    use_after = (after < n) & ((after == 0) | (t_after - at < at - t_before))
    nearest = np.where(use_after, t_after, t_before)
    nearest = nearest[np.abs(nearest - at) <= window_ms]
    first = np.searchsorted(times, nearest, side="left")
    last = np.searchsorted(times, nearest, side="right")
    chosen = first.copy()
    for k in np.flatnonzero(last - first > 1).tolist():
        # Several samples share the nearest time: smallest tracker code
        # (name order), then the first of them in the trace.
        chosen[k] += int(np.argmin(rtls.tracker_codes[first[k]:last[k]]))
    return PositionSeries(tag, rtls.points[chosen])


def estimate_position(series: PositionSeries, min_matches: int = 5) -> PositionEstimate:
    """Arithmetic-mean position; Unknown when too few events matched."""
    n = len(series)
    if n < min_matches:
        return PositionEstimate(series.owner_tag, None, n)
    mean = tuple((series.points.sum(axis=0) / n).tolist())
    return PositionEstimate(series.owner_tag, mean, n)


def split_labeled_segments(trace: RtlsTrace) -> list[tuple[str, PositionSeries]]:
    """Cut a labeled RTLS trace into per-(tracker, label) runs.

    A training segment is a maximal run of consecutive samples of one
    tracker carrying the same label; unlabeled samples separate runs.
    Segments come in tracker name order, then in time order.
    """
    segments: list[tuple[str, PositionSeries]] = []
    for code, tracker in enumerate(trace.tracker_names):
        rows = np.flatnonzero(trace.tracker_codes == code)
        labels = trace.label_codes[rows]
        bounds = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist(), len(rows)]
        for start, end in zip(bounds, bounds[1:]):
            label = int(labels[start])
            if label < 0:
                continue
            run = rows[start:end]
            series = PositionSeries(tracker, trace.points[run])
            segments.append((trace.label_names[label], series))
    return segments
