"""Recorded IO and material-position traces: ingestion and correlation.

File formats (UTF-8 CSV, ``.`` decimal point, one sample per row; the
column names below are defined here, for the loaders and the generator):

* IO trace header: ``timestamp_ms,tag,value``
* RTLS trace header: ``timestamp_ms,tracker_id,x_m,y_m,z_m`` with an
  optional trailing ``location_label`` column (training data only).

Both traces load as numpy columns, one entry per sample, stably
time-sorted once at load: an ``IoTrace`` and an ``RtlsTrace``. Their
``from_rows`` builds the same columns from the generator's row tuples
and refuses what the loaders refuse.

The loaders parse the rows in blocks of whole lines. A plain block (no
quote, no ``\\r``, no NUL, the header's number of fields on every line)
is parsed column by column, its values checked as whole columns. From
the first block that is not plain or fails a check, the rest of the file
goes through a row-by-row ``csv.reader`` loop, which defines quoting,
line endings, blank rows and every ``MalformedRowError``; its row
numbers continue after the rows already parsed, so results and errors
are the same either way.

The correlation chain is: one tag's samples -> its change-event times
(an int64 array) -> per-event nearest-in-time material position, a
binary search per event -> per-component mean position. The matched
positions stay numpy columns (``PositionSeries``) from the RTLS trace to
the mean position and the DTW classifier.
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

logger = logging.getLogger(__name__)


class TraceError(DataError):
    pass


IO_COLUMNS = ("timestamp_ms", "tag", "value")
RTLS_COLUMNS = ("timestamp_ms", "tracker_id", "x_m", "y_m", "z_m")
RTLS_LABEL_COLUMN = "location_label"

# Timestamps are int64 columns; below this magnitude the difference of
# any two also fits in int64.
_TIMESTAMP_LIMIT_MS = 2**62


def _int64_times(values) -> np.ndarray:
    """API callers' timestamps as int64, held to the loaders' bound."""
    try:
        ts = np.asarray(values, dtype=np.int64)
        in_range = not ts.size or (-_TIMESTAMP_LIMIT_MS < ts.min() and ts.max() < _TIMESTAMP_LIMIT_MS)
    except (OverflowError, ValueError):  # beyond int64, or not a number
        in_range = False
    if not in_range:
        raise TraceError("timestamp magnitude must be below 2**62 ms")
    return ts


class MalformedRowError(TraceError):
    def __init__(self, message: str, row: int):
        super().__init__(f"row {row}: {message}")
        self.row = row


@dataclass(frozen=True, eq=False)
class IoTrace:
    """An IO trace as numpy columns, one entry per sample, time-sorted.

    ``tag_codes`` index the sorted ``tag_names``, so code order is name
    order. Samples with equal timestamps keep their input order.
    """

    timestamps_ms: np.ndarray  # int64, shape (N,)
    values: np.ndarray  # float64, shape (N,)
    tag_codes: np.ndarray  # intp, shape (N,)
    tag_names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.timestamps_ms)

    @classmethod
    def from_rows(cls, rows: list[tuple[int, str, float]]) -> IoTrace:
        """The trace of ``(timestamp_ms, tag, value)`` rows, stably sorted
        by timestamp. A non-finite value or an empty tag raises
        ``TraceError``, as in ``load_io_trace``."""
        values = np.array([r[2] for r in rows], dtype=float)
        if not np.isfinite(values).all():
            raise TraceError("non-finite value")
        if not all(r[1] for r in rows):
            raise TraceError("empty tag name")
        tags: dict[str | None, int] = {}
        return _time_sorted(
            cls,
            _int64_times([r[0] for r in rows]),
            values,
            ([tags.setdefault(r[1], len(tags)) for r in rows], tags),
        )


@dataclass(frozen=True, eq=False)
class RtlsTrace:
    """An RTLS trace as numpy columns, one entry per sample, time-sorted.

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

    @classmethod
    def from_rows(cls, rows: list[tuple[int, str, float, float, float, str | None]]) -> RtlsTrace:
        """The trace of ``(timestamp_ms, tracker_id, x, y, z,
        location_label)`` rows, stably sorted by timestamp; an empty or
        None label counts as unlabeled. A non-finite coordinate or an
        empty tracker id raises ``TraceError``, as in ``load_rtls_trace``."""
        points = np.array([r[2:5] for r in rows], dtype=float).reshape(-1, 3)
        if not np.isfinite(points).all():
            raise TraceError("non-finite coordinate")
        if not all(r[1] for r in rows):
            raise TraceError("empty tracker id")
        trackers: dict[str | None, int] = {}
        labels: dict[str | None, int] = {}
        return _time_sorted(
            cls,
            _int64_times([r[0] for r in rows]),
            points,
            ([trackers.setdefault(r[1], len(trackers)) for r in rows], trackers),
            ([labels.setdefault(r[5] or None, len(labels)) for r in rows], labels),
        )


def _name_order(codes, first_seen: dict[str | None, int]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Renumber first-seen codes into the order of the sorted names; the
    code of None becomes -1."""
    names = sorted(n for n in first_seen if n is not None)
    rank = {n: r for r, n in enumerate(names)}
    remap = np.array([rank.get(n, -1) for n in first_seen], dtype=np.intp)
    return remap[np.asarray(codes, dtype=np.intp)], tuple(names)


def _time_sorted(cls, timestamps, values, *coded):
    """A ``cls`` trace from per-sample columns, stably sorted by time once.

    ``values`` has one leading entry per sample. Each of ``coded`` is a
    pair of first-seen codes and their name-to-code dict; it becomes a
    code column into the sorted names, after the value columns, and the
    names tuple, after all code columns.
    """
    ts = np.asarray(timestamps, dtype=np.int64)
    order = np.argsort(ts, kind="stable")
    ranked = [_name_order(codes, first_seen) for codes, first_seen in coded]
    return cls(
        ts[order],
        np.asarray(values, dtype=float)[order],
        *(codes[order] for codes, _ in ranked),
        *(names for _, names in ranked),
    )


@dataclass(eq=False)
class PositionSeries:
    """Time-ordered positions attributed to one component (or tracker),
    as two columns with one entry per position, like ``RtlsTrace``:
    ``timestamps_ms`` (int64, shape (n,)) and ``points`` (float64, shape
    (n, 3): x, y, z in m). The constructor converts sequences, such as a
    list of timestamps and a list of (x, y, z) tuples."""

    owner_tag: str
    timestamps_ms: np.ndarray = ()
    points: np.ndarray = ()

    def __post_init__(self) -> None:
        self.timestamps_ms = np.asarray(self.timestamps_ms, dtype=np.int64)
        # C order: estimate_position's axis-0 sum then adds the rows in order.
        self.points = np.ascontiguousarray(self.points, dtype=float).reshape(-1, 3)

    def __len__(self) -> int:
        return len(self.points)


class EstimateStatus(str, Enum):
    KNOWN = "Known"
    UNKNOWN = "Unknown"


@dataclass
class PositionEstimate:
    owner_tag: str
    mean: tuple[float, float, float] | None
    match_count: int
    status: EstimateStatus


# The loaders read a trace body in blocks of whole lines of about this
# many characters, and parse each plain block column by column.
_BLOCK_CHARS = 64 * 1024


def _open_csv(path, expected_header: tuple[str, ...], optional: tuple[str, ...]):
    """Open a trace CSV and check its header; return the file, positioned
    at the first row, and whether the optional columns are present."""
    fh = open(path, encoding="utf-8", newline="")
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        fh.close()
        raise MalformedRowError("empty file, header expected", 1) from None
    base = tuple(header[: len(expected_header)])
    extra = tuple(header[len(expected_header):])
    if base != expected_header or extra not in ((), optional):
        fh.close()
        raise MalformedRowError(
            f"header must be {','.join(expected_header)}"
            + (f"[,{','.join(optional)}]" if optional else "")
            + f", got {','.join(header)}",
            1,
        )
    return fh, bool(extra)


def _parse_block(lines: list[str], is_float: tuple[bool, ...]):
    """A block of whole lines parsed column by column: its timestamps, its
    float fields in row order and all its fields, row after row. None if
    the block is not plain or fails a check of the row loop.

    A block is plain when it holds no ``"``, no ``\\r`` and no NUL (which
    ``csv.reader`` refuses before Python 3.11), each line has exactly one
    field per entry of ``is_float`` (so no line is blank), and the block
    is no longer than the csv field limit, so no field is either. ``csv.reader`` then reads each line as one row, split at its
    commas, and ``int`` and ``float`` see the strings the row loop sees.
    The first column is the timestamp and the second a name.
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
    if (
        "" in fields[1::width]
        or not np.isfinite(np.frombuffer(floats)).all()
        or not (-_TIMESTAMP_LIMIT_MS < ts.min() and ts.max() < _TIMESTAMP_LIMIT_MS)
    ):
        return None
    return timestamps, floats, fields


def _code_column(first_seen: dict[str | None, int], names: list[str]):
    """A block's name column as first-seen codes, numbered as the row
    loop numbers them; an empty name is coded as None."""
    block = {n: first_seen.setdefault(n or None, len(first_seen)) for n in dict.fromkeys(names)}
    return list(map(block.__getitem__, names))


def _read_rows(path, fh, is_float: tuple[bool, ...], keep_block, take_rows) -> None:
    """Feed the rows after the header of ``path``, open as ``fh``, to a
    loader.

    Each leading block that ``_parse_block`` parses goes to
    ``keep_block``. From the first block it refuses, the rest of the file
    goes to ``take_rows`` as ``csv.reader`` rows numbered from that
    block's first row: the row loop is the one definition of quoting,
    line endings, blank rows and every row error.
    """
    parsed = 0
    while True:
        try:
            lines = fh.readlines(_BLOCK_CHARS)
        except UnicodeDecodeError as exc:
            error = exc
            break
        if not lines:
            return
        block = _parse_block(lines, is_float)
        if block is None:
            take_rows(enumerate(csv.reader(chain(lines, fh)), start=parsed + 2))
            return
        keep_block(*block)
        parsed += len(lines)
    # readlines dropped the lines it read before the chunk it could not
    # decode. The row loop over the whole body meets that chunk after the
    # same rows, so it raises what it raises on its own: a bad row before
    # the chunk, or this error.
    with open(path, encoding="utf-8", newline="") as again:
        reader = csv.reader(again)
        next(reader)
        take_rows(enumerate(reader, start=2))
    raise error  # the file changed while it was read


def load_io_trace(path) -> IoTrace:
    """Load and time-sort an IO trace.

    A malformed row is reported by its number; a tag whose timestamps go
    back is only a warning.
    """
    fh, _ = _open_csv(path, IO_COLUMNS, ())
    timestamps = array("q")
    values = array("d")
    tag_codes = array("q")
    tags: dict[str | None, int] = {}

    def keep_block(block_ts: array, block_values: array, fields: list[str]) -> None:
        timestamps.extend(block_ts)
        values.extend(block_values)
        tag_codes.fromlist(_code_column(tags, fields[1::3]))

    def take_rows(rows) -> None:
        for rowno, row in rows:
            if not row:
                continue
            if len(row) != 3:
                raise MalformedRowError(f"expected 3 fields, got {len(row)}", rowno)
            try:
                ts = int(row[0])
                value = float(row[2])
            except ValueError as exc:
                raise MalformedRowError(str(exc), rowno) from None
            if not math.isfinite(value):
                raise MalformedRowError("non-finite value", rowno)
            if not row[1]:
                raise MalformedRowError("empty tag name", rowno)
            if not -_TIMESTAMP_LIMIT_MS < ts < _TIMESTAMP_LIMIT_MS:
                raise MalformedRowError("timestamp magnitude must be below 2**62 ms", rowno)
            timestamps.append(ts)
            values.append(value)
            tag_codes.append(tags.setdefault(row[1], len(tags)))

    with fh:
        _read_rows(path, fh, (False, False, True), keep_block, take_rows)
    ts = np.frombuffer(timestamps, dtype=np.int64)
    codes = np.frombuffer(tag_codes, dtype=np.int64)
    # Each tag's samples in file order, one tag after the other.
    by_tag = np.argsort(codes, kind="stable")
    same_tag = codes[by_tag][1:] == codes[by_tag][:-1]
    if np.any(same_tag & (np.diff(ts[by_tag]) < 0)):
        logger.warning("%s: non-monotonic timestamps, sorting", path)
    trace = _time_sorted(IoTrace, ts, np.frombuffer(values), (codes, tags))
    logger.info("%s: %d IO samples", path, len(trace))
    return trace


def load_rtls_trace(path) -> RtlsTrace:
    """Load and time-sort an RTLS trace; the label column is optional.

    A malformed row is reported by its number; non-monotonic input is only
    a warning.
    """
    fh, labeled = _open_csv(path, RTLS_COLUMNS, (RTLS_LABEL_COLUMN,))
    want = 6 if labeled else 5
    # Raw values and first-seen name codes only: no Python object per row
    # outlives its row.
    timestamps = array("q")
    coords = array("d")
    tracker_codes = array("q")
    label_codes = array("q")
    trackers: dict[str | None, int] = {}
    labels: dict[str | None, int] = {None: 0}  # code 0: unlabeled
    def keep_block(block_ts: array, block_coords: array, fields: list[str]) -> None:
        timestamps.extend(block_ts)
        coords.extend(block_coords)
        tracker_codes.fromlist(_code_column(trackers, fields[1::want]))
        label_codes.fromlist(_code_column(labels, fields[5::6]) if labeled else [0] * len(block_ts))

    def take_rows(rows) -> None:
        for rowno, row in rows:
            if not row:
                continue
            if len(row) != want:
                raise MalformedRowError(f"expected {want} fields, got {len(row)}", rowno)
            try:
                ts = int(row[0])
                x, y, z = float(row[2]), float(row[3]), float(row[4])
            except ValueError as exc:
                raise MalformedRowError(str(exc), rowno) from None
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                raise MalformedRowError("non-finite coordinate", rowno)
            if not row[1]:
                raise MalformedRowError("empty tracker id", rowno)
            if not -_TIMESTAMP_LIMIT_MS < ts < _TIMESTAMP_LIMIT_MS:
                raise MalformedRowError("timestamp magnitude must be below 2**62 ms", rowno)
            timestamps.append(ts)
            coords.extend((x, y, z))
            tracker_codes.append(trackers.setdefault(row[1], len(trackers)))
            label_codes.append(labels.setdefault(row[5] or None, len(labels)) if labeled else 0)

    with fh:
        # The float columns are x, y and z.
        _read_rows(path, fh, (False, False, True, True, True, False)[:want], keep_block, take_rows)
    ts = np.frombuffer(timestamps, dtype=np.int64)
    if np.any(ts[1:] < ts[:-1]):
        logger.warning("%s: non-monotonic timestamps, sorting", path)
    trace = _time_sorted(
        RtlsTrace,
        ts,
        np.frombuffer(coords).reshape(-1, 3),
        (tracker_codes, trackers),
        (label_codes, labels),
    )
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
    keep = np.abs(nearest - at) <= window_ms
    at, nearest = at[keep], nearest[keep]
    first = np.searchsorted(times, nearest, side="left")
    last = np.searchsorted(times, nearest, side="right")
    chosen = first.copy()
    for k in np.flatnonzero(last - first > 1).tolist():
        # Several samples share the nearest time: smallest tracker code
        # (name order), then the first of them in the trace.
        chosen[k] += int(np.argmin(rtls.tracker_codes[first[k]:last[k]]))
    return PositionSeries(tag, at, rtls.points[chosen])


def estimate_position(series: PositionSeries, min_matches: int = 5) -> PositionEstimate:
    """Arithmetic-mean position; Unknown when too few events matched."""
    n = len(series)
    if n < min_matches:
        return PositionEstimate(series.owner_tag, None, n, EstimateStatus.UNKNOWN)
    mean = tuple((series.points.sum(axis=0) / n).tolist())
    return PositionEstimate(series.owner_tag, mean, n, EstimateStatus.KNOWN)


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
            series = PositionSeries(tracker, trace.timestamps_ms[run], trace.points[run])
            segments.append((trace.label_names[label], series))
    return segments
