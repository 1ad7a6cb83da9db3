"""Recorded IO and material-position traces: ingestion and correlation.

File formats (UTF-8 CSV, ``.`` decimal point, one sample per row; the
column names below are defined here, for the loaders and the generator):

* IO trace header: ``timestamp_ms,tag,value``
* RTLS trace header: ``timestamp_ms,tracker_id,x_m,y_m,z_m`` with an
  optional trailing ``location_label`` column (training data only).

An IO trace loads as a list of ``IoSample``. An RTLS trace, which is two
orders of magnitude longer, loads as one ``RtlsTrace`` of numpy columns,
time-sorted once at load, so event matching is a binary search per event.

The correlation chain is: signal samples -> change events -> per-event
nearest-in-time material position -> per-component mean position. The
matched positions stay numpy columns (``PositionSeries``) from the RTLS
trace to the mean position and the DTW classifier.
"""

from __future__ import annotations

import csv
import logging
import math
from array import array
from dataclasses import dataclass, field
from enum import Enum

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


def _int64_times(values: list[int]) -> np.ndarray:
    """API callers' timestamps as int64, held to the loaders' bound."""
    if any(not -_TIMESTAMP_LIMIT_MS < t < _TIMESTAMP_LIMIT_MS for t in values):
        raise TraceError("timestamp magnitude must be below 2**62 ms")
    return np.array(values, dtype=np.int64)


class MalformedRowError(TraceError):
    def __init__(self, message: str, row: int):
        super().__init__(f"row {row}: {message}")
        self.row = row


@dataclass(frozen=True)
class IoSample:
    timestamp_ms: int
    tag: str
    value: float


@dataclass(frozen=True)
class RtlsSample:
    timestamp_ms: int
    tracker_id: str
    x: float
    y: float
    z: float
    location_label: str | None = None


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
    def from_samples(cls, samples: list[RtlsSample]) -> RtlsTrace:
        """The trace of ``samples``, stably sorted by timestamp; an empty
        label counts as unlabeled."""
        trackers: dict[str | None, int] = {}
        labels: dict[str | None, int] = {}
        return _sorted_trace(
            _int64_times([s.timestamp_ms for s in samples]),
            [v for s in samples for v in (s.x, s.y, s.z)],
            [trackers.setdefault(s.tracker_id, len(trackers)) for s in samples],
            trackers,
            [labels.setdefault(s.location_label or None, len(labels)) for s in samples],
            labels,
        )


def _name_order(codes, first_seen: dict[str | None, int]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Renumber first-seen codes into the order of the sorted names; the
    code of None becomes -1."""
    names = sorted(n for n in first_seen if n is not None)
    rank = {n: r for r, n in enumerate(names)}
    remap = np.array([rank.get(n, -1) for n in first_seen], dtype=np.intp)
    return remap[np.asarray(codes, dtype=np.intp)], tuple(names)


def _sorted_trace(
    timestamps,
    coords,
    tracker_codes,
    trackers: dict[str | None, int],
    label_codes,
    labels: dict[str | None, int],
) -> RtlsTrace:
    """Columns from per-sample sequences, sorted once. ``coords`` is flat
    x, y, z; the codes are first-seen indices into ``trackers`` and
    ``labels``."""
    ts = np.asarray(timestamps, dtype=np.int64)
    order = np.argsort(ts, kind="stable")
    tracker_codes, tracker_names = _name_order(tracker_codes, trackers)
    label_codes, label_names = _name_order(label_codes, labels)
    return RtlsTrace(
        ts[order],
        np.asarray(coords, dtype=float).reshape(-1, 3)[order],
        tracker_codes[order],
        label_codes[order],
        tracker_names,
        label_names,
    )


class EventDirection(str, Enum):
    RISING = "Rising"
    FALLING = "Falling"
    CROSSING = "Crossing"


@dataclass(frozen=True)
class SignalEvent:
    timestamp_ms: int
    direction: EventDirection


@dataclass
class EventSeries:
    tag: str
    events: list[SignalEvent] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)


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


def _open_csv(path, expected_header: tuple[str, ...], optional: tuple[str, ...]):
    fh = open(path, encoding="utf-8", newline="")
    reader = csv.reader(fh)
    try:
        header = next(reader)
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
    return fh, reader, bool(extra)


def load_io_trace(path) -> list[IoSample]:
    """Load and time-sort an IO trace; non-monotonic input is only a warning."""
    fh, reader, _ = _open_csv(path, IO_COLUMNS, ())
    samples: list[IoSample] = []
    monotonic = True
    with fh:
        last_ts: dict[str, int] = {}
        for rowno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise MalformedRowError(f"expected 3 fields, got {len(row)}", rowno)
            try:
                ts = int(row[0])
                value = float(row[2])
            except ValueError as exc:
                raise MalformedRowError(str(exc), rowno) from None
            tag = row[1]
            if not tag:
                raise MalformedRowError("empty tag name", rowno)
            if not -_TIMESTAMP_LIMIT_MS < ts < _TIMESTAMP_LIMIT_MS:
                raise MalformedRowError("timestamp magnitude must be below 2**62 ms", rowno)
            if tag in last_ts and ts < last_ts[tag]:
                monotonic = False
            last_ts[tag] = ts
            samples.append(IoSample(ts, tag, value))
    if not monotonic:
        logger.warning("%s: non-monotonic timestamps, sorting", path)
    samples.sort(key=lambda s: s.timestamp_ms)
    logger.info("%s: %d IO samples", path, len(samples))
    return samples


def load_rtls_trace(path) -> RtlsTrace:
    """Load and time-sort an RTLS trace; the label column is optional.

    Rows are parsed one by one, so a malformed row is reported by its
    number; non-monotonic input is only a warning.
    """
    fh, reader, labeled = _open_csv(path, RTLS_COLUMNS, (RTLS_LABEL_COLUMN,))
    want = 6 if labeled else 5
    # Raw values and first-seen name codes only: no Python object per row
    # outlives its row.
    timestamps = array("q")
    coords = array("d")
    tracker_codes = array("q")
    label_codes = array("q")
    trackers: dict[str | None, int] = {}
    labels: dict[str | None, int] = {None: 0}  # code 0: unlabeled
    with fh:
        for rowno, row in enumerate(reader, start=2):
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
    ts = np.frombuffer(timestamps, dtype=np.int64)
    if np.any(ts[1:] < ts[:-1]):
        logger.warning("%s: non-monotonic timestamps, sorting", path)
    trace = _sorted_trace(
        ts, np.frombuffer(coords), tracker_codes, trackers, label_codes, labels
    )
    logger.info("%s: %d RTLS samples", path, len(trace))
    return trace


class SignalKind(str, Enum):
    BOOL = "Bool"
    ANALOG = "Analog"


def detect_events(
    samples: list[IoSample],
    kind: SignalKind = SignalKind.BOOL,
    threshold: float = 0.5,
    hysteresis: float = 0.0,
) -> EventSeries:
    """Turn one tag's sample series into a change-event series.

    Bool signals produce Rising on 0->1 and Falling on 1->0. Analog
    signals produce Crossing events through a Schmitt trigger: a crossing
    fires when the value passes ``threshold + hysteresis`` coming from
    below ``threshold - hysteresis`` or vice versa, so noise inside the
    hysteresis band never fires.

    The samples must be time-sorted. ``load_io_trace`` sorts, but this
    function and ``dynamics.analyze_dynamics`` take plain lists from any
    caller, so unsorted samples raise ``TraceError`` instead of yielding
    wrong events. The check is one pass over one tag's samples.
    """
    if not samples:
        return EventSeries(tag="", events=[])
    tag = samples[0].tag
    if any(s.tag != tag for s in samples):
        raise TraceError("detect_events expects samples of a single tag")
    if any(b.timestamp_ms < a.timestamp_ms for a, b in zip(samples, samples[1:])):
        raise TraceError("samples must be sorted by timestamp")
    events: list[SignalEvent] = []
    if kind is SignalKind.BOOL:
        prev_on = samples[0].value > 0.5
        for s in samples[1:]:
            on = s.value > 0.5
            if on and not prev_on:
                events.append(SignalEvent(s.timestamp_ms, EventDirection.RISING))
            elif prev_on and not on:
                events.append(SignalEvent(s.timestamp_ms, EventDirection.FALLING))
            prev_on = on
    else:
        hi = threshold + hysteresis
        lo = threshold - hysteresis
        state = None  # 'above' | 'below' | unknown
        for s in samples:
            if s.value >= hi:
                if state == "below":
                    events.append(SignalEvent(s.timestamp_ms, EventDirection.CROSSING))
                state = "above"
            elif s.value <= lo:
                if state == "above":
                    events.append(SignalEvent(s.timestamp_ms, EventDirection.CROSSING))
                state = "below"
    # Equal-timestamp samples can collapse to simultaneous transitions;
    # keep timestamps strictly increasing by dropping repeats.
    deduped: list[SignalEvent] = []
    for e in events:
        if deduped and e.timestamp_ms <= deduped[-1].timestamp_ms:
            continue
        deduped.append(e)
    return EventSeries(tag=tag, events=deduped)


def match_events(
    events: EventSeries,
    rtls: RtlsTrace,
    window_ms: int = 500,
) -> PositionSeries:
    """Attach the nearest-in-time material position to each signal event.

    Any tracker may supply the position. Events with no sample within
    ``window_ms`` are skipped. Ties on time distance are broken by the
    earlier sample, then by lexicographically smaller tracker id, then by
    trace order.
    """
    n = len(rtls)
    if n == 0 or not events.events:
        return PositionSeries(owner_tag=events.tag)
    times = rtls.timestamps_ms
    at = _int64_times([e.timestamp_ms for e in events.events])
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
    return PositionSeries(events.tag, at, rtls.points[chosen])


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
