import logging
import random

import pytest

from plantrecon.dynamics import analyze_dynamics
from plantrecon.graph import NodeKind
from plantrecon.traces import (
    EstimateStatus,
    EventDirection,
    EventSeries,
    IoSample,
    MalformedRowError,
    PositionSeries,
    RtlsSample,
    RtlsTrace,
    SignalEvent,
    SignalKind,
    TraceError,
    detect_events,
    estimate_position,
    load_io_trace,
    load_rtls_trace,
    match_events,
    split_labeled_segments,
)


def _io(rows):
    return [IoSample(t, tag, v) for (t, tag, v) in rows]


def _rtls(rows):
    return RtlsTrace.from_samples([RtlsSample(*r) for r in rows])


def _label(trace, row):
    code = int(trace.label_codes[row])
    return None if code < 0 else trace.label_names[code]


RTLS_HEADER = "timestamp_ms,tracker_id,x_m,y_m,z_m\n"


class TestLoadIo:
    def test_three_valid_rows(self, tmp_path):
        p = tmp_path / "io.csv"
        p.write_text("timestamp_ms,tag,value\n1,a,0.0\n2,a,1.0\n3,b,0.0\n")
        samples = load_io_trace(p)
        assert len(samples) == 3
        assert samples[0] == IoSample(1, "a", 0.0)

    def test_non_numeric_value(self, tmp_path):
        p = tmp_path / "io.csv"
        p.write_text("timestamp_ms,tag,value\n1,a,zero\n")
        with pytest.raises(MalformedRowError) as info:
            load_io_trace(p)
        assert info.value.row == 2

    def test_timestamp_out_of_range(self, tmp_path):
        p = tmp_path / "io.csv"
        p.write_text("timestamp_ms,tag,value\n1,a,0.0\n-4611686018427387904,a,1.0\n")
        with pytest.raises(MalformedRowError) as info:
            load_io_trace(p)
        assert info.value.row == 3

    def test_bad_header(self, tmp_path):
        p = tmp_path / "io.csv"
        p.write_text("time,tag,value\n")
        with pytest.raises(MalformedRowError):
            load_io_trace(p)

    def test_non_monotonic_sorted_with_warning(self, tmp_path, caplog):
        p = tmp_path / "io.csv"
        p.write_text("timestamp_ms,tag,value\n5,a,1.0\n1,a,0.0\n")
        with caplog.at_level("WARNING"):
            samples = load_io_trace(p)
        assert [s.timestamp_ms for s in samples] == [1, 5]
        assert any("non-monotonic" in r.message for r in caplog.records)

    def test_mini_fixture_counts(self, tmp_path, mini_plant):
        paths = mini_plant.write_outputs(tmp_path)
        io_samples = load_io_trace(paths["io_csv"])
        rtls_samples = load_rtls_trace(paths["rtls_csv"])
        assert len(io_samples) == mini_plant.ground_truth.counts["ioSamples"]
        assert len(rtls_samples) == mini_plant.ground_truth.counts["rtlsSamples"]


class TestLoadRtls:
    def test_labeled_column_optional(self, tmp_path):
        p = tmp_path / "rtls.csv"
        p.write_text("timestamp_ms,tracker_id,x_m,y_m,z_m\n1,t1,0.0,1.0,2.0\n")
        samples = load_rtls_trace(p)
        assert _label(samples, 0) is None
        p2 = tmp_path / "labeled.csv"
        p2.write_text(
            "timestamp_ms,tracker_id,x_m,y_m,z_m,location_label\n1,t1,0.0,1.0,2.0,zoneA\n2,t1,0.0,1.0,2.0,\n"
        )
        samples = load_rtls_trace(p2)
        assert _label(samples, 0) == "zoneA"
        assert _label(samples, 1) is None

    def test_non_finite_coordinate_rejected(self, tmp_path):
        p = tmp_path / "rtls.csv"
        p.write_text("timestamp_ms,tracker_id,x_m,y_m,z_m\n1,t1,nan,1.0,2.0\n")
        with pytest.raises(MalformedRowError):
            load_rtls_trace(p)


    @pytest.mark.parametrize(
        ("body", "row", "message"),
        [
            ("1,t1,0.0,1.0\n", 2, "expected 5 fields, got 4"),
            ("1,t1,0.0,1.0,2.0\n\n2,t1,0.0,1.0,2.0,x\n", 4, "expected 5 fields, got 6"),
            ("1,t1,0.0,1.0,2.0\n1.5,t1,0.0,1.0,2.0\n", 3, "invalid literal for int()"),
            ("1,t1,0.0,1.0,2.0\n2,t1,0.0,y,2.0\n", 3, "could not convert string to float: 'y'"),
            ("1,t1,0.0,1.0,2.0\n2,t1,0.0,1.0,inf\n", 3, "non-finite coordinate"),
            ("1,,0.0,1.0,2.0\n", 2, "empty tracker id"),
            ("1,t1,0.0,1.0,2.0\n4611686018427387904,t1,0.0,1.0,2.0\n", 3, "timestamp magnitude"),
            # The first malformed row is reported, whatever the later ones hold.
            ("1,t1,nan,1.0,2.0\n2,t1\n", 2, "non-finite coordinate"),
        ],
    )
    def test_malformed_row_reported_by_number(self, tmp_path, body, row, message):
        p = tmp_path / "rtls.csv"
        p.write_text(RTLS_HEADER + body)
        with pytest.raises(MalformedRowError) as info:
            load_rtls_trace(p)
        assert info.value.row == row
        assert str(info.value).startswith(f"row {row}: {message}")

    def test_non_monotonic_sorted_with_warning(self, tmp_path, caplog):
        p = tmp_path / "rtls.csv"
        p.write_text(RTLS_HEADER + "5,t1,1.0,0.0,0.0\n1,t2,2.0,0.0,0.0\n")
        with caplog.at_level("WARNING"):
            trace = load_rtls_trace(p)
        assert trace.timestamps_ms.tolist() == [1, 5]
        assert [trace.tracker_names[c] for c in trace.tracker_codes] == ["t2", "t1"]
        assert trace.points.tolist() == [[2.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        assert any("non-monotonic" in r.message for r in caplog.records)

    def test_monotonic_file_does_not_warn(self, tmp_path, caplog):
        p = tmp_path / "rtls.csv"
        p.write_text(RTLS_HEADER + "1,t1,1.0,0.0,0.0\n1,t2,2.0,0.0,0.0\n")
        with caplog.at_level("WARNING"):
            load_rtls_trace(p)
        assert not any("non-monotonic" in r.message for r in caplog.records)

    def test_equal_timestamps_keep_file_order(self, tmp_path):
        p = tmp_path / "rtls.csv"
        p.write_text(
            RTLS_HEADER
            + "7,t1,1.0,0.0,0.0\n7,t2,5.0,0.0,0.0\n7,t1,2.0,0.0,0.0\n3,t1,9.0,0.0,0.0\n"
        )
        trace = load_rtls_trace(p)
        assert trace.timestamps_ms.tolist() == [3, 7, 7, 7]
        assert trace.points[:, 0].tolist() == [9.0, 1.0, 5.0, 2.0]
        # The MaterialTracker position is the last sample in that order.
        fragment = analyze_dynamics([], trace, [], {}, {}, "P").fragment
        trackers = fragment.query(kinds={NodeKind.MATERIAL_TRACKER})
        assert [(n.name, n.labels["position.x"]) for n in trackers] == [("t1", 2.0), ("t2", 5.0)]

    def test_codes_follow_name_order(self, tmp_path):
        p = tmp_path / "labeled.csv"
        p.write_text(
            "timestamp_ms,tracker_id,x_m,y_m,z_m,location_label\n"
            "1,tb,0.0,0.0,0.0,Z\n2,ta,0.0,0.0,0.0,\n3,tb,0.0,0.0,0.0,A\n"
        )
        trace = load_rtls_trace(p)
        assert trace.tracker_names == ("ta", "tb")
        assert trace.tracker_codes.tolist() == [1, 0, 1]
        assert trace.label_names == ("A", "Z")
        assert trace.label_codes.tolist() == [1, -1, 0]

    def test_from_samples_equals_load(self, tmp_path, mini_plant):
        paths = mini_plant.write_outputs(tmp_path)
        loaded = load_rtls_trace(paths["labeled_rtls_csv"])
        built = RtlsTrace.from_samples([RtlsSample(*r) for r in mini_plant.rtls_rows])
        assert len(loaded) == len(built) == len(mini_plant.rtls_rows)
        for column in ("timestamps_ms", "points", "tracker_codes", "label_codes"):
            assert getattr(loaded, column).tolist() == getattr(built, column).tolist()
        assert loaded.tracker_names == built.tracker_names
        assert loaded.label_names == built.label_names


class TestDetectEvents:
    def test_bool_transitions(self):
        samples = _io([(1, "a", 0.0), (2, "a", 0.0), (3, "a", 1.0), (4, "a", 1.0), (5, "a", 0.0)])
        events = detect_events(samples, SignalKind.BOOL)
        assert [(e.timestamp_ms, e.direction) for e in events.events] == [
            (3, EventDirection.RISING),
            (5, EventDirection.FALLING),
        ]

    def test_constant_series_no_events(self):
        samples = _io([(1, "a", 1.0), (2, "a", 1.0), (3, "a", 1.0)])
        assert len(detect_events(samples, SignalKind.BOOL)) == 0

    def test_analog_single_crossing(self):
        samples = _io([(t, "a", float(t)) for t in range(0, 11)])
        events = detect_events(samples, SignalKind.ANALOG, threshold=5.0, hysteresis=1.0)
        assert [e.direction for e in events.events] == [EventDirection.CROSSING]

    def test_analog_hysteresis_suppresses_chatter(self):
        values = [0.0, 5.1, 4.9, 5.1, 4.9, 10.0]
        samples = _io([(i, "a", v) for i, v in enumerate(values)])
        events = detect_events(samples, SignalKind.ANALOG, threshold=5.0, hysteresis=1.0)
        assert len(events.events) == 1  # only the decisive excursion fires


class TestTimestampBound:
    """API callers' timestamps are held to the loaders' 2**62 ms bound."""

    @pytest.mark.parametrize("ts", [2**62, 2**63 + 5, -(2**62)])
    def test_match_events(self, ts):
        trace = _rtls([(0, "t1", 0.0, 0.0, 0.0, None)])
        events = EventSeries("a", [SignalEvent(ts, EventDirection.RISING)])
        with pytest.raises(TraceError, match="below 2\\*\\*62 ms"):
            match_events(events, trace, 500)

    @pytest.mark.parametrize("ts", [2**62, 2**63, -(2**63) - 1])
    def test_from_samples(self, ts):
        with pytest.raises(TraceError, match="below 2\\*\\*62 ms"):
            _rtls([(0, "t1", 0.0, 0.0, 0.0, None), (ts, "t1", 1.0, 0.0, 0.0, None)])

    def test_largest_allowed_timestamp(self):
        ts = 2**62 - 1
        trace = _rtls([(ts, "t1", 1.0, 0.0, 0.0, None)])
        events = EventSeries("a", [SignalEvent(ts, EventDirection.RISING)])
        assert match_events(events, trace, 500).points.tolist() == [[1.0, 0.0, 0.0]]


class TestMatchEvents:
    def test_picks_nearest_in_time(self):
        events = detect_events(_io([(900, "a", 0.0), (1000, "a", 1.0)]))
        rtls = _rtls([(990, "t1", 1.0, 0.0, 0.0, None), (1030, "t1", 2.0, 0.0, 0.0, None)])
        series = match_events(events, rtls, 500)
        assert series.points.tolist() == [[1.0, 0.0, 0.0]]

    def test_event_outside_window_skipped(self):
        events = detect_events(_io([(0, "a", 0.0), (1000, "a", 1.0)]))
        rtls = _rtls([(1600, "t1", 1.0, 0.0, 0.0, None)])
        series = match_events(events, rtls, 500)
        assert len(series) == 0

    def test_tie_broken_by_earlier_then_tracker(self):
        events = detect_events(_io([(0, "a", 0.0), (1000, "a", 1.0)]))
        rtls = _rtls(
            [
                (990, "t2", 1.0, 0.0, 0.0, None),
                (1010, "t1", 2.0, 0.0, 0.0, None),
            ]
        )
        assert match_events(events, rtls, 500).points.tolist() == [[1.0, 0.0, 0.0]]
        rtls = _rtls(
            [
                (1000, "t2", 3.0, 0.0, 0.0, None),
                (1000, "t1", 4.0, 0.0, 0.0, None),
            ]
        )
        assert match_events(events, rtls, 500).points.tolist() == [[4.0, 0.0, 0.0]]

    def test_equal_distance_and_equal_timestamps_across_three_trackers(self):
        events = EventSeries("a", [SignalEvent(1000, EventDirection.RISING)])
        rtls = _rtls(
            [
                (990, "t3", 1.0, 0.0, 0.0, None),
                (990, "t2", 2.0, 0.0, 0.0, None),
                (990, "t1", 3.0, 0.0, 0.0, None),
                (990, "t1", 4.0, 0.0, 0.0, None),
                (1010, "t0", 5.0, 0.0, 0.0, None),
            ]
        )
        # Equal |dt|: the earlier samples; of those the smallest tracker id,
        # and of its two samples the first.
        assert match_events(events, rtls, 500).points.tolist() == [[3.0, 0.0, 0.0]]

    def test_equals_nearest_by_linear_scan(self):
        rng = random.Random(11)
        for _ in range(200):
            samples = [
                RtlsSample(rng.randint(0, 60), rng.choice(["t1", "t2", "t3"]), float(k), 0.0, 0.0)
                for k in range(rng.randint(0, 12))
            ]
            times = sorted(rng.sample(range(-20, 80), rng.randint(1, 8)))
            events = EventSeries("a", [SignalEvent(t, EventDirection.RISING) for t in times])
            window = rng.randint(0, 15)
            ordered = sorted(samples, key=lambda s: s.timestamp_ms)
            expected = []
            for t in times:
                near = [s for s in ordered if abs(s.timestamp_ms - t) <= window]
                if near:
                    best = min(near, key=lambda s: (abs(s.timestamp_ms - t), s.timestamp_ms, s.tracker_id))
                    expected.append((t, (best.x, best.y, best.z)))
            series = match_events(events, RtlsTrace.from_samples(samples), window)
            points = [tuple(p) for p in series.points.tolist()]
            assert list(zip(series.timestamps_ms.tolist(), points)) == expected

    def test_mini_every_sensor_event_matched(self, mini_plant, tmp_path):
        paths = mini_plant.write_outputs(tmp_path)
        io_samples = load_io_trace(paths["io_csv"])
        rtls = load_rtls_trace(paths["rtls_csv"])
        by_tag = {}
        for s in io_samples:
            by_tag.setdefault(s.tag, []).append(s)
        for tag in ("S_occ_1_1", "S_occ_1_2"):
            events = detect_events(by_tag[tag])
            assert len(events) > 0
            series = match_events(events, rtls, 500)
            assert len(series) == len(events)


class TestEstimatePosition:
    def test_mean(self):
        s = PositionSeries("a", [1, 2], [(0.0, 0.0, 0.0), (2.0, 0.0, 0.0)])
        est = estimate_position(s, min_matches=2)
        assert est.status is EstimateStatus.KNOWN
        assert est.mean == (1.0, 0.0, 0.0)

    def test_below_min_matches_unknown(self):
        s = PositionSeries("a", [1], [(1.0, 1.0, 1.0)])
        est = estimate_position(s, min_matches=5)
        assert est.status is EstimateStatus.UNKNOWN
        assert est.mean is None
        assert est.match_count == 1

    def test_identical_points(self):
        s = PositionSeries("a", [1, 2, 3], [(1.0, 2.0, 0.5)] * 3)
        est = estimate_position(s, min_matches=3)
        assert est.mean == (1.0, 2.0, 0.5)

    def test_mean_order_free(self):
        pts = [(1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0, 8.0, 9.0)]
        a = estimate_position(PositionSeries("a", [1, 2, 3], pts), 3)
        b = estimate_position(PositionSeries("a", [1, 2, 3], list(reversed(pts))), 3)
        assert a.mean == b.mean


class TestLabeledSegments:
    def test_runs_split_on_label_change_and_gaps(self):
        rows = [
            (1, "t1", 0.0, 0.0, 0.0, "A"),
            (2, "t1", 0.1, 0.0, 0.0, "A"),
            (3, "t1", 0.2, 0.0, 0.0, None),
            (4, "t1", 0.3, 0.0, 0.0, "B"),
            (5, "t1", 0.4, 0.0, 0.0, "A"),
        ]
        segments = split_labeled_segments(_rtls(rows))
        labels = [(label, len(series)) for label, series in segments]
        assert labels == [("A", 2), ("B", 1), ("A", 1)]
