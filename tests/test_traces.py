import logging
import random

import numpy as np
import pytest

from plantrecon import traces
from plantrecon.dynamics import analyze_dynamics, component_event_series
from plantrecon.graph import NodeKind
from plantrecon.traces import (
    EstimateStatus,
    MalformedRowError,
    PositionEstimate,
    SignalKind,
    TraceError,
    detect_events,
    estimate_position,
    load_io_trace,
    load_rtls_trace,
    match_events,
    split_labeled_segments,
)

from oracles import events_oracle, io_trace_oracle, rtls_trace_oracle


def _events(rows, *args):
    """The event times of one tag's ``(timestamp_ms, value)`` rows."""
    times, values = zip(*rows)
    return detect_events(times, values, *args).tolist()


def _label(trace, row):
    code = int(trace.label_codes[row])
    return None if code < 0 else trace.label_names[code]


RTLS_HEADER = "timestamp_ms,tracker_id,x_m,y_m,z_m\n"


class TestLoadIo:
    def test_three_valid_rows(self, tmp_path):
        p = tmp_path / "io.csv"
        p.write_text("timestamp_ms,tag,value\n1,a,0.0\n2,a,1.0\n3,b,0.0\n")
        trace = load_io_trace(p)
        assert len(trace) == 3
        assert trace.timestamps_ms.tolist() == [1, 2, 3]
        assert trace.values.tolist() == [0.0, 1.0, 0.0]
        assert [trace.tag_names[c] for c in trace.tag_codes] == ["a", "a", "b"]

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
            trace = load_io_trace(p)
        assert trace.timestamps_ms.tolist() == [1, 5]
        assert any("non-monotonic" in r.message for r in caplog.records)

    @pytest.mark.parametrize(
        ("body", "row", "message"),
        [
            ("1,a\n", 2, "expected 3 fields, got 2"),
            ("1,,0.0\n", 2, "empty tag name"),
            ("1,a,nan\n", 2, "non-finite value"),
            ("1,a,0.0\n2,a,inf\n", 3, "non-finite value"),
            ("1,a,0.0\n\n3,a,-inf\n", 4, "non-finite value"),
        ],
    )
    def test_malformed_row_reported_by_number(self, tmp_path, body, row, message):
        p = tmp_path / "io.csv"
        p.write_text("timestamp_ms,tag,value\n" + body)
        with pytest.raises(MalformedRowError) as info:
            load_io_trace(p)
        assert info.value.row == row
        assert str(info.value) == f"row {row}: {message}"

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

    def test_equal_timestamps_keep_file_order(self, tmp_path, load_rows):
        p = tmp_path / "rtls.csv"
        p.write_text(
            RTLS_HEADER
            + "7,t1,1.0,0.0,0.0\n7,t2,5.0,0.0,0.0\n7,t1,2.0,0.0,0.0\n3,t1,9.0,0.0,0.0\n"
        )
        trace = load_rtls_trace(p)
        assert trace.timestamps_ms.tolist() == [3, 7, 7, 7]
        assert trace.points[:, 0].tolist() == [9.0, 1.0, 5.0, 2.0]
        # The MaterialTracker position is the last sample in that order.
        empty_io = load_rows(load_io_trace, [])
        fragment = analyze_dynamics(empty_io, trace, [], {}, {}, "P").fragment
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


# Trace files for both paths of ``traces._time_sorted``: (file text,
# loader, oracle, whether the rows are already in time order). Names
# appear out of name order, so each code column is remapped.
_TIME_ORDER_CASES = {
    "rtls-in-order": (
        RTLS_HEADER + "1,tb,1.0,0.0,0.0\n1,ta,2.0,0.0,0.0\n4,tb,3.0,0.5,0.0\n",
        load_rtls_trace, rtls_trace_oracle, True,
    ),
    "rtls-in-order-labeled": (
        "timestamp_ms,tracker_id,x_m,y_m,z_m,location_label\n"
        "1,tb,1.0,0.0,0.0,Z\n2,ta,2.0,0.0,0.0,\n2,tb,3.0,0.0,0.0,A\n5,ta,4.0,0.0,0.0,Z\n",
        load_rtls_trace, rtls_trace_oracle, True,
    ),
    "rtls-out-of-order": (
        "timestamp_ms,tracker_id,x_m,y_m,z_m,location_label\n"
        "7,tb,1.0,0.0,0.0,Z\n3,ta,2.0,0.0,0.0,A\n7,ta,3.0,0.0,0.0,\n-2,tb,4.0,0.0,0.0,A\n",
        load_rtls_trace, rtls_trace_oracle, False,
    ),
    "io-out-of-order": (
        "timestamp_ms,tag,value\n5,b,1.0\n2,a,0.0\n5,a,1.0\n1,b,0.0\n",
        load_io_trace, io_trace_oracle, False,
    ),
}


class TestTimeSorted:
    """A trace already in time order keeps the loader's columns, and one
    out of order is gathered; either way it equals the row-by-row oracle
    column for column, dtypes included, with codes in name order."""

    @pytest.mark.parametrize("case", list(_TIME_ORDER_CASES))
    def test_equals_oracle(self, tmp_path, case):
        text, load, oracle, in_order = _TIME_ORDER_CASES[case]
        p = tmp_path / "trace.csv"
        p.write_text(text)
        trace, expected = load(p), oracle(p)
        # The loader's own buffer, or the gathered copy.
        assert trace.timestamps_ms.flags.owndata is not in_order
        for name, want in vars(expected).items():
            got = getattr(trace, name)
            if isinstance(want, np.ndarray):
                assert (got.dtype, got.shape) == (want.dtype, want.shape), name
                assert got.tolist() == want.tolist(), name
            else:
                assert got == want, name
        # Code order is name order: every names tuple is sorted.
        name_tuples = [v for v in vars(trace).values() if isinstance(v, tuple)]
        assert all(list(names) == sorted(names) for names in name_tuples)


class TestDetectEvents:
    def test_bool_transitions(self):
        rows = [(1, 0.0), (2, 0.0), (3, 1.0), (4, 1.0), (5, 0.0)]
        assert _events(rows, SignalKind.BOOL) == [3, 5]

    def test_constant_series_no_events(self):
        assert _events([(1, 1.0), (2, 1.0), (3, 1.0)], SignalKind.BOOL) == []

    def test_analog_single_crossing(self):
        rows = [(t, float(t)) for t in range(0, 11)]
        assert _events(rows, SignalKind.ANALOG, 5.0, 1.0) == [6]

    def test_analog_hysteresis_suppresses_chatter(self):
        values = [0.0, 5.1, 4.9, 5.1, 4.9, 10.0]
        rows = list(enumerate(values))
        # only the decisive excursion fires
        assert _events(rows, SignalKind.ANALOG, 5.0, 1.0) == [5]

    def test_unsorted_samples_raise(self):
        with pytest.raises(TraceError, match="sorted"):
            _events([(2, 0.0), (1, 1.0)])

    def test_equal_timestamps_give_one_event(self):
        assert _events([(1, 0.0), (2, 1.0), (2, 0.0), (2, 1.0), (3, 1.0)]) == [2]

    def test_values_at_band_edges_fire(self):
        rows = [(1, 4.0), (2, 5.0), (3, 6.0), (4, 5.0), (5, 4.0)]
        assert _events(rows, SignalKind.ANALOG, 5.0, 1.0) == [3, 5]

    def test_value_at_zero_width_threshold_counts_as_above(self):
        rows = [(1, 0.0), (2, 5.0), (3, 4.0), (4, 5.0)]
        assert _events(rows, SignalKind.ANALOG, 5.0, 0.0) == [2, 3, 4]

    def test_equals_scalar_oracle(self):
        rng = random.Random(7)
        for _ in range(4000):
            n = rng.randint(1, 12)
            # A narrow time range makes equal timestamps common.
            times = sorted(rng.randint(0, 8) for _ in range(n))
            if rng.random() < 0.5:
                kind, threshold, hysteresis = SignalKind.BOOL, 0.5, 0.0
                levels = [0.0, 0.5, 1.0]
            else:
                kind = SignalKind.ANALOG
                threshold = rng.choice([0.0, 1.5, 2.0])
                hysteresis = rng.choice([0.0, 0.0, 0.25, 1.0])
                levels = [threshold + k * hysteresis for k in (-2, -1, 0, 1, 2)]
            values = [rng.choice([*levels, rng.uniform(-1.0, 4.0)]) for _ in range(n)]
            rows = list(zip(times, values))
            expected = events_oracle(rows, kind is SignalKind.ANALOG, threshold, hysteresis)
            assert _events(rows, kind, threshold, hysteresis) == expected, rows


_BOUND = "timestamp magnitude must be below 2**62 ms"

# Rows that each break a row rule, some several at once, and the words
# of the rule the row loop checks first: the field count, the timestamp's
# and floats' conversions, a non-finite float, an empty name, then the
# timestamp bound.
_BAD_ROWS = [
    (load_io_trace, "2,a,inf", "non-finite value"),
    (load_io_trace, "2,a,nan", "non-finite value"),
    (load_io_trace, "2,,1.0", "empty tag name"),
    (load_io_trace, "2,a,x", "could not convert string to float: 'x'"),
    (load_io_trace, "1.5,a,1.0", "invalid literal for int() with base 10: '1.5'"),
    (load_io_trace, "True,a,1.0", "invalid literal for int() with base 10: 'True'"),
    (load_io_trace, "4611686018427387904,a,1.0", _BOUND),
    (load_io_trace, "-9223372036854775809,a,1.0", _BOUND),
    (load_io_trace, "1,a", "expected 3 fields, got 2"),
    (load_io_trace, "1,a,0.0,x", "expected 3 fields, got 4"),
    (load_io_trace, "9223372036854775808,,nan", "non-finite value"),
    (load_io_trace, "4611686018427387904,,0.5", "empty tag name"),
    (load_rtls_trace, "2,t1,nan,0.0,0.0", "non-finite coordinate"),
    (load_rtls_trace, "2,t1,0.0,0.0,-inf", "non-finite coordinate"),
    (load_rtls_trace, "2,,0.0,0.0,0.0", "empty tracker id"),
    (load_rtls_trace, "2,t1,0.0,x,0.0", "could not convert string to float: 'x'"),
    (load_rtls_trace, "2.0,t1,0.0,0.0,0.0", "invalid literal for int() with base 10: '2.0'"),
    (load_rtls_trace, "-4611686018427387904,t1,0.0,0.0,0.0", _BOUND),
    (load_rtls_trace, "9223372036854775808,t1,0.0,0.0,0.0", _BOUND),
    (load_rtls_trace, "1,t1,0.0,0.0", "expected 5 fields, got 4"),
    (load_rtls_trace, "1,t1,0.0,0.0,0.0,Z", "expected 5 fields, got 6"),
    (load_rtls_trace, "4611686018427387904,,0.0,nan,0.0", "non-finite coordinate"),
    (load_rtls_trace, "9223372036854775808,,0.0,0.5,0.0", "empty tracker id"),
]

# Per loader: the header and a good first row, plain and with a quoted name.
_FIRST_ROWS = {
    load_io_trace: ("timestamp_ms,tag,value\n", "1,a,0.0", '1,"a",0.0'),
    load_rtls_trace: (RTLS_HEADER, "1,t1,0.0,0.0,0.0", '1,"t1",0.0,0.0,0.0'),
}


class TestRowRules:
    """Each row rule refuses the same row with the same words on both of
    the loader's paths: in a plain block, whose column check must hand it
    to the row loop, and after a quoted field, which sends every row
    through the row loop from the start."""

    @pytest.mark.parametrize("path", [1, 2], ids=["block", "row-loop"])
    @pytest.mark.parametrize(
        ("load", "row", "message"),
        [pytest.param(*case, id=f"{case[0].__name__}:{case[1]}") for case in _BAD_ROWS],
    )
    def test_refused_on_both_paths(self, tmp_path, path, load, row, message):
        p = tmp_path / "trace.csv"
        p.write_text(_FIRST_ROWS[load][0] + _FIRST_ROWS[load][path] + "\n" + row + "\n")
        with pytest.raises(MalformedRowError) as info:
            load(p)
        assert str(info.value) == f"row 3: {message}"


class TestFieldLimit:
    """A field longer than the csv field limit is a malformed row, in the
    header and in the body, not a csv.Error."""

    LONG = "t" * 140_000

    @pytest.mark.parametrize(
        ("load", "header", "body"),
        [
            (load_io_trace, "timestamp_ms,tag,value\n", "{n},a,0.0\n"),
            (load_rtls_trace, RTLS_HEADER, "{n},t1,0.0,1.0,2.0\n"),
        ],
    )
    @pytest.mark.parametrize("good_rows", [1, 3000])
    def test_body(self, tmp_path, load, header, body, good_rows):
        p = tmp_path / "trace.csv"
        rows = "".join(body.format(n=n) for n in range(good_rows))
        p.write_text(header + rows + body.format(n=0).replace(",", f",{self.LONG}", 1) + rows)
        with pytest.raises(MalformedRowError) as info:
            load(p)
        assert str(info.value) == f"row {good_rows + 2}: field larger than field limit (131072)"

    @pytest.mark.parametrize("load", [load_io_trace, load_rtls_trace])
    def test_header(self, tmp_path, load):
        p = tmp_path / "trace.csv"
        p.write_text(f"timestamp_ms,{self.LONG},value\n1,a,0.0\n")
        with pytest.raises(MalformedRowError) as info:
            load(p)
        assert info.value.row == 1
        assert "field larger than field limit" in str(info.value)


class TestTimestampBound:
    """API callers' timestamps are held to the loaders' rules: integers,
    of magnitude below 2**62 ms."""

    @pytest.mark.parametrize("ts", [2**62, 2**63 + 5, -(2**62)])
    def test_match_events(self, load_rows, ts):
        trace = load_rows(load_rtls_trace, [(0, "t1", 0.0, 0.0, 0.0, None)])
        with pytest.raises(TraceError, match="below 2\\*\\*62 ms"):
            match_events([ts], trace, 500)

    def test_largest_allowed_timestamp(self, load_rows):
        ts = 2**62 - 1
        trace = load_rows(load_rtls_trace, [(ts, "t1", 1.0, 0.0, 0.0, None)])
        assert match_events([ts], trace, 500).tolist() == [[1.0, 0.0, 0.0]]

    @pytest.mark.parametrize("events", [[1.9, 2.2], np.array([1.9, 2.2]), [1, True], np.array([True])])
    def test_match_events_non_integer_times(self, load_rows, events):
        rtls = load_rows(load_rtls_trace, [(1, "t1", 0.0, 0.0, 0.0, None), (2, "t1", 1.0, 0.0, 0.0, None)])
        with pytest.raises(TraceError, match="timestamp must be an integer"):
            match_events(events, rtls, 500)


class TestMatchEvents:
    def test_picks_nearest_in_time(self, load_rows):
        events = _events([(900, 0.0), (1000, 1.0)])
        rtls = load_rows(load_rtls_trace, [(990, "t1", 1.0, 0.0, 0.0, None), (1030, "t1", 2.0, 0.0, 0.0, None)])
        series = match_events(events, rtls, 500)
        assert series.tolist() == [[1.0, 0.0, 0.0]]

    def test_event_outside_window_skipped(self, load_rows):
        events = _events([(0, 0.0), (1000, 1.0)])
        rtls = load_rows(load_rtls_trace, [(1600, "t1", 1.0, 0.0, 0.0, None)])
        series = match_events(events, rtls, 500)
        assert len(series) == 0

    def test_tie_broken_by_earlier_then_tracker(self, load_rows):
        events = _events([(0, 0.0), (1000, 1.0)])
        rtls = load_rows(
                load_rtls_trace,
            [
                (990, "t2", 1.0, 0.0, 0.0, None),
                (1010, "t1", 2.0, 0.0, 0.0, None),
            ]
        )
        assert match_events(events, rtls, 500).tolist() == [[1.0, 0.0, 0.0]]
        rtls = load_rows(
                load_rtls_trace,
            [
                (1000, "t2", 3.0, 0.0, 0.0, None),
                (1000, "t1", 4.0, 0.0, 0.0, None),
            ]
        )
        assert match_events(events, rtls, 500).tolist() == [[4.0, 0.0, 0.0]]

    def test_equal_distance_and_equal_timestamps_across_three_trackers(self, load_rows):
        events = [1000]
        rtls = load_rows(
                load_rtls_trace,
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
        assert match_events(events, rtls, 500).tolist() == [[3.0, 0.0, 0.0]]

    def test_equals_nearest_by_linear_scan(self, load_rows):
        rng = random.Random(11)
        for _ in range(200):
            samples = [
                (rng.randint(0, 60), rng.choice(["t1", "t2", "t3"]), float(k), 0.0, 0.0, None)
                for k in range(rng.randint(0, 12))
            ]
            times = sorted(rng.sample(range(-20, 80), rng.randint(1, 8)))
            window = rng.randint(0, 15)
            ordered = sorted(samples, key=lambda s: s[0])
            expected = []
            for t in times:
                near = [s for s in ordered if abs(s[0] - t) <= window]
                if near:
                    best = min(near, key=lambda s: (abs(s[0] - t), s[0], s[1]))
                    expected.append(best[2:5])
            series = match_events(times, load_rows(load_rtls_trace, samples), window)
            assert [tuple(p) for p in series.tolist()] == expected

    def test_mini_every_sensor_event_matched(self, mini_plant, tmp_path):
        paths = mini_plant.write_outputs(tmp_path)
        events_by_tag = component_event_series(load_io_trace(paths["io_csv"]), {})
        rtls = load_rtls_trace(paths["rtls_csv"])
        for tag in ("S_occ_1_1", "S_occ_1_2"):
            events = events_by_tag[tag]
            assert len(events) > 0
            series = match_events(events, rtls, 500)
            assert len(series) == len(events)


class TestEstimatePosition:
    def test_mean(self):
        s = np.array([(0.0, 0.0, 0.0), (2.0, 0.0, 0.0)])
        est = estimate_position(s, min_matches=2)
        assert est.status is EstimateStatus.KNOWN
        assert est.mean == (1.0, 0.0, 0.0)

    def test_below_min_matches_unknown(self):
        s = np.array([(1.0, 1.0, 1.0)])
        est = estimate_position(s, min_matches=5)
        assert est.status is EstimateStatus.UNKNOWN
        assert est.mean is None
        assert est.match_count == 1

    def test_identical_points(self):
        s = np.array([(1.0, 2.0, 0.5)] * 3)
        est = estimate_position(s, min_matches=3)
        assert est.mean == (1.0, 2.0, 0.5)

    def test_mean_order_free(self):
        pts = [(1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0, 8.0, 9.0)]
        a = estimate_position(np.array(pts), 3)
        b = estimate_position(np.array(list(reversed(pts))), 3)
        assert a.mean == b.mean

    def test_status_follows_the_mean(self):
        assert PositionEstimate((1.0, 2.0, 3.0), 0).status is EstimateStatus.KNOWN
        assert PositionEstimate(None, 9).status is EstimateStatus.UNKNOWN


class TestLabeledSegments:
    def test_runs_split_on_label_change_and_gaps(self, load_rows):
        rows = [
            (1, "t1", 0.0, 0.0, 0.0, "A"),
            (2, "t1", 0.1, 0.0, 0.0, "A"),
            (3, "t1", 0.2, 0.0, 0.0, None),
            (4, "t1", 0.3, 0.0, 0.0, "B"),
            (5, "t1", 0.4, 0.0, 0.0, "A"),
        ]
        segments = split_labeled_segments(load_rows(load_rtls_trace, rows))
        labels = [(label, len(series)) for label, series in segments]
        assert labels == [("A", 2), ("B", 1), ("A", 1)]


# Field values that pass or fail the row checks in different ways.
_FIELD_VALUES = [
    "", "nan", "-inf", "1e400", " 7", "1_0", "0x10", "abc", "1.5", "١٢", "0",
    "4611686018427387903", "4611686018427387904", "-4611686018427387904",
    "9223372036854775808", "99999999999999999999999",
]


def _mutate_csv(data: bytes, rnd: random.Random) -> bytes:
    """One to three edits of a trace CSV: blank, duplicated and truncated
    lines, CRLF or CR line ends, quoted or replaced fields, a field moved
    to the next line and byte replacements."""
    for _ in range(rnd.randint(1, 3)):
        lines = data.split(b"\n")
        if len(lines) == 1:
            lines.append(b"")
        at = rnd.randrange(1, len(lines))
        line = lines[at]
        fields = line.split(b",")
        op = rnd.choice(
            ["blank", "crlf", "cr", "quote", "duplicate", "truncate", "field", "move", "byte", "byte"]
        )
        if op == "blank":
            lines.insert(at, rnd.choice([b"", b" "]))
        elif op == "crlf":
            start = rnd.randrange(len(lines))
            lines[start:] = [l + b"\r" if l else l for l in lines[start:]]
        elif op == "cr":
            lines[at] += b"\r"
        elif op == "quote":
            k = rnd.randrange(len(fields))
            quoted = rnd.choice([b'"%s"', b'"%s,x"', b'"%s""x"', b'"%s'])
            fields[k] = quoted % fields[k]
            lines[at] = b",".join(fields)
        elif op == "duplicate":
            lines.insert(at, line)
        elif op == "truncate":
            lines[at] = line[: rnd.randrange(len(line) + 1)]
            if rnd.random() < 0.3:
                lines[at + 1:] = []
        elif op == "field":
            fields[rnd.randrange(len(fields))] = rnd.choice(_FIELD_VALUES).encode()
            lines[at] = b",".join(fields)
        elif op == "move" and at + 1 < len(lines) and len(fields) > 1:
            # The last field starts the next line: both lines are wrong,
            # but the block holds as many commas as before.
            lines[at] = b",".join(fields[:-1])
            lines[at + 1] = fields[-1] + b"," + lines[at + 1]
        elif op == "byte" and data:
            pos = rnd.randrange(len(data))
            byte = rnd.choice([rnd.randrange(256), *b',\n\r"0.-e '])
            data = data[:pos] + bytes([byte]) + data[pos + 1:]
            continue
        data = b"\n".join(lines)
    return data


def _outcome(load, path):
    """The loaded columns and names, or the error's type, message and row."""
    try:
        trace = load(path)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "row", None)
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(trace).items()}


class TestBlockParsing:
    """The block-parsing loaders equal the row-by-row oracles on mutated
    copies of the mini plant's trace CSVs, with blocks that split the file
    and with blocks that hold all of it."""

    @pytest.fixture(scope="class")
    def cases(self, mini_plant, tmp_path_factory):
        out = tmp_path_factory.mktemp("block_parsing")
        paths = mini_plant.write_outputs(out)
        rnd = random.Random(1414)
        cases = []
        for key, load, oracle in [
            ("io_csv", load_io_trace, io_trace_oracle),
            ("rtls_csv", load_rtls_trace, rtls_trace_oracle),
            ("labeled_rtls_csv", load_rtls_trace, rtls_trace_oracle),
        ]:
            original = paths[key].read_bytes()
            for k in range(100):
                path = out / f"{k}-{paths[key].name}"
                path.write_bytes(_mutate_csv(original, rnd) if k else original)
                cases.append((load, path, _outcome(oracle, path)))
        return cases

    @pytest.mark.parametrize("block_chars", [200, None])
    def test_equal_to_row_loop(self, cases, monkeypatch, block_chars):
        if block_chars is not None:
            monkeypatch.setattr(traces, "_BLOCK_CHARS", block_chars)
        for load, path, expected in cases:
            assert _outcome(load, path) == expected, path
        # The mutations reach both outcomes and the resumed row loop.
        raised = [e for _, _, e in cases if isinstance(e, tuple)]
        assert 50 < len(raised) < len(cases) - 50
        assert any(e[0] is MalformedRowError and e[2] > 20 for e in raised)

    def test_line_count_only_sizes_the_columns(self, cases, monkeypatch):
        # Fewer counted lines than rows, as from a file ending its lines
        # with a lone \r or one that grew after it was counted: the
        # columns extend as the blocks fill them.
        monkeypatch.setattr(traces, "_line_count", lambda path: 1)
        monkeypatch.setattr(traces, "_BLOCK_CHARS", 200)
        for load, path, expected in cases:
            assert _outcome(load, path) == expected, path

    def test_row_error_before_undecodable_chunk(self, tmp_path):
        # A block read past the byte it cannot decode: the row loop still
        # reports the bad row before it, as it does on its own.
        p = tmp_path / "io.csv"
        body = "1,a,0.0\n" * 10 + "2,a\n" + "3,a,1.0\n" * 3000
        p.write_bytes(("timestamp_ms,tag,value\n" + body).encode() + b"\xff\n")
        with pytest.raises(MalformedRowError) as info:
            load_io_trace(p)
        assert str(info.value) == "row 12: expected 3 fields, got 2"

    def test_nul_goes_to_row_loop(self, tmp_path):
        # csv.reader refuses NUL before Python 3.11, so a block holding one
        # is not plain, and the loader does what the row loop does.
        assert traces._parse_block(["1,a\0b,0.5\n"], (False, False, True)) is None
        p = tmp_path / "io.csv"
        p.write_text("timestamp_ms,tag,value\n1,a,0.0\n2,a\0b,1.0\n", encoding="utf-8")
        assert _outcome(load_io_trace, p) == _outcome(io_trace_oracle, p)
