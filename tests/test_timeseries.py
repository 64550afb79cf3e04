import dataclasses
import json
import statistics
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillm import timeseries
from pillm.simulate import FaultSpec, SimConfig, generate_corpus
from pillm.timeseries import (
    FeatureMeta,
    OrderError,
    ParseError,
    SchemaError,
    SplitRangeError,
    TableError,
    TimeSeriesTable,
    incidents_from_labels,
    load_csv,
    load_meta,
    save_csv,
    save_meta,
    split,
)

from . import reference
from .conftest import make_table

META = (
    FeatureMeta("temp", "degC", "zone temperature", "sensor"),
    FeatureMeta("cmd", "binary", "valve command", "command"),
)

CSV = "timestamp,temp,cmd,label\n0,20.5,0,0\n1,21.0,1,1\n2,19.25,0,0\n"


class TestFeatureMeta:
    def test_valid_roles_accepted(self):
        for role in ("sensor", "command", "status", "derived"):
            FeatureMeta("a", "u", "something", role)

    def test_bad_name_rejected(self):
        with pytest.raises(SchemaError):
            FeatureMeta("9lives", "u", "d", "sensor")
        with pytest.raises(SchemaError):
            FeatureMeta("has space", "u", "d", "sensor")

    def test_empty_description_rejected(self):
        with pytest.raises(SchemaError):
            FeatureMeta("a", "u", "   ", "sensor")

    def test_unknown_role_rejected(self):
        with pytest.raises(SchemaError):
            FeatureMeta("a", "u", "d", "actuator")


class TestTableInvariants:
    def test_timestamps_must_increase(self):
        with pytest.raises(OrderError):
            TimeSeriesTable(
                features=META,
                values=np.zeros((3, 2)),
                timestamps=np.array([0, 2, 2]),
            )

    def test_values_must_be_finite(self):
        values = np.zeros((2, 2))
        values[1, 0] = np.nan
        with pytest.raises(ParseError):
            TimeSeriesTable(features=META, values=values, timestamps=np.arange(2))

    def test_labels_binary_only(self):
        with pytest.raises(ParseError):
            TimeSeriesTable(
                features=META,
                values=np.zeros((2, 2)),
                timestamps=np.arange(2),
                labels=np.array([0, 2]),
            )

    def test_shape_mismatch(self):
        with pytest.raises(SchemaError):
            TimeSeriesTable(features=META, values=np.zeros((2, 3)), timestamps=np.arange(2))

    def test_duplicate_feature_names(self):
        metas = (META[0], FeatureMeta("temp", "degC", "again", "sensor"))
        with pytest.raises(SchemaError):
            TimeSeriesTable(features=metas, values=np.zeros((2, 2)), timestamps=np.arange(2))

    def test_columns_are_read_only(self, small_table):
        with pytest.raises(ValueError):
            small_table.column("x")[0] = 99.0

    def test_column_and_meta_lookup(self, small_table):
        assert small_table.column("y")[1] == 1.0
        with pytest.raises(SchemaError):
            small_table.column("nope")

    def test_slice_rows_preserves_labels(self, small_table):
        part = small_table.slice_rows(2, 5)
        assert part.num_rows == 3
        assert list(part.labels) == [1, 1, 0]
        assert list(part.timestamps) == [2, 3, 4]

    def test_equality_is_content_based(self, small_table):
        clone = TimeSeriesTable(
            features=small_table.features,
            values=small_table.values.copy(),
            timestamps=small_table.timestamps.copy(),
            labels=small_table.labels.copy(),
        )
        assert clone == small_table

    def test_values_must_be_2d(self):
        with pytest.raises(SchemaError, match="^values must be a 2-D"):
            TimeSeriesTable(features=META[:1], values=np.zeros(2), timestamps=np.arange(2))

    def test_needs_a_row(self):
        with pytest.raises(SchemaError, match="^table must contain at least one row$"):
            TimeSeriesTable(features=META, values=np.zeros((0, 2)), timestamps=np.arange(0))

    def test_timestamps_one_per_row(self):
        with pytest.raises(SchemaError, match="^timestamps must have one entry per row$"):
            TimeSeriesTable(features=META, values=np.zeros((2, 2)), timestamps=np.arange(3))

    def test_labels_one_per_row(self):
        with pytest.raises(SchemaError, match="^labels must have one entry per row$"):
            TimeSeriesTable(features=META, values=np.zeros((2, 2)), timestamps=np.arange(2), labels=np.array([0, 1, 0]))

    def test_slice_rows_rejects_bad_spans(self, small_table):
        for start, stop in ((2, 2), (0, small_table.num_rows + 1)):
            with pytest.raises(SplitRangeError, match=f"^invalid row span {start}:{stop}$"):
                small_table.slice_rows(start, stop)

    def test_equality_needs_same_features_and_labels(self, small_table):
        assert small_table.__eq__("table") is NotImplemented
        assert small_table != "table"
        features = (dataclasses.replace(small_table.features[0], description="another signal"), small_table.features[1])
        assert small_table != TimeSeriesTable(features, small_table.values, small_table.timestamps, small_table.labels)
        unlabeled = TimeSeriesTable(small_table.features, small_table.values, small_table.timestamps)
        assert small_table != unlabeled
        assert unlabeled != small_table


def _spans_to_labels(spans, n: int) -> np.ndarray:
    """The 0/1 label vector of `n` rows whose incidents are `spans`."""
    labels = np.zeros(n, dtype=np.uint8)
    for start, end in spans:
        labels[start : end + 1] = 1
    return labels


class TestIncidents:
    def test_runs_are_grouped(self):
        spans = incidents_from_labels([0, 1, 1, 0, 0, 1, 1, 0])
        assert tuple(spans) == ((1, 2), (5, 6))

    def test_edges(self):
        assert tuple(incidents_from_labels([1, 1, 1])) == ((0, 2),)
        assert tuple(incidents_from_labels([0, 0])) == ()
        assert tuple(incidents_from_labels([1, 0, 1])) == ((0, 0), (2, 2))

    def test_labels_must_be_1d(self):
        with pytest.raises(ValueError, match="^labels must be 1-D$"):
            incidents_from_labels([[0, 1], [1, 0]])

    def test_to_labels_round_trip(self):
        labels = np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=np.uint8)
        assert np.array_equal(_spans_to_labels(incidents_from_labels(labels), len(labels)), labels)

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=40))
    def test_round_trip_property(self, labels):
        spans = incidents_from_labels(labels)
        rebuilt = _spans_to_labels(spans, len(labels))
        assert np.array_equal(rebuilt, np.array(labels, dtype=np.uint8))

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=40))
    def test_matches_reference(self, labels):
        assert incidents_from_labels(labels) == tuple(reference.incidents_brute(labels))


class TestCsv:
    def test_load_basic(self):
        table = load_csv(CSV, META)
        assert table.num_rows == 3
        assert table.has_labels
        assert table.column("temp")[2] == 19.25
        assert list(table.labels) == [0, 1, 0]

    def test_metadata_must_declare_a_feature(self):
        with pytest.raises(SchemaError, match="^feature metadata must declare at least one feature$"):
            load_csv(CSV, ())

    def test_label_column_optional(self):
        table = load_csv("timestamp,temp,cmd\n0,1,0\n1,2,1\n", META)
        assert not table.has_labels

    def test_extra_columns_ignored(self):
        table = load_csv("timestamp,temp,cmd,junk\n0,1,0,zzz\n1,2,1,qqq\n", META)
        assert table.num_rows == 2

    def test_missing_feature_column(self):
        with pytest.raises(SchemaError, match="cmd"):
            load_csv("timestamp,temp\n0,1\n", META)

    def test_missing_timestamp_column(self):
        with pytest.raises(SchemaError, match="timestamp"):
            load_csv("time,temp,cmd\n0,1,0\n", META)

    def test_error_names_data_row(self):
        bad = "timestamp,temp,cmd\n0,1,0\n1,oops,1\n"
        with pytest.raises(ParseError, match="row 2"):
            load_csv(bad, META)

    def test_empty_cell_rejected(self):
        with pytest.raises(ParseError, match="row 1"):
            load_csv("timestamp,temp,cmd\n0,,1\n", META)

    def test_bad_label_rejected(self):
        with pytest.raises(ParseError, match="label"):
            load_csv("timestamp,temp,cmd,label\n0,1,0,2\n", META)

    def test_non_monotone_timestamps(self):
        with pytest.raises(OrderError, match="row 2"):
            load_csv("timestamp,temp,cmd\n5,1,0\n5,2,1\n", META)

    def test_iso_timestamps_accepted(self):
        csv = "timestamp,temp,cmd\n2024-01-01T00:00:00,1,0\n2024-01-01T00:01:00,2,1\n"
        table = load_csv(csv, META)
        assert table.timestamps[1] - table.timestamps[0] == 60

    def test_round_trip_exact(self, small_table):
        again = load_csv(save_csv(small_table), small_table.features)
        assert again == small_table

    def test_save_matches_cell_by_cell_writer(self, bias_corpus):
        assert save_csv(bias_corpus) == reference.save_csv_brute(bias_corpus)
        edges = np.array([[-0.0, 5e-324], [1e16, 0.1], [-1e-300, 22.3]])
        table = TimeSeriesTable(
            features=META,
            values=edges,
            timestamps=np.array([-5, 0, 1_700_000_000]),
            labels=np.array([1, 0, 1]),
        )
        data = save_csv(table)
        assert data == reference.save_csv_brute(table)
        assert data.splitlines()[1:3] == [b"-5,-0.0,5e-324,1", b"0,1e+16,0.1,0"]
        unlabeled = make_table({"x": edges[:, 0], "y": edges[:, 1]})
        assert unlabeled.labels is None
        assert save_csv(unlabeled) == reference.save_csv_brute(unlabeled)

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60)
    def test_round_trip_property(self, xs):
        table = make_table({"x": np.array(xs, dtype=np.float64)})
        again = load_csv(save_csv(table), table.features)
        assert np.array_equal(again.values, table.values)


def assert_matches_brute(table, data: bytes) -> None:
    """`table` holds exactly the cells `reference.load_csv_brute` reads, bit for bit."""
    stamps, rows, labels = reference.load_csv_brute(data.decode("utf-8"), table.feature_names)
    assert table.timestamps.dtype == np.int64 and table.timestamps.tolist() == stamps
    assert table.values.dtype == np.float64 and table.values.flags.c_contiguous
    assert table.values.tobytes() == np.array(rows, dtype=np.float64).tobytes()
    if labels is None:
        assert table.labels is None
    else:
        assert table.labels.dtype == np.uint8 and table.labels.tolist() == labels


def outcome(parse, text):
    """What `parse` makes of `text`: a table, or its error's type and message."""
    try:
        return parse(text, META)
    except TableError as exc:
        return type(exc), str(exc)


# Cells the row parser accepts or rejects in ways the columnar reader must match.
ODD_STAMPS = [
    "+5", "5.0", " 7", "007", "-0", "1e2", "", "#", "x", "-", "1_0",
    "2024-01-01T00:00:00", "2024-01-01T00:01:00+01:00", "123456789012345678",
    "-12345678901234567", "99999999999999999999", '"9"',
]
ODD_VALUES = [
    "nan", "inf", "-inf", "1e400", "1_0", "#", "", " ", " 1.5 ", "\x0b2", "\x1c3", "\xa04",
    "+4", "-0.0", "1E3", ".5", "5.", "0x10", "1.5e", "\u0663", '"2.5"', "2,5",
]
ODD_LABELS = ["+1", "1.0", " 1", "01", "-0", "2", "", "#", '"1"', "1 "]
ODD_JUNK = ["", "#", "1", '"a,b"', '"q"', "zé", '"x\n9,9,9"']


@st.composite
def csv_texts(draw) -> str:
    """CSV text for META, mostly well formed, with odd cells, rows and headers mixed in."""

    def rare(one_in: int) -> bool:
        return draw(st.integers(0, one_in - 1)) == 0

    names = ["timestamp", "temp", "cmd"]
    names += draw(st.lists(st.sampled_from(["label", "junk", "temp"]), unique=True))
    if rare(20):
        names.remove(draw(st.sampled_from(names)))
    header = draw(st.permutations(names))

    def cell(name: str, stamp: int) -> str:
        if name == "junk":
            return draw(st.sampled_from(ODD_JUNK)) if rare(4) else "j"
        odd = rare(40)
        if name == "timestamp":
            return draw(st.sampled_from(ODD_STAMPS)) if odd else str(stamp)
        if name == "label":
            return draw(st.sampled_from(ODD_LABELS if odd else ["0", "1"]))
        value = repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
        return draw(st.sampled_from(ODD_VALUES)) if odd else value

    lines = [",".join(header)]
    stamp = draw(st.integers(-50, 50))
    for _ in range(draw(st.integers(1, 8))):
        stamp += 0 if rare(30) else draw(st.integers(1, 3))
        cells = [cell(name, stamp) for name in header]
        if rare(10):
            cells = draw(st.sampled_from([[], [""] * len(header), cells[:-1], [*cells, "extra"]]))
        lines.append(",".join(cells))
    end = "\r\n" if rare(6) else "\n"
    return end.join(lines) + draw(st.sampled_from(["", end]))


class TestCsvIngest:
    def test_pinned_corpus_matches_brute(self, bias_corpus):
        data = save_csv(bias_corpus)
        assert timeseries._load_columns(data, bias_corpus.features) is not None
        table = load_csv(data, bias_corpus.features)
        assert table == bias_corpus
        assert_matches_brute(table, data)

    def test_large_corpus_matches_brute(self):
        corpus = generate_corpus(
            SimConfig(length=100_000, seed=5), FaultSpec("sensor_drift", 1.0, (60_000, 61_440))
        )
        data = save_csv(corpus)
        assert timeseries._load_columns(data, corpus.features) is not None
        table = load_csv(data, corpus.features)
        assert table == corpus
        assert_matches_brute(table, data)

    def test_crlf_corpus_is_read_a_column_at_a_time(self, bias_corpus):
        data = save_csv(bias_corpus)
        crlf = data.replace(b"\n", b"\r\n")
        assert timeseries._load_columns(crlf, bias_corpus.features) is not None
        want, got = load_csv(data, bias_corpus.features), load_csv(crlf, bias_corpus.features)
        assert got == want
        for column in ("values", "timestamps", "labels"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes()

    def test_crlf_reads_about_as_fast_as_lf(self):
        corpus = generate_corpus(SimConfig(length=14_400, seed=3))
        lf = save_csv(corpus)
        crlf = lf.replace(b"\n", b"\r\n")
        # Each round times both files back to back in CPU time, so that the
        # machine's other load cancels out of their ratio; the first round
        # only warms up.
        ratios = []
        for round_ in range(11):
            seconds = []
            for data in (lf, crlf):
                start = time.process_time()
                load_csv(data, corpus.features)
                seconds.append(time.process_time() - start)
            if round_:
                ratios.append(seconds[1] / seconds[0])
        assert statistics.median(ratios) <= 1.15

    def test_edge_cells_match_brute(self):
        data = (
            b"cmd,timestamp,junk,temp,label\n"
            b"-0.0,-17,x,5e-324,1\n"
            b"1e+16,0,,0.1,0\n"
            b" 2.5 ,123456789012345678,#,1E3,1\n"
            b"\n"
            b".5,123456789012345679,q,-1e-300,0,extra\n"
        )
        assert timeseries._load_columns(data, META) is not None
        assert_matches_brute(load_csv(data, META), data.replace(b"\n\n", b"\n"))

    @pytest.mark.parametrize(
        "data",
        [
            b'timestamp,temp,cmd\n0,"1",0\n',
            b'timestamp,temp,cmd,junk\n0,1,0,"x\n2,3,1,y"\n',
            b"timestamp,temp,cmd\r\n0,1,0\r",
            b"timestamp,temp,cmd\n0,1,0\n1,2\n",
            b"timestamp,temp,cmd,junk\n0,1,0,a\n1,2,1\n",
            b"timestamp,temp,cmd\n2024-01-01T00:00:00,1,0\n",
            b"timestamp,temp,cmd\n+5,1,0\n",
            b"timestamp,temp,cmd\n1234567890123456789,1,0\n",
            b"timestamp,temp,cmd\n1,1,0\n1,2,1\n",
            b"timestamp,temp,cmd\n0,1_0,0\n",
            b"timestamp,temp,cmd,label\n0,1,0, 1\n",
            b"timestamp,temp,cmd,label\n0,1,0,01\n",
            b"timestamp,temp,cmd\n0,1\x00,0\n",
            b"timestamp,temp,cmd\n\n\n",
            b"timestamp,temp,cmd\r\n\r\n\r\n",
            "timestamp,temp,cmd\n0,1,0,\u00e9\n".encode("utf-8"),
        ],
    )
    def test_row_parser_decides(self, data):
        if data.isascii():
            assert timeseries._load_columns(data, META) is None
        assert outcome(load_csv, data) == outcome(timeseries._load_rows, data.decode("utf-8"))

    @given(csv_texts())
    @settings(max_examples=400, deadline=None)
    def test_same_outcome_as_row_parser(self, text):
        got, want = outcome(load_csv, text), outcome(timeseries._load_rows, text)
        assert got == want
        if isinstance(want, TimeSeriesTable):
            assert got.values.tobytes() == want.values.tobytes()

    def test_byte_order_mark_and_crlf_accepted(self, bias_corpus):
        data = save_csv(bias_corpus)
        bom = b"\xef\xbb\xbf" + data
        assert load_csv(bom, bias_corpus.features) == bias_corpus
        assert load_csv(bom.replace(b"\n", b"\r\n"), bias_corpus.features) == bias_corpus
        assert load_csv(bom.decode("utf-8"), bias_corpus.features) == bias_corpus
        meta = save_meta(bias_corpus.features).encode("utf-8")
        assert load_meta(b"\xef\xbb\xbf" + meta) == bias_corpus.features

    def test_invalid_utf8_names_offset(self):
        with pytest.raises(ParseError, match=r"^CSV is not valid UTF-8: byte 0xff at offset 0$"):
            load_csv(b"\xff\xfetimestamp,temp,cmd\n0,1,0\n", META)
        with pytest.raises(ParseError, match=r"at offset 24$"):
            load_csv(b"\xef\xbb\xbftimestamp,temp,cmd\n0,\xe9,0\n", META)
        with pytest.raises(SchemaError, match=r"^metadata is not valid UTF-8: byte 0xff at offset 0$"):
            load_meta(b"\xff\xfe[]")

    def test_unsplittable_line_is_a_parse_error(self):
        with pytest.raises(ParseError, match="^line 2: new-line character seen in unquoted field"):
            load_csv(b"timestamp,temp,cmd\n0,1\r5,0\n", META)

    def test_out_of_range_stamp(self):
        with pytest.raises(ParseError, match="row 1: timestamp '99999999999999999999' is out of range"):
            load_csv("timestamp,temp,cmd\n99999999999999999999,1,0\n", META)


class TestMeta:
    def test_round_trip(self):
        again = load_meta(save_meta(META))
        assert again == META

    def test_missing_field(self):
        with pytest.raises(SchemaError, match="unit"):
            load_meta('[{"name": "a", "description": "d", "role": "sensor"}]')

    def test_not_a_list(self):
        with pytest.raises(SchemaError):
            load_meta('{"name": "a"}')

    def test_field_that_is_not_a_string(self):
        ok = {"name": "a", "unit": "degC", "description": "d", "role": "sensor"}
        bad = {"name": "zone_temp", "unit": None, "description": None, "role": "sensor"}
        with pytest.raises(SchemaError, match=r"^metadata entry 1 field 'unit' must be a string, got None$"):
            load_meta(json.dumps([ok, bad]))

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            load_meta("{nope")


class TestSplit:
    def test_floor_law(self):
        table = make_table({"x": np.arange(10, dtype=np.float64)})
        train, test = split(table, 0.7)
        assert train.num_rows == 7
        assert test.num_rows == 3
        assert test.timestamps[0] == 7

    def test_floor_law_non_round(self):
        table = make_table({"x": np.arange(9, dtype=np.float64)})
        train, test = split(table, 0.5)  # floor(4.5) = 4
        assert train.num_rows == 4 and test.num_rows == 5

    def test_degenerate_split_rejected(self):
        table = make_table({"x": np.array([1.0, 2.0])})
        with pytest.raises(SplitRangeError):
            split(table, 0.1)  # floor(0.2) = 0 rows on the left
        with pytest.raises(SplitRangeError):
            split(table, 1.5)


def _lines(data: bytes) -> list[bytes]:
    return data.splitlines(keepends=True)


def _blank_rows_around_cut(data: bytes) -> bytes:
    # Header, rows 0..9: blank lines before row 6, between rows 6 and 7 (the
    # cut) and after row 7, plus one right after the header.
    lines = _lines(data)
    for at, blank in ((9, b"  ,  \n"), (8, b"\n"), (7, b",,,\n"), (1, b"\t\n")):
        lines.insert(at, blank)
    return b"".join(lines)


def _iso_stamps(data: bytes) -> bytes:
    lines = _lines(data)
    for i in range(1, len(lines)):
        stamp, rest = lines[i].split(b",", 1)
        lines[i] = b"1970-01-01T00:00:%02d," % int(stamp) + rest
    return b"".join(lines)


def _extra_column(data: bytes, note=lambda i: b"n%d" % i) -> bytes:
    lines = [line.rstrip(b"\n") for line in _lines(data)]
    out = [lines[0] + b",note\n"] + [line + b"," + note(i) + b"\n" for i, line in enumerate(lines[1:])]
    return b"".join(out)


CUT_INPUTS = {
    "plain": lambda data: data,
    "crlf_bom": lambda data: b"\xef\xbb\xbf" + data.replace(b"\n", b"\r\n"),
    "quoted_header": lambda data: data.replace(b"timestamp,", b'"timestamp",', 1),
    "iso_stamps": _iso_stamps,
    "extra_column": _extra_column,
    "blank_rows": _blank_rows_around_cut,
    "no_trailing_newline": lambda data: data.rstrip(b"\n"),
    # Row 6, the last before the cut, and row 7 hold a line break in a quoted cell.
    "quoted_line_break": lambda data: _extra_column(data, lambda i: b'"two\nlines"' if i in (6, 7) else b"x"),
}


class TestCutCsv:
    @pytest.fixture
    def table(self) -> TimeSeriesTable:
        rng = np.random.default_rng(3)
        labels = np.array([0, 0, 1, 1, 0, 0, 1, 1, 0, 0], dtype=np.uint8)
        return make_table({"x": rng.normal(20, 3, 10), "y": rng.normal(size=10)}, labels=labels)

    @pytest.mark.parametrize("name", sorted(CUT_INPUTS))
    def test_parts_load_as_the_split_halves(self, table, name):
        data = CUT_INPUTS[name](save_csv(table))
        assert load_csv(data, table.features) == table
        halves = split(table, 0.7)
        train, test = timeseries.cut_csv(data, table.num_rows, halves[0].num_rows)
        assert load_csv(train, table.features) == halves[0]
        assert load_csv(test, table.features) == halves[1]
        header = data[: data.index(b"\n") + 1]
        assert test.startswith(header)
        assert train + test[len(header) :] == data
        if name == "plain":
            assert (train, test) == (save_csv(halves[0]), save_csv(halves[1]))

    def test_cut_must_leave_both_parts_rows(self, table):
        for cut in (0, table.num_rows):
            with pytest.raises(SplitRangeError):
                timeseries.cut_csv(save_csv(table), table.num_rows, cut)
