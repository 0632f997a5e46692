import dataclasses
import pickle
import warnings

import numpy as np
import pytest

from hloblab import lob
from hloblab.errors import (
    EmptyAfterClean,
    InvalidBook,
    MalformedRow,
    RowCountMismatch,
)
from hloblab.lob import (
    StockMeta,
    clean_session,
    parse_lobster_pair,
    serialize_lobster_pair,
    synthesize_lob,
)
from reference_ops import snapshot

META = StockMeta(ticker="TEST", tick_size=0.01, lot_size=1)
THETA = META.tick_units  # 100 units of 1e-4 currency


def make_orderbook_row(ask1=1000500, bid1=1000400, ask_gap=100, bid_gap=100,
                       vol=10):
    fields = []
    for lvl in range(10):
        fields.extend([ask1 + lvl * ask_gap, vol, bid1 - lvl * bid_gap, vol])
    return ",".join(str(f) for f in fields)


def make_message_row(time="36100.000000001"):
    return f"{time},1,42,10,1000500,1"


class TestParse:
    def test_direct_field_mapping(self):
        series = parse_lobster_pair([make_orderbook_row()],
                                    [make_message_row("34200.000000001")], META)
        snap = snapshot(series, 0)
        assert snap.ask_prices[0] == 1000500
        assert snap.bid_prices[0] == 1000400
        assert snap.timestamp == 34200000000001

    def test_empty_streams(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = parse_lobster_pair([], [], META)
        assert series.T == 0
        assert series.book.shape == (0, lob.N_BOOK_COLS)
        assert series.messages.shape == (0, 5)

    def test_malformed_row_reports_line(self):
        rows = [make_orderbook_row(), "1,2,3", make_orderbook_row()]
        msgs = [make_message_row()] * 3
        with pytest.raises(MalformedRow) as err:
            parse_lobster_pair(rows, msgs, META)
        assert err.value.line_number == 2

    def test_non_integer_field(self):
        row = make_orderbook_row().replace("1000500", "abc", 1)
        with pytest.raises(MalformedRow):
            parse_lobster_pair([row], [make_message_row()], META)

    def test_int64_limits_accepted(self):
        top, bottom = str(2**63 - 1), str(-2**63)
        row = make_orderbook_row().replace("10,", f"{top},", 1)
        msg = f"36100.5,1,{bottom},10,1000500,1"
        series = parse_lobster_pair([row], [msg], META)
        assert series.book[0, 1] == 2**63 - 1
        assert series.messages[0, 1] == -2**63

    @pytest.mark.parametrize("line, ob_edit, msg_edit", [
        pytest.param(2, lambda r: "", None, id="blank-line"),
        pytest.param(3, lambda r: r.replace("1000500", "1000#500", 1), None,
                     id="hash-in-field"),
        pytest.param(2, lambda r: r + ",7", None, id="41-fields"),
        pytest.param(3, lambda r: r.replace("1000500", "1.5", 1), None, id="decimal"),
        pytest.param(2, lambda r: r.replace("1000500", "1_000", 1), None,
                     id="underscore"),   # int() accepts it
        pytest.param(4, lambda r: r.replace("10,", "99999999999999999999,", 1), None,
                     id="beyond-int64"),
        pytest.param(3, None, lambda m: m.rsplit(",", 1)[0], id="5-message-fields"),
        pytest.param(2, None, lambda m: m.replace(",42,", ",4.2,"), id="message-decimal"),
        pytest.param(3, None, lambda m: "x" + m, id="bad-timestamp"),
    ])
    def test_edge_cases_name_the_line(self, line, ob_edit, msg_edit):
        rows = [make_orderbook_row()] * 4
        msgs = [make_message_row()] * 4
        if ob_edit:
            rows[line - 1] = ob_edit(rows[line - 1])
        if msg_edit:
            msgs[line - 1] = msg_edit(msgs[line - 1])
        with pytest.raises(MalformedRow) as err:
            parse_lobster_pair(rows, msgs, META)
        assert err.value.line_number == line

    def test_first_bad_line_wins_across_checks(self):
        # a bad value on line 2 is reported before a bad field count on line 4
        rows = [make_orderbook_row()] * 5
        rows[1] = rows[1].replace("1000500", "abc", 1)
        rows[3] = "1,2,3"
        with pytest.raises(MalformedRow) as err:
            parse_lobster_pair(rows, [make_message_row()] * 5, META)
        assert err.value.line_number == 2

    def test_whitespace_and_signs_accepted(self):
        row = make_orderbook_row()
        padded = " " + row.replace(",", " ,\t", 3).replace("1000500", "+1000500", 1) + "\r"
        series = parse_lobster_pair([padded, row], [make_message_row()] * 2, META)
        np.testing.assert_array_equal(series.book[0], series.book[1])

    def test_row_with_inner_line_break_parses_row_by_row(self):
        row = make_orderbook_row()
        broken = row.replace(",", "\r,", 1)
        series = parse_lobster_pair([broken, row], [make_message_row()] * 2, META)
        np.testing.assert_array_equal(series.book[0], series.book[1])

    def test_row_count_mismatch(self):
        with pytest.raises(RowCountMismatch):
            parse_lobster_pair([make_orderbook_row()], [], META)

    def test_crossed_book_reported_not_dropped(self):
        row = make_orderbook_row(ask1=1000400, bid1=1000400)
        series = parse_lobster_pair([row], [make_message_row()], META)
        assert series.T == 1
        np.testing.assert_array_equal(lob.crossed(series), [True])

    def test_round_trip(self):
        ob_rows = [make_orderbook_row(), make_orderbook_row(ask1=1000600)]
        msg_rows = [make_message_row("36100.000000001"),
                    make_message_row("36100.500000000")]
        series = parse_lobster_pair(ob_rows, msg_rows, META)
        out_ob, out_msg = serialize_lobster_pair(series)
        assert out_ob == ob_rows
        assert out_msg == msg_rows


class TestTimestamps:
    @pytest.mark.parametrize("text", [
        "36100.-5", "+36100.+5", "36_100.5", "-36100.5", "+36100.5", "36100.",
        ".5", "36100.5.1", "36100.1234567890", "3.6e4", "36100 .5", "0x10",
        "٣٦100.5", "",
        # 9 fractional digits: the shape the whole-column check reads
        "+36100.000000005", "-36100.000000005", "36_100.000000005",
        "36100.00000000_5", "٣٦100.000000005",
    ])
    def test_bad_form_names_its_line(self, text):
        msgs = [make_message_row()] * 4
        msgs[2] = make_message_row(text)
        with pytest.raises(MalformedRow) as err:
            parse_lobster_pair([make_orderbook_row()] * 4, msgs, META)
        assert err.value.line_number == 3
        with pytest.raises(ValueError):
            lob._parse_time_ns(text)

    @pytest.mark.parametrize("text, ns", [
        ("36100.000000001", 36_100_000_000_001),
        ("36100.5", 36_100_500_000_000),
        ("36100.05", 36_100_050_000_000),
        ("36100", 36_100_000_000_000),
        (" 36100.25\t", 36_100_250_000_000),
        ("036100.123456789", 36_100_123_456_789),
        ("9223372036.854775807", 2**63 - 1),
    ])
    def test_canonical_and_short_forms(self, text, ns):
        assert lob._parse_time_ns(text) == ns
        rows = [make_orderbook_row()] * 2
        # alone, and in a day whose other rows are canonical
        for msgs in ([make_message_row(text)] * 2,
                     [make_message_row("36000.000000000"), make_message_row(text)]):
            assert parse_lobster_pair(rows, msgs, META).timestamps[-1] == ns

    @pytest.mark.parametrize("text", ["9223372036.854775808", "99999999999999999999.0",
                                      "99999999999999999999.000000000"])
    def test_beyond_int64_names_its_line(self, text):
        msgs = [make_message_row("36000.000000000"), make_message_row(text)]
        with pytest.raises(MalformedRow) as err:
            parse_lobster_pair([make_orderbook_row()] * 2, msgs, META)
        assert err.value.line_number == 2


class TestMalformedRowNamesTheFile:
    FILES = ("data/X_orderbook_10.csv", "data/X_message_10.csv")

    def _error(self, ob_edit=None, msg_edit=None):
        rows = [make_orderbook_row()] * 3
        msgs = [make_message_row()] * 3
        if ob_edit:
            rows[1] = ob_edit(rows[1])
        if msg_edit:
            msgs[1] = msg_edit(msgs[1])
        with pytest.raises(MalformedRow) as err:
            parse_lobster_pair(rows, msgs, META, day="2024-03-01", files=self.FILES)
        return err.value

    def test_orderbook_row(self):
        err = self._error(ob_edit=lambda r: r + ",7")
        assert (err.line_number, err.day, err.file) == (2, "2024-03-01", self.FILES[0])
        assert str(err) == ("malformed row at line 2: expected 40 orderbook fields, "
                            "got 41 (day 2024-03-01, file data/X_orderbook_10.csv)")

    @pytest.mark.parametrize("edit", [lambda m: "x" + m, lambda m: m + ",1",
                                      lambda m: m.replace(",42,", ",4.2,")])
    def test_message_row(self, edit):
        err = self._error(msg_edit=edit)
        assert (err.line_number, err.day, err.file) == (2, "2024-03-01", self.FILES[1])
        assert str(err).endswith("(day 2024-03-01, file data/X_message_10.csv)")

    def test_row_count_mismatch_names_day_and_files(self):
        with pytest.raises(RowCountMismatch) as err:
            parse_lobster_pair([make_orderbook_row()] * 3, [make_message_row()] * 2,
                               META, day="2024-03-01", files=self.FILES)
        assert str(err.value) == ("3 orderbook rows vs 2 message rows (day 2024-03-01, "
                                  "files data/X_orderbook_10.csv, data/X_message_10.csv)")
        back = pickle.loads(pickle.dumps(err.value))
        assert type(back) is RowCountMismatch and str(back) == str(err.value)

    def test_without_files_names_the_day(self):
        with pytest.raises(MalformedRow) as err:
            parse_lobster_pair(["1,2"], [make_message_row()], META, day="2024-03-01")
        assert err.value.file is None
        assert str(err.value).endswith("got 2 (day 2024-03-01)")


class TestCodec:
    @pytest.mark.parametrize("regime", ["compact", "sparse"])
    def test_round_trip_20k_day(self, regime):
        series = synthesize_lob(seed=13, n_events=20_000, regime=regime, meta=META)
        ob_rows, msg_rows = serialize_lobster_pair(series)
        parsed = parse_lobster_pair(ob_rows, msg_rows, META)
        for name in ("timestamps", "book", "messages"):
            got, want = getattr(parsed, name), getattr(series, name)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
        assert serialize_lobster_pair(parsed) == (ob_rows, msg_rows)

    def test_serialize_matches_str_of_each_field(self):
        series = synthesize_lob(seed=2, n_events=50, regime="sparse", meta=META)
        series.book[3, 5] = -7
        series.timestamps[4] = 57_600 * 10**9 + 5
        ob_rows, msg_rows = serialize_lobster_pair(series)
        for i in range(series.T):
            assert ob_rows[i] == ",".join(str(v) for v in series.book[i])
            ts = int(series.timestamps[i])
            assert msg_rows[i] == (f"{ts // 10**9}.{ts % 10**9:09d},"
                                   + ",".join(str(v) for v in series.messages[i]))

    def test_row_by_row_parse_agrees(self):
        series = synthesize_lob(seed=4, n_events=300, regime="sparse", meta=META)
        ob_rows, msg_rows = serialize_lobster_pair(series)
        timestamps, book, messages = lob._parse_rows(ob_rows, msg_rows)
        np.testing.assert_array_equal(timestamps, series.timestamps)
        np.testing.assert_array_equal(book, series.book)
        np.testing.assert_array_equal(messages, series.messages)


def with_source_rows(ob_rows, msg_rows):
    """The parse of the rows, carrying them as its source lines."""
    series = parse_lobster_pair(ob_rows, msg_rows, META)
    series.source_rows = (ob_rows, msg_rows)
    return series


def formatted(series):
    """What the formatters write for ``series``, whatever lines it carries."""
    return serialize_lobster_pair(dataclasses.replace(series, source_rows=None))


EXTREMES = [0, 1, -1, 9, 10, 10**18, 2**63 - 1, -2**63]


class TestSourceRows:
    """Serializing a parsed series returns its source lines only when they
    are the lines the formatters write."""

    @staticmethod
    def _rows():
        ob_rows = [make_orderbook_row(vol=v) for v in (10, 200, 7, 3000)]
        msg_rows = [make_message_row(f"{t}.000000000") for t in (36100, 40000, 40001, 50000)]
        return ob_rows, msg_rows

    @pytest.mark.parametrize("line, canonical", [
        ("36100.000000000,1,42,10,1000500,1", True),
        (f"36100.000000000,1,{2**63 - 1},10,{-2**63},1", True),
        # as long as the canonical line above, with the same values
        ("36100.0,000000001,42,10,1000500,1", False),
        ("036100.00000000,1,42,10,1000500,1", False),
        ("36100,1,000000000042,10,1000500,1", False),
        # longer than the canonical line
        ("36100.000000000,1,+42,10,1000500,1", False),
        ("36100.000000000,1,042,10,1000500,1", False),
        ("36100.000000000,1, 42 ,10,1000500,1", False),
        ("36100.000000000,1,42,10,1000500,1\r", False),
    ])
    def test_message_lines(self, line, canonical):
        ob_rows, msg_rows = self._rows()
        msg_rows[0] = line
        series = with_source_rows(ob_rows, msg_rows)
        assert lob._source_rows_canonical(series) is canonical
        assert serialize_lobster_pair(series) == formatted(series)
        if canonical:
            assert serialize_lobster_pair(series) == (ob_rows, msg_rows)
        else:
            assert formatted(series)[1][0] == "36100.000000000,1,42,10,1000500,1"

    @pytest.mark.parametrize("edit", [
        lambda r: r.replace(",10,", ",010,", 1), lambda r: r.replace(",10,", ",+10,", 1),
        lambda r: r.replace(",10,", ", 10,", 1), lambda r: " " + r, lambda r: r + "\t",
    ])
    def test_orderbook_lines(self, edit):
        ob_rows, msg_rows = self._rows()
        ob_rows[2] = edit(make_orderbook_row(vol=10))
        series = with_source_rows(ob_rows, msg_rows)
        assert not lob._source_rows_canonical(series)
        assert serialize_lobster_pair(series) == formatted(series)

    def test_line_lengths_match_the_formatters(self):
        values = EXTREMES + [int(v) for v in np.resize(EXTREMES, 7)]
        series = lob.LobSeries(
            meta=META, day="1970-01-01", timestamps=np.array(values, np.int64),
            book=np.array([np.resize(np.roll(EXTREMES, i), lob.N_BOOK_COLS)
                           for i in range(len(values))], np.int64),
            messages=np.array([np.resize(np.roll(EXTREMES, -i), 5)
                               for i in range(len(values))], np.int64))
        ob_len, msg_len = lob._line_lengths(series)
        assert ob_len.tolist() == [len(lob._OB_FORMAT % tuple(row))
                                   for row in series.book.tolist()]
        assert msg_len.tolist() == [
            len(lob._MSG_FORMAT % (ts // 10**9, ts % 10**9, *row))
            for ts, row in zip(series.timestamps.tolist(), series.messages.tolist())]
        for value in EXTREMES:
            one = np.array([[value]], np.int64)
            assert lob._row_widths(one).tolist() == [len("%d" % value)]

    def test_clean_keeps_the_lines_of_the_kept_rows(self, caplog):
        times = ["34000.000000000", "36100.000000000", "40000.000000001", "40001.000000000",
                 "41000.000000000", "50000.500000000", "57000.000000000"]
        ob_rows = [make_orderbook_row(ask1=1000500 + 100 * i) for i in range(len(times))]
        ob_rows[2] = make_orderbook_row(ask1=1000400, bid1=1000400)   # crossed
        ob_rows[4] = make_orderbook_row(vol=0)                        # zero best
        msg_rows = [f"{t},1,{i},10,1000500,1" for i, t in enumerate(times)]
        with caplog.at_level("WARNING", logger="hloblab.lob"):
            cleaned = clean_session(with_source_rows(ob_rows, msg_rows))
        kept = [1, 3, 5]
        assert cleaned.source_rows == ([ob_rows[i] for i in kept],
                                       [msg_rows[i] for i in kept])
        assert cleaned.source_rows == formatted(cleaned)
        assert cleaned.messages[:, 1].tolist() == kept

    def test_series_without_lines_keeps_none(self):
        ob_rows, msg_rows = self._rows()
        cleaned = clean_session(parse_lobster_pair(ob_rows, msg_rows, META))
        assert cleaned.source_rows is None
        assert serialize_lobster_pair(cleaned) == (ob_rows, msg_rows)

    def test_empty_series(self):
        series = lob.LobSeries(meta=META, day="1970-01-01", source_rows=([], []))
        assert serialize_lobster_pair(series) == ([], [])


def _plant(book, row, defect, rng):
    """Break one invariant of snapshot ``row`` in place."""
    level = int(rng.integers(1, 10))
    if defect == "ask":
        book[row, 4 * level + lob.ASK_P] = book[row, 4 * (level - 1) + lob.ASK_P]
    elif defect == "bid":
        book[row, 4 * level + lob.BID_P] = book[row, 4 * (level - 1) + lob.BID_P] + 1
    elif defect == "volume":
        side = lob.ASK_V if rng.integers(2) else lob.BID_V
        book[row, 4 * level + side] = -1
    else:  # crossed: shift the whole ask ladder down to the best bid
        book[row, lob.ASK_P::4] -= book[row, lob.ASK_P] - book[row, lob.BID_P]


class TestValidate:
    @pytest.mark.parametrize("defect", ["ask", "bid", "volume", "crossed"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_snapshot_oracle(self, defect, seed):
        rng = np.random.default_rng(seed)
        series = synthesize_lob(seed=seed, n_events=400, regime="sparse", meta=META,
                                day="2024-03-01")
        row = int(rng.integers(series.T))
        _plant(series.book, row, defect, rng)
        with pytest.raises(ValueError) as oracle:
            snapshot(series, row).validate()
        with pytest.raises(InvalidBook) as err:
            series.validate()
        assert err.value.index == row
        assert err.value.check == str(oracle.value)
        assert err.value.day == "2024-03-01"
        assert str(err.value) == (f"invalid book on 2024-03-01 at snapshot {row}: "
                                  f"{oracle.value}")

    def test_first_row_and_first_check_win(self):
        series = synthesize_lob(seed=5, n_events=200, regime="compact", meta=META)
        rng = np.random.default_rng(0)
        _plant(series.book, 150, "ask", rng)
        _plant(series.book, 90, "volume", rng)
        _plant(series.book, 90, "bid", rng)
        with pytest.raises(InvalidBook) as err:
            series.validate()
        assert (err.value.index, err.value.check) == \
            (90, "bid prices not strictly decreasing")

    def test_timestamps_going_back(self):
        series = synthesize_lob(seed=5, n_events=100, regime="compact", meta=META)
        series.timestamps[60] = series.timestamps[59] - 1
        with pytest.raises(InvalidBook) as err:
            series.validate()
        assert (err.value.index, err.value.check) == \
            (60, "timestamps not non-decreasing")

    def test_empty_series_is_valid(self):
        lob.LobSeries(meta=META, day="1970-01-01").validate()


class TestClean:
    def test_identity_when_all_good(self):
        series = parse_lobster_pair(
            [make_orderbook_row()] * 3,
            [make_message_row(t) for t in ("36100.0", "40000.0", "50000.0")],
            META)
        cleaned = clean_session(series)
        assert cleaned.T == 3
        np.testing.assert_array_equal(cleaned.book, series.book)

    def test_pre_open_snapshot_removed(self):
        series = parse_lobster_pair(
            [make_orderbook_row()] * 2,
            [make_message_row("34000.0"), make_message_row("40000.0")],
            META)
        assert clean_session(series).T == 1

    def test_trim_window(self):
        # 36000 = 09:30 + 30min; boundary is inclusive
        series = parse_lobster_pair(
            [make_orderbook_row()] * 3,
            [make_message_row(t) for t in ("35999.999999999", "36000.0", "55800.0")],
            META)
        assert clean_session(series).T == 2

    def test_crossed_row_dropped_with_diagnostic(self):
        rows = [make_orderbook_row() for _ in range(100)]
        rows[41] = make_orderbook_row(ask1=1000400, bid1=1000400)
        msgs = [make_message_row(f"{40000 + i}.0") for i in range(100)]
        series = parse_lobster_pair(rows, msgs, META)
        assert np.flatnonzero(lob.crossed(series)).tolist() == [41]
        cleaned = clean_session(series)
        assert cleaned.T == 99
        np.testing.assert_array_equal(cleaned.timestamps, np.delete(series.timestamps, 41))

    def test_crossed_rows_found_and_dropped(self):
        # the best ask at the best bid, and in row 6 a tick below it
        rows = [make_orderbook_row() for _ in range(10)]
        for i in (2, 5, 6):
            rows[i] = make_orderbook_row(ask1=1000400 - 100 * (i == 6), bid1=1000400)
        msgs = [make_message_row(f"{40000 + i}.0") for i in range(10)]
        series = parse_lobster_pair(rows, msgs, META)
        assert series.T == 10
        assert np.flatnonzero(lob.crossed(series)).tolist() == [2, 5, 6]
        cleaned = clean_session(series)
        np.testing.assert_array_equal(cleaned.timestamps,
                                      np.delete(series.timestamps, [2, 5, 6]))
        assert not lob.crossed(cleaned).any()

    def test_zero_best_volume_dropped(self):
        good = make_orderbook_row()
        bad = make_orderbook_row(vol=0)
        series = parse_lobster_pair([good, bad],
                                    [make_message_row("40000.0")] * 2, META)
        assert clean_session(series).T == 1

    def test_empty_after_clean(self):
        series = parse_lobster_pair([make_orderbook_row()],
                                    [make_message_row("34000.0")], META)
        with pytest.raises(EmptyAfterClean):
            clean_session(series)

    def test_cleaned_invariants_hold(self):
        series = synthesize_lob(seed=3, n_events=200, regime="sparse", meta=META)
        clean_session(series).validate()


class TestSynthesize:
    def test_deterministic(self):
        a = synthesize_lob(seed=7, n_events=100, regime="compact", meta=META)
        b = synthesize_lob(seed=7, n_events=100, regime="compact", meta=META)
        np.testing.assert_array_equal(a.book, b.book)
        np.testing.assert_array_equal(a.timestamps, b.timestamps)
        np.testing.assert_array_equal(a.messages, b.messages)

    def test_compact_depth_nine_everywhere(self):
        series = synthesize_lob(seed=7, n_events=50, regime="compact", meta=META)
        # the first-to-tenth level span in ticks, per row
        for col in (lob.ASK_P, lob.BID_P):
            prices = series.book[:, col::4]
            depth = np.abs(prices[:, -1] - prices[:, 0]) / THETA
            assert np.all(depth == 9.0)

    def test_sparse_mean_depth_regression(self):
        series = synthesize_lob(seed=7, n_events=200, regime="sparse", meta=META)
        ask_p = series.book[:, lob.ASK_P::4]
        mean_depth = np.mean(np.abs(ask_p[:, -1] - ask_p[:, 0]) / THETA)
        # nine geometric(0.4) gaps have mean span 9 / 0.4 = 22.5 ticks
        assert abs(mean_depth - 22.5) < 2.0
        # determinism pin
        assert mean_depth == pytest.approx(22.04, abs=1e-9)

    def test_invariants(self):
        for regime in ("compact", "sparse"):
            synthesize_lob(seed=5, n_events=50, regime=regime, meta=META).validate()
