"""Properties of the LOBSTER codec and of book validation, on generated days.

Each property runs 200 examples from a derandomized generator, so a run
checks the same days every time.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hloblab import lob
from hloblab.errors import InvalidBook, MalformedRow
from hloblab.lob import StockMeta, parse_lobster_pair, serialize_lobster_pair
from reference_ops import snapshot

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])
INT64 = st.integers(-2**63, 2**63 - 1)
FILES = ("SYN_1970-01-02_orderbook_10.csv", "SYN_1970-01-02_message_10.csv")


@st.composite
def valid_days(draw, max_rows=12):
    """A day that ``LobSeries.validate`` accepts. ``compact`` ladders step one
    tick a level with a one-tick spread, as a large-tick stock's book does;
    ``sparse`` ones step and spread by several ticks, as a small-tick one's."""
    regime = draw(st.sampled_from(lob.SYNTH_REGIMES))
    meta = StockMeta("SYN", tick_size=draw(st.sampled_from([0.0001, 0.01, 1.0, 10_000.0])))
    theta = meta.tick_units
    gaps = st.just(1) if regime == "compact" else st.integers(1, 1000)
    n = draw(st.integers(1, max_rows))
    times = np.cumsum(draw(st.lists(st.integers(0, 2**58), min_size=n, max_size=n)))
    book = np.empty((n, lob.N_BOOK_COLS), np.int64)
    for row in book:
        bid1 = draw(st.integers(-2**30, 2**30)) * theta
        ask1 = bid1 + draw(gaps) * theta
        ask_steps = draw(st.lists(gaps, min_size=9, max_size=9))
        bid_steps = draw(st.lists(gaps, min_size=9, max_size=9))
        row[lob.ASK_P::4] = ask1 + np.cumsum([0] + ask_steps) * theta
        row[lob.BID_P::4] = bid1 - np.cumsum([0] + bid_steps) * theta
        row[lob.ASK_V::4] = draw(st.lists(st.integers(0, 2**63 - 1), min_size=10, max_size=10))
        row[lob.BID_V::4] = draw(st.lists(st.integers(0, 2**63 - 1), min_size=10, max_size=10))
    messages = np.array(draw(st.lists(st.lists(INT64, min_size=5, max_size=5),
                                      min_size=n, max_size=n)), np.int64)
    series = lob.LobSeries(meta=meta, day="1970-01-02", timestamps=times.astype(np.int64),
                           book=book, messages=messages)
    series.validate()
    return series


def int_forms(value):
    """Other texts that the parse reads as the int64 ``value``."""
    forms = [f" {value}", f"{value}\t", f" {value} "]
    if value >= 0:
        forms += [f"+{value}", f"0{value}", f"000{value}"]
    return forms


def time_forms(ns):
    """Other texts that the parse reads as the timestamp ``ns``."""
    seconds, frac = divmod(ns, 10**9)
    digits = f"{frac:09d}".rstrip("0")
    forms = [f"0{seconds}.{frac:09d}", f" {seconds}.{frac:09d} ",
             f"{seconds}.{digits or '0'}"]
    if not frac:
        forms.append(str(seconds))
    return forms


def assert_same_day(got, want):
    for name in ("timestamps", "book", "messages"):
        assert getattr(got, name).dtype == np.int64
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@PROPERTY
@given(series=valid_days(), data=st.data())
def test_serialize_then_parse_round_trips(series, data):
    """A valid day comes back from its rows, and its rows come back from the
    parse, whether it keeps its source lines or not; kept lines that spell
    a value another way give way to the canonical rows."""
    ob_rows, msg_rows = serialize_lobster_pair(series)
    parsed = parse_lobster_pair(ob_rows, msg_rows, series.meta, day=series.day)
    assert_same_day(parsed, series)
    assert serialize_lobster_pair(parsed) == (ob_rows, msg_rows)
    parsed.source_rows = (list(ob_rows), list(msg_rows))
    assert serialize_lobster_pair(parsed) == (ob_rows, msg_rows)

    # the same values spelled another way in some fields of some lines
    source = [[row.split(",") for row in ob_rows], [row.split(",") for row in msg_rows]]
    for _ in range(data.draw(st.integers(0, 4), label="respelled")):
        stream = data.draw(st.integers(0, 1), label="stream")
        i = data.draw(st.integers(0, series.T - 1), label="row")
        k = data.draw(st.integers(0, len(source[stream][i]) - 1), label="field")
        if stream == 1 and k == 0:
            forms = time_forms(int(series.timestamps[i]))
        else:
            forms = int_forms(int(source[stream][i][k]))
        source[stream][i][k] = data.draw(st.sampled_from(forms), label="form")
    kept = tuple([",".join(fields) for fields in rows] for rows in source)
    reparsed = parse_lobster_pair(*kept, series.meta, day=series.day)
    assert_same_day(reparsed, series)
    reparsed.source_rows = kept
    assert serialize_lobster_pair(reparsed) == (ob_rows, msg_rows)


def rejected_int_forms(value):
    """Texts of an int field that the README says the parse rejects."""
    digits = str(abs(value))
    sign = "-" if value < 0 else ""
    underscored = (f"{sign}{digits[:-1]}_{digits[-1]}" if len(digits) > 1
                   else f"{sign}1_00{digits}")
    return [underscored, f"{sign}0x{abs(value):x}", f"{value}.", str(2**63 + abs(value)),
            str(-2**63 - 1 - abs(value))]


def rejected_time_forms(ns):
    """Texts of a timestamp that the README says the parse rejects."""
    seconds, frac = divmod(ns, 10**9)
    digits = str(seconds)
    underscored = f"{digits[:-1]}_{digits[-1]}" if len(digits) > 1 else f"1_00{digits}"
    return [f"{underscored}.{frac:09d}", f"0x{seconds:x}", f"{seconds}.",
            f"{seconds + 2**63 // 10**9 + 1}.{frac:09d}"]


@PROPERTY
@given(series=valid_days(), data=st.data())
def test_a_rejected_field_names_its_line(series, data):
    """One field of a valid day's rows rewritten into a form the parse
    rejects gives a MalformedRow naming that line, the day and the file."""
    rows = [list(r) for r in serialize_lobster_pair(series)]
    stream = data.draw(st.integers(0, 1), label="stream")
    i = data.draw(st.integers(0, series.T - 1), label="row")
    fields = rows[stream][i].split(",")
    k = data.draw(st.integers(0, len(fields) - 1), label="field")
    forms = (rejected_time_forms(int(series.timestamps[i])) if stream == 1 and k == 0
             else rejected_int_forms(int(fields[k])))
    fields[k] = data.draw(st.sampled_from(forms), label="form")
    rows[stream][i] = ",".join(fields)
    with pytest.raises(MalformedRow) as err:
        parse_lobster_pair(*rows, series.meta, day=series.day, files=FILES)
    assert (err.value.line_number, err.value.day, err.value.file) == \
        (i + 1, series.day, FILES[stream])


def oracle_verdict(series):
    """(snapshot, check) of the first snapshot the per-snapshot oracle
    rejects, timestamps first as ``validate`` orders its checks; None if
    it accepts them all."""
    snaps = [snapshot(series, i) for i in range(series.T)]
    for i in range(1, len(snaps)):
        if snaps[i].timestamp < snaps[i - 1].timestamp:
            return i, "timestamps not non-decreasing"
    for i, snap in enumerate(snaps):
        try:
            snap.validate()
        except ValueError as exc:
            return i, str(exc)
    return None


@st.composite
def days_with_defects(draw):
    """A valid day with up to three fields moved, each of which may or may
    not break an invariant: a price onto or past its neighbour level, a
    volume below zero or onto it, a best ask onto or past the best bid, a
    timestamp back or onto the one before."""
    series = draw(valid_days(max_rows=8))
    book, times = series.book, series.timestamps
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, series.T - 1))
        level = draw(st.integers(1, 9))
        shift = draw(st.integers(-2, 2))
        kind = draw(st.sampled_from(["ask", "bid", "volume", "crossed", "time"]))
        if kind == "ask":
            book[i, 4 * level + lob.ASK_P] = book[i, 4 * (level - 1) + lob.ASK_P] + shift
        elif kind == "bid":
            book[i, 4 * level + lob.BID_P] = book[i, 4 * (level - 1) + lob.BID_P] + shift
        elif kind == "volume":
            book[i, 4 * level + draw(st.sampled_from([lob.ASK_V, lob.BID_V]))] = shift
        elif kind == "crossed":
            book[i, lob.ASK_P::4] += book[i, lob.BID_P] - book[i, lob.ASK_P] + shift
        elif i:
            times[i] = times[i - 1] + shift
    return series


@PROPERTY
@given(series=days_with_defects())
def test_validate_agrees_with_the_snapshot_oracle(series):
    """``validate`` accepts a day exactly when the per-snapshot oracle does,
    and otherwise names the oracle's first bad snapshot and check."""
    verdict = oracle_verdict(series)
    if verdict is None:
        series.validate()
        return
    with pytest.raises(InvalidBook) as err:
        series.validate()
    assert (err.value.index, err.value.check) == verdict
