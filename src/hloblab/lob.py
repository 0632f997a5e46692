"""LOBSTER-format order book ingestion, cleaning, and synthetic days.

Prices are kept as integers in 1e-4 currency units (the LOBSTER convention)
end-to-end; conversion to currency happens only at reporting. Timestamps are
integer nanoseconds since midnight, parsed by decimal-string splitting so the
9-digit fractional part never touches floating point.

Parsing, serialization and validation work on a whole day at once; only the
error path of :func:`parse_lobster_pair` goes row by row, to name the line.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyAfterClean,
    InvalidBook,
    MalformedRow,
    MissingLevels,
    RowCountMismatch,
    where,
)

N_LEVELS = 10
N_BOOK_COLS = 4 * N_LEVELS
N_MSG_COLS = 6  # time, type, id, size, price, direction

SESSION_OPEN_NS = 34_200 * 10**9   # 09:30
SESSION_CLOSE_NS = 57_600 * 10**9  # 16:00
SYNTH_START_S = 36_100.0           # 10:01:40, synthesize_lob's first event
SYNTH_END_S = 55_700.0             # 15:28:20, its last

# column offsets within one level block (ask_p, ask_v, bid_p, bid_v)
ASK_P, ASK_V, BID_P, BID_V = 0, 1, 2, 3

_OB_FORMAT = ",".join(["%d"] * N_BOOK_COLS)
_MSG_FORMAT = "%d.%09d," + ",".join(["%d"] * (N_MSG_COLS - 1))
_SERIALIZE_BLOCK = 256  # rows turned into Python ints at a time
# 10, 100, ..., 10**19: the decimal width of a uint64 is one more than the
# number of these it reaches
_POWERS_OF_TEN = 10 ** np.arange(1, 20, dtype=np.uint64)

# what np.loadtxt accepts for an int64 field, once surrounding space is gone
_INT_FIELD = re.compile(r"[+-]?[0-9]+")
_INT64 = np.iinfo(np.int64)
# a timestamp: ASCII seconds, optionally "." and 1-9 fractional digits
_TIME_FIELD = re.compile(r"\s*([0-9]+)(?:\.([0-9]{1,9}))?\s*")
# a whole time column in the canonical form serialize_lobster_pair writes
_CANONICAL_TIMES = re.compile(r"[0-9]+\.[0-9]{9}(?:\n[0-9]+\.[0-9]{9})*")


def price_units(currency: float) -> int:
    """Convert a currency amount (e.g. 0.01 USD) to integer 1e-4 units."""
    return int(round(currency * 10_000))


@dataclass(frozen=True)
class StockMeta:
    """Static per-stock metadata: tick size and lot size."""

    ticker: str
    tick_size: float = 0.01   # currency units
    lot_size: int = 1

    def __post_init__(self):
        if self.tick_size <= 0:
            raise ValueError("tick_size must be positive")
        if self.lot_size < 1:
            raise ValueError("lot_size must be >= 1")

    @property
    def tick_units(self) -> int:
        """Tick size in integer 1e-4 currency units."""
        return price_units(self.tick_size)


@dataclass
class LobSeries:
    """One trading day of book snapshots plus the aligned message fields.

    ``book`` has LOBSTER column order ask_p1, ask_v1, bid_p1, bid_v1, ...
    ``messages`` keeps the non-time message columns (type, id, size, price,
    direction) so a parsed series can be serialized back to its source rows.
    ``source_rows``, when set, holds the (orderbook, message) lines the rows
    were parsed from, one per snapshot; :func:`clean_session` keeps the lines
    of the rows it keeps, and :func:`serialize_lobster_pair` returns them
    instead of formatting the rows when they are already canonical.
    """

    meta: StockMeta
    day: str  # calendar date, YYYY-MM-DD
    timestamps: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    book: np.ndarray = field(default_factory=lambda: np.empty((0, N_BOOK_COLS), np.int64))
    messages: np.ndarray = field(default_factory=lambda: np.empty((0, 5), np.int64))
    source_rows: tuple[list[str], list[str]] | None = field(
        default=None, repr=False, compare=False)

    @property
    def T(self) -> int:
        return len(self.timestamps)

    def validate(self) -> None:
        """Check the book invariants of every snapshot at once.

        Timestamps must not decrease, and a book without 10 levels raises
        :class:`MissingLevels`. Each snapshot is then checked in this order:
        ask prices strictly increasing, bid prices strictly decreasing, no
        negative volume, best ask above best bid. Raises
        :class:`InvalidBook` for the first bad snapshot, naming the first
        check it fails.
        """
        back = np.flatnonzero(np.diff(self.timestamps) < 0)
        if len(back):
            raise InvalidBook(self.day, int(back[0]) + 1,
                              "timestamps not non-decreasing")
        if self.T == 0:
            return
        book = self.book
        ask_p, ask_v = book[:, ASK_P::4], book[:, ASK_V::4]
        bid_p, bid_v = book[:, BID_P::4], book[:, BID_V::4]
        if ask_p.shape[1] != N_LEVELS:
            raise MissingLevels(f"expected {N_LEVELS} levels")
        checks = [
            ("ask prices not strictly increasing",
             np.any(np.diff(ask_p, axis=1) <= 0, axis=1)),
            ("bid prices not strictly decreasing",
             np.any(np.diff(bid_p, axis=1) >= 0, axis=1)),
            ("negative volume",
             np.any(ask_v < 0, axis=1) | np.any(bid_v < 0, axis=1)),
            ("crossed book", ask_p[:, 0] <= bid_p[:, 0]),
        ]
        failed = np.stack([mask for _, mask in checks])
        bad_rows = np.flatnonzero(failed.any(axis=0))
        if len(bad_rows):
            row = int(bad_rows[0])
            check = checks[int(np.argmax(failed[:, row]))][0]
            raise InvalidBook(self.day, row, check)


def _parse_time_ns(text: str) -> int:
    """Parse a LOBSTER seconds-since-midnight decimal string to integer ns.

    Accepts ASCII digits, optionally followed by ``.`` and 1-9 digits, with
    surrounding whitespace; anything else raises ``ValueError``.
    """
    match = _TIME_FIELD.fullmatch(text)
    if match is None:
        raise ValueError(f"bad timestamp: {text!r}")
    whole, frac = match.groups()
    ns = int(whole) * 10**9 + int((frac or "").ljust(9, "0"))
    if ns > _INT64.max:
        raise ValueError(f"timestamp out of int64 nanoseconds: {text!r}")
    return ns


def _parse_times(message_rows: list[str]) -> np.ndarray:
    """Timestamps of a whole day; ``ValueError`` if any row's is malformed.

    A column in the canonical form is checked with one regex over the joined
    column and read as integers with the decimal point removed; any other
    column goes through :func:`_parse_time_ns` row by row.
    """
    fields = [row[:row.index(",")] for row in message_rows]
    column = "\n".join(fields)
    if _CANONICAL_TIMES.fullmatch(column):
        try:
            return np.array(column.replace(".", "").split("\n"), np.int64)
        except OverflowError:
            raise ValueError("timestamp out of int64 nanoseconds") from None
    return np.array([_parse_time_ns(text) for text in fields], np.int64)


def _strict_ints(fields, stream: str) -> list[int]:
    """Convert integer fields exactly as ``np.loadtxt`` does for int64.

    A field is an optional sign and ASCII digits, with optional surrounding
    whitespace, and must fit int64. Anything else (``1.5``, ``1_000``,
    ``0x10``, an overflow) raises ``ValueError`` naming the 1-based field.
    """
    values = []
    for k, text in enumerate(fields, 1):
        text = text.strip()
        value = int(text) if _INT_FIELD.fullmatch(text) else None
        if value is None or not _INT64.min <= value <= _INT64.max:
            raise ValueError(f"{stream} field {k} is not an int64 integer: {text!r}")
        values.append(value)
    return values


def _split_fields(row: str, n: int, stream: str) -> list[str]:
    fields = row.strip().split(",")
    if len(fields) != n:
        raise ValueError(f"expected {n} {stream} fields, got {len(fields)}")
    return fields


def _parse_rows(orderbook_rows: list[str], message_rows: list[str],
                day: str | None = None, files=(None, None)):
    """Row-by-row parse that raises :class:`MalformedRow` at the first bad line.

    The reference for the whole-day read in :func:`parse_lobster_pair`, which
    runs it only when that read fails. The error names ``day`` and the file
    of ``files`` (orderbook, message) that holds the bad row.
    """
    n = len(orderbook_rows)
    timestamps = np.empty(n, np.int64)
    book = np.empty((n, N_BOOK_COLS), np.int64)
    messages = np.empty((n, N_MSG_COLS - 1), np.int64)
    for i, (ob_row, msg_row) in enumerate(zip(orderbook_rows, message_rows)):
        try:
            book[i] = _strict_ints(_split_fields(ob_row, N_BOOK_COLS, "orderbook"),
                                   "orderbook")
        except ValueError as exc:
            raise MalformedRow(i + 1, str(exc), day, files[0]) from None
        try:
            msg_fields = _split_fields(msg_row, N_MSG_COLS, "message")
            timestamps[i] = _parse_time_ns(msg_fields[0])
            messages[i] = _strict_ints(msg_fields[1:], "message")
        except ValueError as exc:
            raise MalformedRow(i + 1, str(exc), day, files[1]) from None
    return timestamps, book, messages


def _load_ints(rows: list[str], usecols=None) -> np.ndarray:
    # max_rows sizes the result once; grown by realloc, it would sit in the
    # brk heap and fragment it
    return np.loadtxt(rows, delimiter=",", dtype=np.int64, ndmin=2,
                      comments=None, usecols=usecols, max_rows=len(rows))


def parse_lobster_pair(orderbook_rows, message_rows, meta: StockMeta,
                       day: str = "1970-01-01", files=(None, None)) -> LobSeries:
    """Parse an aligned (orderbook, message) row pair into a LobSeries.

    Row i of each stream produces snapshot i. Integer fields are parsed
    strictly (see :func:`_strict_ints`), timestamps too (see
    :func:`_parse_time_ns`); a :class:`MalformedRow` names the line, ``day``
    and the file of ``files`` (orderbook, message) it is in, and a
    :class:`RowCountMismatch` names ``day`` and both files. Crossed-book
    rows (see :func:`crossed`) are kept; :func:`clean_session` drops them.

    The day is read whole: one comma count per row checks the field counts
    and ``np.loadtxt`` converts the integer columns. If either finds a
    problem, :func:`_parse_rows` rescans row by row to name the first bad line.
    """
    orderbook_rows = list(orderbook_rows)
    message_rows = list(message_rows)
    if len(orderbook_rows) != len(message_rows):
        raise RowCountMismatch(
            f"{len(orderbook_rows)} orderbook rows vs {len(message_rows)} message rows"
            f"{where(day, files)}")
    if not orderbook_rows:
        return LobSeries(meta=meta, day=day)

    try:
        if (any(row.count(",") != N_BOOK_COLS - 1 for row in orderbook_rows)
                or any(row.count(",") != N_MSG_COLS - 1 for row in message_rows)):
            raise ValueError("field count")
        book = _load_ints(orderbook_rows)
        messages = _load_ints(message_rows, usecols=range(1, N_MSG_COLS))
        timestamps = _parse_times(message_rows)
    except ValueError:
        # rows with a line break inside them fail np.loadtxt only; the
        # rescan then returns them parsed
        timestamps, book, messages = _parse_rows(orderbook_rows, message_rows,
                                                 day, files)
    return LobSeries(meta=meta, day=day, timestamps=timestamps, book=book,
                     messages=messages)


def crossed(series: LobSeries) -> np.ndarray:
    """Per snapshot, whether its book is crossed: best ask at or below best bid."""
    return series.book[:, ASK_P] <= series.book[:, BID_P]


def _row_widths(values: np.ndarray) -> np.ndarray:
    """Per row of the 2-D int64 ``values``, the characters ``%d`` writes for
    its values, signs included."""
    magnitude = np.abs(values).view(np.uint64)   # INT64_MIN wraps to 2**63
    digits = (values < 0).view(np.int8) + np.int8(1)   # at most 20 a value
    top = np.searchsorted(_POWERS_OF_TEN, magnitude.max(initial=0), side="right")
    for power in _POWERS_OF_TEN[:top]:
        digits += magnitude >= power
    return digits.sum(axis=1, dtype=np.int64)


def _line_lengths(series: LobSeries) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the lengths of the orderbook and the message line
    :data:`_OB_FORMAT` and :data:`_MSG_FORMAT` write for it."""
    ob = _row_widths(series.book) + N_BOOK_COLS - 1
    seconds = (series.timestamps // 10**9)[:, None]
    msg = (_row_widths(seconds) + 1 + 9   # "." and the 9 fractional digits
           + _row_widths(series.messages) + N_MSG_COLS - 1)
    return ob, msg


def _source_rows_canonical(series: LobSeries) -> bool:
    """Whether ``series.source_rows`` are the lines the formatters would write.

    The parse accepts an integer field only as ASCII digits with an optional
    sign and surrounding space, so the canonical text of a value is the
    shortest that parses to it and any other text is longer. A time field in
    the form of :data:`_CANONICAL_TIMES` is likewise at least as long as its
    canonical text, and only a leading zero makes it longer. So when the time
    column has that form, a line as long as the canonical line holds exactly
    the canonical text. A time field outside that form can be shorter
    (``36103.0``), and a padded field elsewhere could make up the difference.
    """
    ob_rows, msg_rows = series.source_rows
    ob_len, msg_len = _line_lengths(series)

    def lengths(rows):
        return np.fromiter(map(len, rows), np.int64, len(rows))

    return (np.array_equal(lengths(ob_rows), ob_len)
            and np.array_equal(lengths(msg_rows), msg_len)
            and _CANONICAL_TIMES.fullmatch(
                "\n".join([row.partition(",")[0] for row in msg_rows])) is not None)


def serialize_lobster_pair(series: LobSeries) -> tuple[list[str], list[str]]:
    """Render a LobSeries back to (orderbook, message) LOBSTER rows.

    Round-trips byte-for-byte against sources with canonical 9-digit
    fractional timestamps. When ``series.source_rows`` are already those
    canonical rows (no leading zero, ``+`` or space, 9 fractional digits),
    they are returned without formatting the rows again; the result is the
    same either way.
    """
    if series.source_rows is not None and _source_rows_canonical(series):
        ob_rows, msg_rows = series.source_rows
        return list(ob_rows), list(msg_rows)
    ts = series.timestamps
    msg = np.column_stack([ts // 10**9, ts % 10**9, series.messages])
    ob_rows, msg_rows = [], []
    for start in range(0, series.T, _SERIALIZE_BLOCK):
        stop = start + _SERIALIZE_BLOCK
        ob_rows += [_OB_FORMAT % tuple(row) for row in series.book[start:stop].tolist()]
        msg_rows += [_MSG_FORMAT % tuple(row) for row in msg[start:stop].tolist()]
    return ob_rows, msg_rows


def clean_session(series: LobSeries, trim_start_s: float = 1800.0,
                  trim_end_s: float = 1800.0) -> LobSeries:
    """Restrict to the trimmed continuous session and drop bad rows.

    Keeps snapshots inside [09:30 + trim_start, 16:00 - trim_end]; drops
    crossed-book rows (see :func:`crossed`) and rows with zero volume at
    level 1. The source lines of the kept rows, if the series has them, are
    kept too.
    """
    lo = SESSION_OPEN_NS + int(round(trim_start_s * 1e9))
    hi = SESSION_CLOSE_NS - int(round(trim_end_s * 1e9))
    in_window = (series.timestamps >= lo) & (series.timestamps <= hi)
    zero_best = (series.book[:, ASK_V] == 0) | (series.book[:, BID_V] == 0)
    keep = in_window & ~crossed(series) & ~zero_best
    if not np.any(keep):
        raise EmptyAfterClean(f"{series.meta.ticker} {series.day}: no snapshots survive")

    source_rows = None
    if series.source_rows is not None:
        kept = keep.tolist()
        source_rows = tuple(list(itertools.compress(rows, kept))
                            for rows in series.source_rows)
    return LobSeries(
        meta=series.meta,
        day=series.day,
        timestamps=series.timestamps[keep].copy(),
        book=series.book[keep].copy(),
        messages=series.messages[keep].copy(),
        source_rows=source_rows,
    )


def mid_price_series(series: LobSeries) -> np.ndarray:
    """Twice the mid-price per snapshot, kept integer for exact labeling."""
    return (series.book[:, ASK_P] + series.book[:, BID_P]).astype(np.int64)


SYNTH_REGIMES = ("compact", "sparse")


def synthesize_lob(seed: int, n_events: int, regime: str, meta: StockMeta,
                   day: str = "1970-01-01") -> LobSeries:
    """Generate a deterministic synthetic day of LOBSTER-like data.

    ``compact`` emits consecutive-tick ladders on both sides (a first-to-tenth
    level span of 9 ticks); ``sparse`` draws geometric inter-level gaps.
    """
    if n_events < 1:
        raise ValueError("n_events must be >= 1")
    if regime not in SYNTH_REGIMES:
        raise ValueError(f"unknown regime {regime!r}")

    rng = np.random.default_rng(seed)
    theta = meta.tick_units
    base_bid = 100 * 10_000  # start around $100

    timestamps = np.linspace(SYNTH_START_S * 1e9, SYNTH_END_S * 1e9, n_events).astype(np.int64)
    book = np.empty((n_events, N_BOOK_COLS), np.int64)
    messages = np.empty((n_events, 5), np.int64)

    bid1 = base_bid
    for i in range(n_events):
        bid1 += int(rng.integers(-1, 2)) * theta
        spread_ticks = 1 if regime == "compact" else int(rng.integers(1, 4))
        ask1 = bid1 + spread_ticks * theta
        if regime == "compact":
            ask_gaps = np.full(N_LEVELS - 1, 1)
            bid_gaps = np.full(N_LEVELS - 1, 1)
        else:
            ask_gaps = rng.geometric(0.4, N_LEVELS - 1)
            bid_gaps = rng.geometric(0.4, N_LEVELS - 1)
        ask_p = ask1 + np.concatenate([[0], np.cumsum(ask_gaps)]) * theta
        bid_p = bid1 - np.concatenate([[0], np.cumsum(bid_gaps)]) * theta
        ask_v = rng.integers(1, 500, N_LEVELS) * meta.lot_size
        bid_v = rng.integers(1, 500, N_LEVELS) * meta.lot_size
        book[i, ASK_P::4] = ask_p
        book[i, ASK_V::4] = ask_v
        book[i, BID_P::4] = bid_p
        book[i, BID_V::4] = bid_v
        messages[i] = [1, i + 1, int(ask_v[0]), int(ask_p[0]), 1]

    return LobSeries(meta=meta, day=day, timestamps=timestamps, book=book,
                     messages=messages)
