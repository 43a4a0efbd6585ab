"""Single-venue continuous-trading limit order book.

Price-time priority matching with the full order-type taxonomy used by the
rest of the package: market, limit, market-with-protection and stop orders,
iceberg display/reserve handling, fully hidden orders, discretionary limit
prices, and the usual time-in-force instructions (GTC, GTD, GAT, IOC, FOK,
AON, day).

Conventions:
    * Prices are integer ticks, quantities integer shares. The currency value
      of one tick (the market's ``tick_size``) is only used by reporting layers.
    * Within a price level, visible slices match strictly before hidden
      remainders; both queues are FIFO on (timestamp, sequence).
    * Iceberg reserves drain through display-sized refills; each refill gets
      a fresh timestamp/sequence and therefore loses time priority.
    * AON orders and stop orders wait in pending sets outside the book and
      are re-evaluated after every mutation; neither is ever partially
      filled while pending.
    * All operations are sequential per book instance (single writer).
    * Order ids are unique among the orders a book holds.

Layout and cost: an index maps each held order id to its order. A price level
keeps its visible and hidden queues as insertion-ordered dicts from order id
to the order's ``SnapshotEntry`` (a visible order's display slice, a hidden
one's remainder) and a running count of its visible shares; one dict maps each
resting order id to that same entry; one dict holds each iceberg's reserve;
each side keeps its prices in one ascending list that matching reads in place.
So ``cancel``, ``remaining`` and the best bid/ask are O(1) whatever the queue
length; a market order or a passive limit does the same work at any book
depth, plus one sorted-list insert or delete per price level it creates or
empties, yet its measured time rises with depth (see ``tools/probes.py``). A
public ``snapshot`` is a market-by-price view: each level's price and
displayed count, with no per-order entry, so it costs O(depth) whatever the
queue length and never shows which order an iceberg slice belongs to. The
omniscient view copies each level's stored entries in C, builds the reserve
entries and sums each level. A submit is one pass that records each fill where
it takes it, into records built positionally (see ``_new``), and formats each
event-log line once, where it records the event.

A plain order -- a fully displayed, non-discretionary GTC, GTD or IOC limit or
market order -- is placed in ``submit``'s own frame. That is every order the
simulator's background flow and the algorithm runner send. It enters the
matching pass (``_execute``) only when the opposite side has a price within
its limit or has ever rested discretion, and its leftover rests as one visible
entry. Every other order, and every re-entry (a triggered stop, a started GAT
order), goes through ``_enter`` and ``_rest``. The widest discretion each side
has rested is a high-water mark, never lowered: once a side has rested a
discretionary order, every plain order against it takes the matching pass. One
walk, ``_reaching``, finds the entries whose discretion reaches a taker's
limit, for both the FOK/AON check and the matching pass. Admission is one
chain of rules in ``submit``'s frame, over the fields it has already unpacked:
the first rule an order breaks names the reason, and the time-in-force rules
run only for GTD, GAT and day orders. Each order's ledger is a list,
[submitted, filled, cancelled]. The timings behind this layout are in
``BENCH_26.json`` and ``CHANGES.md``.

Owner hook: a book given ``on_leave`` calls ``on_leave(book, order_id)`` once
for each order it held, resting or pending, that leaves it: its last share
filled (not a partial fill, not an iceberg refresh), a cancel, an expiry, or a
triggered stop, fired AON or started GAT order that did not come to rest. The
call comes once the order's ledger is final, so ``release`` in it returns True.
The hook gets the book as an argument and must hold no reference to it: a
book <-> hook cycle keeps each book alive until the cyclic collector runs.
"""

from __future__ import annotations

import bisect
import heapq
import io
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, TextIO


class Side(str, Enum):
    BUY = "buy"
    SELL = "sell"

    @property
    def opposite(self) -> "Side":
        return _SELL if self is _BUY else _BUY


class OrderKind(str, Enum):
    MARKET = "market"
    LIMIT = "limit"
    MARKET_WITH_PROTECTION = "market_with_protection"
    STOP = "stop"


class Tif(str, Enum):
    GTC = "gtc"
    GTD = "gtd"
    GAT = "gat"
    IOC = "ioc"
    FOK = "fok"
    AON = "aon"
    DAY = "day"


class Disposition(str, Enum):
    FILLED = "filled"
    PARTIAL_RESTING = "partial-resting"
    RESTING = "resting"
    CANCELLED = "cancelled"
    REJECTED = "rejected"


# Python 3.10 and 3.11 define ``EnumType.__getattr__``, which sends every
# attribute read on an enum class through a slow hook: ``Side.BUY`` costs
# ~150 ns there (~50 ns on 3.12), a global ~10 ns. So the code reads these.
_BUY = Side.BUY
_SELL = Side.SELL
_MARKET = OrderKind.MARKET
_LIMIT = OrderKind.LIMIT
_PROTECTED = OrderKind.MARKET_WITH_PROTECTION
_STOP = OrderKind.STOP
_GTC = Tif.GTC
_GTD = Tif.GTD
_GAT = Tif.GAT
_IOC = Tif.IOC
_FOK = Tif.FOK
_AON = Tif.AON
_DAY = Tif.DAY
_FILLED = Disposition.FILLED
_PARTIAL_RESTING = Disposition.PARTIAL_RESTING
_RESTING = Disposition.RESTING
_CANCELLED = Disposition.CANCELLED
_REJECTED = Disposition.REJECTED

# Per-order records are built as ``_new(Record, (every field))``, what
# ``Record._make`` calls minus its frame: ~0.3 µs a record against 0.5-2.1 µs.
_new = tuple.__new__

# A rejection reason goes into the flags column with its separators swapped.
_FLAG_SAFE = str.maketrans(",=", ";:")


class UnknownOrderError(KeyError):
    """Raised when cancelling an order id the book has never seen or no longer holds."""


class Order(NamedTuple):
    """A single order as submitted to a venue.

    ``display_quantity`` is the iceberg peak: ``None`` means fully displayed,
    ``0`` means fully hidden. ``stop_kind`` names the order a stop converts
    into when triggered. ``tif_time`` carries the GTD expiry tick or the GAT
    start tick. ``discretion_offset`` is the hidden willingness to trade past
    the displayed limit (in ticks). An order is immutable: a book that turns
    it into another kind (a triggered stop, a protected market order) enters
    a copy made with ``_replace``.
    """

    order_id: str
    side: Side
    kind: OrderKind
    quantity: int
    limit_price: Optional[int] = None
    display_quantity: Optional[int] = None
    stop_price: Optional[int] = None
    stop_kind: OrderKind = OrderKind.MARKET
    protection_offset: Optional[int] = None
    discretion_offset: int = 0
    tif: Tif = Tif.GTC
    tif_time: Optional[int] = None

    @property
    def display(self) -> int:
        return self.quantity if self.display_quantity is None else self.display_quantity


class Fill(NamedTuple):
    taker_order_id: str
    maker_order_id: str
    price: int
    quantity: int
    time: int
    taker_side: Side
    maker_was_hidden: bool = False


class SubmitResult(NamedTuple):
    fills: tuple[Fill, ...]
    disposition: Disposition
    reason: Optional[str] = None


class SnapshotEntry(NamedTuple):
    order_id: str
    quantity: int
    hidden: bool
    priority: tuple[int, int]  # (timestamp, sequence)


class SnapshotLevel(NamedTuple):
    """One price level of a snapshot. ``total`` is the level's displayed shares
    in the public view and all its shares in the omniscient one; ``entries``
    is empty in the public view and, in the omniscient one, lists the visible
    slices, then the iceberg reserves, then the hidden remainders."""

    price: int
    total: int
    entries: tuple[SnapshotEntry, ...]


_quantity = itemgetter(1)   # SnapshotEntry.quantity, read in C


@dataclass(frozen=True)
class BookSnapshot:
    bids: tuple[SnapshotLevel, ...]
    asks: tuple[SnapshotLevel, ...]
    last_trade_price: Optional[int]
    clock: int
    pending_stops: tuple[str, ...] = ()
    pending_aons: tuple[str, ...] = ()


class EventLog:
    """Order-event recorder: one delimited line per event, written to a text stream.

    The book owns the line grammar. Columns, in fixed order: event, clock,
    order-id, side, price-ticks, qty, flags. ``flags`` is a comma-joined
    ``key=value`` list; price is ``-`` for unpriced events (pure market
    orders). Each line is formatted once, at the site in the book that records
    the event.

    ``record`` takes one finished line, newline included, and writes it to
    ``stream``: every line passes through it exactly once. By default the
    stream is an in-memory ``io.StringIO``, which ``lines`` and ``to_text``
    read back. A scenario run passes each venue's open
    ``events_<venue>.log`` instead (and closes it itself), so its lines stream
    to disk as they happen and the session holds none of them.
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = io.StringIO() if stream is None else stream
        self._write = self.stream.write

    def record(self, line: str) -> None:
        self._write(line)

    def to_text(self) -> str:
        """Every line recorded so far; in-memory logs only."""
        return self.stream.getvalue()

    @property
    def lines(self) -> list[str]:
        """The recorded lines without their newlines; in-memory logs only."""
        return self.to_text().split("\n")[:-1]


# ---------------------------------------------------------------------------
# internal book structures
# ---------------------------------------------------------------------------

class _Level:
    """One price: FIFO queues as insertion-ordered dicts, order id -> snapshot entry;
    a partial fill replaces an entry in place, which keeps its queue position.
    ``shown`` is the sum of the visible entries' shares, the public level total."""

    __slots__ = ("price", "visible", "hidden", "shown")

    def __init__(self, price: int) -> None:
        self.price = price
        self.visible: dict[str, SnapshotEntry] = {}
        self.hidden: dict[str, SnapshotEntry] = {}
        self.shown = 0


class OrderBook:
    """Continuous-trading book for one venue.

    The settle loop after every mutation first activates triggered stops
    (in stop-entry order), then fires feasible AON orders (in entry order),
    repeating until neither set changes.
    """

    def __init__(self, venue_id: str = "", session_close: Optional[int] = None,
                 log: Optional[EventLog] = None,
                 on_leave: Optional[Callable[[OrderBook, str], None]] = None):
        self.venue_id = venue_id
        self.session_close = session_close
        self.log = log
        self.on_leave = on_leave   # see the module docstring
        self.clock = 0
        self.last_trade_price: Optional[int] = None
        self._levels: dict[Side, dict[int, _Level]] = {_BUY: {}, _SELL: {}}
        self._prices: dict[Side, list[int]] = {_BUY: [], _SELL: []}  # ascending
        self._index: dict[str, Order] = {}   # every held order: resting or pending
        self._resting: dict[str, SnapshotEntry] = {}   # the entry its queue holds
        self._reserve: dict[str, int] = {}   # iceberg id -> shares behind its slice
        self._stops: dict[str, Order] = {}   # in entry order
        self._aons: dict[str, Order] = {}
        # heap (start, seq, order); a cancelled GAT's entry stays until its start
        self._gats: list[tuple[int, int, Order]] = []
        self._expiries: list[tuple[int, str]] = []      # heap (expiry tick, order_id)
        # order id -> [submitted, filled, cancelled]; submitted = filled + cancelled + held
        self._ledger: dict[str, list[int]] = {}
        # the widest discretion a side has rested: a high-water mark, never lowered
        self._max_discretion: dict[Side, int] = {_BUY: 0, _SELL: 0}
        self._seq = 0
        self._fills: list[Fill] = []
        self._fill_base = 0   # session index of _fills[0]

    # -- small accessors ----------------------------------------------------

    def best_bid(self) -> Optional[int]:
        prices = self._prices[_BUY]
        return prices[-1] if prices else None

    def best_ask(self) -> Optional[int]:
        prices = self._prices[_SELL]
        return prices[0] if prices else None

    def mid(self) -> Optional[float]:
        bid, ask = self.best_bid(), self.best_ask()
        if bid is None or ask is None:
            return None
        return (bid + ask) / 2.0

    def remaining(self, order_id: str) -> int:
        if order_id not in self._index:   # an id the book no longer holds: one lookup
            return 0
        entry = self._resting.get(order_id)
        if entry is None:
            return self._index[order_id].quantity   # pending
        return entry[1] + self._reserve.get(order_id, 0)

    def ledger(self, order_id: str) -> tuple[int, int, int]:
        """(submitted, filled, cancelled) totals for an order id."""
        entry = self._ledger.get(order_id)
        return (0, 0, 0) if entry is None else tuple(entry)

    def fill_count(self) -> int:
        """Fills of the session so far, dropped ones included."""
        return self._fill_base + len(self._fills)

    def fills_since(self, index: int) -> list[Fill]:
        """The fills from session index ``index`` on.

        An index below the first held one (see ``drop_fills``) raises
        ``ValueError``, never a partial history. The algorithm runner drops
        what it harvests: on the benchmark's ``heavy_day`` the full record
        held 79k fills and, with their ids, 13 of the 16 MB traced at the end.
        """
        if index < self._fill_base:
            raise ValueError(f"fill {index} was dropped; the first held is {self._fill_base}")
        return self._fills[index - self._fill_base:]

    def drop_fills(self, before: int) -> None:
        """Discard the fills whose session index is below ``before``."""
        before = min(before, self.fill_count())
        if before > self._fill_base:
            del self._fills[:before - self._fill_base]
            self._fill_base = before

    def order_ids(self) -> set[str]:
        return set(self._index)

    def release(self, order_id: str) -> bool:
        """Drop the ledger of an order the book no longer holds.

        Returns False, and keeps the ledger, while the book still holds the
        id. Once released, ``ledger`` reads (0, 0, 0) for it. The owner of an
        order calls this when it no longer needs the order's totals.
        """
        if order_id in self._index:
            return False
        self._ledger.pop(order_id, None)
        return True

    # -- submission ---------------------------------------------------------

    # The methods on the submit path unpack an ``Order`` once per call: a
    # named field read costs about 10 ns more than a local.

    def submit(self, order: Order, clock: Optional[int] = None) -> SubmitResult:
        if clock is not None and clock > self.clock:
            self.clock = clock
        (oid, side, kind, quantity, limit_price, display_quantity, stop_price, stop_kind,
         protection_offset, disc, tif, tif_time) = order
        # The admission rules; the first one an order breaks names the reason.
        reason = None
        if oid in self._index:
            reason = "order id already held by the book"
        elif quantity <= 0:
            reason = "quantity must be positive"
        elif display_quantity is not None and not 0 <= display_quantity <= quantity:
            reason = "display_quantity outside [0, quantity]"
        elif disc < 0:
            reason = "discretion_offset must be >= 0"
        elif kind is _LIMIT:
            if limit_price is None:
                reason = "limit order without limit_price"
            elif limit_price < 1:
                reason = "limit_price must be >= 1"
        elif kind is _MARKET:
            if limit_price is not None:
                reason = "market order carries a limit_price"
            elif tif is not _AON and not self._prices[_SELL if side is _BUY else _BUY]:
                # AON market orders may wait for liquidity; immediate ones need a book to hit.
                reason = "market order into empty opposite side"
        elif kind is _PROTECTED:
            if protection_offset is None:
                reason = "market-with-protection without protection_offset"
            elif protection_offset < 0:
                reason = "protection_offset must be >= 0"
            elif self.last_trade_price is None:
                reason = "market-with-protection without a reference trade price"
        elif kind is _STOP:   # the rules of the kind it wraps come first
            last = self.last_trade_price
            if stop_kind is _LIMIT and limit_price is None:
                reason = "limit order without limit_price"
            elif stop_kind is _LIMIT and limit_price < 1:
                reason = "limit_price must be >= 1"
            elif stop_kind is _MARKET and limit_price is not None:
                reason = "market order carries a limit_price"
            elif stop_price is None:
                reason = "stop order without stop_price"
            elif stop_price < 1:
                reason = "stop_price must be >= 1"
            elif stop_kind is not _MARKET and stop_kind is not _LIMIT:
                reason = "stop orders wrap market or limit only"
            elif last is not None and side is _BUY and stop_price < last:
                reason = "buy stop below last trade"
            elif last is not None and side is _SELL and stop_price > last:
                reason = "sell stop above last trade"
        if reason is None and (tif is _GTD or tif is _GAT or tif is _DAY):
            if tif is _GTD and tif_time is None:
                reason = "gtd order without expiry"
            elif tif is _GAT and tif_time is None:
                reason = "gat order without start time"
            elif tif is _DAY and self.session_close is None:
                reason = "day order without a configured session close"
        led = self._ledger.setdefault(oid, [0, 0, 0])
        led[0] += quantity
        if self.log is not None:
            self.log.record(
                f"submit|{self.clock}|{oid}|{side._value_}|"
                f"{'-' if limit_price is None else limit_price}|{quantity}|"
                f"kind={kind._value_},tif={tif._value_},"
                f"disp={quantity if display_quantity is None else display_quantity}"
                f"{f',stop={stop_price},as={stop_kind._value_}' if kind is _STOP else ''}"
                f"{f',disc={disc}' if disc else ''}"
                f"{'' if reason is None else ',rejected=' + reason.translate(_FLAG_SAFE)}\n")
        if reason is not None:
            led[2] += quantity
            return SubmitResult((), _REJECTED, reason)

        if tif is _GAT and tif_time is not None and tif_time > self.clock:
            heapq.heappush(self._gats, (tif_time, self._next_seq(), order))
            self._index[oid] = order
            return SubmitResult((), _RESTING)

        if ((kind is _LIMIT or kind is _MARKET) and display_quantity is None and not disc
                and (tif is _GTC or tif is _GTD or tif is _IOC)):
            # A plain order (see the module docstring), placed here as
            # ``_enter`` and ``_rest`` would place it, with no matching pass
            # when nothing on the other side is within reach.
            buy = side is _BUY
            opp = _SELL if buy else _BUY
            prices = self._prices[opp]
            if prices and (limit_price is None or (prices[0] <= limit_price if buy
                                                    else prices[-1] >= limit_price)) \
                    or self._max_discretion[opp]:
                fills, leftover = self._execute(order, quantity, limit_price)
                fills = tuple(fills)
            else:
                fills, leftover = (), quantity
            if not leftover:
                disp = _FILLED
            elif kind is _MARKET or tif is _IOC:
                led[2] += leftover
                self._log("cancel", oid, side._value_, limit_price, leftover,
                          "why=market-exhausted" if kind is _MARKET else "why=ioc")
                disp = _CANCELLED
            else:
                self._seq += 1
                levels = self._levels[side]
                level = levels.get(limit_price)
                if level is None:
                    level = levels[limit_price] = _Level(limit_price)
                    bisect.insort(self._prices[side], limit_price)
                level.visible[oid] = entry = _new(
                    SnapshotEntry, (oid, leftover, False, (self.clock, self._seq)))
                level.shown += leftover
                self._index[oid] = order
                self._resting[oid] = entry
                if tif is _GTD:
                    heapq.heappush(self._expiries, (tif_time, oid))
                disp = _PARTIAL_RESTING if fills else _RESTING
            result = _new(SubmitResult, (fills, disp, None))
        else:
            result = self._enter(order)
        if self._stops or self._aons:
            self._settle()
        return result

    def _enter(self, order: Order) -> SubmitResult:
        """Place an active order that is not plain, or a re-entry (a triggered
        stop, a started GAT order): match, rest, or pend."""
        kind = order.kind
        if kind is _STOP:
            self._next_seq()   # pending entries draw a sequence number like resting ones
            self._stops[order.order_id] = order
            self._index[order.order_id] = order
            self._push_expiry(order)
            return SubmitResult((), _RESTING)

        if kind is _PROTECTED:
            order = self._convert_protection(order)
        oid, side, kind, qty, limit_price, _, _, _, _, _, tif, _ = order

        if tif is _AON:
            self._next_seq()
            self._aons[oid] = order
            self._index[oid] = order
            mark = len(self._fills)
            fired = self._try_fire_aons()
            if any(o.order_id == oid for o in fired):
                return SubmitResult(tuple(f for f in self._fills[mark:]
                                          if f.taker_order_id == oid),
                                    _FILLED)
            return SubmitResult((), _RESTING)

        eff_limit = self._effective_limit(order)
        if tif is _FOK and self._crossable(side, qty, eff_limit) < qty:
            self._ledger[oid][2] += qty
            self._log("cancel", oid, side._value_, limit_price, qty, "why=fok-unfillable")
            return SubmitResult((), _CANCELLED)

        fills, leftover = self._execute(order, qty, eff_limit)

        if not leftover:
            disp = _FILLED
        elif kind is _MARKET or tif is _IOC or tif is _FOK:
            self._ledger[oid][2] += leftover
            self._log("cancel", oid, side._value_, limit_price, leftover,
                      f"why={'market-exhausted' if kind is _MARKET else tif._value_}")
            disp = _CANCELLED
        else:
            self._rest(order, leftover)
            disp = _PARTIAL_RESTING if fills else _RESTING
        return _new(SubmitResult, (tuple(fills), disp, None))

    def _convert_protection(self, order: Order) -> Order:
        last, offset = self.last_trade_price, order.protection_offset
        limit = last + offset if order.side is _BUY else max(last - offset, 1)   # no limit below 1
        return order._replace(kind=_LIMIT, limit_price=limit)

    def _effective_limit(self, order: Order) -> Optional[int]:
        if order.limit_price is None:
            return None
        disc = order.discretion_offset   # widens the limit
        return order.limit_price + (disc if order.side is _BUY else -disc)

    # -- matching -----------------------------------------------------------

    def _best_first(self, side: Side):
        """The side's prices, best first, read in place (no copy)."""
        prices = self._prices[side]
        return reversed(prices) if side is _BUY else iter(prices)

    def _crossable(self, side: Side, needed: int, eff_limit: Optional[int]) -> int:
        """Total quantity a taker could cross right now, mirroring _execute:
        whole levels within the limit, then the entries ``_reaching`` it;
        returns as soon as the total reaches ``needed``."""
        total = 0
        opp = side.opposite
        levels = self._levels[opp]
        reserve = self._reserve
        for price in self._best_first(opp):
            if eff_limit is not None and (price > eff_limit if side is _BUY
                                          else price < eff_limit):
                break
            level = levels[price]
            total += level.shown + sum(map(_quantity, level.hidden.values()))
            total += sum(map(reserve.get, level.visible, repeat(0)))
            if total >= needed:
                return total
        if eff_limit is not None:
            for _, (oid, shares, _, _) in self._reaching(side, eff_limit):
                total += shares + reserve.get(oid, 0)
                if total >= needed:
                    return total
        return total

    def _reaching(self, side: Side, eff_limit: int):
        """Yield (level, entry) for each resting entry beyond a ``side`` taker's
        ``eff_limit`` whose own discretion reaches it, in displayed-price order,
        visible before hidden, until a level lies past its side's widest one."""
        buy = side is _BUY
        opp = _SELL if buy else _BUY
        levels, index = self._levels[opp], self._index
        max_disc = self._max_discretion[opp]
        for price in self._best_first(opp):
            gap = price - eff_limit if buy else eff_limit - price
            if gap <= 0:
                continue   # within the limit
            if gap > max_disc:
                return
            level = levels[price]
            for entry in chain(level.visible.values(), level.hidden.values()):
                if index[entry[0]].discretion_offset >= gap:
                    yield level, entry

    def _execute(self, taker: Order, qty: int, eff_limit: Optional[int]) -> tuple[list[Fill], int]:
        """Match best level first, visible before hidden; returns (fills, leftover)."""
        fills: list[Fill] = []
        buy = taker.side is _BUY
        opp = _SELL if buy else _BUY
        levels = self._levels[opp]
        prices = self._prices[opp]
        best = 0 if buy else -1
        take = self._take
        while qty > 0 and prices:
            price = prices[best]
            if eff_limit is not None and (price > eff_limit if buy else price < eff_limit):
                break
            level = levels[price]
            visible, hidden = level.visible, level.hidden
            while qty > 0 and visible:
                qty = take(level, next(iter(visible.values())), taker, qty, price, fills)
            while qty > 0 and hidden:
                qty = take(level, next(iter(hidden.values())), taker, qty, price, fills)
            if visible or hidden:
                break   # the level outlasted the taker
            del levels[price]
            del prices[best]
        if qty > 0 and eff_limit is not None and self._max_discretion[opp]:
            qty = self._consume_discretionary(taker, qty, eff_limit, fills)
        return fills, qty

    def _take(self, level: _Level, entry: SnapshotEntry, taker: Order,
              qty: int, price: int, fills: list[Fill]) -> int:
        """Fill up to ``qty`` from the entry (a display slice or a hidden
        remainder) at ``level`` and record the fill; returns the quantity still wanted."""
        maker_id, shares, hidden, priority = entry
        take = qty if qty < shares else shares
        taker_id, taker_side = taker.order_id, taker.side
        fill = _new(Fill, (taker_id, maker_id, price, take, self.clock, taker_side, hidden))
        fills.append(fill)
        self._fills.append(fill)
        ledger = self._ledger
        ledger[taker_id][1] += take
        ledger[maker_id][1] += take   # a resting order's ledger lives while it rests
        self.last_trade_price = price
        if self.log is not None:
            self.log.record(f"fill|{self.clock}|{taker_id}|{taker_side._value_}|{price}|{take}|"
                            f"maker={maker_id},maker_hidden={'1' if hidden else '0'}\n")
        queue = level.hidden if hidden else level.visible
        if not hidden:
            level.shown -= take
        if take < shares:
            queue[maker_id] = self._resting[maker_id] = _new(
                SnapshotEntry, (maker_id, shares - take, hidden, priority))
        else:
            del queue[maker_id]
            reserve = self._reserve.get(maker_id)
            if reserve:
                # Iceberg refresh: a new display_quantity slice at the back, fresh priority.
                peak = min(self._index[maker_id].display_quantity, reserve)
                if reserve > peak:
                    self._reserve[maker_id] = reserve - peak
                else:
                    del self._reserve[maker_id]
                level.shown += peak
                queue[maker_id] = self._resting[maker_id] = _new(
                    SnapshotEntry, (maker_id, peak, False, (self.clock, self._next_seq())))
            else:
                del self._index[maker_id]
                del self._resting[maker_id]
                if self.on_leave is not None:   # the ledgers above are final
                    self.on_leave(self, maker_id)
        return qty - take

    def _consume_discretionary(self, taker: Order, qty: int, eff_limit: int,
                               fills: list[Fill]) -> int:
        """Match resting orders whose discretion reaches the taker's limit.

        Trades print at the taker's effective limit; reach candidates rank
        behind everything displayed at that price (already consumed). A fresh
        walk after each take finds an iceberg's refilled slice at its new place.
        """
        opp = taker.side.opposite
        while qty > 0:
            level, entry = next(self._reaching(taker.side, eff_limit), (None, None))
            if level is None:
                break
            qty = self._take(level, entry, taker, qty, eff_limit, fills)
            self._drop_if_empty(opp, level)
        return qty

    # -- resting ------------------------------------------------------------

    def _rest(self, order: Order, leftover: int) -> None:
        oid, side, _, quantity, limit_price, display_quantity, _, _, _, discretion, _, _ = order
        display = min(quantity if display_quantity is None else display_quantity, leftover)
        self._seq += 1
        priority = (self.clock, self._seq)
        levels = self._levels[side]
        level = levels.get(limit_price)
        if level is None:
            level = levels[limit_price] = _Level(limit_price)
            bisect.insort(self._prices[side], limit_price)
        if display > 0:
            level.visible[oid] = entry = _new(SnapshotEntry, (oid, display, False, priority))
            level.shown += display
            if leftover > display:
                self._reserve[oid] = leftover - display
        else:
            level.hidden[oid] = entry = _new(SnapshotEntry, (oid, leftover, True, priority))
        self._index[oid] = order
        self._resting[oid] = entry
        if discretion > 0:
            self._max_discretion[side] = max(self._max_discretion[side], discretion)
        self._push_expiry(order)

    def _drop_if_empty(self, side: Side, level: _Level) -> None:
        if not level.visible and not level.hidden:
            del self._levels[side][level.price]
            prices = self._prices[side]
            del prices[bisect.bisect_left(prices, level.price)]

    # -- cancel / expiry ----------------------------------------------------

    def _remove(self, order_id: str) -> tuple[Order, int]:
        """Pull an order out of the book or a pending set; returns (order, qty removed)."""
        order = self._index.pop(order_id, None)
        if order is None:
            raise UnknownOrderError(order_id)
        entry = self._resting.pop(order_id, None)
        if entry is not None:
            _, removed, hidden, _ = entry
            side, price = order.side, order.limit_price
            levels = self._levels[side]
            level = levels[price]
            if hidden:
                del level.hidden[order_id]
            else:
                del level.visible[order_id]
                level.shown -= removed
            if not (level.visible or level.hidden):
                del levels[price]
                prices = self._prices[side]
                del prices[bisect.bisect_left(prices, price)]
            if self._reserve:   # the shares behind an iceberg's slice
                removed += self._reserve.pop(order_id, 0)
        else:
            removed = order.quantity
            # A GAT order is in neither dict: expire skips its heap entry.
            if self._stops.pop(order_id, None) is None:
                self._aons.pop(order_id, None)
        self._ledger[order_id][2] += removed
        if self.on_leave is not None:
            self.on_leave(self, order_id)
        return order, removed

    def cancel(self, order_id: str) -> int:
        order, removed = self._remove(order_id)
        self._log("cancel", order_id, order.side._value_, order.limit_price,
                  removed, "why=user")
        return removed

    def expire(self, clock: int) -> list[str]:
        """Remove dated orders past their horizon; activate due GAT orders."""
        if clock > self.clock:
            self.clock = clock
        clock, expiries, gats = self.clock, self._expiries, self._gats
        if not (expiries and expiries[0][0] <= clock or gats and gats[0][0] <= clock):
            return []
        expired: list[str] = []
        while expiries and expiries[0][0] <= clock:
            _, order_id = heapq.heappop(expiries)
            order = self._index.get(order_id)
            if order is None:
                continue
            tif, price = order.tif, order.limit_price
            due = order.tif_time if tif is _GTD else self.session_close if tif is _DAY else None
            if due is None or due > clock:
                continue   # a later order under a reused id
            _, removed = self._remove(order_id)
            if self.log is not None:
                self.log.record(f"expire|{clock}|{order_id}|{order.side._value_}|"
                                f"{'-' if price is None else price}|{removed}|tif={tif._value_}\n")
            expired.append(order_id)
        activated = False
        while gats and gats[0][0] <= clock:
            _, _, order = heapq.heappop(gats)
            oid = order.order_id
            if self._index.get(oid) is not order or oid in self._resting or oid in self._stops:
                continue   # cancelled before its start, or a resubmission already activated
            del self._index[oid]
            self._log("trigger", oid, order.side._value_, order.limit_price,
                      order.quantity, "kind=gat")
            self._enter(order)
            self._left_on_entry(oid)
            activated = True
        if (activated or expired) and (self._stops or self._aons):
            self._settle()
        return expired

    def _push_expiry(self, order: Order) -> None:
        if order.tif is _GTD and order.tif_time is not None:
            heapq.heappush(self._expiries, (order.tif_time, order.order_id))
        elif order.tif is _DAY and self.session_close is not None:
            heapq.heappush(self._expiries, (self.session_close, order.order_id))

    # -- stops / AON settle loop ---------------------------------------------

    def _fire_one_stop(self, price: int) -> Optional[Order]:
        for order in self._stops.values():
            hit = (price >= order.stop_price if order.side is _BUY
                   else price <= order.stop_price)
            if hit:
                break
        else:
            return None
        del self._stops[order.order_id]
        del self._index[order.order_id]
        converted = order._replace(kind=order.stop_kind)
        self._log("trigger", order.order_id, order.side._value_, order.stop_price,
                  order.quantity, f"kind=stop,as={converted.kind._value_}")
        if converted.kind is _MARKET and not self._prices[converted.side.opposite]:
            # nothing to hit: the stop dies rather than resting as a market order
            self._ledger[order.order_id][2] += order.quantity
            self._log("cancel", order.order_id, order.side._value_, None,
                      order.quantity, "why=stop-into-empty-book")
        else:
            self._enter(converted)
        self._left_on_entry(order.order_id)
        return order

    def _try_fire_aons(self) -> list[Order]:
        """Fire feasible AON orders, rescanning from the oldest after each one."""
        fired: list[Order] = []
        while True:
            for order in self._aons.values():
                eff_limit = self._effective_limit(order)
                if self._crossable(order.side, order.quantity, eff_limit) >= order.quantity:
                    break
            else:
                return fired
            del self._aons[order.order_id]
            del self._index[order.order_id]
            self._execute(order, order.quantity, eff_limit)
            self._left_on_entry(order.order_id)
            fired.append(order)

    def _settle(self) -> None:
        while True:
            fired_stop = (self._fire_one_stop(self.last_trade_price)
                          if self.last_trade_price is not None else None)
            fired_aons = self._try_fire_aons()
            if fired_stop is None and not fired_aons:
                break

    # -- views ----------------------------------------------------------------

    def snapshot(self, depth: Optional[int] = None, visibility: str = "public") -> BookSnapshot:
        """The best ``depth`` levels per side (``None``: all). Public: the levels
        with displayed shares, as price and total only. Omniscient: every level,
        with its per-order entries."""
        if depth is not None and depth < 0:
            raise ValueError(f"depth must be >= 0 or None, got {depth}")
        if visibility not in ("public", "omniscient"):
            raise ValueError(f"visibility must be 'public' or 'omniscient', got {visibility!r}")
        omniscient = visibility == "omniscient"
        bids = self._side_view(_BUY, depth, omniscient)
        asks = self._side_view(_SELL, depth, omniscient)
        stops = tuple(self._stops) if omniscient else ()
        aons = tuple(self._aons) if omniscient else ()
        return BookSnapshot(bids=bids, asks=asks, last_trade_price=self.last_trade_price,
                            clock=self.clock, pending_stops=stops, pending_aons=aons)

    def _side_view(self, side: Side, depth: Optional[int], omniscient: bool):
        levels = self._levels[side]
        reserve = self._reserve
        out = []
        for price in self._best_first(side):
            if len(out) == depth:
                break
            level = levels[price]
            if omniscient:
                entries = tuple(level.visible.values())
                entries += (*[_new(SnapshotEntry, (oid, reserve[oid], True, priority))
                              for oid, _, _, priority in entries if oid in reserve],
                            *level.hidden.values())
                out.append(_new(SnapshotLevel, (price, sum(map(_quantity, entries)), entries)))
            elif level.shown:
                out.append(_new(SnapshotLevel, (price, level.shown, ())))
        return tuple(out)

    # -- invariant checks (used by property tests) ----------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError on a broken book; explicit raises, so ``-O`` checks too."""
        for side in (_BUY, _SELL):
            prices = self._prices[side]
            if prices != sorted(prices):
                raise AssertionError("price index out of order")
            if len(prices) != len(self._levels[side]):
                raise AssertionError("price index and levels differ in size")
            for price in prices:
                level = self._levels[side][price]
                if not level.visible and not level.hidden:
                    raise AssertionError(f"empty level retained at {price}")
                for queue, hidden in ((level.visible, False), (level.hidden, True)):
                    keys = [e.priority for e in queue.values()]
                    if keys != sorted(keys):
                        raise AssertionError("queue violates time priority")
                    for oid, e in queue.items():
                        if e.quantity <= 0 or e.order_id != oid or e.hidden is not hidden:
                            raise AssertionError(f"bad entry for {oid}")
                        if self._resting.get(oid) is not e or oid not in self._index:
                            raise AssertionError(f"index does not point at {oid}")
                if level.shown != sum(e.quantity for e in level.visible.values()):
                    raise AssertionError(f"shown shares at {price} differ from the visible entries")
        queued = sum(len(lvl.visible) + len(lvl.hidden) for lvls in self._levels.values()
                     for lvl in lvls.values())
        if queued != len(self._resting):
            raise AssertionError("resting index and queues differ in size")
        for oid, shares in self._reserve.items():
            entry = self._resting.get(oid)
            if shares <= 0 or entry is None or entry.hidden:
                raise AssertionError(f"bad iceberg reserve for {oid}")
        visible_bid, visible_ask = self._best_visible(_BUY), self._best_visible(_SELL)
        if visible_bid is not None and visible_ask is not None and visible_bid >= visible_ask:
            raise AssertionError("crossed visible book at rest")

    def _best_visible(self, side: Side) -> Optional[int]:
        levels = self._levels[side]
        return next((p for p in self._best_first(side) if levels[p].visible), None)

    # -- plumbing -------------------------------------------------------------

    def _left_on_entry(self, order_id: str) -> None:
        """Report a triggered, fired or started pending order that did not come to rest."""
        if self.on_leave is not None and order_id not in self._index:
            self.on_leave(self, order_id)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _log(self, event: str, order_id: str, side: str, price: Optional[int],
             qty: int, flags: str) -> None:
        # Callers pass enum text as ``member._value_``, a plain attribute read;
        # ``.value`` would go through the enum descriptor on every line.
        if self.log is not None:
            self.log.record(f"{event}|{self.clock}|{order_id}|{side}|"
                            f"{'-' if price is None else price}|{qty}|{flags}\n")
