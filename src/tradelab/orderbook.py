"""Single-venue continuous-trading limit order book.

Price-time priority matching with the full order-type taxonomy used by the
rest of the package: market, limit, market-with-protection and stop orders,
iceberg display/reserve handling, fully hidden orders, discretionary limit
prices, and the usual time-in-force instructions (GTC, GTD, GAT, IOC, FOK,
AON, day).

Conventions:
    * Prices are integer ticks, quantities integer shares. The currency value
      of one tick is ``tick_size`` and is only used by reporting layers.
    * Within a price level, visible slices match strictly before hidden
      remainders; both queues are FIFO on (timestamp, sequence).
    * Iceberg reserves drain through display-sized refills; each refill gets
      a fresh timestamp/sequence and therefore loses time priority.
    * AON orders and stop orders wait in pending sets outside the book and
      are re-evaluated after every mutation; neither is ever partially
      filled while pending.
    * All operations are sequential per book instance (single writer).
    * Order ids are unique among the orders a book holds.

Layout and cost: an index maps each order id to its resting entry or its
pending order; each price level keeps its visible and hidden queues as
insertion-ordered dicts keyed by order id; each side keeps its prices in one
ascending list that matching reads in place. So ``cancel``, ``remaining`` and
the best bid/ask are O(1) whatever the queue length; a market order or a
passive limit costs the same at any book depth, plus one sorted-list insert
or delete per price level it creates or empties; ``snapshot`` is
O(entries returned).
"""

from __future__ import annotations

import bisect
import heapq
import io
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import NamedTuple, Optional, TextIO


class Side(str, Enum):
    BUY = "buy"
    SELL = "sell"

    @property
    def opposite(self) -> "Side":
        return Side.SELL if self is Side.BUY else Side.BUY


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


@dataclass(frozen=True, slots=True)
class Fill:
    taker_order_id: str
    maker_order_id: str
    price: int
    quantity: int
    time: int
    taker_side: Side
    maker_was_hidden: bool = False


@dataclass(frozen=True)
class SubmitResult:
    fills: tuple[Fill, ...]
    disposition: Disposition
    reason: Optional[str] = None


class SnapshotEntry(NamedTuple):
    order_id: str
    quantity: int
    hidden: bool
    priority: tuple[int, int]  # (timestamp, sequence)


@dataclass(frozen=True)
class SnapshotLevel:
    price: int
    total: int
    entries: tuple[SnapshotEntry, ...]


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

    Columns, in fixed order: event, clock, order-id, side, price-ticks, qty,
    flags. ``flags`` is a comma-joined ``key=value`` list, passed in already
    formatted; price is ``-`` for unpriced events (pure market orders).

    ``record`` writes each finished line, newline included, to ``stream``. By
    default that is an in-memory ``io.StringIO``, which ``lines`` and
    ``to_text`` read back. A scenario run passes each venue's open
    ``events_<venue>.log`` instead (and closes it itself), so its lines stream
    to disk as they happen and the session holds none of them.
    """

    COLUMNS = ("event", "clock", "order_id", "side", "price_ticks", "qty", "flags")
    DELIMITER = "|"

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = io.StringIO() if stream is None else stream
        self._write = self.stream.write

    def record(self, event: str, clock: int, order_id: str, side: str,
               price: Optional[int], qty: int, flags: str = "") -> None:
        price_text = "-" if price is None else price
        self._write(f"{event}|{clock}|{order_id}|{side}|{price_text}|{qty}|{flags}\n")

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

@dataclass(slots=True, eq=False)
class _Resting:
    order: Order
    visible_qty: int   # current display slice (0 for fully hidden entries)
    hidden_qty: int    # iceberg reserve, or the whole remainder when hidden
    priority: tuple[int, int]   # (timestamp, sequence)

    @property
    def remaining(self) -> int:
        return self.visible_qty + self.hidden_qty


class _Level:
    """One price: FIFO queues as insertion-ordered dicts, order id -> entry."""

    __slots__ = ("price", "visible", "hidden")

    def __init__(self, price: int) -> None:
        self.price = price
        self.visible: dict[str, _Resting] = {}
        self.hidden: dict[str, _Resting] = {}

    @property
    def empty(self) -> bool:
        return not self.visible and not self.hidden


class _Ledger:
    """Per-order share accounting: submitted = filled + cancelled + resting."""

    __slots__ = ("submitted", "filled", "cancelled")

    def __init__(self) -> None:
        self.submitted = 0
        self.filled = 0
        self.cancelled = 0


class OrderBook:
    """Continuous-trading book for one venue.

    The settle loop after every mutation first activates triggered stops
    (in stop-entry order), then fires feasible AON orders (in entry order),
    repeating until neither set changes.
    """

    def __init__(self, venue_id: str = "", tick_size: float = 1.0,
                 session_close: Optional[int] = None, log: Optional[EventLog] = None):
        self.venue_id = venue_id
        self.tick_size = tick_size
        self.session_close = session_close
        self.log = log
        self.clock = 0
        self.last_trade_price: Optional[int] = None
        self._levels: dict[Side, dict[int, _Level]] = {Side.BUY: {}, Side.SELL: {}}
        self._prices: dict[Side, list[int]] = {Side.BUY: [], Side.SELL: []}  # ascending
        # order_id -> resting entry, or the pending stop/AON/GAT order itself
        self._index: dict[str, _Resting | Order] = {}
        self._stops: dict[str, Order] = {}   # in entry order
        self._aons: dict[str, Order] = {}
        # heap (start, seq, order); a cancelled GAT's entry stays until its start
        self._gats: list[tuple[int, int, Order]] = []
        self._expiries: list[tuple[int, str]] = []      # heap (expiry tick, order_id)
        self._ledger: dict[str, _Ledger] = {}
        self._max_discretion: dict[Side, int] = {Side.BUY: 0, Side.SELL: 0}
        self._seq = 0
        self._fills: list[Fill] = []
        self._fill_base = 0   # session index of _fills[0]

    # -- small accessors ----------------------------------------------------

    def best_bid(self) -> Optional[int]:
        prices = self._prices[Side.BUY]
        return prices[-1] if prices else None

    def best_ask(self) -> Optional[int]:
        prices = self._prices[Side.SELL]
        return prices[0] if prices else None

    def mid(self) -> Optional[float]:
        bid, ask = self.best_bid(), self.best_ask()
        if bid is None or ask is None:
            return None
        return (bid + ask) / 2.0

    def remaining(self, order_id: str) -> int:
        held = self._index.get(order_id)
        if held is None:
            return 0
        return held.remaining if isinstance(held, _Resting) else held.quantity

    def ledger(self, order_id: str) -> tuple[int, int, int]:
        """(submitted, filled, cancelled) totals for an order id."""
        entry = self._ledger.get(order_id)
        if entry is None:
            return (0, 0, 0)
        return (entry.submitted, entry.filled, entry.cancelled)

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
        if clock is not None:
            self.clock = max(self.clock, clock)
        reason = self._validate(order)
        oid, side, _, quantity, limit_price, _, _, _, _, _, tif, tif_time = order
        led = self._ledger.setdefault(oid, _Ledger())
        led.submitted += quantity
        if self.log is not None:
            self._log("submit", oid, side._value_, limit_price,
                      quantity, self._submit_flags(order, rejected=reason))
        if reason is not None:
            led.cancelled += quantity
            return SubmitResult((), Disposition.REJECTED, reason)

        if tif is Tif.GAT and tif_time is not None and tif_time > self.clock:
            heapq.heappush(self._gats, (tif_time, self._next_seq(), order))
            self._index[oid] = order
            return SubmitResult((), Disposition.RESTING)

        result = self._enter(order)
        self._settle()
        return result

    def _enter(self, order: Order) -> SubmitResult:
        """Place an active (non-GAT-deferred) order: match, rest, or pend."""
        kind = order.kind
        if kind is OrderKind.STOP:
            self._next_seq()   # pending entries draw a sequence number like resting ones
            self._stops[order.order_id] = order
            self._index[order.order_id] = order
            self._push_expiry(order)
            return SubmitResult((), Disposition.RESTING)

        if kind is OrderKind.MARKET_WITH_PROTECTION:
            order = self._convert_protection(order)
        oid, side, kind, qty, limit_price, _, _, _, _, _, tif, _ = order

        if tif is Tif.AON:
            self._next_seq()
            self._aons[oid] = order
            self._index[oid] = order
            self._push_expiry(order)
            mark = len(self._fills)
            fired = self._try_fire_aons()
            if any(o.order_id == oid for o in fired):
                return SubmitResult(tuple(f for f in self._fills[mark:]
                                          if f.taker_order_id == oid),
                                    Disposition.FILLED)
            return SubmitResult((), Disposition.RESTING)

        eff_limit = self._effective_limit(order)

        if tif is Tif.FOK and self._crossable(side, qty, eff_limit) < qty:
            led = self._ledger[oid]
            led.cancelled += qty
            self._log("cancel", oid, side._value_, limit_price, qty, "why=fok-unfillable")
            return SubmitResult((), Disposition.CANCELLED)

        fills, leftover = self._execute(order, qty, eff_limit)

        if leftover > 0:
            if kind is OrderKind.MARKET or tif in (Tif.IOC, Tif.FOK):
                led = self._ledger[oid]
                led.cancelled += leftover
                if self.log is not None:
                    why = "market-exhausted" if kind is OrderKind.MARKET else tif._value_
                    self._log("cancel", oid, side._value_, limit_price, leftover, f"why={why}")
                disp = Disposition.CANCELLED
            else:
                self._rest(order, leftover)
                disp = Disposition.PARTIAL_RESTING if fills else Disposition.RESTING
        else:
            disp = Disposition.FILLED
        return SubmitResult(tuple(fills), disp)

    def _validate(self, order: Order) -> Optional[str]:
        (oid, side, kind, quantity, limit_price, display_quantity, stop_price, stop_kind,
         protection_offset, discretion_offset, tif, tif_time) = order
        if oid in self._index:
            return "order id already held by the book"
        if quantity <= 0:
            return "quantity must be positive"
        display = quantity if display_quantity is None else display_quantity
        if display < 0 or display > quantity:
            return "display_quantity outside [0, quantity]"
        if discretion_offset < 0:
            return "discretion_offset must be >= 0"
        acts_as = kind if kind is not OrderKind.STOP else stop_kind
        if acts_as is OrderKind.LIMIT and limit_price is None:
            return "limit order without limit_price"
        if acts_as is OrderKind.MARKET and limit_price is not None:
            return "market order carries a limit_price"
        if kind is OrderKind.MARKET_WITH_PROTECTION:
            if protection_offset is None:
                return "market-with-protection without protection_offset"
            if self.last_trade_price is None:
                return "market-with-protection without a reference trade price"
        if kind is OrderKind.STOP:
            if stop_price is None:
                return "stop order without stop_price"
            if stop_kind not in (OrderKind.MARKET, OrderKind.LIMIT):
                return "stop orders wrap market or limit only"
            if self.last_trade_price is not None:
                if side is Side.BUY and stop_price < self.last_trade_price:
                    return "buy stop below last trade"
                if side is Side.SELL and stop_price > self.last_trade_price:
                    return "sell stop above last trade"
        elif kind is OrderKind.MARKET and tif is not Tif.AON:
            # AON market orders may wait for liquidity; immediate ones need a book to hit.
            if not self._prices[side.opposite]:
                return "market order into empty opposite side"
        if tif is Tif.GTD and tif_time is None:
            return "gtd order without expiry"
        if tif is Tif.GAT and tif_time is None:
            return "gat order without start time"
        if tif is Tif.DAY and self.session_close is None:
            return "day order without a configured session close"
        return None

    def _convert_protection(self, order: Order) -> Order:
        offset = order.protection_offset or 0
        limit = (self.last_trade_price + offset if order.side is Side.BUY
                 else self.last_trade_price - offset)
        return order._replace(kind=OrderKind.LIMIT, limit_price=limit)

    def _effective_limit(self, order: Order) -> Optional[int]:
        if order.limit_price is None:
            return None
        if order.side is Side.BUY:
            return order.limit_price + order.discretion_offset
        return order.limit_price - order.discretion_offset

    # -- matching -----------------------------------------------------------

    def _acceptable(self, side: Side, price: int, eff_limit: Optional[int]) -> bool:
        if eff_limit is None:
            return True
        return price <= eff_limit if side is Side.BUY else price >= eff_limit

    def _best_first(self, side: Side):
        """The side's prices, best first, read in place (no copy)."""
        prices = self._prices[side]
        return reversed(prices) if side is Side.BUY else iter(prices)

    def _crossable(self, side: Side, needed: int, eff_limit: Optional[int]) -> int:
        """Total quantity a taker could cross right now, mirroring _execute.

        Walks the opposite side best first: whole levels while the price is
        acceptable, then the discretionary entries that reach the limit.
        """
        total = 0
        opp = side.opposite
        levels = self._levels[opp]
        max_disc = self._max_discretion[opp]
        for price in self._best_first(opp):
            level = levels[price]
            if self._acceptable(side, price, eff_limit):
                total += sum(e.remaining for e in level.visible.values())
                total += sum(e.remaining for e in level.hidden.values())
                if total >= needed:
                    return total
                continue
            if abs(price - eff_limit) > max_disc:
                break
            for entry in chain(level.visible.values(), level.hidden.values()):
                if self._reaches(entry, eff_limit):
                    total += entry.remaining
                    if total >= needed:
                        return total
        return total

    def _reaches(self, entry: _Resting, eff_limit: int) -> bool:
        disc = entry.order.discretion_offset
        if disc <= 0 or entry.order.limit_price is None:
            return False
        if entry.order.side is Side.SELL:
            return entry.order.limit_price - disc <= eff_limit
        return entry.order.limit_price + disc >= eff_limit

    def _execute(self, taker: Order, qty: int, eff_limit: Optional[int]) -> tuple[list[Fill], int]:
        fills: list[Fill] = []
        opp = taker.side.opposite
        levels = self._levels[opp]
        prices = self._prices[opp]
        best = 0 if opp is Side.SELL else -1
        while qty > 0 and prices:
            price = prices[best]
            if not self._acceptable(taker.side, price, eff_limit):
                break
            level = levels[price]
            qty = self._consume_level(level, taker, qty, price, fills)
            self._drop_if_empty(opp, level)
        if qty > 0 and eff_limit is not None and self._max_discretion[opp]:
            qty = self._consume_discretionary(taker, qty, eff_limit, fills)
        return fills, qty

    def _consume_level(self, level: _Level, taker: Order, qty: int,
                       trade_price: int, fills: list[Fill]) -> int:
        while qty > 0 and level.visible:
            entry = next(iter(level.visible.values()))
            qty = self._take(level, entry, False, taker, qty, trade_price, fills)
        while qty > 0 and level.hidden:
            entry = next(iter(level.hidden.values()))
            qty = self._take(level, entry, True, taker, qty, trade_price, fills)
        return qty

    def _take(self, level: _Level, entry: _Resting, hidden: bool, taker: Order,
              qty: int, price: int, fills: list[Fill]) -> int:
        """Fill up to ``qty`` from the entry's display slice, or from its hidden
        remainder when ``hidden``; returns the quantity still wanted."""
        oid = entry.order.order_id
        if hidden:
            take = min(qty, entry.hidden_qty)
            entry.hidden_qty -= take
            if entry.hidden_qty == 0:
                del level.hidden[oid]
                del self._index[oid]
        else:
            take = min(qty, entry.visible_qty)
            entry.visible_qty -= take
            if entry.visible_qty == 0:
                del level.visible[oid]
                if entry.hidden_qty > 0:
                    # Iceberg refresh: new display slice at the back, fresh priority.
                    entry.visible_qty = min(entry.order.display, entry.hidden_qty)
                    entry.hidden_qty -= entry.visible_qty
                    entry.priority = (self.clock, self._next_seq())
                    level.visible[oid] = entry
                else:
                    del self._index[oid]
        self._record_fill(taker, entry, price, take, hidden=hidden, fills=fills)
        return qty - take

    def _consume_discretionary(self, taker: Order, qty: int, eff_limit: int,
                               fills: list[Fill]) -> int:
        """Match resting orders whose discretion reaches the taker's limit.

        Trades print at the taker's effective limit; reach candidates rank
        behind everything displayed at that price (already consumed) and are
        walked in displayed-price order, visible before hidden.
        """
        opp = taker.side.opposite
        levels = self._levels[opp]
        max_disc = self._max_discretion[opp]
        while qty > 0:
            for price in self._best_first(opp):
                if self._acceptable(taker.side, price, eff_limit):
                    continue
                if abs(price - eff_limit) > max_disc:
                    return qty
                level = levels[price]
                entry = next((e for e in chain(level.visible.values(), level.hidden.values())
                              if self._reaches(e, eff_limit)), None)
                if entry is not None:
                    break
            else:
                return qty
            hidden = entry.order.order_id not in level.visible
            qty = self._take(level, entry, hidden, taker, qty, eff_limit, fills)
            self._drop_if_empty(opp, level)
        return qty

    def _record_fill(self, taker: Order, maker: _Resting, price: int, qty: int,
                     hidden: bool, fills: list[Fill]) -> None:
        taker_id, taker_side = taker.order_id, taker.side
        maker_id = maker.order.order_id
        fill = Fill(taker_id, maker_id, price, qty, self.clock, taker_side, hidden)
        fills.append(fill)
        self._fills.append(fill)
        ledger = self._ledger
        ledger[taker_id].filled += qty
        ledger.setdefault(maker_id, _Ledger()).filled += qty
        self.last_trade_price = price
        if self.log is not None:
            self._log("fill", taker_id, taker_side._value_, price, qty,
                      f"maker={maker_id},maker_hidden={int(hidden)}")

    # -- resting ------------------------------------------------------------

    def _rest(self, order: Order, leftover: int) -> None:
        oid, side, _, quantity, limit_price, display_quantity, _, _, _, discretion, _, _ = order
        display = min(quantity if display_quantity is None else display_quantity, leftover)
        entry = _Resting(order, display, leftover - display, (self.clock, self._next_seq()))
        level = self._level_for(side, limit_price)
        queue = level.visible if display > 0 else level.hidden
        queue[oid] = entry
        self._index[oid] = entry
        if discretion > 0:
            self._max_discretion[side] = max(self._max_discretion[side], discretion)
        self._push_expiry(order)

    def _level_for(self, side: Side, price: int) -> _Level:
        levels = self._levels[side]
        level = levels.get(price)
        if level is None:
            level = _Level(price)
            levels[price] = level
            bisect.insort(self._prices[side], price)
        return level

    def _drop_if_empty(self, side: Side, level: _Level) -> None:
        if level.empty:
            del self._levels[side][level.price]
            prices = self._prices[side]
            del prices[bisect.bisect_left(prices, level.price)]

    # -- cancel / expiry ----------------------------------------------------

    def _remove(self, order_id: str) -> tuple[Order, int]:
        """Pull an order out of the book or a pending set; returns (order, qty removed)."""
        held = self._index.pop(order_id, None)
        if held is None:
            raise UnknownOrderError(order_id)
        if isinstance(held, _Resting):
            order, removed = held.order, held.remaining
            level = self._levels[order.side][order.limit_price]
            if level.visible.pop(order_id, None) is None:
                del level.hidden[order_id]
            self._drop_if_empty(order.side, level)
        else:
            order, removed = held, held.quantity
            # A GAT order is in neither dict: expire skips its heap entry.
            if self._stops.pop(order_id, None) is None:
                self._aons.pop(order_id, None)
        self._ledger[order_id].cancelled += removed
        return order, removed

    def cancel(self, order_id: str) -> int:
        order, removed = self._remove(order_id)
        self._log("cancel", order_id, order.side._value_, order.limit_price,
                  removed, "why=user")
        return removed

    def expire(self, clock: int) -> list[str]:
        """Remove dated orders past their horizon; activate due GAT orders."""
        self.clock = max(self.clock, clock)
        expired: list[str] = []
        while self._expiries and self._expiries[0][0] <= self.clock:
            _, order_id = heapq.heappop(self._expiries)
            held = self._index.get(order_id)
            if held is None:
                continue
            order = held.order if isinstance(held, _Resting) else held
            if not self._is_expired(order):
                continue
            _, removed = self._remove(order_id)
            if self.log is not None:
                self._log("expire", order_id, order.side._value_, order.limit_price,
                          removed, f"tif={order.tif._value_}")
            expired.append(order_id)
        activated = False
        while self._gats and self._gats[0][0] <= self.clock:
            _, _, order = heapq.heappop(self._gats)
            if self._index.get(order.order_id) is not order:
                continue   # cancelled before its start
            del self._index[order.order_id]
            self._log("trigger", order.order_id, order.side._value_, order.limit_price,
                      order.quantity, "kind=gat")
            self._enter(order)
            activated = True
        if activated or expired:
            self._settle()
        return expired

    def _is_expired(self, order: Order) -> bool:
        if order.tif is Tif.GTD and order.tif_time is not None:
            return self.clock >= order.tif_time
        if order.tif is Tif.DAY and self.session_close is not None:
            return self.clock >= self.session_close
        return False

    def _push_expiry(self, order: Order) -> None:
        if order.tif is Tif.GTD and order.tif_time is not None:
            heapq.heappush(self._expiries, (order.tif_time, order.order_id))
        elif order.tif is Tif.DAY and self.session_close is not None:
            heapq.heappush(self._expiries, (self.session_close, order.order_id))

    # -- stops / AON settle loop ---------------------------------------------

    def trigger_stops(self, last_trade_price: Optional[int] = None) -> list[Order]:
        """Activate pending stops against the given (or current) trade price."""
        price = self.last_trade_price if last_trade_price is None else last_trade_price
        activated: list[Order] = []
        if price is None:
            return activated
        while True:
            fired = self._fire_one_stop(price)
            if fired is None:
                break
            activated.append(fired)
            price = self.last_trade_price if self.last_trade_price is not None else price
        self._settle()
        return activated

    def _fire_one_stop(self, price: int) -> Optional[Order]:
        for order in self._stops.values():
            hit = (price >= order.stop_price if order.side is Side.BUY
                   else price <= order.stop_price)
            if hit:
                break
        else:
            return None
        del self._stops[order.order_id]
        del self._index[order.order_id]
        converted = order._replace(kind=order.stop_kind)
        if self.log is not None:
            self._log("trigger", order.order_id, order.side._value_, order.stop_price,
                      order.quantity, f"kind=stop,as={converted.kind._value_}")
        if converted.kind is OrderKind.MARKET and not self._prices[converted.side.opposite]:
            # nothing to hit: the stop dies rather than resting as a market order
            self._ledger[order.order_id].cancelled += order.quantity
            self._log("cancel", order.order_id, order.side._value_, None,
                      order.quantity, "why=stop-into-empty-book")
        else:
            self._enter(converted)
        return order

    def _try_fire_aons(self) -> list[Order]:
        """Fire feasible AON orders, rescanning from the oldest after each one."""
        fired: list[Order] = []
        while True:
            for order in self._aons.values():
                eff_limit = self._effective_limit(order)
                if order.kind is OrderKind.MARKET and not self._prices[order.side.opposite]:
                    continue
                if self._crossable(order.side, order.quantity, eff_limit) >= order.quantity:
                    break
            else:
                return fired
            del self._aons[order.order_id]
            del self._index[order.order_id]
            self._execute(order, order.quantity, eff_limit)
            fired.append(order)

    def _settle(self) -> None:
        if not self._stops and not self._aons:
            return
        while True:
            fired_stop = (self._fire_one_stop(self.last_trade_price)
                          if self.last_trade_price is not None else None)
            fired_aons = self._try_fire_aons()
            if fired_stop is None and not fired_aons:
                break

    # -- views ----------------------------------------------------------------

    def snapshot(self, depth: Optional[int] = None, visibility: str = "public") -> BookSnapshot:
        omniscient = visibility == "omniscient"
        bids = self._side_view(Side.BUY, depth, omniscient)
        asks = self._side_view(Side.SELL, depth, omniscient)
        stops = tuple(self._stops) if omniscient else ()
        aons = tuple(self._aons) if omniscient else ()
        return BookSnapshot(bids=bids, asks=asks, last_trade_price=self.last_trade_price,
                            clock=self.clock, pending_stops=stops, pending_aons=aons)

    def _side_view(self, side: Side, depth: Optional[int], omniscient: bool):
        new = tuple.__new__   # what SnapshotEntry._make calls, minus the Python-level frame
        levels = self._levels[side]
        out = []
        for price in self._best_first(side):
            level = levels[price]
            entries = [new(SnapshotEntry, (oid, e.visible_qty, False, e.priority))
                       for oid, e in level.visible.items()]
            if omniscient:
                entries += [new(SnapshotEntry, (oid, e.hidden_qty, True, e.priority))
                            for oid, e in level.visible.items() if e.hidden_qty > 0]
                entries += [new(SnapshotEntry, (oid, e.hidden_qty, True, e.priority))
                            for oid, e in level.hidden.items()]
            if not entries:
                continue
            out.append(SnapshotLevel(price=price, total=sum(e.quantity for e in entries),
                                     entries=tuple(entries)))
            if depth is not None and len(out) >= depth:
                break
        return tuple(out)

    # -- invariant checks (used by property tests) ----------------------------

    def check_invariants(self) -> None:
        for side in (Side.BUY, Side.SELL):
            prices = self._prices[side]
            assert prices == sorted(prices), "price index out of order"
            assert len(prices) == len(self._levels[side])
            for price in prices:
                level = self._levels[side][price]
                assert not level.empty, f"empty level retained at {price}"
                keys = [e.priority for e in level.visible.values()]
                assert keys == sorted(keys), "visible queue violates time priority"
                hkeys = [e.priority for e in level.hidden.values()]
                assert hkeys == sorted(hkeys), "hidden queue violates time priority"
                for oid, e in chain(level.visible.items(), level.hidden.items()):
                    assert e.remaining > 0, "resting order with zero remaining"
                    assert self._index.get(oid) is e, f"index does not point at {oid}"
        bid, ask = self.best_bid(), self.best_ask()
        if bid is not None and ask is not None:
            visible_bid = self._best_visible(Side.BUY)
            visible_ask = self._best_visible(Side.SELL)
            if visible_bid is not None and visible_ask is not None:
                assert visible_bid < visible_ask, "crossed visible book at rest"

    def _best_visible(self, side: Side) -> Optional[int]:
        levels = self._levels[side]
        return next((p for p in self._best_first(side) if levels[p].visible), None)

    # -- plumbing -------------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _submit_flags(self, order: Order, rejected: Optional[str]) -> str:
        _, _, kind, quantity, _, display_quantity, stop_price, stop_kind, _, disc, tif, _ = order
        display = quantity if display_quantity is None else display_quantity
        flags = f"kind={kind._value_},tif={tif._value_},disp={display}"
        if kind is OrderKind.STOP:
            flags += f",stop={stop_price},as={stop_kind._value_}"
        if disc:
            flags += f",disc={disc}"
        if rejected:
            flags += ",rejected=" + rejected.replace(",", ";").replace("=", ":")
        return flags

    def _log(self, event: str, order_id: str, side: str, price: Optional[int],
             qty: int, flags: str) -> None:
        # Callers pass enum text as ``member._value_``, a plain attribute read;
        # ``.value`` would go through the enum descriptor on every line.
        if self.log is not None:
            self.log.record(event, self.clock, order_id, side, price, qty, flags)
