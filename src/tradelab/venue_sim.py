"""Deterministic seeded market simulator.

One simulation owns a set of venues (each a latency/fee wrapper around an
order book) and drives seeded background order flow against them tick by
tick: Poisson arrivals, geometric sizes, limit prices a few ticks around a
common fundamental price that follows an arithmetic random walk. Per-bucket
expected taker volume tracks the volume profile (z_j * ADV), so a full
session realizes roughly the average daily volume.

All randomness flows from one ``numpy`` generator constructed from the seed;
identical (params, seed) reproduce identical event streams, fills and books.
Background limit orders carry a TTL (GTD) so books stay bounded; a small
random-cancel churn exercises the cancel path.

``advance`` and ``run_session`` return nothing: the record of a run is each
book's fills and event log. A book keeps every fill unless its owner drops
them; the algorithm runner drops each fill once it has harvested it.

Stream v2, introduced with artifact v2 and unchanged in v3: the flow is
drawn in numpy blocks of ``BLOCK_TICKS`` ticks whose edges sit at fixed
clock values, so a session depends on the seed and the clock alone, not on
how ``advance`` is called. Stream v1 drew 3-4 scalar values per order and
2-3 per tick, so one seed gives different sessions under the two versions.

Per-order state follows the live book. Each book reports every order that
leaves it (filled out, expired or cancelled) through its ``on_leave`` hook,
and the venue's ``_LiveSet`` then drops a background order's ledger, side
and slot, so the simulator never probes a book for departures. A dispatched
order keeps its ledger until its owner releases it, as the algorithm runner
does once a child is done. A scenario run hands ``MarketSim`` file-backed
logs, so the log lines stream to disk as the session runs. On one full-day
session over three venues (the benchmark's ``heavy_day``) memory grows by
13-18 MB per run (bimodal in the seed) and under Python 3.11 a run takes
1.4 s. The simulator's own time per background order, outside the book, is
7.9 µs traced on ``heavy_day`` and 11.1 µs on ``pov_seed_sweep``, with the
flow drawn inside ``advance`` rather than in a per-tick helper (2-core Xeon,
``perfbench`` reference seconds, one traced pair).
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Mapping, Optional, Sequence

import numpy as np

from tradelab.orderbook import (
    EventLog,
    Fill,
    Order,
    OrderBook,
    OrderKind,
    Side,
    Tif,
    _new,
)

# Enum members read per order, bound once: see the note in ``orderbook``.
_BUY = Side.BUY
_SELL = Side.SELL
_MARKET = OrderKind.MARKET
_LIMIT = OrderKind.LIMIT
_GTC = Tif.GTC
_GTD = Tif.GTD

TRADING_DAYS_PER_YEAR = 250
BLOCK_TICKS = 1_000   # the flow is drawn for ticks (k*BLOCK_TICKS, (k+1)*BLOCK_TICKS]


@dataclass(frozen=True)
class VenueConfig:
    """Per-venue fees (currency/share, negative = rebate), latency and capabilities."""

    venue_id: str
    maker_fee: float = 0.0
    taker_fee: float = 0.0
    latency: int = 0
    supports_hidden: bool = True
    supports_iceberg: bool = True

    def __post_init__(self):
        if self.latency < 0:
            raise ValueError("latency must be >= 0")


@dataclass(frozen=True)
class VolumeProfile:
    """Per-bucket expected volume fractions, summing to one."""

    fractions: tuple

    def __post_init__(self):
        fr = tuple(float(f) for f in self.fractions)
        object.__setattr__(self, "fractions", fr)
        if not fr:
            raise ValueError("profile needs at least one bucket")
        if any(f < 0 for f in fr):
            raise ValueError("profile fractions must be >= 0")
        if abs(sum(fr) - 1.0) > 1e-9:
            raise ValueError("profile fractions must sum to 1")

    def __len__(self):
        return len(self.fractions)

    @classmethod
    def uniform(cls, buckets: int) -> "VolumeProfile":
        return cls(tuple(1.0 / buckets for _ in range(buckets)))

    def boundaries(self, session_ticks: int) -> list[tuple[int, int]]:
        """[start, end) tick ranges of each bucket over a session."""
        edges = _bucket_edges(len(self.fractions), session_ticks)
        return list(zip(edges, edges[1:]))

    def bucket_of(self, tick: int, session_ticks: int) -> int:
        """The bucket whose ``boundaries`` range holds ``tick`` (clamped to the session)."""
        n = len(self.fractions)
        return min(n - 1, max(0, bisect.bisect_right(_bucket_edges(n, session_ticks), tick) - 1))


@lru_cache(maxsize=32)
def _bucket_edges(buckets: int, session_ticks: int) -> tuple[int, ...]:
    """Start ticks of each bucket, then the session end: one list for both lookups."""
    return tuple(round(i * session_ticks / buckets) for i in range(buckets + 1))


def u_shape_profile(buckets: int, curvature: float = 3.0) -> VolumeProfile:
    """Symmetric convex intraday profile: heaviest at the open and close."""
    if buckets < 1:
        raise ValueError("buckets must be >= 1")
    if buckets == 1:
        return VolumeProfile((1.0,))
    weights = []
    for i in range(buckets):
        x = 2.0 * i / (buckets - 1) - 1.0   # -1 .. 1
        weights.append(1.0 + curvature * x * x)
    total = sum(weights)
    return VolumeProfile(tuple(w / total for w in weights))


@dataclass(frozen=True)
class MarketParams:
    """Market-level inputs: price level, volatility, volume, clocking, flow."""

    initial_price: float          # currency/share
    volatility: float             # annualized fraction
    adv: float                    # shares per day
    seed: int
    session_ticks: int = 23_400   # one simulated day
    intensity: float = 1.0        # background orders per tick per venue
    tick_size: float = 1.0        # currency per tick
    # background-flow texture (all deterministic under the seed)
    market_order_fraction: float = 0.25
    maker_size_mult: float = 2.0
    limit_ttl: int = 600
    max_quote_offset: int = 5
    cancel_prob: float = 0.01

    def __post_init__(self):
        if self.initial_price <= 0:
            raise ValueError("initial_price must be positive")
        if self.volatility < 0:
            raise ValueError("volatility must be >= 0")
        if self.adv <= 0:
            raise ValueError("adv must be positive")
        if self.seed < 0:   # numpy's generators take only seeds >= 0
            raise ValueError("seed must be >= 0")
        if self.session_ticks <= 0:
            raise ValueError("session_ticks must be positive")
        if self.tick_size <= 0:
            raise ValueError("tick_size must be positive")
        if self.intensity < 0:
            raise ValueError("intensity must be >= 0")
        # the order size means divide by the market fraction
        if not 0 < self.market_order_fraction <= 1:
            raise ValueError("market_order_fraction must be in (0, 1]")
        if self.maker_size_mult <= 0:
            raise ValueError("maker_size_mult must be positive")
        if self.limit_ttl < 1:
            raise ValueError("limit_ttl must be >= 1")
        if self.max_quote_offset < 1:
            raise ValueError("max_quote_offset must be >= 1")
        if not 0 <= self.cancel_prob <= 1:
            raise ValueError("cancel_prob must be in [0, 1]")

    @property
    def initial_price_ticks(self) -> int:
        return int(round(self.initial_price / self.tick_size))

    @property
    def per_tick_std_ticks(self) -> float:
        """Arithmetic-walk std per tick, in ticks: sigma*P0*sqrt(t_tick/year)."""
        t_tick = 1.0 / (TRADING_DAYS_PER_YEAR * self.session_ticks)
        return self.volatility * self.initial_price * math.sqrt(t_tick) / self.tick_size


def settle_fees(venue: VenueConfig, fill: Fill, role: str) -> float:
    """Fee owed on one fill: qty * (maker or taker) rate; rebates are negative."""
    if role == "maker":
        return fill.quantity * venue.maker_fee
    if role == "taker":
        return fill.quantity * venue.taker_fee
    raise ValueError(f"role must be 'maker' or 'taker', got {role!r}")


class MarketSim:
    """Seeded multi-venue simulation with per-tick background flow.

    ``logs`` maps each venue id to the event log its book records into; by
    default every venue gets its own in-memory ``EventLog``.
    """

    def __init__(self, params: MarketParams, venues: Optional[Sequence[VenueConfig]] = None,
                 profile: Optional[VolumeProfile] = None,
                 logs: Optional[Mapping[str, EventLog]] = None):
        self.params = params
        self.venues = {v.venue_id: v for v in (venues or [VenueConfig("V1")])}
        if not self.venues:
            raise ValueError("need at least one venue")
        self.profile = profile or VolumeProfile.uniform(13)
        self.rng = np.random.default_rng(params.seed)
        self.clock = 0
        self.fundamental = float(params.initial_price_ticks)
        # order id -> side of every resting background order; each venue's
        # _LiveSet keeps it
        self.order_sides: dict[str, Side] = {}
        self._live = {vid: _LiveSet(self.order_sides) for vid in self.venues}
        self.books: dict[str, OrderBook] = {
            vid: OrderBook(venue_id=vid, session_close=params.session_ticks,
                           log=EventLog() if logs is None else logs[vid],
                           on_leave=self._live[vid].leave)
            for vid in self.venues
        }
        self._inflight: list[tuple[int, int, str, Order]] = []   # (arrival, seq, venue, order)
        self._dispatch_seq = 0
        self._bg_count = 0
        self._tick_std = params.per_tick_std_ticks
        venue_share = 1.0 / len(self.venues)
        self._mean_taker = [   # mean market-order size per bucket
            max(1.0, z * params.adv * venue_share
                / max(max(1, end - start) * params.intensity * params.market_order_fraction,
                      1e-12))
            for z, (start, end) in zip(self.profile.fractions,
                                       self.profile.boundaries(params.session_ticks))]
        # log(1 - p) of the geometric size law per bucket, p = 1 / mean:
        # row 0 for limit (maker) orders, row 1 for market (taker) orders
        mean = np.array(self._mean_taker)
        with np.errstate(divide="ignore"):
            self._log_q = np.log1p(-np.minimum(1.0, 1.0 / np.array(
                [mean * params.maker_size_mult, mean])))
        # the current block of drawn flow: steps, counts, cancel picks and
        # orders (see _draw_block)
        self._block: tuple = ([], None, {}, iter(()))
        self._seed_depth()

    # -- wiring ---------------------------------------------------------------

    def book(self, venue_id: Optional[str] = None) -> OrderBook:
        if venue_id is None:
            venue_id = next(iter(self.books))
        return self.books[venue_id]

    def mid(self, venue_id: Optional[str] = None) -> Optional[float]:
        return self.book(venue_id).mid()

    def dispatch(self, venue_id: str, order: Order) -> int:
        """Queue an order for arrival at clock + venue latency; returns arrival tick.

        Orders violating the venue's hidden/iceberg capabilities are refused
        here (never dispatched) with a ValueError.
        """
        venue = self.venues[venue_id]
        display = order.display
        if display == 0 and not venue.supports_hidden:
            raise ValueError(f"venue {venue_id} does not support hidden orders")
        if 0 < display < order.quantity and not venue.supports_iceberg:
            raise ValueError(f"venue {venue_id} does not support iceberg orders")
        arrival = self.clock + venue.latency
        self._dispatch_seq += 1
        heapq.heappush(self._inflight, (arrival, self._dispatch_seq, venue_id, order))
        return arrival

    # -- main loop --------------------------------------------------------------

    def advance(self, dt: int) -> None:
        """Advance the clock dt ticks; fills and order events land in each book."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        limit_ttl = self.params.limit_ttl
        books = list(self.books.values())
        venues = [(f"bg-{vid}-", book, self._live[vid]) for vid, book in self.books.items()]
        inflight = self._inflight
        steps, counts, picks, orders = self._block
        clock, bg = self.clock, self._bg_count
        for _ in range(dt):
            self.clock = clock = clock + 1
            row = (clock - 1) % BLOCK_TICKS
            if row == 0:
                self._draw_block()
                steps, counts, picks, orders = self._block
            self.fundamental = fundamental = self.fundamental + steps[row]
            while inflight and inflight[0][0] <= clock:
                _, _, vid, order = heapq.heappop(inflight)
                self.books[vid].submit(order, clock=clock)
            for book in books:
                book.expire(clock)
            if counts is None:
                continue
            anchor = round(fundamental)
            expiry = clock + limit_ttl
            for (prefix, book, live), n in zip(venues, counts[row]):
                for buy, market, qty, offset in islice(orders, n):
                    bg += 1
                    oid = f"{prefix}{bg}"
                    side = _BUY if buy else _SELL
                    if market:
                        if (book.best_ask() if buy else book.best_bid()) is None:
                            continue
                        order = _new(Order, (oid, side, _MARKET, qty, None, None, None,
                                             _MARKET, None, 0, _GTC, None))
                    else:
                        order = _new(Order, (oid, side, _LIMIT, qty, max(1, anchor + offset),
                                             None, None, _MARKET, None, 0, _GTD, expiry))
                    book.submit(order, clock)
                    # keep state for a background order only while it rests; the
                    # disposition is no test, as a settle pass may already have taken
                    # a RESTING order out of the book
                    if not book.release(oid):
                        live.add(oid, side)
            self._bg_count = bg
            # a cancel touches only its venue's book, so it may follow every venue's orders
            for v, u in picks.get(row, ()):
                _, book, live = venues[v]
                if live:
                    book.cancel(live.pick(u))

    def run_session(self) -> None:
        """Advance to the session close; a no-op once the clock is there."""
        if self.clock < self.params.session_ticks:
            self.advance(self.params.session_ticks - self.clock)

    def _draw_block(self) -> None:
        """Draw the flow of the next ``BLOCK_TICKS`` ticks, from the current one on.

        In a fixed order: the fundamental's steps; each venue's Poisson
        order count and cancel uniforms (hit, pick) per tick; then per order
        its side, market flag, size uniform and quote offset. A size inverts
        its uniform through the geometric law whose mean is the taker or
        maker mean of the order's bucket. Of the cancel uniforms only the
        picks whose hit is below ``cancel_prob`` are kept, by block row.
        """
        p = self.params
        rng = self.rng
        venues = len(self.venues)
        steps = (rng.normal(0.0, self._tick_std, BLOCK_TICKS) if self._tick_std > 0
                 else np.zeros(BLOCK_TICKS)).tolist()
        picks: dict[int, list[tuple[int, float]]] = {}   # row -> [(venue, pick)]
        if p.intensity <= 0:
            self._block = (steps, None, picks, iter(()))
            return
        counts = rng.poisson(p.intensity, (BLOCK_TICKS, venues))
        if p.cancel_prob > 0:
            cancels = rng.random((BLOCK_TICKS, venues, 2))
            rows, cols = np.nonzero(cancels[:, :, 0] < p.cancel_prob)
            for row, v, u in zip(rows.tolist(), cols.tolist(), cancels[rows, cols, 1].tolist()):
                picks.setdefault(row, []).append((v, u))
        n = int(counts.sum())
        buy = rng.random(n) < 0.5
        market = rng.random(n) < p.market_order_fraction
        size_u = rng.random(n)
        offsets = rng.integers(1, p.max_quote_offset + 1, n)
        first_tick = self.clock - 1   # the tick bucket_of reads for this clock
        ticks = np.repeat(np.arange(first_tick, first_tick + BLOCK_TICKS), counts.sum(axis=1))
        edges = _bucket_edges(len(self.profile), p.session_ticks)
        buckets = np.clip(np.searchsorted(edges, ticks, side="right") - 1,
                          0, len(self.profile) - 1)
        log_q = self._log_q[market.astype(int), buckets]
        sizes = np.maximum(1, np.ceil(np.log1p(-size_u) / log_q)).astype(np.int64)
        # signed offsets: a buy quotes below the fundamental, a sell above
        self._block = (steps, counts.tolist(), picks,
                       zip(buy.tolist(), market.tolist(), sizes.tolist(),
                           np.where(buy, -offsets, offsets).tolist()))

    def _seed_depth(self) -> None:
        """Initial two-sided resting depth so early market orders have a book."""
        p = self.params
        anchor = p.initial_price_ticks
        mean = self._mean_taker[0] * p.maker_size_mult
        sizes = iter(self.rng.geometric(min(1.0, 1.0 / (mean * 3)),
                                        2 * p.max_quote_offset * len(self.venues)).tolist())
        for vid, book in self.books.items():
            for i in range(1, p.max_quote_offset + 1):
                for side, price in ((_BUY, anchor - i), (_SELL, anchor + i)):
                    self._bg_count += 1
                    order = Order(f"bg-{vid}-{self._bg_count}", side, _LIMIT, next(sizes),
                                  limit_price=max(1, price))
                    book.submit(order, clock=self.clock)
                    if not book.release(order.order_id):
                        self._live[vid].add(order.order_id, side)


class _LiveSet:
    """One venue's resting background ids: O(1) add, remove and uniform pick.

    A swap-remove list of the ids plus each id's position in it. ``sides`` is
    the sim's ``order_sides``, which every venue's set shares.
    """

    __slots__ = ("ids", "pos", "sides")

    def __init__(self, sides: dict[str, Side]) -> None:
        self.ids: list[str] = []
        self.pos: dict[str, int] = {}
        self.sides = sides

    def __len__(self) -> int:
        return len(self.ids)

    def add(self, order_id: str, side: Side) -> None:
        self.pos[order_id] = len(self.ids)
        self.ids.append(order_id)
        self.sides[order_id] = side

    def leave(self, book: OrderBook, order_id: str) -> None:
        """``on_leave``: drop a departed background order; owners release the rest."""
        i = self.pos.pop(order_id, None)
        if i is None:
            return
        last = self.ids.pop()
        if last != order_id:
            self.ids[i] = last
            self.pos[last] = i
        del self.sides[order_id]
        book.release(order_id)

    def pick(self, u: float) -> str:
        """The id at position ``int(u * len)`` for a uniform ``u`` in [0, 1)."""
        return self.ids[int(u * len(self.ids))]
