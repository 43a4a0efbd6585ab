"""Order-placement tactics.

Impact-driven: sequential slicing (synthetic icebergs) with size
randomization. Price-risk-driven: layering a ladder of standing limit orders
that preserves surviving rungs' time priority, a catching stop that turns
passive children aggressive when the price trends away, and a timing-urgency
factor. Opportunistic: pinging for hidden liquidity with IOC/FOK probes,
sniping displayed-or-estimated liquidity with marketable IOC orders, and
routing over a consolidated virtual book by price, execution probability,
latency and fees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from tradelab.orderbook import (
    BookSnapshot,
    Order,
    OrderBook,
    OrderKind,
    Side,
    Tif,
)
from tradelab.venue_sim import VenueConfig


# ---------------------------------------------------------------------------
# slicing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlicePolicy:
    display: int                 # child size (pre-jitter)
    jitter: float = 0.0          # max fractional size perturbation; 0 = fixed size
    seed: int = 0

    def __post_init__(self):
        if self.display <= 0:
            raise ValueError("display size must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def draw_slice_size(policy: SlicePolicy, rng: np.random.Generator) -> int:
    """One (possibly jittered) child size from the policy's stream.

    A synthetic iceberg draws its children in order from one generator seeded
    with ``policy.seed``; the caller caps each draw at the parent's remainder.
    Each child goes out only after the one before resolves, so a cross that a
    native iceberg's reserve would catch can be missed between slices.
    """
    size = policy.display
    if policy.jitter > 0:
        u = float(rng.uniform(-policy.jitter, policy.jitter))
        size = int(round(policy.display * (1.0 + u)))
    return max(1, size)


# ---------------------------------------------------------------------------
# layering
# ---------------------------------------------------------------------------

@dataclass
class LayerSet:
    """A ladder of standing limit orders on one side of the book."""

    side: Side
    offsets: tuple               # ticks away from mid, best rung first
    rung_size: int
    max_total: int               # parent remainder cap
    live: dict = field(default_factory=dict)    # price -> order_id
    _counter: int = 0

    def target_prices(self, mid: int) -> list[int]:
        if self.side is Side.BUY:
            return [mid - o for o in self.offsets]
        return [mid + o for o in self.offsets]


@dataclass(frozen=True)
class LayerActions:
    new_orders: tuple
    cancels: tuple               # order ids


def maintain_layers(layers: LayerSet, mid: int) -> LayerActions:
    """Reconcile the ladder against the current mid.

    Rungs that remain in the target set are left untouched (their book
    timestamps survive); missing rungs are added as new orders; rungs that
    fell off the ladder are cancelled. New rungs respect the total cap.
    """
    targets = layers.target_prices(mid)
    cancels = tuple(oid for price, oid in sorted(layers.live.items())
                    if price not in targets)
    for price in [p for p in list(layers.live) if p not in targets]:
        del layers.live[price]
    new_orders = []
    committed = layers.rung_size * len(layers.live)
    for price in targets:
        if price in layers.live or price <= 0:
            continue
        if committed + layers.rung_size > layers.max_total:
            break
        layers._counter += 1
        oid = f"layer-{layers.side.value}-{layers._counter}"
        new_orders.append(Order(oid, layers.side, OrderKind.LIMIT,
                                layers.rung_size, limit_price=price))
        layers.live[price] = oid
        committed += layers.rung_size
    return LayerActions(new_orders=tuple(new_orders), cancels=cancels)


# ---------------------------------------------------------------------------
# hidden-liquidity estimation and pinging
# ---------------------------------------------------------------------------

@dataclass
class HiddenLiquidityEstimate:
    pings_sent: int = 0
    pings_filled: int = 0        # pings that revealed hidden liquidity
    hidden_quantity_seen: int = 0

    @property
    def probability(self) -> float:
        """Beta-style posterior mean with a uniform prior."""
        return (self.pings_filled + 1.0) / (self.pings_sent + 2.0)

    @property
    def expected_hidden_size(self) -> float:
        if self.pings_filled == 0:
            return 0.0
        return self.hidden_quantity_seen / self.pings_filled


class HiddenLiquidityTracker:
    """Evidence counters per (venue, price), fed by ping outcomes.

    The tracker also numbers the pings sent on its behalf, so two trackers
    fed identical ping sequences produce identical order ids.
    """

    def __init__(self):
        self._estimates: dict[tuple[str, int], HiddenLiquidityEstimate] = {}
        self._pings = 0

    def next_ping_id(self) -> str:
        self._pings += 1
        return f"ping-{self._pings}"

    def estimate(self, venue_id: str, price: int) -> HiddenLiquidityEstimate:
        return self._estimates.setdefault((venue_id, price), HiddenLiquidityEstimate())

    def probability(self, venue_id: str, price: int) -> float:
        est = self._estimates.get((venue_id, price))
        return est.probability if est is not None else 0.5

    def record(self, venue_id: str, price: int, hidden_qty: int) -> HiddenLiquidityEstimate:
        est = self.estimate(venue_id, price)
        est.pings_sent += 1
        if hidden_qty > 0:
            est.pings_filled += 1
            est.hidden_quantity_seen += hidden_qty
        return est


@dataclass(frozen=True)
class PingResult:
    filled: int
    hidden_filled: int
    estimate: HiddenLiquidityEstimate


def ping(book: OrderBook, side: Side, price: int, qty: int, instruction: Tif,
         tracker: HiddenLiquidityTracker) -> PingResult:
    """Probe one price with an IOC or FOK limit order.

    Fill volume beyond the pre-ping visible depth at acceptable prices is
    attributed to hidden liquidity and recorded as evidence at (venue, price).
    """
    if instruction not in (Tif.IOC, Tif.FOK):
        raise ValueError("pings must be IOC or FOK; anything else leaves residue")
    visible_before = _visible_depth(book, side, price)
    order = Order(tracker.next_ping_id(), side, OrderKind.LIMIT, qty,
                  limit_price=price, tif=instruction)
    result = book.submit(order)
    filled = sum(f.quantity for f in result.fills)
    hidden_filled = max(0, filled - visible_before)
    est = tracker.record(book.venue_id, price, hidden_filled)
    return PingResult(filled=filled, hidden_filled=hidden_filled, estimate=est)


def _visible_depth(book: OrderBook, side: Side, price: int) -> int:
    """Visible opposite-side quantity at prices acceptable to a ``side`` limit."""
    snap = book.snapshot(visibility="public")
    levels = snap.asks if side is Side.BUY else snap.bids
    depth = 0
    for lvl in levels:
        if side is Side.BUY and lvl.price > price:
            break
        if side is Side.SELL and lvl.price < price:
            break
        depth += lvl.total
    return depth


# ---------------------------------------------------------------------------
# sniping
# ---------------------------------------------------------------------------

@dataclass
class SnipeWatch:
    """Standing watch that fires a marketable IOC when liquidity appears.

    ``check`` scans a public snapshot (and, optionally, hidden-liquidity
    estimates) for displayed-or-estimated liquidity at or better than the
    trigger; it emits at most one IOC order per call and never rests
    anything. After partial fills the watch re-arms for the remainder.
    """

    side: Side
    trigger: int
    qty: int
    probability_floor: float = 0.5
    _counter: int = 0

    def remaining(self) -> int:
        return self.qty

    def check(self, snap: BookSnapshot,
              tracker: Optional[HiddenLiquidityTracker] = None,
              venue_id: str = "") -> Optional[Order]:
        if self.qty <= 0:
            return None
        levels = snap.asks if self.side is Side.BUY else snap.bids
        visible = any(
            (lvl.price <= self.trigger if self.side is Side.BUY
             else lvl.price >= self.trigger) and lvl.total > 0
            for lvl in levels)
        estimated = False
        if not visible and tracker is not None:
            estimated = tracker.probability(venue_id, self.trigger) > self.probability_floor
        if not (visible or estimated):
            return None
        self._counter += 1
        return Order(f"snipe-{venue_id or 'x'}-{self._counter}", self.side,
                     OrderKind.LIMIT, self.qty, limit_price=self.trigger, tif=Tif.IOC)

    def on_result(self, filled: int) -> None:
        self.qty -= filled


# ---------------------------------------------------------------------------
# routing and the consolidated virtual book
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VirtualEntry:
    venue_id: str
    price: int
    visible_qty: int
    exec_probability: float
    fee: float                   # taker fee, currency/share
    latency: int


@dataclass(frozen=True)
class VirtualBook:
    bids: tuple
    asks: tuple


def aggregate(venues: Sequence[tuple[VenueConfig, OrderBook]],
              exec_probability: Optional[dict] = None,
              depth: Optional[int] = None) -> VirtualBook:
    """Merge public snapshots into one consolidated ladder.

    Entries are tagged with their venue, taker fee and latency; ordering is
    price priority first, then execution probability (descending), then
    venue id. Hidden depth never appears (public visibility only).
    ``depth`` keeps each venue's best ``depth`` levels with visible orders per
    side (``None``: all); ``depth=1``, its top of book, is all ``route`` reads.
    """
    probs = exec_probability or {}
    bids: list[VirtualEntry] = []
    asks: list[VirtualEntry] = []
    for config, book in venues:
        snap = book.snapshot(depth=depth, visibility="public")
        prob = probs.get(config.venue_id, 1.0)
        for levels, entries in ((snap.bids, bids), (snap.asks, asks)):
            entries.extend(VirtualEntry(config.venue_id, lvl.price, lvl.total, prob,
                                        config.taker_fee, config.latency)
                           for lvl in levels if lvl.total > 0)
    bids.sort(key=lambda e: (-e.price, -e.exec_probability, e.venue_id))
    asks.sort(key=lambda e: (e.price, -e.exec_probability, e.venue_id))
    return VirtualBook(bids=tuple(bids), asks=tuple(asks))


@dataclass(frozen=True)
class RouteWeights:
    price: float = 1.0
    exec_probability: float = 1.0
    latency: float = 1.0
    fee: float = 1.0

    def __post_init__(self):
        for name in ("price", "exec_probability", "latency", "fee"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} weight must be >= 0")


def candidates_from_virtual(vbook: VirtualBook, side: Side) -> list[VirtualEntry]:
    """Each venue's best entry on the side an order of ``side`` would hit."""
    entries = vbook.asks if side is Side.BUY else vbook.bids
    best: dict[str, VirtualEntry] = {}
    for e in entries:
        best.setdefault(e.venue_id, e)
    return list(best.values())


def route(candidates: Sequence[VirtualEntry], side: Side,
          weights: RouteWeights = RouteWeights()) -> str:
    """Pick the destination venue by weighted score; ties to lowest venue id.

    Price enters as ticks-from-best (0 is best), latency and fee min-max
    scaled across the candidate set; execution probability is used as-is.
    The argmax is invariant to scaling all weights by a positive constant.
    """
    if not candidates:
        raise ValueError("no candidate venues")
    if side is Side.BUY:
        best_price = min(c.price for c in candidates)
        ticks_from_best = {c.venue_id: c.price - best_price for c in candidates}
    else:
        best_price = max(c.price for c in candidates)
        ticks_from_best = {c.venue_id: best_price - c.price for c in candidates}
    lat = _minmax({c.venue_id: float(c.latency) for c in candidates})
    fee = _minmax({c.venue_id: c.fee for c in candidates})
    scored = []
    for c in candidates:
        score = (-weights.price * ticks_from_best[c.venue_id]
                 + weights.exec_probability * c.exec_probability
                 - weights.latency * lat[c.venue_id]
                 - weights.fee * fee[c.venue_id])
        scored.append((-score, c.venue_id))
    scored.sort()
    return scored[0][1]


def _minmax(values: dict[str, float]) -> dict[str, float]:
    lo, hi = min(values.values()), max(values.values())
    if hi == lo:
        return {k: 0.0 for k in values}
    return {k: (v - lo) / (hi - lo) for k, v in values.items()}


# ---------------------------------------------------------------------------
# catching and the timing factor
# ---------------------------------------------------------------------------

@dataclass
class CatchStop:
    """Cut losses when the price trends away from a passive working order.

    Trips once the mid moves adversely beyond ``threshold`` ticks from the
    reference; the caller then converts outstanding passive children to
    marketable IOC orders (``make_aggressive`` builds them).
    """

    side: Side
    reference_mid: float
    threshold: int
    tripped: bool = False

    def check(self, mid: float) -> bool:
        if self.tripped:
            return True
        adverse = (mid - self.reference_mid if self.side is Side.BUY
                   else self.reference_mid - mid)
        if adverse >= self.threshold:
            self.tripped = True
        return self.tripped

    def make_aggressive(self, book: OrderBook, order_id: str) -> Optional[Order]:
        """Cancel a resting child and re-issue it as a marketable IOC limit.

        With no opposite touch to take, the child keeps resting and the
        result is None.
        """
        remaining = book.remaining(order_id)
        touch = book.best_ask() if self.side is Side.BUY else book.best_bid()
        if remaining <= 0 or touch is None:
            return None
        book.cancel(order_id)
        return Order(f"{order_id}-x", self.side, OrderKind.LIMIT, remaining,
                     limit_price=touch, tif=Tif.IOC)


def timing_urgency(elapsed: int, horizon: int, liquidity_score: float = 1.0) -> float:
    """Urgency grows with elapsed time, faster for less liquid names."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if liquidity_score <= 0:
        raise ValueError("liquidity_score must be positive")
    return (elapsed / horizon) / liquidity_score


def price_step(base_price: int, side: Side, urgency: float,
               threshold: float = 1.0, contrarian: bool = False,
               tick: int = 1) -> int:
    """One aggressiveness step when urgency crosses the threshold.

    The passive rule prices one tick toward the market; the contrarian
    variant (mean-reversion view) flips the direction.
    """
    if urgency < threshold:
        return base_price
    step = tick if side is Side.BUY else -tick
    if contrarian:
        step = -step
    return base_price + step
