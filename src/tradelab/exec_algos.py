"""Execution algorithms: TWAP, VWAP, POV and the price-adaptive POV variant.

Schedule generators emit integer share targets whose sum equals the parent
quantity exactly (largest-remainder apportionment; remainder ties go to later
buckets). The runner drives child orders through a simulated market bucket by
bucket, honoring a max-child-size cap, the parent's price limit, and POV's
own-volume correction, slicing and routing children as its spec says, and
returns a full execution trace for analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from tradelab import tactics
from tradelab.orderbook import Order, OrderBook, OrderKind, Side, Tif
from tradelab.venue_sim import MarketSim, VolumeProfile, settle_fees


@dataclass(frozen=True)
class ParentOrder:
    side: Side
    quantity: int
    start: int
    end: int
    price_limit: Optional[int] = None      # ticks

    def __post_init__(self):
        if self.quantity <= 0:
            raise ValueError("quantity must be positive")
        if self.start < 0:
            raise ValueError("start must be >= 0")
        if self.end <= self.start:
            raise ValueError("end must lie after start (the parent horizon is empty)")
        if self.price_limit is not None and self.price_limit < 1:
            raise ValueError("price_limit must be >= 1 (a price in ticks)")

    @property
    def horizon(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class TiltPolicy:
    """Acceleration past a completion threshold, plus size/timing jitter."""

    threshold: float = 1.0     # completion fraction that triggers the tilt
    factor: float = 1.0        # multiplier on post-trigger bucket sizes
    jitter: float = 0.0        # max fractional jitter on size and timing
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if self.factor <= 0:
            raise ValueError("factor must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class Schedule:
    """Per-bucket share targets; offsets are intra-bucket placement jitter."""

    targets: tuple
    bucket_ticks: int
    offsets: tuple = ()

    def __post_init__(self):
        if any(t < 0 for t in self.targets):
            raise ValueError("schedule targets must be >= 0")

    @property
    def total(self) -> int:
        return sum(self.targets)

    def __len__(self):
        return len(self.targets)


def apportion(total: int, weights: Sequence[float]) -> list[int]:
    """Integer split of ``total`` proportional to ``weights``.

    Largest-remainder rounding keeps the sum exact; remainder ties are broken
    toward later buckets.
    """
    if total < 0:
        raise ValueError("total must be >= 0")
    wsum = float(sum(weights))
    if wsum <= 0:
        raise ValueError("weights must have positive sum")
    quotas = [total * float(w) / wsum for w in weights]
    base = [int(math.floor(q)) for q in quotas]
    leftover = total - sum(base)
    order = sorted(range(len(weights)), key=lambda i: (quotas[i] - base[i], i),
                   reverse=True)
    for i in order[:leftover]:
        base[i] += 1
    return base


def twap_schedule(parent: ParentOrder, bucket_ticks: int,
                  tilt: Optional[TiltPolicy] = None) -> Schedule:
    """Equal-sized buckets over the horizon (last bucket may be short).

    With a tilt, buckets after the completion threshold scale by the
    acceleration factor: the schedule then finishes early (factor > 1, final
    bucket clipped) or pushes its leftover into the last bucket (factor < 1);
    either way the total stays exactly the parent quantity. Jitter perturbs
    sizes (renormalized) and intra-bucket placement, all under the tilt seed.
    """
    if bucket_ticks <= 0:
        raise ValueError("bucket_ticks must be positive")
    n = math.ceil(parent.horizon / bucket_ticks)
    if n == 0:
        raise ValueError("empty horizon")
    targets = apportion(parent.quantity, [1.0] * n)
    offsets = tuple(0 for _ in range(n))
    if tilt is not None and tilt.factor != 1.0 and tilt.threshold < 1.0:
        targets = _apply_tilt(targets, parent.quantity, tilt)
    if tilt is not None and tilt.jitter > 0.0:
        targets, offsets = _apply_jitter(targets, parent.quantity, tilt, bucket_ticks)
    return Schedule(targets=tuple(targets), bucket_ticks=bucket_ticks, offsets=offsets)


def _apply_tilt(targets: list[int], total: int, tilt: TiltPolicy) -> list[int]:
    cum = 0
    trigger_idx = None
    for i, t in enumerate(targets):
        cum += t
        if cum >= tilt.threshold * total:
            trigger_idx = i
            break
    if trigger_idx is None or trigger_idx == len(targets) - 1:
        return targets
    out = list(targets[:trigger_idx + 1])
    remaining = total - sum(out)
    for t in targets[trigger_idx + 1:]:
        take = min(int(round(tilt.factor * t)), remaining)
        out.append(take)
        remaining -= take
    if remaining > 0:
        out[-1] += remaining
    return out


def _apply_jitter(targets: list[int], total: int, tilt: TiltPolicy,
                  bucket_ticks: int) -> tuple[list[int], tuple]:
    rng = np.random.default_rng(tilt.seed)
    factors = 1.0 + rng.uniform(-tilt.jitter, tilt.jitter, size=len(targets))
    weights = [t * f for t, f in zip(targets, factors)]
    if sum(weights) <= 0:
        weights = [float(t) for t in targets]
    jittered = apportion(total, weights)
    offsets = tuple(int(rng.uniform(0.0, tilt.jitter) * bucket_ticks)
                    for _ in targets)
    return jittered, offsets


def vwap_schedule(parent: ParentOrder, profile: VolumeProfile) -> Schedule:
    """Targets proportional to the volume profile: X_j = z_j * X, rounded."""
    targets = apportion(parent.quantity, profile.fractions)
    bucket_ticks = max(1, parent.horizon // len(profile))
    return Schedule(targets=tuple(targets), bucket_ticks=bucket_ticks)


def pov_child_size(other_volume: float, pr: float) -> int:
    """Child size targeting a participation rate against observed other volume.

    child = pr/(1-pr) * other, so child/(child+other) = pr before rounding.
    """
    if not 0.0 <= pr < 1.0:
        raise ValueError("participation rate must lie in [0, 1)")
    if other_volume < 0:
        raise ValueError("other_volume must be >= 0")
    return int(round(pr / (1.0 - pr) * other_volume))


def pov_adaptive_rate(base_pr: float, price: float, benchmark_price: float,
                      sensitivity: float, side: Side, pr_max: float = 0.95) -> float:
    """Linear participation adjustment against a price benchmark.

    Buys back off as price rises above the benchmark (and lean in below it);
    sells mirror. Result clamps to [0, pr_max].
    """
    if benchmark_price <= 0:
        raise ValueError("benchmark_price must be positive")
    deviation = (price - benchmark_price) / benchmark_price
    if side is Side.BUY:
        adjusted = base_pr * (1.0 - sensitivity * deviation)
    else:
        adjusted = base_pr * (1.0 + sensitivity * deviation)
    return min(max(adjusted, 0.0), pr_max)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgoSpec:
    """Config-file face of an algorithm instance.

    ``slice_policy`` splits each bucket's target into sequential child orders
    of (jittered) display size; ``route_weights`` send every child through
    the smart router over the consolidated public book when the simulation
    has more than one venue.
    """

    type: str                           # twap | vwap | pov | pov-adaptive
    bucket_ticks: int = 450             # twap bucket; POV window = bucket_ticks // 10
    pr: float = 0.1
    tilt: Optional[TiltPolicy] = None
    max_child: Optional[int] = None
    sensitivity: float = 0.0            # pov-adaptive only
    pr_max: float = 0.95
    both_sides_volume: bool = True      # POV measures both-sides traded volume
    slice_policy: Optional[tactics.SlicePolicy] = None   # twap and vwap only
    route_weights: Optional[tactics.RouteWeights] = None

    def __post_init__(self):
        if self.type not in ("twap", "vwap", "pov", "pov-adaptive"):
            raise ValueError(f"unknown algo type {self.type!r}")
        if self.bucket_ticks <= 0:
            raise ValueError("bucket_ticks must be positive")
        for name in ("pr", "pr_max"):   # a rate of 1 or more has no 1/(1-pr) correction
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.max_child is not None and self.max_child < 1:
            raise ValueError("max_child must be >= 1")
        if self.slice_policy is not None and self.type.startswith("pov"):
            raise ValueError("slice_policy must be None for POV, which never slices")


@dataclass
class TraceFill:
    tick: int
    price: int
    quantity: int
    child_id: str
    venue_id: str
    role: str             # taker | maker


@dataclass
class ExecutionTrace:
    parent: ParentOrder
    children: list[Order] = field(default_factory=list)
    fills: list[TraceFill] = field(default_factory=list)
    # twap/vwap: (bucket, bucket target, shares filled in the bucket);
    # pov: (window, cumulative own target, cumulative shares filled)
    realized: list[tuple[int, int, int]] = field(default_factory=list)
    residual: int = 0
    participation: Optional[float] = None
    arrival_price: Optional[float] = None   # ticks (mid at start)
    final_price: Optional[float] = None     # ticks (mid at end)
    fees: dict = field(default_factory=dict)
    filled: int = 0   # the shares of ``fills``, added as each is appended

    def average_price(self) -> Optional[float]:
        done = self.filled
        if done == 0:
            return None
        return sum(f.price * f.quantity for f in self.fills) / done


def run_algorithm(spec: AlgoSpec, parent: ParentOrder, sim: MarketSim) -> ExecutionTrace:
    """Execute a parent order against the simulation; returns the trace.

    The unfilled remainder at the horizon end is recorded as the trace
    residual (it feeds the opportunity-cost leg of the shortfall report). No
    child is sent that would arrive after the horizon end, so no share of the
    residual is still in flight.
    """
    return _Run(spec, parent, sim).execute()


class _Run:
    """One execution: sends the children, harvests their fills into the trace.

    ``ids`` maps every child id to its submission index, to attribute and
    order own fills. ``working`` maps each child that may still trade to its
    book and quantity; every child is a market order or an IOC limit, so it
    holds only children in flight or just arrived. A child whose ledger
    shows nothing left is retired: dropped, and its ledger released.
    ``harvest`` drops the fills it has read from each book. ``volume`` and
    ``other_volume`` accumulate all and non-own traded volume as fills are
    harvested, so POV sizing sees a gap-free view of the stream; with
    ``both_sides_volume`` off, ``other_volume`` counts only takers on the
    parent's side. Children go to the first venue unless the spec routes.
    """

    def __init__(self, spec: AlgoSpec, parent: ParentOrder, sim: MarketSim):
        self.spec, self.parent, self.sim = spec, parent, sim
        self.trace = ExecutionTrace(parent=parent)
        self.venue_id = next(iter(sim.venues))
        self.ids: dict[str, int] = {}   # child id -> submission index
        self.working: dict[str, tuple[OrderBook, int]] = {}   # child id -> (book, quantity)
        self.volume = 0
        self.other_volume = 0
        self._cursors = {vid: book.fill_count() for vid, book in sim.books.items()}
        self.slice_rng = (None if spec.slice_policy is None
                          else np.random.default_rng(spec.slice_policy.seed))
        one_sided = spec.type.startswith("pov") and not spec.both_sides_volume
        self.count_side: Optional[Side] = parent.side if one_sided else None

    def execute(self) -> ExecutionTrace:
        sim, parent, trace = self.sim, self.parent, self.trace
        if sim.clock < parent.start:
            sim.advance(parent.start - sim.clock)
        trace.arrival_price = sim.mid(self.venue_id) or float(sim.fundamental)
        self.harvest()        # move the cursors past pre-horizon flow
        self.volume = self.other_volume = 0
        if self.spec.type in ("twap", "vwap"):
            self.scheduled()
        else:
            self.pov()
        trace.residual = parent.quantity - trace.filled
        trace.final_price = sim.mid(self.venue_id) or float(sim.fundamental)
        # both runners end on a harvest, so the run has seen every fill
        trace.participation = (trace.filled / self.volume) if self.volume > 0 else None
        return trace

    def next_id(self) -> str:
        return f"child-{len(self.ids) + 1:04d}"

    def register(self, order: Order, book: OrderBook) -> None:
        self.ids[order.order_id] = len(self.ids)
        self.working[order.order_id] = (book, order.quantity)

    def harvest(self) -> None:
        """Pull new own fills into the trace, then retire finished children.

        Own fills enter the trace in time order, and within a tick in the
        order their children were submitted, whichever venue they filled on.
        """
        ids, trace = self.ids, self.trace
        count_side = self.count_side
        volume = other = 0
        own = []
        for vid, book in self.sim.books.items():
            fills = book.fills_since(self._cursors[vid])
            self._cursors[vid] += len(fills)
            book.drop_fills(self._cursors[vid])
            for f in fills:
                volume += f.quantity
                if f.taker_order_id in ids:
                    own.append((f.time, ids[f.taker_order_id], vid, f, "taker"))
                elif f.maker_order_id in ids:
                    own.append((f.time, ids[f.maker_order_id], vid, f, "maker"))
                elif count_side is None or f.taker_side is count_side:
                    other += f.quantity
        self.volume += volume
        self.other_volume += other
        own.sort(key=lambda item: item[:2])
        for _, _, vid, f, role in own:
            child = f.taker_order_id if role == "taker" else f.maker_order_id
            trace.fills.append(TraceFill(tick=f.time, price=f.price, quantity=f.quantity,
                                         child_id=child, venue_id=vid, role=role))
            trace.filled += f.quantity
            venue = self.sim.venues[vid]
            trace.fees[vid] = trace.fees.get(vid, 0.0) + settle_fees(venue, f, role)
        self.retire()

    def retire(self) -> None:
        """Drop each working child whose ledger shows nothing left, releasing it."""
        for oid, (book, qty) in list(self.working.items()):
            _, filled, cancelled = book.ledger(oid)
            if filled + cancelled == qty:
                del self.working[oid]
                book.release(oid)

    def outstanding(self) -> int:
        """Shares of working children neither filled nor cancelled; a child
        in flight has no ledger yet, so it counts in full."""
        left = 0
        for oid, (book, qty) in self.working.items():
            _, filled, cancelled = book.ledger(oid)
            left += qty - filled - cancelled
        return left

    def cancel_resting(self) -> None:
        """Cancel the working children that rest, in submission order, and retire them."""
        for oid, (book, _) in self.working.items():
            if book.remaining(oid) > 0:
                book.cancel(oid)
        self.retire()

    def route(self) -> str:
        """The venue of the next child: the router's pick over every venue's top of book."""
        weights, sim, side = self.spec.route_weights, self.sim, self.parent.side
        if weights is None or len(sim.venues) < 2:
            return self.venue_id
        vbook = tactics.aggregate([(cfg, sim.books[vid]) for vid, cfg in sim.venues.items()],
                                  depth=1)   # route reads only each venue's top of book
        cands = tactics.candidates_from_virtual(vbook, side)
        return tactics.route(cands, side, weights) if cands else self.venue_id

    def submit(self, qty: int) -> None:
        """Send one child: a market order, or an IOC limit at the parent's price cap."""
        if qty <= 0:
            return
        sim, parent = self.sim, self.parent
        venue_id = self.route()
        if sim.clock + sim.venues[venue_id].latency > parent.end:
            return   # it would arrive after the final harvest, uncounted
        book = sim.book(venue_id)
        opposite_best = (book.best_ask() if parent.side is Side.BUY else book.best_bid())
        if opposite_best is None and parent.price_limit is None:
            return   # market child into an empty book would be rejected
        oid = self.next_id()
        if parent.price_limit is not None:
            order = Order(oid, parent.side, OrderKind.LIMIT, qty,
                          limit_price=parent.price_limit, tif=Tif.IOC)
        else:
            order = Order(oid, parent.side, OrderKind.MARKET, qty)
        self.register(order, book)
        self.trace.children.append(order)
        sim.dispatch(venue_id, order)

    def submit_sliced(self, want: int, bucket_ticks: int, bucket_end: int) -> None:
        """Split a bucket target into sequential slice-policy children.

        Each child goes out only after a resolve step of a tenth of the
        schedule's bucket (market/IOC children clear within a tick or two), so
        the footprint is the randomized display size, not the bucket target.
        """
        sim = self.sim
        step = max(1, bucket_ticks // 10)
        while want > 0 and sim.clock < bucket_end:
            size = min(tactics.draw_slice_size(self.spec.slice_policy, self.slice_rng), want)
            self.submit(size)
            sim.advance(min(step, bucket_end - sim.clock))
            self.harvest()
            want -= size

    def scheduled(self) -> None:
        spec, parent, sim, trace = self.spec, self.parent, self.sim, self.trace
        if spec.type == "twap":
            schedule = twap_schedule(parent, spec.bucket_ticks, spec.tilt)
        else:
            schedule = vwap_schedule(parent, sim.profile)
        carry = 0
        for j, target in enumerate(schedule.targets):
            bucket_start = parent.start + j * schedule.bucket_ticks
            bucket_end = min(bucket_start + schedule.bucket_ticks, parent.end)
            if bucket_start >= parent.end:
                break
            offset = schedule.offsets[j] if j < len(schedule.offsets) else 0
            place_at = min(bucket_start + offset, bucket_end - 1)
            if place_at > sim.clock:
                sim.advance(place_at - sim.clock)
            self.harvest()
            remaining = parent.quantity - trace.filled - self.outstanding()
            want = min(target + carry, remaining)
            if spec.max_child is not None:
                want = min(want, spec.max_child)
            before = trace.filled
            if spec.slice_policy is not None:
                self.submit_sliced(want, schedule.bucket_ticks, bucket_end)
            else:
                self.submit(want)
            if bucket_end > sim.clock:
                sim.advance(bucket_end - sim.clock)
            self.harvest()
            done = trace.filled - before
            trace.realized.append((j, target, done))
            carry = max(0, carry + target - done)
            self.cancel_resting()
        if sim.clock < parent.end:
            sim.advance(parent.end - sim.clock)
            self.harvest()

    def pov(self) -> None:
        spec, parent, sim, trace = self.spec, self.parent, self.sim, self.trace
        window = max(1, spec.bucket_ticks // 10)
        window_idx = 0
        benchmark_price = trace.arrival_price or float(sim.fundamental)
        while sim.clock < parent.end:
            sim.advance(min(window, parent.end - sim.clock))
            self.harvest()
            pr = spec.pr
            if spec.type == "pov-adaptive" and benchmark_price > 0:
                mid = sim.mid(self.venue_id)
                if mid is not None:
                    pr = pov_adaptive_rate(spec.pr, mid, benchmark_price,
                                           spec.sensitivity, parent.side, spec.pr_max)
            target_own = pov_child_size(self.other_volume, pr)
            committed = trace.filled + self.outstanding()
            want = min(target_own - committed, parent.quantity - committed)
            if spec.max_child is not None:
                want = min(want, spec.max_child)
            if want > 0 and sim.clock < parent.end:
                self.submit(want)
                sim.advance(1)
                self.harvest()
            trace.realized.append((window_idx, target_own, trace.filled))
            window_idx += 1
        self.harvest()
        self.cancel_resting()
