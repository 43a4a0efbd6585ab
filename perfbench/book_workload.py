"""book_depth: a standalone `tradelab.OrderBook` driven by a seeded operation mix.

The mix runs over a ladder of book shapes: 10, 1k and 10k price levels per
side with one order each, and a single level per side with a queue of 10,
1k or 20k orders. Every operation is timed on its own. Writes are a passive
limit at an existing level, a market order that takes whole orders off the
opposite best, and a cancel at a random queue position; reads are
`remaining`, best bid or ask, and `snapshot(depth=...)`.

After each write the benchmark restores the shape, untimed: consumed and
cancelled orders are replaced at the back of their level, and a passive limit
is offset by cancelling the front order of its level. The benchmark keeps its
own mirror of every queue, so each operation's result is checked against
what price-time priority predicts.

The cyclic garbage collector stays on, as in real use, so a collection that
the book's allocations trigger during an operation is charged to it. Before
each shape's operations a full collection runs, untimed, and every object
then alive is frozen (`gc.freeze`): a collection during the round walks only
what the round allocated, not the other shapes' books or the benchmark's
mirrors, so its cost follows the book's own allocations.

Throughput is the geometric mean over the shapes of each shape's operations
per second. A cancel in a 20k queue costs about a thousand times one in a
short queue, so pooled operations per second would see only the deepest
queue; the geometric mean weighs every shape alike.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import random
from collections import defaultdict, deque
from statistics import geometric_mean

from common import Gauge, Outcome

BASE_PRICE = 100_000          # ticks; asks sit above it, bids below
MAX_QTY = 500
# (name, price levels per side, orders per level)
SHAPES = (
    ("lv10", 10, 1),
    ("lv1000", 1000, 1),
    ("lv10000", 10000, 1),
    ("q10", 1, 10),
    ("q1000", 1, 1000),
    ("q20000", 1, 20000),
)
OPS_PER_SHAPE = 200           # operations per shape per request (one round)
MIX = (("limit", 20), ("market", 20), ("cancel", 20),   # percent of the operations
       ("remaining", 15), ("best", 20), ("snapshot", 5))
SNAPSHOT_DEPTHS = (1, 5, 10)


class _Shape:
    """One book plus the benchmark's mirror of its queues."""

    def __init__(self, tradelab, clock, name: str, levels: int, queue: int, seed: int):
        self.t = tradelab
        self.clock = clock
        self.name = name
        self.rng = random.Random(f"book_depth:{seed}:{name}")
        self.book = tradelab.OrderBook(venue_id=name)
        self.count = 0
        side_buy, side_sell = tradelab.Side.BUY, tradelab.Side.SELL
        # best price first on each side
        self.prices = {side_sell: [BASE_PRICE + 1 + k for k in range(levels)],
                       side_buy: [BASE_PRICE - 1 - k for k in range(levels)]}
        self.queues = {side: {p: deque() for p in prices}
                       for side, prices in self.prices.items()}
        self.gone: list[str] = []
        for k in range(levels):
            for _ in range(queue):
                for side in (side_sell, side_buy):
                    self.add(side, self.prices[side][k], self.rng.randint(1, MAX_QTY))

    def add(self, side, price: int, qty: int):
        """Rest a new limit order at the back of a level (untimed)."""
        oid = self._next_id()
        self.book.submit(self.t.Order(oid, side, self.t.OrderKind.LIMIT, qty,
                                      limit_price=price))
        self.queues[side][price].append((oid, qty))

    def _next_id(self) -> str:
        self.count += 1
        return f"{self.name}-{self.count}"

    def _pick(self):
        side = self.rng.choice((self.t.Side.BUY, self.t.Side.SELL))
        price = self.rng.choice(self.prices[side])
        queue = self.queues[side][price]
        return side, price, queue, self.rng.randrange(len(queue))

    def op(self, kind: str):
        """Run one operation; returns (start, host seconds, list of failed checks)."""
        t, rng, book, clock = self.t, self.rng, self.book, self.clock
        if kind == "limit":
            side, price, queue, _ = self._pick()
            qty = rng.randint(1, MAX_QTY)
            oid = self._next_id()
            order = t.Order(oid, side, t.OrderKind.LIMIT, qty, limit_price=price)
            start = clock()
            result = book.submit(order)
            elapsed = clock() - start
            bad = [] if (result.disposition is t.Disposition.RESTING and not result.fills) \
                else ["passive limit did not rest"]
            queue.append((oid, qty))
            front, front_qty = queue.popleft()
            if book.cancel(front) != front_qty:
                bad.append("front cancel removed the wrong quantity")
            self.gone.append(front)
            return start, elapsed, bad
        if kind == "market":
            side = rng.choice((t.Side.BUY, t.Side.SELL))
            opposite = side.opposite
            want = rng.randint(1, 3)
            taken = []
            for price in self.prices[opposite]:
                queue = self.queues[opposite][price]
                while queue and len(taken) < want:
                    taken.append((price,) + queue.popleft())
                if len(taken) == want:
                    break
            order = t.Order(self._next_id(), side, t.OrderKind.MARKET,
                            sum(qty for _, _, qty in taken))
            start = clock()
            result = book.submit(order)
            elapsed = clock() - start
            got = [(f.maker_order_id, f.quantity) for f in result.fills]
            bad = [] if got == [(oid, qty) for _, oid, qty in taken] \
                else ["market order fills break price-time priority"]
            for price, oid, qty in taken:
                self.gone.append(oid)
                self.add(opposite, price, qty)
            return start, elapsed, bad
        if kind == "cancel":
            side, price, queue, idx = self._pick()
            oid, qty = queue[idx]
            start = clock()
            removed = book.cancel(oid)
            elapsed = clock() - start
            del queue[idx]
            self.gone.append(oid)
            self.add(side, price, qty)
            return start, elapsed, ([] if removed == qty
                                    else ["cancel removed the wrong quantity"])
        if kind == "remaining":
            _, _, queue, idx = self._pick()
            oid, qty = queue[idx]
            start = clock()
            left = book.remaining(oid)
            elapsed = clock() - start
            return start, elapsed, ([] if left == qty
                                    else ["remaining disagrees with the queue"])
        if kind == "best":
            side = rng.choice((t.Side.BUY, t.Side.SELL))
            read = book.best_bid if side is t.Side.BUY else book.best_ask
            start = clock()
            best = read()
            elapsed = clock() - start
            return start, elapsed, ([] if best == self.prices[side][0]
                                    else ["wrong best price"])
        depth = rng.choice(SNAPSHOT_DEPTHS)
        start = clock()
        snap = book.snapshot(depth=depth)
        elapsed = clock() - start
        bad = []
        for side, levels in ((t.Side.BUY, snap.bids), (t.Side.SELL, snap.asks)):
            best = self.prices[side][0]
            if (len(levels) != min(depth, len(self.prices[side]))
                    or levels[0].price != best
                    or levels[0].total != sum(q for _, q in self.queues[side][best])):
                bad.append("snapshot disagrees with the queues")
        return start, elapsed, bad

    def check(self, entries: list) -> list[str]:
        """Book invariants and per-order share conservation, after a round."""
        bad = []
        try:
            self.book.check_invariants()
        except AssertionError as exc:
            bad.append(f"{self.name}: invariant broken: {exc}")
        resting = {oid: qty for _, oid, qty in entries}
        for queues in self.queues.values():
            for queue in queues.values():
                for oid, qty in queue:
                    submitted, filled, cancelled = self.book.ledger(oid)
                    if submitted - filled - cancelled != qty or resting.get(oid) != qty:
                        bad.append(f"{self.name}: ledger of {oid} does not conserve shares")
        for oid in self.gone:
            submitted, filled, cancelled = self.book.ledger(oid)
            if submitted - filled - cancelled != 0 or oid in resting:
                bad.append(f"{self.name}: ledger of removed {oid} does not conserve shares")
        self.gone.clear()
        return bad

    def entries(self) -> list:
        """(price, order id, quantity) of every resting order, in book order."""
        snap = self.book.snapshot(visibility="omniscient")
        return [(level.price, e.order_id, e.quantity)
                for level in snap.bids + snap.asks for e in level.entries]


class BookDepth:
    name = "book_depth"
    digest_requests = 1
    min_requests = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.quiet = contextlib.nullcontext
        self.gauge = Gauge()
        self.shapes: list[_Shape] = []
        # One operation sequence per round, the same for every shape. The mix
        # is exact and only its order is drawn, so every seed does the same work.
        self.plan = [kind for kind, share in MIX for _ in range(share * OPS_PER_SHAPE // 100)]
        random.Random(f"book_depth:{seed}:mix").shuffle(self.plan)

    def setup(self, work_dir) -> None:
        import tradelab
        self.shapes = []   # drop the old books before building, so they never coexist
        self.shapes = [_Shape(tradelab, self.gauge.clock, name, levels, queue, self.seed)
                       for name, levels, queue in SHAPES]

    def reset(self) -> None:
        self.setup(None)

    def books(self) -> list:
        return [shape.book for shape in self.shapes]

    def throughput(self, outcomes: list) -> float:
        """Geometric mean over the shapes of operations per reference second."""
        seconds: dict = defaultdict(float)
        count: dict = defaultdict(int)
        for o in outcomes:
            for (_, shape), latency in zip(o.labels, o.latencies):
                seconds[shape] += latency
                count[shape] += 1
        return geometric_mean(count[shape] / seconds[shape] for shape in seconds)

    def request(self, i: int) -> Outcome:
        starts, latencies, labels, failures = [], [], [], []
        failed = 0
        h = hashlib.sha256()
        for shape in self.shapes:
            fills_mark = shape.book.fill_count()
            gc.collect()
            gc.freeze()
            try:
                for kind in self.plan:
                    try:
                        start, elapsed, bad = shape.op(kind)
                    except Exception as exc:   # noqa: BLE001 - counted as a failed operation
                        failed += 1
                        failures.append(f"{shape.name} {kind}: {exc!r}")
                        continue
                    starts.append(start)
                    latencies.append(elapsed)
                    labels.append((kind, shape.name))
                    if bad:
                        failed += 1
                        failures.extend(f"{shape.name} {kind}: {b}" for b in bad)
            finally:
                gc.unfreeze()
            with self.quiet():
                entries = shape.entries()
                bad = shape.check(entries)
                failed += len(bad)
                failures.extend(bad)
                for f in shape.book.fills_since(fills_mark):
                    h.update(f"{f.taker_order_id}|{f.maker_order_id}|{f.price}|{f.quantity}\n"
                             .encode())
                for price, oid, qty in entries:
                    h.update(f"{price}|{oid}|{qty}\n".encode())
        return Outcome(digest=h.hexdigest(), latencies=latencies, starts=starts,
                       attempted=len(self.plan) * len(self.shapes), failed=failed,
                       failures=failures, labels=labels)
