"""Randomized operation-sequence driver for order-book property checks.

Each sequence submits a seeded mix of plain/iceberg/hidden limits, market
orders, IOC/FOK/AON instructions, stops, dated orders and cancels against a
fresh book, and now and then resubmits the id of an order the book no longer
holds (the same order or a new one), asserting after every operation:

  * structural invariants (sorted levels, FIFO queues, no crossed visible book)
  * consistent views: each omniscient level's total is the sum of its
    entries; the public view lists, in the same order, each omniscient level
    whose displayed (not hidden) entries sum above zero, with that sum as its
    total and no per-order entries; and each resting order's remaining
    quantity is the sum of its omniscient entries
  * price-time priority of the produced fills, visible-before-hidden at a price
  * share conservation: submitted == filled + cancelled + remaining, per order
    id, over the ledger summed across every submission of the id
  * a submit's returned fills lead the book's fill record of that submit
  * FOK atomicity (book state untouched by an unfillable FOK)
  * FOK and AON feasibility against an oracle that sums the omniscient
    entries the order could cross: an FOK is cancelled exactly when they fall
    short of its size, and no pending AON could fill
  * iceberg refills losing time priority
  * departures: the ids the book's ``on_leave`` hook reports during an
    operation are exactly the orders it held, before or during it, that it
    no longer holds (filled out, cancelled, expired, or a pending order that
    did not come to rest), each once
  * determinism: replaying the identical sequence reproduces fills and state

``run_differential`` drives the same sequences on two books, the second with
every plain order (the ones ``OrderBook.submit`` places in its own frame)
swapped for a twin that the book places through ``_enter``, and requires the
two to agree after every operation.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import replace

from tradelab.orderbook import (
    Disposition,
    EventLog,
    Order,
    OrderBook,
    OrderKind,
    Side,
    Tif,
)

PRICE_LO, PRICE_HI = 90, 110


class PropertyViolation(AssertionError):
    pass


def _random_order(rng: random.Random, i: int, book: OrderBook) -> Order:
    side = rng.choice((Side.BUY, Side.SELL))
    oid = f"o{i}"
    qty = rng.randint(1, 500)
    price = rng.randint(PRICE_LO, PRICE_HI)
    r = rng.random()
    if r < 0.55:
        u = rng.random()
        if u < 0.60:
            display = None
        elif u < 0.75:
            display = 0
        else:
            display = rng.randint(1, qty)
        disc = rng.choice((0, 0, 0, 1, 2))
        tif = rng.choice((Tif.GTC, Tif.GTC, Tif.GTC, Tif.DAY, Tif.IOC))
        return Order(oid, side, OrderKind.LIMIT, qty, limit_price=price,
                     display_quantity=display, discretion_offset=disc, tif=tif)
    if r < 0.65:
        return Order(oid, side, OrderKind.MARKET, qty)
    if r < 0.68 and book.last_trade_price is not None:
        return Order(oid, side, OrderKind.MARKET_WITH_PROTECTION, qty,
                     protection_offset=rng.randint(0, 2))
    if r < 0.76:
        return Order(oid, side, OrderKind.LIMIT, qty, limit_price=price, tif=Tif.FOK)
    if r < 0.83:
        return Order(oid, side, OrderKind.LIMIT, qty, limit_price=price, tif=Tif.AON)
    if r < 0.90:
        last = book.last_trade_price
        if last is None:
            stop_price = price
        elif side is Side.BUY:
            stop_price = last + rng.randint(0, 3)
        else:
            stop_price = last - rng.randint(0, 3)
        stop_kind = rng.choice((OrderKind.MARKET, OrderKind.LIMIT))
        lp = stop_price if stop_kind is OrderKind.LIMIT else None
        return Order(oid, side, OrderKind.STOP, qty, limit_price=lp,
                     stop_price=stop_price, stop_kind=stop_kind)
    if r < 0.95:
        return Order(oid, side, OrderKind.LIMIT, qty, limit_price=price,
                     tif=Tif.GTD, tif_time=rng.randint(1, 40))
    return Order(oid, side, OrderKind.LIMIT, qty, limit_price=price,
                 tif=Tif.GAT, tif_time=rng.randint(1, 40))


def _priority_map(book: OrderBook):
    """(side, price) -> ([visible ids in priority order], [hidden ids], all keys)."""
    snap = book.snapshot(visibility="omniscient")
    out = {}
    for side, levels in ((Side.BUY, snap.bids), (Side.SELL, snap.asks)):
        for lvl in levels:
            visible = [e for e in lvl.entries if not e.hidden]
            hidden = [e for e in lvl.entries if e.hidden]
            out[(side, lvl.price)] = (
                [e.order_id for e in visible],
                [e.order_id for e in hidden],
                {e.order_id: e.priority for e in visible},
            )
    return out


def _check_fill_sequence(taker: Order, fills, pre_map, orders) -> None:
    if not fills:
        return
    prices = [f.price for f in fills]
    if taker.side is Side.BUY:
        if prices != sorted(prices):
            raise PropertyViolation(f"buy fills not price-ordered: {prices}")
    else:
        if prices != sorted(prices, reverse=True):
            raise PropertyViolation(f"sell fills not price-ordered: {prices}")

    maker_side = taker.side.opposite
    first_hidden_at = {}
    for idx, f in enumerate(fills):
        maker = orders[f.maker_order_id]
        at_price = maker.limit_price == f.price
        if f.maker_was_hidden and at_price:
            first_hidden_at.setdefault(f.price, idx)
        if not f.maker_was_hidden and at_price:
            h = first_hidden_at.get(f.price)
            if h is not None and idx > h:
                raise PropertyViolation(
                    f"visible slice at {f.price} filled after hidden remainder")
        # fill price must respect both sides' (discretion-extended) limits
        if maker.limit_price is not None and maker.kind is OrderKind.LIMIT:
            if maker.side is Side.SELL:
                if f.price < maker.limit_price - maker.discretion_offset:
                    raise PropertyViolation(f"maker sold below limit: {f}")
            elif f.price > maker.limit_price + maker.discretion_offset:
                raise PropertyViolation(f"maker bought above limit: {f}")
        if taker.limit_price is not None and taker.kind is OrderKind.LIMIT:
            if taker.side is Side.BUY:
                if f.price > taker.limit_price + taker.discretion_offset:
                    raise PropertyViolation(f"taker bought above limit: {f}")
            elif f.price < taker.limit_price - taker.discretion_offset:
                raise PropertyViolation(f"taker sold below limit: {f}")

    # within a price, pre-existing visible slices must fill in priority order
    for price in set(prices):
        pre = pre_map.get((maker_side, price))
        if pre is None:
            continue
        pre_visible, pre_hidden, _ = pre
        seen = []
        for f in fills:
            if f.price != price or f.maker_was_hidden:
                continue
            if f.maker_order_id in pre_visible and f.maker_order_id not in seen:
                seen.append(f.maker_order_id)
        expected = [oid for oid in pre_visible if oid in seen]
        if seen != expected:
            raise PropertyViolation(
                f"time priority violated at {price}: filled {seen}, queue {expected}")
        hseen = []
        for f in fills:
            if f.price != price or not f.maker_was_hidden:
                continue
            if f.maker_order_id in pre_hidden and f.maker_order_id not in hseen:
                hseen.append(f.maker_order_id)
        hexpected = [oid for oid in pre_hidden if oid in hseen]
        if hseen != hexpected:
            raise PropertyViolation(
                f"hidden time priority violated at {price}: {hseen} vs {hexpected}")


def _check_conservation(book: OrderBook, submitted_by_id) -> None:
    for oid, shares in submitted_by_id.items():
        submitted, filled, cancelled = book.ledger(oid)
        resting = book.remaining(oid)
        if submitted != shares:
            raise PropertyViolation(f"{oid}: ledger holds {submitted} submitted, not {shares}")
        if submitted != filled + cancelled + resting:
            raise PropertyViolation(
                f"conservation broken for {oid}: {submitted} != "
                f"{filled}+{cancelled}+{resting}")


def _crossable_shares(taker: Order, omni, orders) -> int:
    """Shares ``taker`` could cross in the omniscient snapshot ``omni``.

    An entry counts when its price lies within the taker's discretion-widened
    limit, or when its own order's discretion (read from ``orders``) reaches
    that limit: at a buy taker's limit L, a sell resting at P with discretion
    d trades when P - d <= L.
    """
    buy = taker.side is Side.BUY
    levels = omni.asks if buy else omni.bids
    if taker.limit_price is None:
        return sum(lvl.total for lvl in levels)
    sign = 1 if buy else -1
    limit = taker.limit_price + sign * taker.discretion_offset
    return sum(e.quantity for lvl in levels for e in lvl.entries
               if sign * (lvl.price - limit) <= orders[e.order_id].discretion_offset)


def _check_pending_aons(book: OrderBook, orders) -> None:
    omni = book.snapshot(visibility="omniscient")
    for oid in omni.pending_aons:
        order = orders[oid]
        could = _crossable_shares(order, omni, orders)
        if could >= order.quantity:
            raise PropertyViolation(f"pending AON {oid} could fill: {could} >= {order.quantity}")


def _check_views(book: OrderBook) -> None:
    public = book.snapshot()
    omni = book.snapshot(visibility="omniscient")
    held = defaultdict(int)
    for pub_levels, omni_levels in ((public.bids, omni.bids), (public.asks, omni.asks)):
        for lvl in omni_levels:
            if lvl.total != sum(e.quantity for e in lvl.entries):
                raise PropertyViolation(f"level {lvl.price}: total is not the sum of entries")
        if any(lvl.entries != () for lvl in pub_levels):
            raise PropertyViolation("a public level carries per-order entries")
        displayed = [(lvl.price, sum(e.quantity for e in lvl.entries if not e.hidden))
                     for lvl in omni_levels]
        if [(lvl.price, lvl.total) for lvl in pub_levels] != [d for d in displayed if d[1] > 0]:
            raise PropertyViolation("public levels differ from the omniscient displayed shares")
        for lvl in omni_levels:
            for e in lvl.entries:
                held[e.order_id] += e.quantity
    for oid, quantity in held.items():
        if book.remaining(oid) != quantity:
            raise PropertyViolation(f"remaining({oid}) is not the sum of its entries")


def _check_refill_priority(book: OrderBook, pre_map) -> None:
    post = _priority_map(book)
    for key, (pre_visible, _, pre_keys) in pre_map.items():
        after = post.get(key)
        if after is None:
            continue
        _, _, post_keys = after
        if not pre_keys:
            continue
        pre_max = max(pre_keys.values())
        for oid, priority in post_keys.items():
            old = pre_keys.get(oid)
            if old is not None and priority > old and priority <= pre_max:
                raise PropertyViolation(
                    f"refilled slice {oid} did not lose time priority at {key}")


def _check_departures(book: OrderBook, op: tuple, result, held: set, left: list) -> None:
    """``left``, the ids reported during ``op``, against the ids ``held`` before it.

    Besides those, the op's own order was held during it if it pended (an
    AON or a stop, accepted) or came to rest.
    """
    if op[0] == "submit":
        rested = result.disposition in (Disposition.RESTING, Disposition.PARTIAL_RESTING)
        pended = op[1].tif is Tif.AON and result.disposition is not Disposition.REJECTED
        if rested or pended:
            held = held | {op[1].order_id}
    expected = sorted(held - book.order_ids())
    if sorted(left) != expected:
        raise PropertyViolation(f"{op[0]} reported departures {left}, expected {expected}")


def _next_op(rng: random.Random, step: int, clock: int, book: OrderBook, orders) -> tuple:
    """Draw the next op against ``book``; ``orders`` holds each id's latest submission."""
    roll = rng.random()
    live = sorted(book.order_ids())
    gone = sorted(set(orders).difference(live))   # filled, cancelled or expired
    if roll < 0.12 and live:
        return ("cancel", rng.choice(live), clock)
    if roll < 0.18:
        return ("expire", clock)
    order = _random_order(rng, step, book)
    if roll < 0.26 and gone:   # resubmit an id: the same order, or a new one
        oid = rng.choice(gone)
        order = orders[oid] if rng.random() < 0.5 else order._replace(order_id=oid)
    return ("submit", order, clock)


def run_sequence(seed: int, n_ops: int = 12) -> tuple[list, list]:
    """Drive one randomized sequence; returns (ops, fills) for replay checks."""
    rng = random.Random(seed)
    left: list[str] = []
    book = OrderBook(session_close=10_000, log=EventLog(),
                     on_leave=lambda _, oid: left.append(oid))
    ops: list[tuple] = []
    orders: dict[str, Order] = {}   # each id's latest submission
    submitted_by_id: dict[str, int] = defaultdict(int)
    clock = 0
    for step in range(n_ops):
        clock += rng.randint(0, 3)
        ops.append(_next_op(rng, step, clock, book, orders))
        if ops[-1][0] == "submit":
            order = ops[-1][1]
            orders[order.order_id] = order
            submitted_by_id[order.order_id] += order.quantity
        held = book.order_ids()
        left.clear()
        result = _apply(book, ops[-1], orders)
        _check_departures(book, ops[-1], result, held, left)
        book.check_invariants()
        _check_views(book)
        _check_conservation(book, submitted_by_id)
        _check_pending_aons(book, orders)
    return ops, book.fills_since(0)


def _apply(book: OrderBook, op: tuple, orders):
    """Apply one op with its per-op checks; returns a submit's result, else None."""
    if op[0] == "submit":
        _, order, clock = op
        pre_map = _priority_map(book)
        pre_snap = (book.snapshot(visibility="omniscient")
                    if order.tif is Tif.FOK else None)
        mark = book.fill_count()
        result = book.submit(order, clock=clock)
        # the result's fills lead the book's record of the submit (stops and
        # AONs it set off come after); an AON's result keeps only its own fills
        if order.tif is not Tif.AON and \
                book.fills_since(mark)[:len(result.fills)] != list(result.fills):
            raise PropertyViolation(f"{order.order_id}: result fills differ from the book's")
        _check_fill_sequence(order, result.fills, pre_map, orders)
        _check_refill_priority(book, pre_map)
        if order.tif is Tif.FOK and result.disposition is not Disposition.REJECTED:
            cancelled = result.disposition is Disposition.CANCELLED
            could = _crossable_shares(order, pre_snap, orders)
            if cancelled != (could < order.quantity):
                raise PropertyViolation(f"FOK {order.order_id} for {order.quantity} was "
                                        f"{result.disposition.value} with {could} crossable")
            if cancelled and result.fills:
                raise PropertyViolation("cancelled FOK produced fills")
            if cancelled and replace(book.snapshot(visibility="omniscient"), clock=0) \
                    != replace(pre_snap, clock=0):
                raise PropertyViolation("failed FOK mutated the book")
        return result
    _step(book, op)


def _step(book: OrderBook, op: tuple):
    """Apply one op, unchecked; returns a submit's result, a cancel's removed
    shares, or the ids an expire removed."""
    if op[0] == "submit":
        _, order, clock = op
        return book.submit(order, clock=clock)
    if op[0] == "cancel":
        _, target, clock = op
        book.clock = max(book.clock, clock)
        return book.cancel(target)
    return book.expire(op[1])


def replay(ops) -> tuple[list, "OrderBook"]:
    """Re-run a recorded op stream on a fresh book; returns (fills, book)."""
    book = OrderBook(session_close=10_000, log=EventLog())
    for op in ops:
        _step(book, op)
    return book.fills_since(0), book


def twin(order: Order) -> Order:
    """A plain order's book-equivalent twin that ``_enter`` places: its display
    size set to its quantity, which shows and logs the same. Others unchanged.

    Plain orders, which ``OrderBook.submit`` places in its own frame, are the
    fully displayed, non-discretionary GTC, GTD or IOC limit and market orders.
    """
    plain = (order.kind in (OrderKind.LIMIT, OrderKind.MARKET)
             and order.display_quantity is None and order.discretion_offset == 0
             and order.tif in (Tif.GTC, Tif.GTD, Tif.IOC))
    return order._replace(display_quantity=order.quantity) if plain else order


def run_differential(seed: int, n_ops: int = 12) -> int:
    """Drive one seeded sequence on two books, as generated and with every
    plain order swapped for its ``twin``; returns the plain submits it made.

    After every operation the two books must agree on the event-log text, the
    operation's return value (a submit's fills and disposition), the
    omniscient snapshot, every id's ledger and the ``on_leave`` reports.
    """
    rng = random.Random(seed)
    books, left = [], []
    for _ in range(2):
        departed: list[str] = []
        books.append(OrderBook(session_close=10_000, log=EventLog(),
                               on_leave=lambda _, oid, departed=departed: departed.append(oid)))
        left.append(departed)
    orders: dict[str, Order] = {}
    clock = plain = 0
    for step in range(n_ops):
        clock += rng.randint(0, 3)
        op = _next_op(rng, step, clock, books[0], orders)
        twin_op = op
        if op[0] == "submit":
            orders[op[1].order_id] = op[1]
            twin_op = ("submit", twin(op[1]), clock)
            plain += twin_op[1] is not op[1]
        seen = []
        for book, departed, each in zip(books, left, (op, twin_op)):
            result = _step(book, each)
            seen.append((book.log.to_text(), result, book.snapshot(visibility="omniscient"),
                         {oid: book.ledger(oid) for oid in orders}, departed[:]))
            departed.clear()
        if seen[0] != seen[1]:
            what = ("event log", "result", "omniscient snapshot", "ledgers", "departures")
            differ = [name for name, a, b in zip(what, *seen) if a != b]
            raise PropertyViolation(f"seed {seed}, op {step} {op}: the twin run differs in "
                                    f"{', '.join(differ)}")
    return plain


def run_suite(n_sequences: int, n_ops: int = 12, seed0: int = 0) -> int:
    """Run the full property suite; returns the number of sequences executed."""
    for i in range(n_sequences):
        seed = seed0 + i
        ops, fills = run_sequence(seed, n_ops=n_ops)
        replay_fills, replay_book = replay(ops)
        if replay_fills != fills:
            raise PropertyViolation(f"seed {seed}: replay fills diverged")
        ops2, fills2 = run_sequence(seed, n_ops=n_ops)
        if fills2 != fills:
            raise PropertyViolation(f"seed {seed}: nondeterministic sequence")
    return n_sequences
