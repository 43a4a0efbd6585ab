"""Re-measure the ROADMAP's Baseline claims: one subcommand per claim.

    python tools/probes.py book-ops
    python tools/probes.py book-digest

book-ops  CPU µs per passive limit, market order and cancel on a bare
          ``OrderBook`` with 10, 1k and 10k price levels per side, once with
          no event log and once with a file-backed one. A timing probe: it
          prints the min and median, over REPEATS batches of OPS operations
          each (seeded with SEED), of the CPU time of this process only, so
          other processes on the host do not count, but host speed still
          does. Compare two commits only within one session, alternating
          runs.

book-digest  SHA-256 over SEQUENCES seeded sequences (seeds 0 on) of
          SEQUENCE_OPS operations each, drawn by ``tests/lob_driver.py``
          against a fresh book: after each operation its return value, the
          omniscient snapshot with priorities, every id's ledger and the ids
          ``on_leave`` reported; after each sequence its event-log text. A
          seeded probe: a change meant to keep the book's behaviour prints
          the parent's digest.

Run it from the root of a checkout: ``tradelab`` is imported from ``src/``.
Standard library, ``tradelab`` and ``tests/lob_driver.py`` only. Nothing
here is gated.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import random
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from lob_driver import _next_op, _step  # noqa: E402
from tradelab.orderbook import EventLog, Order, OrderBook, OrderKind, Side  # noqa: E402

BASE_PRICE = 100_000       # ticks; asks sit above it, bids below
DEPTHS = (10, 1_000, 10_000)
BOTTOMLESS = 10 ** 12      # the shares each level's first order rests, so no market order empties it
SEED = 1
REPEATS = 7
OPS = 2_000                # operations of each kind per repeat
SEQUENCES = 5_000          # book-digest
SEQUENCE_OPS = 60


def _bare_book(levels: int, log) -> OrderBook:
    """``levels`` prices per side, each holding one bottomless order."""
    book = OrderBook(log=log)
    for k in range(levels):
        book.submit(Order(f"s{k}", Side.SELL, OrderKind.LIMIT, BOTTOMLESS, BASE_PRICE + 1 + k))
        book.submit(Order(f"b{k}", Side.BUY, OrderKind.LIMIT, BOTTOMLESS, BASE_PRICE - 1 - k))
    return book


def _timed(fn, args: list) -> float:
    """CPU µs per call of ``fn(arg)`` over ``args``."""
    gc.collect()
    start = time.process_time_ns()
    for arg in args:
        fn(arg)
    return (time.process_time_ns() - start) / 1_000 / len(args)


def _book_ops_round(book: OrderBook, levels: int, ops: int, rng: random.Random,
                    tag: str) -> dict[str, float]:
    """One repeat: ``ops`` passive limits at existing levels, ``ops`` market
    orders against the bottomless best, then the limits cancelled in a
    shuffled order. The book ends the round in the shape it began it."""
    limits, markets = [], []
    for i in range(ops):
        buy = rng.random() < 0.5
        offset = 1 + rng.randrange(levels)
        limits.append(Order(f"p{tag}-{i}", Side.BUY if buy else Side.SELL, OrderKind.LIMIT,
                            rng.randint(1, 500),
                            BASE_PRICE - offset if buy else BASE_PRICE + offset))
        markets.append(Order(f"m{tag}-{i}", Side.BUY if rng.random() < 0.5 else Side.SELL,
                             OrderKind.MARKET, rng.randint(1, 500)))
    cancels = [order.order_id for order in limits]
    rng.shuffle(cancels)
    out = {"limit": _timed(book.submit, limits), "market": _timed(book.submit, markets),
           "cancel": _timed(book.cancel, cancels)}
    for order in limits + markets:   # untimed: keep per-order state bounded
        book.release(order.order_id)
    book.drop_fills(book.fill_count())
    return out


def book_ops() -> None:
    print(f"book-ops: seed {SEED}, {REPEATS} repeats of {OPS} operations per kind; "
          "CPU µs per operation of this process, min / median")
    print(f"{'levels':>7}  {'log':<5}  {'limit':>13}  {'market':>13}  {'cancel':>13}")
    with tempfile.TemporaryDirectory() as tmp:
        for levels in DEPTHS:
            for log_kind in ("none", "file"):
                rng = random.Random(f"book-ops:{SEED}:{levels}:{log_kind}")
                with open(Path(tmp) / "events.log", "w") as fh:
                    book = _bare_book(levels, None if log_kind == "none" else EventLog(fh))
                    rounds = [_book_ops_round(book, levels, OPS, rng, str(r))
                              for r in range(REPEATS)]
                cells = [f"{min(col):6.2f} / {median(col):4.2f}"
                         for col in ([r[k] for r in rounds] for k in ("limit", "market", "cancel"))]
                print(f"{levels:>7}  {log_kind:<5}  " + "  ".join(f"{c:>13}" for c in cells))


def book_digest() -> None:
    digest = hashlib.sha256()
    for seed in range(SEQUENCES):
        rng = random.Random(seed)
        left: list[str] = []
        book = OrderBook(session_close=10_000, log=EventLog(),
                         on_leave=lambda _, oid: left.append(oid))
        orders: dict[str, Order] = {}
        clock = 0
        for step in range(SEQUENCE_OPS):
            clock += rng.randint(0, 3)
            op = _next_op(rng, step, clock, book, orders)
            if op[0] == "submit":
                orders[op[1].order_id] = op[1]
            left.clear()
            result = _step(book, op)
            digest.update(repr((result, book.snapshot(visibility="omniscient"),
                                sorted((oid, book.ledger(oid)) for oid in orders),
                                left)).encode())
        digest.update(book.log.to_text().encode())
    print(f"book-digest: {SEQUENCES} sequences of {SEQUENCE_OPS} operations: "
          f"{digest.hexdigest()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="probe", required=True)
    sub.add_parser("book-ops", help="µs per book operation against depth, with and "
                                    "without an event log")
    sub.add_parser("book-digest", help="digest of every observable of seeded book "
                                       "operation sequences")
    if parser.parse_args(argv).probe == "book-ops":
        book_ops()
    else:
        book_digest()
    return 0


if __name__ == "__main__":
    sys.exit(main())
