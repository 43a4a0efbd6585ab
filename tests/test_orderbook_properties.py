"""Seeded randomized property checks over the matching engine.

The full 10^4-sequence sweep lives in the acceptance suite; this is the
developer-loop slice of it plus a few directed edge sequences.
"""

import lob_driver
from tradelab.orderbook import Order, OrderBook, OrderKind, Side, Tif


def test_randomized_sequences_smoke():
    assert lob_driver.run_suite(600, n_ops=12) == 600


def test_longer_sequences():
    assert lob_driver.run_suite(50, n_ops=60, seed0=10_000) == 50


def test_plain_orders_place_as_their_enter_twins():
    # every plain order against its twin through ``_enter``, beside resting
    # discretionary, iceberg and hidden orders and pending stops and AONs
    plain = sum(lob_driver.run_differential(seed, n_ops=12) for seed in range(600))
    plain += sum(lob_driver.run_differential(seed, n_ops=60) for seed in range(10_000, 10_050))
    assert plain > 2000


def test_crossable_matches_actual_ioc_fill():
    # the FOK feasibility scan must mirror what a matching pass can take
    import copy
    import random
    rng = random.Random(7)
    for trial in range(300):
        book = OrderBook()
        for i in range(rng.randint(1, 12)):
            side = rng.choice((Side.BUY, Side.SELL))
            qty = rng.randint(1, 200)
            disp = rng.choice((None, 0, max(1, qty // 3)))
            book.submit(Order(f"s{trial}_{i}", side, OrderKind.LIMIT, qty,
                              limit_price=rng.randint(95, 105),
                              display_quantity=disp,
                              discretion_offset=rng.choice((0, 0, 1, 2))),
                        clock=i)
        side = rng.choice((Side.BUY, Side.SELL))
        qty = rng.randint(1, 600)
        price = rng.randint(95, 105)
        probe = Order("probe", side, OrderKind.LIMIT, qty, limit_price=price,
                      discretion_offset=rng.choice((0, 1)), tif=Tif.IOC)
        predicted = book._crossable(side, qty, book._effective_limit(probe))
        clone = copy.deepcopy(book)
        result = clone.submit(probe, clock=99)
        assert sum(f.quantity for f in result.fills) == min(qty, predicted)
