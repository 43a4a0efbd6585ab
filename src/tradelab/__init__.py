"""tradelab: a simulated multi-venue limit-order-book trading laboratory.

Subpackages cover the matching engine (:mod:`tradelab.orderbook`), the seeded
market simulator (:mod:`tradelab.venue_sim`), execution algorithms and
order-placement tactics (:mod:`tradelab.exec_algos`, :mod:`tradelab.tactics`),
the market-impact / timing-risk cost model and optimal-rate solver
(:mod:`tradelab.cost_model`, :mod:`tradelab.optimizer`), transaction-cost
analysis (:mod:`tradelab.tca`), and the scenario harness / CLI
(:mod:`tradelab.scenario`, :mod:`tradelab.harness`, :mod:`tradelab.cli`).
"""

from tradelab.cost_model import ImpactParams, RateCoefficients, RiskParams
from tradelab.exec_algos import (
    AlgoSpec,
    ParentOrder,
    Schedule,
    TiltPolicy,
    run_algorithm,
)
from tradelab.optimizer import FrontierPoint, frontier, solve_constrained, solve_rate
from tradelab.orderbook import (
    BookSnapshot,
    Disposition,
    EventLog,
    Fill,
    Order,
    OrderBook,
    OrderKind,
    Side,
    SubmitResult,
    Tif,
    UnknownOrderError,
)
from tradelab.tca import ISReport, TapeTrade, TCAInputs, expanded_tc, shortfall
from tradelab.venue_sim import (
    MarketParams,
    MarketSim,
    VenueConfig,
    VolumeProfile,
    u_shape_profile,
)

__version__ = "0.1.0"

__all__ = [
    "AlgoSpec",
    "BookSnapshot",
    "Disposition",
    "EventLog",
    "Fill",
    "FrontierPoint",
    "ISReport",
    "ImpactParams",
    "MarketParams",
    "MarketSim",
    "Order",
    "OrderBook",
    "OrderKind",
    "ParentOrder",
    "RateCoefficients",
    "RiskParams",
    "Schedule",
    "Side",
    "SubmitResult",
    "TCAInputs",
    "TapeTrade",
    "Tif",
    "TiltPolicy",
    "UnknownOrderError",
    "VenueConfig",
    "VolumeProfile",
    "expanded_tc",
    "frontier",
    "run_algorithm",
    "shortfall",
    "solve_constrained",
    "solve_rate",
    "u_shape_profile",
    "__version__",
]
