"""Pre- and post-trade transaction-cost analysis.

Benchmarks (volume-weighted, time-weighted, four-point OHLC), the relative
performance measure, implementation shortfall and its expanded decomposition
with delay costs. Cost components follow a positive-adverse sign convention
for both sides: a buy paying above the decision price and a sell receiving
below it both report positive cost. Sell-side components are the negated
buy-side formulas.

All arithmetic is plain Python (sums of products), so exact types such as
``fractions.Fraction`` pass through untouched; the decomposition identities
are exact on tick-priced integer inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class TapeTrade:
    price: float
    size: float


@dataclass(frozen=True)
class TCAInputs:
    """Everything the shortfall measures need.

    ``decision_price`` may be omitted, in which case the arrival price (by
    convention the mid quote at order arrival) stands in as the benchmark.
    """

    side: str                      # "buy" | "sell"
    intended_qty: float            # X
    fills: Sequence[tuple]         # (qty, price) pairs
    final_price: float             # P_N, end of horizon
    decision_price: Optional[float] = None    # P_d
    arrival_price: Optional[float] = None     # P_0, order release
    fixed: float = 0.0

    @property
    def benchmark(self):
        if self.decision_price is not None:
            return self.decision_price
        if self.arrival_price is not None:
            return self.arrival_price
        raise ValueError("need a decision price or an arrival price benchmark")

    @property
    def sign(self) -> int:
        if self.side == "buy":
            return 1
        if self.side == "sell":
            return -1
        raise ValueError(f"side must be 'buy' or 'sell', got {self.side!r}")

    def executed(self):
        return sum(q for q, _ in self.fills)

    def traded_value(self):
        return sum(q * p for q, p in self.fills)


@dataclass(frozen=True)
class ISReport:
    execution_cost: float
    opportunity_cost: float
    fixed_cost: float
    total: float
    unexecuted: float
    delay_cost: Optional[float] = None
    trade_related_cost: Optional[float] = None


def vwap(tape: Sequence[TapeTrade]):
    """Volume-weighted average price: sum(V_i * P_i) / sum(V_i)."""
    if not tape:
        raise ValueError("empty trade tape")
    value = sum(t.size * t.price for t in tape)
    volume = sum(t.size for t in tape)
    return value / volume


def twap(tape: Sequence[TapeTrade]):
    """Unweighted mean trade price (size-blind by definition)."""
    if not tape:
        raise ValueError("empty trade tape")
    return sum(t.price for t in tape) / len(tape)


def ohlc(open_, high, low, close):
    """Four-point average (O+H+L+C)/4."""
    return (open_ + high + low + close) / 4


def rpm(tape: Sequence[TapeTrade], execution_price, side: str,
        basis: str = "volume"):
    """Relative performance: share of the market done at less favorable prices.

    For a buy, less favorable means strictly above the execution price; for a
    sell, strictly below. Prints exactly at the execution price count as
    favorable. ``basis`` selects volume weighting or a trade count.
    """
    if not tape:
        raise ValueError("empty trade tape")
    if side == "buy":
        worse = [t for t in tape if t.price > execution_price]
    elif side == "sell":
        worse = [t for t in tape if t.price < execution_price]
    else:
        raise ValueError(f"side must be 'buy' or 'sell', got {side!r}")
    if basis == "volume":
        total = sum(t.size for t in tape)
        bad = sum(t.size for t in worse)
    elif basis == "trades":
        total = len(tape)
        bad = len(worse)
    else:
        raise ValueError(f"basis must be 'volume' or 'trades', got {basis!r}")
    return bad / total


def shortfall(inputs: TCAInputs) -> ISReport:
    """Implementation shortfall split into execution and opportunity cost.

    execution = sign * (sum x_j p_j - (sum x_j) P_d)
    opportunity = sign * (X - sum x_j) (P_N - P_d)
    total = execution + opportunity + fixed

    With full execution the opportunity term vanishes and the total collapses
    to the classic fully-executed form sign*(sum x_j p_j - X P_d) + fixed.
    """
    executed = inputs.executed()
    if executed > inputs.intended_qty:
        raise ValueError("executed quantity exceeds intended quantity")
    s = inputs.sign
    bench = inputs.benchmark
    execution = s * (inputs.traded_value() - executed * bench)
    unexecuted = inputs.intended_qty - executed
    opportunity = s * unexecuted * (inputs.final_price - bench) + 0   # + 0 turns -0.0 into 0.0
    total = execution + opportunity + inputs.fixed
    return ISReport(execution_cost=execution, opportunity_cost=opportunity,
                    fixed_cost=inputs.fixed, total=total, unexecuted=unexecuted)


def expanded_tc(inputs: TCAInputs) -> ISReport:
    """Delay / trade-related / opportunity decomposition.

    delay = sign * sum x_j (P_0 - P_d)
    trade_related = sign * (sum x_j p_j - sum x_j P_0)
    opportunity = sign * (X - sum x_j)(P_N - P_d), shortfall's own term

    delay + trade_related telescopes exactly into shortfall's execution cost.
    """
    if inputs.arrival_price is None:
        raise ValueError("expanded decomposition needs the arrival price P_0")
    base = shortfall(inputs)
    s = inputs.sign
    executed = inputs.executed()
    bench = inputs.benchmark
    p0 = inputs.arrival_price
    delay = s * executed * (p0 - bench)
    trade_related = s * (inputs.traded_value() - executed * p0)
    total = delay + trade_related + base.opportunity_cost + inputs.fixed
    return ISReport(execution_cost=base.execution_cost, opportunity_cost=base.opportunity_cost,
                    fixed_cost=inputs.fixed, total=total, unexecuted=base.unexecuted,
                    delay_cost=delay, trade_related_cost=trade_related)


def paper_vs_real(inputs: TCAInputs):
    """(paper return, real return, shortfall) per the paper-portfolio measure.

    paper = sign * X (P_N - P_d); real values the executed position at P_N
    net of what was paid: sign * (X P_N - sum x_j p_j) - fixed, evaluated on
    the full intended size. The difference equals the shortfall total for
    fully executed orders.
    """
    s = inputs.sign
    bench = inputs.benchmark
    x = inputs.intended_qty
    paper = s * x * (inputs.final_price - bench)
    real = s * (x * inputs.final_price - inputs.traded_value()) - inputs.fixed
    return paper, real, paper - real


def report_text(report: ISReport, side: str, label: str = "tca") -> str:
    """Structured text rendering of an ISReport (one field per line)."""
    lines = [f"[{label}]", f"side = {side}"]
    lines.append(f"execution_cost = {report.execution_cost!r}")
    if report.delay_cost is not None:
        lines.append(f"delay_cost = {report.delay_cost!r}")
        lines.append(f"trade_related_cost = {report.trade_related_cost!r}")
    lines.append(f"opportunity_cost = {report.opportunity_cost!r}")
    lines.append(f"fixed_cost = {report.fixed_cost!r}")
    lines.append(f"total = {report.total!r}")
    lines.append(f"unexecuted = {report.unexecuted!r}")
    return "\n".join(lines) + "\n"
