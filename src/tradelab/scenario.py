"""Scenario configuration: a sectioned key/value file describing a full run.

The file format is INI (configparser): sections ``[scenario]``, ``[market]``,
one ``[venue:<id>]`` per venue, ``[parent]``, ``[algo]``, ``[tactics]``,
``[cost_model]``, ``[optimizer]`` and ``[tca]``. Only ``[scenario]`` with a
``seed`` is mandatory; a file with just cost/optimizer sections describes a
frontier-only scenario (no simulation).

Each section has one field table in ``SECTIONS``, and ``[algo]`` one per
``type`` in ``ALGO``: key, converter and default, in echo order. A type's
table holds only the keys it reads. ``load_scenario`` reads every section
through its table, makes every default explicit and rejects any key or
section the tables do not hold, naming a key that only another type reads as
inert; ``Scenario.echo`` writes the same tables back, so the echo is a
complete, reproducible description whose hash identifies the run. The one
input-only spelling is ``[optimizer] lambda_min/lambda_max/lambda_points``,
which the loader turns into the ``lambda_grid`` it echoes.

Prices in the file are in currency; they convert to integer ticks through
``market.tick_size`` wherever they meet the book.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, NamedTuple, Optional

from tradelab.cost_model import ImpactParams, RateCoefficients, RiskParams
from tradelab.exec_algos import AlgoSpec, ParentOrder, TiltPolicy
from tradelab.orderbook import Side
from tradelab.tactics import RouteWeights, SlicePolicy
from tradelab.venue_sim import MarketParams, VenueConfig, VolumeProfile, u_shape_profile

ARTIFACT_VERSION = "3"   # v3: the [algo] echo holds only the keys its type reads


class ScenarioError(ValueError):
    """Config parse or validation failure; message names the offending field."""


@dataclass
class TCAConfig:
    decision_price: Optional[float] = None   # currency; None -> arrival mid
    fixed: float = 0.0


@dataclass
class OptimizerConfig:
    lambda_grid: tuple
    alpha_min: float = 1e-4
    alpha_max: float = 1.0
    benchmark: str = "both"      # arrival | previous_close | both
    drift: float = 0.0

    def __post_init__(self):
        grid = self.lambda_grid
        if any(lam <= 0 for lam in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("lambda_grid must be positive and strictly increasing")
        if self.alpha_min <= 0:
            raise ValueError("alpha_min must be positive")
        if self.alpha_min > self.alpha_max:
            raise ValueError("alpha_min must not exceed alpha_max")


# ---------------------------------------------------------------------------
# field tables
# ---------------------------------------------------------------------------

REQUIRED = object()   # default of a field the file must give


class Kind(NamedTuple):
    """How a value reads from its file text and writes back to it."""

    parse: Callable[[str], Any]
    show: Callable[[Any], str]


class Field(NamedTuple):
    """One row of a section table.

    ``default`` is ``REQUIRED``, a value, ``None`` (optional: left out of the
    echo while unset) or a function of the scenario read so far. ``attr`` is
    the keyword of the object the field builds, when it is not ``key``.
    """

    key: str
    kind: Kind
    default: Any = REQUIRED
    attr: Optional[str] = None


def _bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_profile(spec: str) -> VolumeProfile:
    text = spec.strip().lower()
    if text.startswith("u") and text[1:].isdigit():
        return u_shape_profile(int(text[1:]))
    if text.startswith("uniform") and text[7:].isdigit():
        return VolumeProfile.uniform(int(text[7:]))
    fractions = tuple(float(x) for x in text.split(","))
    return VolumeProfile(fractions)


def _profile_spec(raw: str) -> str:
    _parse_profile(raw)   # validate; the echo keeps the spec as written
    return raw


def _grid(raw: str) -> tuple:
    return tuple(float(x) for x in raw.split(",")) if raw.strip() else ()


def _one_of(*options: str) -> Kind:
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected {' | '.join(options)}")
        return raw
    return Kind(parse, str)


FLOAT = Kind(float, repr)
INT = Kind(int, str)
TEXT = Kind(str, str)
BOOL = Kind(_bool, lambda b: str(b).lower())
SIDE = Kind(Side, lambda side: side.value)
PROFILE = Kind(_profile_spec, str)
GRID = Kind(_grid, lambda grid: ",".join(repr(x) for x in grid))

_TILT = (
    Field("tilt_threshold", FLOAT, 1.0, "threshold"),
    Field("tilt_factor", FLOAT, 1.0, "factor"),
    Field("tilt_jitter", FLOAT, 0.0, "jitter"),
    Field("tilt_seed", INT, lambda s: s.seed, "seed"),
)
_SLICE = (
    Field("slice_display", INT, None, "display"),
    Field("slice_jitter", FLOAT, 0.0, "jitter"),
    Field("slice_seed", INT, 0, "seed"),
)
_ROUTE = (
    Field("route_w_price", FLOAT, 1.0, "price"),
    Field("route_w_prob", FLOAT, 1.0, "exec_probability"),
    Field("route_w_latency", FLOAT, 1.0, "latency"),
    Field("route_w_fee", FLOAT, 1.0, "fee"),
)
_IMPACT = (
    Field("a1", FLOAT, 0.5, "scale"),
    Field("a2", FLOAT, 0.5, "size_exponent"),
    Field("a3", FLOAT, 0.75, "vol_exponent"),
    Field("b1", FLOAT, 0.8, "temp_fraction"),
    Field("adv", FLOAT, lambda s: s.market.adv if s.market else 1e6),
    Field("sigma", FLOAT, lambda s: s.market.volatility if s.market else 0.25),
    Field("price", FLOAT, lambda s: s.market.initial_price if s.market else 50.0),
    Field("order_size", FLOAT),
)
_HORIZON = Field("horizon_fraction", FLOAT, 0.1)
_LAMBDA_RANGE = (   # input-only: becomes lambda_grid when that is not given
    Field("lambda_min", FLOAT, 1e-8),
    Field("lambda_max", FLOAT, 1e-2),
    Field("lambda_points", INT, 50),
)

SECTIONS: dict[str, tuple[Field, ...]] = {
    "scenario": (
        Field("seed", INT),
        Field("name", TEXT, "scenario"),
        Field("format", _one_of("csv", "json"), "csv"),
    ),
    "market": (
        Field("initial_price", FLOAT),
        Field("tick_size", FLOAT, 1.0),
        Field("volatility", FLOAT, 0.25),
        Field("adv", FLOAT),
        Field("session_ticks", INT, 23_400),
        Field("intensity", FLOAT, 1.0),
        Field("profile", PROFILE, "u13"),
        Field("market_order_fraction", FLOAT, 0.25),
        Field("maker_size_mult", FLOAT, 2.0),
        Field("limit_ttl", INT, 600),
        Field("max_quote_offset", INT, 5),
        Field("cancel_prob", FLOAT, 0.01),
    ),
    "venue": (
        Field("maker_fee", FLOAT, 0.0),
        Field("taker_fee", FLOAT, 0.0),
        Field("latency", INT, 0),
        Field("supports_hidden", BOOL, True),
        Field("supports_iceberg", BOOL, True),
    ),
    "parent": (
        Field("side", SIDE),
        Field("quantity", INT),
        Field("start", INT, 0),
        Field("end", INT),
        Field("price_limit_ticks", INT, None, "price_limit"),
    ),
    "tactics": _SLICE + _ROUTE,
    "cost_model": _IMPACT + (_HORIZON,),
    "optimizer": (
        Field("lambda_grid", GRID, None),
        Field("alpha_min", FLOAT, 1e-4),
        Field("alpha_max", FLOAT, 1.0),
        Field("benchmark", _one_of("arrival", "previous_close", "both"), "both"),
        Field("drift", FLOAT, 0.0),
    ),
    "tca": (
        Field("fixed", FLOAT, 0.0),
        Field("decision_price", FLOAT, None),
    ),
}


# [algo] has one table per type, each holding only the keys that type reads.
_TYPE = Field("type", _one_of("twap", "vwap", "pov", "pov-adaptive"))
_BUCKET = Field("bucket_ticks", INT, 450)   # POV: the window is bucket_ticks // 10
_MAX_CHILD = Field("max_child", INT, None)
_POV = (_TYPE, _BUCKET, Field("pr", FLOAT, 0.1), Field("both_sides_volume", BOOL, True),
        _MAX_CHILD)
ALGO: dict[str, tuple[Field, ...]] = {
    "twap": (_TYPE, _BUCKET, *_TILT, _MAX_CHILD),
    "vwap": (_TYPE, _MAX_CHILD),
    "pov": _POV,
    "pov-adaptive": _POV + (Field("sensitivity", FLOAT, 0.0), Field("pr_max", FLOAT, 0.95)),
}


def _table(section: str, values: Optional[dict] = None) -> Optional[tuple[Field, ...]]:
    """A section's field table; [algo]'s is the one its loaded ``type`` picks."""
    if section == "algo":
        return ALGO[values["type"]]
    return SECTIONS.get("venue" if section.startswith("venue:") else section)


# ---------------------------------------------------------------------------
# the scenario
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    seed: int
    name: str = "scenario"
    report_format: str = "csv"
    market: Optional[MarketParams] = None
    profile: Optional[VolumeProfile] = None
    venues: list = field(default_factory=list)
    parent: Optional[ParentOrder] = None
    algo: Optional[AlgoSpec] = None
    cost: Optional[ImpactParams] = None
    risk: Optional[RiskParams] = None
    optimizer: Optional[OptimizerConfig] = None
    tca: TCAConfig = field(default_factory=TCAConfig)
    config: dict = field(default_factory=dict)   # section -> {key: value}, echo order

    def coefficients(self) -> RateCoefficients:
        if self.cost is None:
            raise ScenarioError("scenario has no [cost_model] section")
        return RateCoefficients.from_params(self.cost)

    def echo(self) -> str:
        """Fully materialized config text: every default made explicit."""
        out = []
        for section, values in self.config.items():
            lines = "".join(f"{f.key} = {f.kind.show(values[f.key])}\n"
                            for f in _table(section, values) if values[f.key] is not None)
            if lines:
                out.append(f"[{section}]\n{lines}\n")
        return "".join(out)

    def digest(self) -> str:
        return hashlib.sha256(self.echo().encode()).hexdigest()[:12]

    def header(self) -> str:
        return f"# tradelab-artifact v{ARTIFACT_VERSION} scenario={self.digest()}\n"


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def _read(parser, section: str, fields, scenario: Optional[Scenario]) -> dict:
    """The section's values by key, every default made explicit."""
    given = parser.options(section) if parser.has_section(section) else []
    known = {f.key for f in fields}
    for key in given:
        if key not in known:
            raise ScenarioError(f"unknown field [{section}].{key}")
    return {f.key: _value(parser, section, f, scenario) for f in fields}


def _value(parser, section: str, f: Field, scenario: Optional[Scenario]):
    """One field's value: parsed from the file, or its default made explicit."""
    if not parser.has_option(section, f.key):
        if f.default is REQUIRED:
            raise ScenarioError(f"missing required field [{section}].{f.key}")
        return f.default(scenario) if callable(f.default) else f.default
    raw = parser.get(section, f.key)
    try:
        return f.kind.parse(raw)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(
            f"invalid value for [{section}].{f.key}: {raw!r} ({exc})") from None


def _algo_table(parser) -> tuple[Field, ...]:
    """The table of the file's [algo] type; a key only other types read is inert."""
    kind = _value(parser, "algo", _TYPE, None)
    fields = ALGO[kind]
    own = {f.key for f in fields}
    _reject("algo", (f.key for table in ALGO.values() for f in table if f.key not in own),
            parser, f"type = {kind} never reads it")
    return fields


def _make(section: str, fields, factory, values: dict, **extra):
    """``factory`` called with the fields' values under their attribute names.

    A ValueError is reported against the field whose attribute its message
    starts with (the validation messages name their attribute first), else
    against the section.
    """
    kwargs = {f.attr or f.key: values[f.key] for f in fields}
    try:
        return factory(**kwargs, **extra)
    except ValueError as exc:
        subject = str(exc).split(" ", 1)[0]
        where = next((f"[{section}].{f.key}" for f in fields
                      if (f.attr or f.key) == subject), f"[{section}]")
        raise ScenarioError(f"invalid value for {where}: {exc}") from None


def _reject(section: str, keys, parser, why: str) -> None:
    for key in keys:
        if parser.has_option(section, key):
            raise ScenarioError(f"inert field [{section}].{key}: {why}")


def _lambda_grid(parser, values: dict) -> tuple:
    lo, hi, n = (values.pop(f.key) for f in _LAMBDA_RANGE)
    if values["lambda_grid"] is not None:
        _reject("optimizer", (f.key for f in _LAMBDA_RANGE), parser,
                "lambda_grid is given")
        return values["lambda_grid"]
    if lo <= 0 or hi <= lo or n < 1:
        raise ScenarioError("invalid [optimizer] lambda range: need "
                            "0 < lambda_min < lambda_max and lambda_points >= 1")
    ratio = (hi / lo) ** (1.0 / max(n - 1, 1))
    return tuple(lo * ratio ** i for i in range(n))


def load_scenario(path, seed: Optional[int] = None) -> Scenario:
    """Parse and validate a scenario file; all defaults come back explicit.

    ``seed`` replaces the file's ``[scenario].seed`` before any default is
    derived from it.
    """
    parser = configparser.ConfigParser()
    try:
        found = parser.read(path)
    except configparser.Error as exc:
        raise ScenarioError(f"parse error in {path}: {exc}")
    if not found:
        raise ScenarioError(f"scenario file not found: {path}")
    if not parser.has_section("scenario"):
        raise ScenarioError("missing required section [scenario]")
    for section in parser.sections():
        if section != "algo" and _table(section) is None:
            raise ScenarioError(f"unknown section [{section}]")

    v = _read(parser, "scenario", SECTIONS["scenario"], None)
    if seed is not None:
        v["seed"] = seed
    if v["seed"] < 0:   # every generator the run seeds takes only seeds >= 0
        raise ScenarioError(f"invalid value for [scenario].seed: {v['seed']} (must be >= 0)")
    scenario = Scenario(seed=v["seed"], name=v["name"], report_format=v["format"],
                        config={"scenario": v})

    def read(section, fields=None):
        values = _read(parser, section, fields or _table(section), scenario)
        scenario.config[section] = values
        return values

    if parser.has_section("market"):
        v = read("market")
        scenario.profile = _parse_profile(v["profile"])
        params = [f for f in SECTIONS["market"] if f.key != "profile"]
        scenario.market = _make("market", params, MarketParams, v, seed=scenario.seed)

    for section in parser.sections():
        if section.startswith("venue:"):
            vid = section.split(":", 1)[1]
            if not vid:
                raise ScenarioError(f"venue section with empty id: [{section}]")
            scenario.venues.append(_make(section, SECTIONS["venue"], VenueConfig,
                                         read(section), venue_id=vid))

    if parser.has_section("parent"):
        scenario.parent = _make("parent", SECTIONS["parent"], ParentOrder, read("parent"))

    if parser.has_section("algo"):
        fields = _algo_table(parser)
        v = read("algo", fields)
        tilt = _make("algo", _TILT, TiltPolicy, v) if v["type"] == "twap" else None
        scenario.algo = _make("algo", [f for f in fields if f not in _TILT],
                              AlgoSpec, v, tilt=tilt)

    if parser.has_section("tactics"):
        v = read("tactics")
        if scenario.algo is None:
            _reject("tactics", v, parser, "no [algo] section")
        elif scenario.algo.type.startswith("pov"):
            _reject("tactics", (f.key for f in _SLICE), parser, "POV [algo].type never slices")
        if len(scenario.venues) < 2:
            _reject("tactics", (f.key for f in _ROUTE), parser, "fewer than two venues to route")
        if v["slice_display"] is None:
            _reject("tactics", ("slice_jitter", "slice_seed"), parser,
                    "no [tactics].slice_display")
            v.update(slice_jitter=None, slice_seed=None)
        else:
            slices = _make("tactics", _SLICE, SlicePolicy, v)
            scenario.algo = replace(scenario.algo, slice_policy=slices)
        if any(parser.has_option("tactics", f.key) for f in _ROUTE):
            routes = _make("tactics", _ROUTE, RouteWeights, v)
            scenario.algo = replace(scenario.algo, route_weights=routes)
        else:
            v.update((f.key, None) for f in _ROUTE)

    if parser.has_section("cost_model"):
        v = read("cost_model")
        scenario.cost = _make("cost_model", _IMPACT, ImpactParams, v)
        scenario.risk = _make("cost_model", (_HORIZON,), RiskParams, v,
                              price=scenario.cost.price, sigma=scenario.cost.sigma,
                              order_size=scenario.cost.order_size)

    if parser.has_section("optimizer"):
        if scenario.cost is None:
            raise ScenarioError("[optimizer] requires a [cost_model] section")
        v = read("optimizer", SECTIONS["optimizer"] + _LAMBDA_RANGE)
        v["lambda_grid"] = _lambda_grid(parser, v)
        scenario.optimizer = _make("optimizer", SECTIONS["optimizer"], OptimizerConfig, v)
    elif scenario.cost is not None:   # only the frontier and the cost surface read it
        raise ScenarioError("inert section [cost_model]: no [optimizer] section")

    scenario.tca = _make("tca", SECTIONS["tca"], TCAConfig, read("tca"))
    _validate(scenario)
    return scenario


def _validate(scenario: Scenario) -> None:
    if scenario.algo is None:
        for section in scenario.config:   # sections only the algorithm runner reads
            if section == "parent" or section.startswith("venue:"):
                raise ScenarioError(f"inert section [{section}]: no [algo] section")
        if scenario.optimizer is None:
            raise ScenarioError("scenario describes nothing to run (no [algo], no [optimizer])")
        if scenario.market is not None:
            raise ScenarioError("inert section [market]: no [algo] section; give "
                                "adv, sigma and price in [cost_model] instead")
    else:
        if scenario.market is None:
            raise ScenarioError("[algo] requires a [market] section")
        if not scenario.venues:
            raise ScenarioError("[algo] requires at least one [venue:<id>] section")
        if scenario.parent is None:
            raise ScenarioError("[algo] requires a [parent] section")
        if scenario.parent.end > scenario.market.session_ticks:
            raise ScenarioError("[parent].end runs past [market].session_ticks")
