"""Scenario file parsing, validation messages, and echo-back fidelity."""

import configparser
from pathlib import Path

import numpy as np
import pytest

from tradelab import cli, harness
from tradelab.scenario import ALGO, SECTIONS, ScenarioError, load_scenario
from tradelab.tactics import draw_slice_size

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"

MINIMAL = """\
[scenario]
seed = 7

[cost_model]
order_size = 100000

[optimizer]
lambda_points = 5
"""

FULL = """\
[scenario]
seed = 42
name = full

[market]
initial_price = 50.0
adv = 1000000
session_ticks = 2000

[venue:V1]
taker_fee = 0.003

[parent]
side = buy
quantity = 1000
end = 2000

[algo]
type = twap
bucket_ticks = 200
"""


def write(tmp_path, text, name="s.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoad:
    def test_minimal_valid_with_defaults_echoed(self, tmp_path):
        s = load_scenario(write(tmp_path, MINIMAL))
        assert s.seed == 7
        echo = s.echo()
        # defaults are materialized explicitly
        assert "a1 = 0.5" in echo
        assert "alpha_min = 0.0001" in echo
        assert "benchmark = both" in echo
        assert s.cost.temp_fraction == 0.8

    def test_arrival_only_echo_leaves_drift_out(self, tmp_path):
        arrival = load_scenario(write(tmp_path, MINIMAL + "benchmark = arrival\n"))
        assert "benchmark = arrival" in arrival.echo()
        assert "drift" not in arrival.echo()
        assert "drift = 0.0" in load_scenario(write(tmp_path, MINIMAL, "both.ini")).echo()

    def test_frontier_only_echo_has_no_tca_block(self, tmp_path):
        # only the algorithm runner reads [tca]; a frontier-only echo used to
        # carry its defaults, so they moved the hash and changed no output
        echo = load_scenario(write(tmp_path, MINIMAL)).echo()
        assert "[tca]" not in echo and "fixed" not in echo
        assert "[tca]\nfixed = 0.0\n" in load_scenario(write(tmp_path, FULL, "f.ini")).echo()

    def test_echo_reload_is_stable(self, tmp_path):
        s = load_scenario(write(tmp_path, FULL))
        echoed = write(tmp_path, s.echo(), name="echo.ini")
        s2 = load_scenario(echoed)
        assert s2.echo() == s.echo()
        assert s2.digest() == s.digest()

    def test_missing_seed(self, tmp_path):
        with pytest.raises(ScenarioError, match=r"\[scenario\].seed"):
            load_scenario(write(tmp_path, "[scenario]\nname = x\n"))

    def test_unknown_algo_type(self, tmp_path):
        bad = FULL.replace("type = twap", "type = warp")
        with pytest.raises(ScenarioError, match=r"\[algo\].type"):
            load_scenario(write(tmp_path, bad))

    def test_algo_requires_venue(self, tmp_path):
        bad = FULL.replace("[venue:V1]\ntaker_fee = 0.003\n", "")
        with pytest.raises(ScenarioError, match=r"venue"):
            load_scenario(write(tmp_path, bad))

    def test_algo_requires_parent(self, tmp_path):
        bad = FULL.replace("[parent]", "[parent_typo]")
        with pytest.raises(ScenarioError):
            load_scenario(write(tmp_path, bad))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "nope.ini")

    def test_invalid_numeric_field_named(self, tmp_path):
        bad = FULL.replace("quantity = 1000", "quantity = lots")
        with pytest.raises(ScenarioError, match=r"\[parent\].quantity"):
            load_scenario(write(tmp_path, bad))

    def test_profile_forms(self, tmp_path):
        for spec, n in (("u5", 5), ("uniform4", 4), ("0.5,0.5", 2)):
            text = FULL.replace("session_ticks = 2000",
                                f"session_ticks = 2000\nprofile = {spec}")
            s = load_scenario(write(tmp_path, text, name=f"p{n}.ini"))
            assert len(s.profile) == n

    def test_empty_lambda_grid_allowed(self, tmp_path):
        text = MINIMAL.replace("lambda_points = 5", "lambda_grid =")
        s = load_scenario(write(tmp_path, text))
        assert s.optimizer.lambda_grid == ()

    def test_digest_differs_across_seeds(self, tmp_path):
        a = load_scenario(write(tmp_path, MINIMAL, "a.ini"))
        b = load_scenario(write(tmp_path, MINIMAL.replace("seed = 7", "seed = 8"),
                                "b.ini"))
        assert a.digest() != b.digest()

    def test_describes_nothing_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="nothing to run"):
            load_scenario(write(tmp_path, "[scenario]\nseed = 1\n"))


class TestTactics:
    """The [tactics] section loads into the algorithm spec, as [algo]'s tilt keys do."""

    # routing needs a second venue to choose from
    HEAD = FULL.replace("[parent]", "[venue:V2]\n\n[parent]") + "\n[tactics]\n"

    def test_full_section_parses_into_wiring(self, tmp_path):
        text = self.HEAD + ("slice_display = 500\nslice_jitter = 0.2\nslice_seed = 3\n"
                            "route_w_price = 2.0\nroute_w_fee = 0.5\n")
        s = load_scenario(write(tmp_path, text))
        policy, weights = s.algo.slice_policy, s.algo.route_weights
        assert (policy.display, policy.jitter, policy.seed) == (500, 0.2, 3)
        rng = np.random.default_rng(policy.seed)
        assert len({draw_slice_size(policy, rng) for _ in range(20)}) > 1   # jittered
        assert weights.price == 2.0 and weights.fee == 0.5
        assert weights.latency == 1.0 and weights.exec_probability == 1.0   # defaulted
        assert "route_w_latency = 1.0" in s.echo() and "slice_seed = 3" in s.echo()

    def test_empty_section_wires_nothing(self, tmp_path):
        s = load_scenario(write(tmp_path, self.HEAD))
        assert s.algo.slice_policy is None and s.algo.route_weights is None
        assert "[tactics]" not in s.echo()

    def test_slice_display_alone_is_not_randomized(self, tmp_path):
        s = load_scenario(write(tmp_path, self.HEAD + "slice_display = 500\n"))
        policy = s.algo.slice_policy
        assert policy.jitter == 0.0
        rng = np.random.default_rng(policy.seed)
        assert {draw_slice_size(policy, rng) for _ in range(20)} == {500}
        assert s.algo.route_weights is None
        assert "route_w_price" not in s.echo()

    @pytest.mark.parametrize("key", ["slice_jitter", "slice_seed"])
    def test_slice_keys_need_slice_display(self, tmp_path, key):
        with pytest.raises(ScenarioError, match=rf"inert field \[tactics\]\.{key}"):
            load_scenario(write(tmp_path, self.HEAD + f"{key} = 0\n"))

    def test_negative_route_weight_named(self, tmp_path):
        with pytest.raises(ScenarioError, match=r"\[tactics\]\.route_w_fee"):
            load_scenario(write(tmp_path, self.HEAD + "route_w_fee = -1\n"))


# Every section, small enough to run in well under a second.
EVERY = """\
[scenario]
seed = 3
name = every

[market]
initial_price = 50.0
adv = 500000
session_ticks = 400

[venue:V1]
taker_fee = 0.002

[parent]
side = buy
quantity = 500
end = 400

[algo]
type = twap
bucket_ticks = 100

[tactics]
slice_display = 50

[cost_model]
order_size = 500

[optimizer]
lambda_grid = 1e-6,1e-5

[tca]
fixed = 0.0
"""


def with_field(tmp_path, section, key, value, text=EVERY, name="case.ini"):
    cfg = configparser.ConfigParser()
    cfg.read_string(text)
    cfg[section][key] = value
    path = tmp_path / name
    with open(path, "w") as fh:
        cfg.write(fh)
    return path


def only_sections(tmp_path, *sections):
    cfg = configparser.ConfigParser()
    cfg.read_string(EVERY)
    for section in cfg.sections():
        if section not in sections:
            cfg.remove_section(section)
    path = tmp_path / "case.ini"
    with open(path, "w") as fh:
        cfg.write(fh)
    return path


def algo_case(tmp_path, algo_type, **keys):
    """EVERY with an [algo] of only ``type`` and ``keys``, and no [tactics]."""
    cfg = configparser.ConfigParser()
    cfg.read_string(EVERY)
    cfg["algo"] = {"type": algo_type, **keys}
    cfg.remove_section("tactics")
    path = tmp_path / "case.ini"
    with open(path, "w") as fh:
        cfg.write(fh)
    return path


def cli_run(path, tmp_path, *extra):
    return cli.main(["run", str(path), "--out", str(tmp_path / "out"), *extra])


class TestRejectedThroughCli:
    """Bad, unknown and inert fields exit 1 with a line naming [section].key."""

    def test_base_runs(self, tmp_path):
        assert cli_run(write(tmp_path, EVERY), tmp_path) == cli.EXIT_OK

    @pytest.mark.parametrize("section", ["scenario", "market", "venue:V1", "parent",
                                         "algo", "tactics", "cost_model", "optimizer",
                                         "tca"])
    def test_unknown_field_in_every_section(self, tmp_path, capsys, section):
        path = with_field(tmp_path, section, "horizn_fraction", "0.1")
        assert cli_run(path, tmp_path) == cli.EXIT_VALIDATION
        assert f"unknown field [{section}].horizn_fraction" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("tactics", "layers_offsets", "1,2,3"),
        ("tactics", "seek_ping_qty", "100"),
        ("tactics", "snipe_trigger", "51"),
        ("parent", "benchmark", "arrival"),
        ("optimizer", "lambda_min", "1e-8"),
        ("tactics", "slice_jitter", "1.5"),
        ("tactics", "slice_display", "lots"),
        ("cost_model", "horizon_fraction", "0"),
        ("parent", "quantity", "0"),
        ("market", "session_ticks", "0"),
        ("algo", "tilt_factor", "0"),
        ("algo", "bucket_ticks", "0"),
        ("optimizer", "alpha_min", "0"),
        ("optimizer", "alpha_min", "2.0"),   # above the default alpha_max of 1.0
        ("market", "tick_size", "0"),
        ("market", "intensity", "-1"),
        ("market", "market_order_fraction", "0"),
        ("market", "market_order_fraction", "1.5"),
        ("market", "maker_size_mult", "0"),
        ("market", "limit_ttl", "-5"),
        ("market", "max_quote_offset", "0"),
        ("market", "cancel_prob", "2.0"),
        ("market", "cancel_prob", "-0.1"),
        ("tactics", "route_w_fee", "1.0"),   # one venue: nothing to route between
        ("algo", "type", "pov"),             # POV never slices [tactics].slice_display
        ("market", "initial_price", "-5.0"),  # every quote would clamp to tick 1
        ("market", "initial_price", "0"),
        ("parent", "start", "-300"),          # the first bucket would count ticks before 0
        ("parent", "price_limit_ticks", "-5"),  # no quote could meet it: nothing fills
        ("parent", "price_limit_ticks", "0"),
        ("scenario", "seed", "-1"),           # the generators take only seeds >= 0
        ("tactics", "slice_seed", "-1"),
        ("algo", "tilt_seed", "-1"),
    ])
    def test_bad_or_inert_field_named(self, tmp_path, capsys, section, key, value):
        path = with_field(tmp_path, section, key, value)
        assert cli_run(path, tmp_path) == cli.EXIT_VALIDATION
        assert f"[{section}].{key}" in capsys.readouterr().err

    def test_drift_with_arrival_benchmark_named(self, tmp_path, capsys):
        # only the previous-close frontier adds drift: with benchmark = arrival
        # the key moved the hash and changed no output
        text = EVERY.replace("[optimizer]\n", "[optimizer]\nbenchmark = arrival\n")
        path = with_field(tmp_path, "optimizer", "drift", "0.05", text=text)
        assert cli_run(path, tmp_path) == cli.EXIT_VALIDATION
        assert ("inert field [optimizer].drift: benchmark = arrival never reads it"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_tactics_without_algo_named(self, tmp_path, capsys):
        # the one [tactics] rule that no single-field edit of EVERY reaches
        text = EVERY.split("[algo]")[0] + "[tactics]" + EVERY.split("[tactics]")[1]
        assert cli_run(write(tmp_path, text), tmp_path) == cli.EXIT_VALIDATION
        assert "inert field [tactics].slice_display" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["venue:V1", "parent"])
    def test_runner_section_without_algo_named(self, tmp_path, capsys, section):
        # beside [market], such a section used to run nothing and exit 0
        path = only_sections(tmp_path, "scenario", "market", section)
        assert cli_run(path, tmp_path) == cli.EXIT_VALIDATION
        assert f"inert section [{section}]: no [algo] section" in capsys.readouterr().err

    def test_cost_model_without_optimizer_named(self, tmp_path, capsys):
        # only the frontier reads [cost_model]: without [optimizer] its keys
        # moved the hash, and the run exited 0 with no cost artifact
        path = only_sections(tmp_path, "scenario", "market", "venue:V1", "parent", "algo",
                             "tactics", "cost_model", "tca")
        assert cli_run(path, tmp_path) == cli.EXIT_VALIDATION
        assert ("inert section [cost_model]: no [optimizer] section"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_market_alone_is_nothing_to_run(self, tmp_path, capsys):
        assert cli_run(only_sections(tmp_path, "scenario", "market"),
                       tmp_path) == cli.EXIT_VALIDATION
        assert "nothing to run" in capsys.readouterr().err

    def test_market_beside_the_optimizer_named(self, tmp_path, capsys):
        # without [algo], [market] only fed [cost_model] its adv/sigma/price defaults
        path = only_sections(tmp_path, "scenario", "market", "cost_model", "optimizer")
        assert cli_run(path, tmp_path) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "inert section [market]: no [algo] section" in err and "[cost_model]" in err

    @pytest.mark.parametrize("algo_type, key", [
        *((t, k) for t in ("twap", "vwap")
          for k in ("pr", "sensitivity", "pr_max", "both_sides_volume")),
        ("vwap", "bucket_ticks"),
        *((t, k) for t in ("vwap", "pov", "pov-adaptive")
          for k in ("tilt_threshold", "tilt_factor", "tilt_jitter", "tilt_seed")),
        ("pov", "sensitivity"), ("pov", "pr_max"),
    ])
    def test_key_another_algo_type_reads_named(self, tmp_path, capsys, algo_type, key):
        path = algo_case(tmp_path, algo_type, **{key: ALTERNATIVES[key][0]})
        assert cli_run(path, tmp_path) == cli.EXIT_VALIDATION
        assert (f"inert field [algo].{key}: type = {algo_type} never reads it"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("algo_type, key, value", [
        ("pov", "pr", "1.5"), ("pov", "pr", "1.0"), ("pov-adaptive", "pr", "-0.1"),
        ("pov-adaptive", "pr_max", "1.5"), ("pov-adaptive", "pr_max", "1.0"),
        ("twap", "max_child", "-5"), ("pov", "max_child", "0"),
    ])
    def test_bad_algo_value_named(self, tmp_path, capsys, algo_type, key, value):
        # these used to fail at run time naming no field (pr, pr_max), or run to
        # exit 0 with nothing filled (max_child)
        path = algo_case(tmp_path, algo_type, **{key: value})
        assert cli_run(path, tmp_path) == cli.EXIT_VALIDATION
        assert f"invalid value for [algo].{key}: {key} must" in capsys.readouterr().err

    @pytest.mark.parametrize("algo_type", sorted(ALGO))
    @pytest.mark.parametrize("key", ["window_ticks", "price_limit_ticks"])
    def test_deleted_algo_keys_unknown(self, tmp_path, capsys, algo_type, key):
        # the POV window is bucket_ticks // 10; the price cap is [parent]'s
        path = algo_case(tmp_path, algo_type, **{key: "40"})
        assert cli_run(path, tmp_path) == cli.EXIT_VALIDATION
        assert f"unknown field [algo].{key}" in capsys.readouterr().err

    def test_unknown_section(self, tmp_path, capsys):
        path = write(tmp_path, EVERY + "\n[parnet]\nside = buy\n")
        assert cli_run(path, tmp_path) == cli.EXIT_VALIDATION
        assert "unknown section [parnet]" in capsys.readouterr().err


class TestSeedOverride:
    def test_seed_rederives_tilt_seed(self, tmp_path):
        assert cli_run(write(tmp_path, EVERY), tmp_path, "--seed", "99") == cli.EXIT_OK
        echo = (tmp_path / "out" / "scenario_echo.ini").read_text()
        assert "seed = 99\n" in echo and "tilt_seed = 99\n" in echo

    def test_file_tilt_seed_kept(self, tmp_path):
        path = with_field(tmp_path, "algo", "tilt_seed", "5")
        assert cli_run(path, tmp_path, "--seed", "99") == cli.EXIT_OK
        echo = (tmp_path / "out" / "scenario_echo.ini").read_text()
        assert "tilt_seed = 5\n" in echo and "tilt_seed = 99" not in echo

    def test_negative_seed_exits_before_any_file(self, tmp_path, capsys):
        assert cli_run(write(tmp_path, EVERY), tmp_path, "--seed", "-1") == cli.EXIT_VALIDATION
        assert "[scenario].seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_reaches_the_market(self, tmp_path):
        s = load_scenario(write(tmp_path, EVERY), seed=99)
        assert s.seed == 99 and s.market.seed == 99


class TestBothSidesVolume:
    def test_hashed_and_round_trips(self, tmp_path):
        packaged = load_scenario(SCENARIO_DIR / "pov_quarter_day.ini")
        path = with_field(tmp_path, "algo", "both_sides_volume", "false",
                          text=(SCENARIO_DIR / "pov_quarter_day.ini").read_text())
        one_sided = load_scenario(path)
        assert one_sided.algo.both_sides_volume is False
        assert one_sided.digest() != packaged.digest()
        harness.run(one_sided, tmp_path / "run")
        reloaded = load_scenario(tmp_path / "run" / "scenario_echo.ini")
        assert reloaded.algo.both_sides_volume is False
        assert reloaded.digest() == one_sided.digest()


# Two valid values per table key; a test picks the one the file does not hold.
ALTERNATIVES = {
    "seed": ("8", "9"), "name": ("other", "another"), "format": ("csv", "json"),
    "initial_price": ("40.0", "41.0"), "tick_size": ("0.5", "0.25"),
    "volatility": ("0.3", "0.35"), "adv": ("2000000.0", "3000000.0"),
    "session_ticks": ("30000", "40000"), "intensity": ("2.0", "3.0"),
    "profile": ("u5", "uniform4"), "market_order_fraction": ("0.3", "0.4"),
    "maker_size_mult": ("3.0", "4.0"), "limit_ttl": ("700", "800"),
    "max_quote_offset": ("6", "7"), "cancel_prob": ("0.02", "0.03"),
    "maker_fee": ("0.001", "0.002"), "taker_fee": ("0.004", "0.005"),
    "latency": ("2", "4"), "supports_hidden": ("true", "false"),
    "supports_iceberg": ("true", "false"),
    "side": ("buy", "sell"), "quantity": ("777", "888"), "start": ("1", "2"),
    "end": ("100", "200"), "price_limit_ticks": ("60", "61"),
    "type": ("twap", "vwap"), "bucket_ticks": ("300", "301"), "pr": ("0.2", "0.3"),
    "tilt_threshold": ("0.5", "0.6"), "tilt_factor": ("1.5", "2.0"),
    "tilt_jitter": ("0.1", "0.2"), "tilt_seed": ("3", "4"),
    "sensitivity": ("0.5", "0.6"), "pr_max": ("0.9", "0.8"),
    "both_sides_volume": ("true", "false"), "max_child": ("500", "600"),
    "slice_display": ("700", "800"), "slice_jitter": ("0.1", "0.2"),
    "slice_seed": ("6", "7"), "route_w_price": ("3.0", "4.0"),
    "route_w_prob": ("3.0", "4.0"), "route_w_latency": ("3.0", "4.0"),
    "route_w_fee": ("3.0", "4.0"),
    "a1": ("0.6", "0.7"), "a2": ("0.6", "0.7"), "a3": ("0.6", "0.7"),
    "b1": ("0.6", "0.7"), "sigma": ("0.3", "0.35"), "price": ("40.0", "41.0"),
    "order_size": ("50000.0", "60000.0"), "horizon_fraction": ("0.2", "0.3"),
    "lambda_grid": ("0.001,0.002", "0.003"), "alpha_min": ("0.001", "0.002"),
    "alpha_max": ("0.9", "0.8"), "benchmark": ("arrival", "previous_close"),
    "drift": ("0.01", "0.02"),
    "fixed": ("1.0", "2.0"), "decision_price": ("49.0", "48.0"),
}

# The packaged scenarios and the benchmark inputs, read as they are.
SCENARIO_FILES = sorted(SCENARIO_DIR.glob("*.ini")) + sorted(
    (ROOT / "perfbench" / "inputs").glob("*.ini"))


def table_of(section, values):
    """The table the loader read ``section`` through; [algo]'s is its type's."""
    if section == "algo":
        return ALGO[values["type"]]
    return SECTIONS["venue" if section.startswith("venue:") else section]


def assert_every_field_round_trips(tmp_path, base):
    """Each field the scenario's tables read, changed alone, moves the digest
    and survives an echo and reload."""
    echo = base.echo()
    assert load_scenario(write(tmp_path, echo, "echo.ini")).echo() == echo
    for section, values in base.config.items():
        for f in table_of(section, values):
            cfg = configparser.ConfigParser()
            cfg.read_string(echo)
            current = cfg.get(section, f.key, fallback=None)
            value = next(a for a in ALTERNATIVES[f.key] if a != current)
            cfg[section][f.key] = value
            if f.key == "type":   # keys the new type never reads would be inert
                for key in set(cfg["algo"]) - {g.key for g in ALGO[value]}:
                    cfg.remove_option("algo", key)
            if f.key == "benchmark" and value == "arrival":   # so would drift
                cfg.remove_option("optimizer", "drift")
            with open(tmp_path / "case.ini", "w") as fh:
                cfg.write(fh)
            changed = load_scenario(tmp_path / "case.ini")
            where = f"[{section}].{f.key} = {value}"
            assert changed.digest() != base.digest(), where
            again = load_scenario(write(tmp_path, changed.echo(), "again.ini"))
            assert again.echo() == changed.echo(), where


class TestFieldTables:
    def test_every_row_has_alternatives_and_a_file(self):
        keys = {f.key for fields in (*SECTIONS.values(), *ALGO.values()) for f in fields}
        assert keys == ALTERNATIVES.keys()
        covered = {("venue" if s.startswith("venue:") else s)
                   for path in SCENARIO_FILES for s in load_scenario(path).config}
        assert covered == SECTIONS.keys() | {"algo"}

    @pytest.mark.parametrize("path", SCENARIO_FILES,
                             ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_every_field_round_trips_and_moves_the_digest(self, tmp_path, path):
        assert_every_field_round_trips(tmp_path, load_scenario(path))

    @pytest.mark.parametrize("algo_type", sorted(ALGO))
    def test_every_algo_table_round_trips(self, tmp_path, algo_type):
        # the files above hold twap and pov only
        base = load_scenario(algo_case(tmp_path, algo_type))
        assert [f.key for f in ALGO[algo_type]] == list(base.config["algo"])
        assert_every_field_round_trips(tmp_path, base)
