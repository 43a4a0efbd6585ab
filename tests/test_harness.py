"""Fixture replays, end-to-end scenario runs, frontier tables, CLI exit codes."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from tradelab import cli, harness
from tradelab.exec_algos import run_algorithm
from tradelab.orderbook import EventLog
from tradelab.scenario import ScenarioError, load_scenario
from tradelab.tca import TCAInputs, expanded_tc
from tradelab.venue_sim import MarketSim

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
INPUTS = Path(__file__).resolve().parent / "inputs"

SMALL_RUN = """\
[scenario]
seed = 5
name = small
format = json

[market]
initial_price = 50.0
adv = 200000
session_ticks = 1200
intensity = 1.0
profile = u13

[venue:V1]
taker_fee = 0.002
maker_fee = -0.001
latency = 1

[parent]
side = buy
quantity = 2000
end = 1200

[algo]
type = twap
bucket_ticks = 200

[cost_model]
order_size = 50000
horizon_fraction = 0.05

[optimizer]
lambda_min = 1e-8
lambda_max = 1e-3
lambda_points = 9
benchmark = both
drift = 0.02

[tca]
decision_price = 50.0
"""


def small_scenario(tmp_path, text=SMALL_RUN, name="small.ini"):
    path = tmp_path / name
    path.write_text(text)
    return load_scenario(path)


class TestReplayFixtures:
    def test_all_packaged_fixtures_pass(self):
        results = harness.replay_fixtures()
        assert len(results) == 6
        for r in results:
            assert r.passed, f"{r.name}: {r.diff}"

    def test_corrupted_fixture_reports_first_divergence(self, tmp_path):
        from importlib import resources
        original = (resources.files("tradelab") / "fixtures" /
                    "table3_panel_b.fixture").read_text()
        corrupted = original.replace(
            "fill|37560|MO|buy|51|800|maker=S2,maker_hidden=0",
            "fill|37560|MO|buy|51|801|maker=S2,maker_hidden=0")
        (tmp_path / "bad.fixture").write_text(corrupted)
        results = harness.replay_fixtures(tmp_path)
        assert len(results) == 1
        assert not results[0].passed
        assert any("expected: fill|37560|MO|buy|51|801" in d for d in results[0].diff)
        assert any("actual:   fill|37560|MO|buy|51|800" in d for d in results[0].diff)


class TestRun:
    def test_twap_run_fills_and_writes_artifacts(self, tmp_path):
        scenario = small_scenario(tmp_path)
        out = tmp_path / "out"
        report = harness.run(scenario, out)
        assert report.filled == pytest.approx(2000, abs=50)
        for name in ("scenario_echo.ini", "events_V1.log", "fills.log",
                     "tca_report.txt", "report.json", "frontier_arrival.txt",
                     "frontier_previous_close.txt", "cost_surface.txt"):
            path = out / name
            assert path.exists(), name
            first = path.read_text().splitlines()[0]
            assert first.startswith("# tradelab-artifact v3 scenario=")

    def test_byte_identical_reruns(self, tmp_path):
        scenario = small_scenario(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        harness.run(scenario, out_a)
        harness.run(scenario, out_b)
        for name in ("events_V1.log", "fills.log", "report.json",
                     "tca_report.txt", "frontier_arrival.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_different_seed_different_fills(self, tmp_path):
        from dataclasses import replace
        scenario = small_scenario(tmp_path)
        other = replace(scenario, seed=6)
        other.market = replace(scenario.market, seed=6)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        harness.run(scenario, out_a)
        harness.run(other, out_b)
        assert (out_a / "fills.log").read_text() != (out_b / "fills.log").read_text()

    def test_frontier_only_scenario_emits_no_event_logs(self, tmp_path):
        scenario = load_scenario(SCENARIOS / "frontier_only.ini")
        out = tmp_path / "front"
        report = harness.run(scenario, out)
        assert (out / "frontier_arrival.txt").exists()
        assert (out / "frontier_previous_close.txt").exists()
        assert not list(out.glob("events_*.log"))
        assert not (out / "fills.log").exists()
        assert report.filled == 0

    def test_report_recomputable_from_fill_log(self, tmp_path):
        """Audit: an independent pass over fills.log reproduces the ISReport."""
        scenario = small_scenario(tmp_path)
        out = tmp_path / "audit"
        harness.run(scenario, out)
        report = json.loads("".join(
            (out / "report.json").read_text().splitlines(keepends=True)[1:]))
        fills = []
        for line in (out / "fills.log").read_text().splitlines()[1:]:
            t, price, qty = line.split("|")
            fills.append((int(qty), int(price) * scenario.market.tick_size))
        inputs = TCAInputs(
            side="buy", intended_qty=scenario.parent.quantity, fills=fills,
            final_price=report["final_price"],
            decision_price=report["decision_price"],
            arrival_price=report["arrival_price"],
            fixed=scenario.tca.fixed + sum(report["fees"].values()))
        recomputed = expanded_tc(inputs)
        assert recomputed.total == pytest.approx(report["tca"]["total"], rel=1e-12)
        assert recomputed.execution_cost == pytest.approx(
            report["tca"]["execution_cost"], rel=1e-12)

    def test_streamed_event_logs_match_an_in_memory_run(self, tmp_path):
        """Two venues: each events file is its header plus the log the same
        seed records in memory."""
        scenario = small_scenario(tmp_path, SMALL_RUN.replace(
            "[parent]", "[venue:V2]\ntaker_fee = 0.003\nlatency = 2\n\n[parent]"))
        out = tmp_path / "two"
        harness.run(scenario, out)
        sim = MarketSim(scenario.market, venues=scenario.venues, profile=scenario.profile)
        run_algorithm(scenario.algo, scenario.parent, sim)
        assert sorted(p.name for p in out.glob("events_*.log")) == [
            "events_V1.log", "events_V2.log"]
        for vid, book in sim.books.items():
            memory = book.log.to_text()
            assert memory.count("\n") > 1_000, vid
            assert (out / f"events_{vid}.log").read_text() == scenario.header() + memory

    def test_event_log_covers_every_report_fill(self, tmp_path):
        scenario = small_scenario(tmp_path)
        out = tmp_path / "cover"
        harness.run(scenario, out)
        event_fills = set()
        for line in (out / "events_V1.log").read_text().splitlines()[1:]:
            cols = line.split("|")
            if cols[0] == "fill":
                event_fills.add((int(cols[1]), int(cols[4]), int(cols[5])))
        for line in (out / "fills.log").read_text().splitlines()[1:]:
            t, price, qty = (int(x) for x in line.split("|"))
            assert (t, price, qty) in event_fills

    @pytest.mark.parametrize("path", [SCENARIOS / "pov_quarter_day.ini",
                                      INPUTS / "routed_day.ini"], ids=lambda p: p.stem)
    def test_each_event_line_is_one_record_call(self, tmp_path, monkeypatch, path):
        """No site in the book writes around ``EventLog.record``, so a tracer
        that counts its calls counts the lines of the events files."""
        calls = 0
        record = EventLog.record

        def counted(self, *args):
            nonlocal calls
            calls += 1
            record(self, *args)

        monkeypatch.setattr(EventLog, "record", counted)
        scenario = load_scenario(path)
        harness.run(scenario, tmp_path / "out")
        header_lines = scenario.header().count("\n")
        logs = sorted((tmp_path / "out").glob("events_*.log"))
        assert len(logs) == len(scenario.venues)
        body = sum(p.read_text().count("\n") - header_lines for p in logs)
        assert calls == body > 10_000


class TestFrontierTables:
    def test_frontier_is_monotone_along_lambda(self, tmp_path):
        scenario = load_scenario(SCENARIOS / "frontier_only.ini")
        out = tmp_path / "front"
        harness.run_frontier(scenario, out)
        rows = [r.split("|") for r in
                (out / "frontier_arrival.txt").read_text().splitlines()[2:]]
        lambdas = [float(r[0]) for r in rows]
        costs = [float(r[2]) for r in rows]
        risks = [float(r[3]) for r in rows]
        assert len(rows) == 50
        assert lambdas == sorted(set(lambdas))
        assert costs == sorted(costs)
        assert risks == sorted(risks, reverse=True)

    def test_empty_grid_emits_header_only(self, tmp_path):
        text = (SCENARIOS / "frontier_only.ini").read_text()
        text = text.replace("lambda_min = 1e-8", "lambda_grid =")
        text = text.replace("lambda_max = 1e-3\nlambda_points = 50\n", "")
        path = tmp_path / "empty.ini"
        path.write_text(text)
        scenario = load_scenario(path)
        out = tmp_path / "front"
        written = harness.run_frontier(scenario, out)
        assert written == ["frontier_arrival.txt", "frontier_previous_close.txt",
                           "cost_surface.txt"]
        for name in written[:2]:
            lines = (out / name).read_text().splitlines()
            assert lines[1] == "lambda|alpha_star|cost|risk|benchmark"
            assert len(lines) == 2

    def test_run_frontier_needs_an_optimizer(self, tmp_path):
        # a file cannot load this way: [cost_model] without [optimizer] is inert
        scenario = replace(load_scenario(SCENARIOS / "twap_quarter_day.ini"), optimizer=None)
        with pytest.raises(ScenarioError, match=r"needs an \[optimizer\] section"):
            harness.run_frontier(scenario, tmp_path / "f")
        assert not (tmp_path / "f").exists()


class TestCli:
    def test_run_ok(self, tmp_path, capsys):
        path = tmp_path / "s.ini"
        path.write_text(SMALL_RUN)
        code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_OK
        assert "run complete" in capsys.readouterr().out

    def test_validation_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\nname = missing-seed\n")
        assert cli.main(["run", str(path)]) == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("text, out_is_file, error, code, printed", [
        ("[scenario]\nname = missing-seed\n", False, ScenarioError, cli.EXIT_VALIDATION,
         "validation error: "),
        (SMALL_RUN, True, FileExistsError, cli.EXIT_RUNTIME, "runtime error: "),
    ], ids=["validation", "runtime"])
    def test_debug_reraises_with_traceback(self, tmp_path, capsys, text, out_is_file,
                                           error, code, printed):
        path = tmp_path / "s.ini"
        path.write_text(text)
        out = tmp_path / "out"
        if out_is_file:
            out.write_text("not a directory")
        argv = ["run", str(path), "--out", str(out)]
        assert cli.main(argv) == code
        assert capsys.readouterr().err.startswith(printed)
        with pytest.raises(error) as exc:
            cli.main(["--debug", *argv])
        assert Path(exc.traceback[-1].path).name != "cli.py"   # raised where it began
        assert capsys.readouterr().err == ""

    def test_replay_fixtures_ok(self, capsys):
        assert cli.main(["replay-fixtures"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "6/6 fixtures passed" in out

    def test_replay_fixture_mismatch_exit_code(self, tmp_path, capsys):
        from importlib import resources
        original = (resources.files("tradelab") / "fixtures" /
                    "table1_hidden.fixture").read_text()
        (tmp_path / "bad.fixture").write_text(
            original.replace("last_trade|51", "last_trade|52"))
        assert cli.main(["replay-fixtures", "--dir", str(tmp_path)]) \
            == cli.EXIT_FIXTURE_MISMATCH

    @pytest.mark.parametrize("make", [lambda d: None, lambda d: d.mkdir()],
                             ids=["missing", "empty"])
    def test_replay_fixtures_fails_on_no_fixtures(self, tmp_path, capsys, make):
        where = tmp_path / "fixtures"
        make(where)
        assert cli.main(["replay-fixtures", "--dir", str(where)]) == cli.EXIT_RUNTIME
        captured = capsys.readouterr()
        assert f"no .fixture files in {where}" in captured.err
        assert "fixtures passed" not in captured.out

    @pytest.mark.parametrize("good,bad,diff", [
        ("submit|37555|MO|buy|-|2200|kind=market\n", "submit|37555|MO|buy|-|2200\n",
         "format: submit|37555|MO|buy|-|2200: want 7 columns, got 6"),
        ("jitter=0.3,", "",
         "format: slice|37560|S6|sell|51|0|parent=10000,display=1000,seed=38,emitted=1,"
         "filled=1000: missing flag 'jitter'"),
        ("last_trade|52\n", "", "last_trade[0] expected: <nothing>"),
        ("submit|37555|", "bogus|37555|",
         "format: bogus|37555|MO|buy|-|2200|kind=market: unknown event 'bogus'"),
    ], ids=["columns", "missing-flag", "empty-last-trade", "unknown-event"])
    def test_malformed_fixture_fails_alone(self, tmp_path, capsys, good, bad, diff):
        from importlib import resources
        original = (resources.files("tradelab") / "fixtures" /
                    "table3_panel_c.fixture").read_text()
        (tmp_path / "good.fixture").write_text(original)
        (tmp_path / "bad.fixture").write_text(original.replace(good, bad))
        assert cli.main(["replay-fixtures", "--dir", str(tmp_path)]) \
            == cli.EXIT_FIXTURE_MISMATCH
        out = capsys.readouterr().out
        assert "FAIL  bad" in out and "pass  good" in out
        assert diff in out
        assert "1/2 fixtures passed" in out

    @pytest.mark.parametrize("grid", ["1e-3,1e-4", "1e-4,1e-4", "0,1e-4", "-1e-4,1e-3"],
                             ids=["decreasing", "repeated", "zero", "negative"])
    def test_bad_lambda_grid_rejected_at_load(self, tmp_path, capsys, grid):
        text = (SCENARIOS / "frontier_only.ini").read_text().replace(
            "lambda_min = 1e-8\nlambda_max = 1e-3\nlambda_points = 50",
            f"lambda_grid = {grid}")
        path = tmp_path / "bad_grid.ini"
        path.write_text(text)
        code = cli.main(["run", str(path), "--out", str(tmp_path / "r")])
        assert code == cli.EXIT_VALIDATION
        assert "[optimizer].lambda_grid" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_tca_without_algo_rejected(self, tmp_path, capsys):
        # a frontier-only run used to accept [tca], which nothing there reads
        path = tmp_path / "frontier_tca.ini"
        path.write_text((SCENARIOS / "frontier_only.ini").read_text() + "\n[tca]\nfixed = 5.0\n")
        code = cli.main(["run", str(path), "--out", str(tmp_path / "r")])
        assert code == cli.EXIT_VALIDATION
        assert "inert section [tca]: no [algo] section" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_run_has_no_format_option(self, tmp_path, capsys):
        # [scenario] format is part of the hashed echo; no flag overrides it
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", str(SCENARIOS / "pov_quarter_day.ini"),
                      "--out", str(tmp_path / "r"), "--format", "json"])
        assert exc.value.code == 2   # argparse usage error
        assert "unrecognized arguments: --format" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_figures_is_not_a_verb(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["figures", str(tmp_path)])
        assert exc.value.code == 2   # argparse usage error
        assert "invalid choice: 'figures'" in capsys.readouterr().err

    def test_frontier_is_not_a_verb(self, tmp_path, capsys):
        # `run` writes the frontier files, with the echo their headers name
        with pytest.raises(SystemExit) as exc:
            cli.main(["frontier", str(SCENARIOS / "frontier_only.ini"),
                      "--out", str(tmp_path / "f")])
        assert exc.value.code == 2   # argparse usage error
        assert "invalid choice: 'frontier'" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()

    def test_seed_override_changes_output(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(SMALL_RUN)
        cli.main(["run", str(path), "--out", str(tmp_path / "a")])
        cli.main(["run", str(path), "--out", str(tmp_path / "b"), "--seed", "99"])
        assert (tmp_path / "a" / "fills.log").read_text() \
            != (tmp_path / "b" / "fills.log").read_text()
