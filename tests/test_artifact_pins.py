"""Pinned behaviour: SHA-256 of every artifact of the packaged scenarios,
and of ``tests/inputs/routed_day.ini``, a sliced and routed run on three
venues (no packaged scenario has more than one).

A refactor that claims to change no behaviour must leave every digest here
unchanged. A deliberate change of output re-pins them in the same commit;
the failure message prints the new mapping to paste in.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tradelab import harness
from tradelab.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
# every pinned run: packaged scenarios and test inputs
PINNED_RUNS = {name: SCENARIOS / f"{name}.ini"
               for name in ("twap_quarter_day", "pov_quarter_day", "frontier_only")}
PINNED_RUNS["routed_day"] = ROOT / "tests" / "inputs" / "routed_day.ini"

PINNED = {
          "twap_quarter_day/cost_surface.txt": "b209984eca5d676c65ac560c377d19bb3592ea89ebc65a93a882c5571d7fd2fb",
          "twap_quarter_day/events_LIT1.log": "89733fb9847dad42d3cff17e815048f296bf13339d7a12eda30b7056f5389fa6",
          "twap_quarter_day/fills.log": "8ebef0d5f1ed95c1fe602f85642248703754a11681eaded55484a41fd5390324",
          "twap_quarter_day/frontier_arrival.txt": "eb2c5da19c560bb02a6dc64b65d3f57c720af2d07510e0a0f329424a1a0a9983",
          "twap_quarter_day/frontier_previous_close.txt": "bfdafa211edeb87c9d857ab6985576b0f7d877398a47300c98815c19833c74d3",
          "twap_quarter_day/report.json": "71e1aae75cc4b670999212c62dc1a5023492ffb8014d6948cc7f589fcdc92a22",
          "twap_quarter_day/scenario_echo.ini": "9d80180034d094c885e3a5bc68c50faed3ffcabdd0d033787b8a611c9fd95183",
          "twap_quarter_day/tca_report.txt": "4598f696f1bba65bef4969303ccceefd035a14eec1c5afd11a429f23ee7584da",
          "pov_quarter_day/events_LIT1.log": "7389819b9ba03359bb1784047b2fd022bea7346ec5ba9a1ec17370e433916726",
          "pov_quarter_day/fills.log": "87d23265810ecaddd344a6be0431a06091ba7a31ab01f0cae0b9ead27cdec9c2",
          "pov_quarter_day/report.csv": "801a1dde6986b6f81114690edebb8f61a9fbcc9c5e27f6a1bbbbe8df00a54af4",
          "pov_quarter_day/scenario_echo.ini": "fe91e4a66b7ac401345a532cee441fecb03b484adc95b2dd20671eb19e428be5",
          "pov_quarter_day/tca_report.txt": "bf7d72045a15786a856620b1e53c9195cff78e3d78d30ec321fe4d614b4f7e37",
          "frontier_only/cost_surface.txt": "4d122398db45f1b32b45309d01e8de72fa244e36fe78646da635d6bd7e994ef2",
          "frontier_only/frontier_arrival.txt": "25b2484ca48ef81e9ea566883a19b91512bba293b994cfdcc1e5a61735f170eb",
          "frontier_only/frontier_previous_close.txt": "e7c2ce84494f366cbc0e2d33b0c238eed43bf83d3f047a7b84f30d293bdbbf69",
          "frontier_only/report.csv": "ce08e01d23b1a6177f48b49e086134e8e8c9f5336762569123441f68ee122de5",
          "frontier_only/scenario_echo.ini": "6d76538373671c046a60210c9eec60d5e45228057ec244f711e0bcf66cde050f",
          "routed_day/cost_surface.txt": "ff36b9d3a2d94c2cfb0a490eb8fe880ef7a54383ef81be522fcb5b349082825e",
          "routed_day/events_DARK1.log": "ca55f137f0b870ca0077ea568729f38dd9ca9bee6cd86a6644ae73e211595772",
          "routed_day/events_ECN1.log": "491b221f37fc017b0b5dcef8dd09292fe8bc24550e3a255b212879ca4ea6b9de",
          "routed_day/events_LIT1.log": "e0a500d508776efb830fa6f12fc1771912169eae22dda3842a3643d95cda6a18",
          "routed_day/fills.log": "e97a832dac85665476889eb5bf023c9a673bc9e898a3830508d82b2be1a6afc6",
          "routed_day/frontier_arrival.txt": "4b22ab22a0d71bdf8dd92af84fa5de13d4b6eb0c4458150fcb2d1d932faff0e6",
          "routed_day/frontier_previous_close.txt": "722bb55a69651896fd6e880cb6f82a9b4db855f79c7f726c8e10c602583d7e8a",
          "routed_day/report.json": "a89f79de57b5c385af1bbbf24e1e6aca05f9f4200b8981d615b80e4f0214d622",
          "routed_day/scenario_echo.ini": "6de479da27aa3dab0401da4df131f03e2c0e7a811aa405e9f19ed1f1dc1b619a",
          "routed_day/tca_report.txt": "a8e28fb31a272e7598c45ff27011d47ef6757ffecbc16ca3fb154ef631de87e8",
}


@pytest.fixture(scope="module")
def packaged_artifacts(tmp_path_factory) -> dict[str, bytes]:
    """Every artifact of one run of each pinned scenario, by "<scenario>/<file>"."""
    root = tmp_path_factory.mktemp("packaged")
    got = {}
    for name, path in PINNED_RUNS.items():
        out = root / name
        harness.run(load_scenario(path), out)
        got.update({f"{name}/{p.name}": p.read_bytes() for p in sorted(out.iterdir())})
    return got


def test_packaged_scenario_artifacts_match_pins(packaged_artifacts):
    got = {k: hashlib.sha256(v).hexdigest() for k, v in packaged_artifacts.items()}
    changed = sorted(k for k in PINNED.keys() | got.keys() if PINNED.get(k) != got.get(k))
    assert not changed, "artifacts differ from the pins: " + ", ".join(changed) + \
        "\nnew pins:\n" + "\n".join(f'    "{k}": "{v}",' for k, v in got.items())


def test_no_artifact_prints_a_numpy_scalar(packaged_artifacts):
    """The repr of a NumPy scalar reads ``np.float64(...)`` from NumPy 2 on, so
    an artifact holding one would depend on the NumPy major version."""
    assert [k for k, body in packaged_artifacts.items() if b"np." in body] == []


def _cli_run(tmp_path: Path, hash_seed: str) -> dict[str, bytes]:
    """Every artifact of a CLI run of each hash-seed scenario, by "<scenario>/<file>"."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")))))
    got = {}
    for name in ("twap_quarter_day", "routed_day"):
        out = tmp_path / f"hashseed-{hash_seed}" / name
        subprocess.run([sys.executable, "-m", "tradelab.cli", "run",
                        str(PINNED_RUNS[name]), "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        got.update({f"{name}/{p.name}": p.read_bytes() for p in sorted(out.iterdir())})
    return got


def test_cli_run_is_byte_identical_across_hash_seeds(tmp_path):
    first, second = _cli_run(tmp_path, "1"), _cli_run(tmp_path, "2")
    assert first.keys() == second.keys()
    for fname in first:
        assert first[fname] == second[fname], f"{fname} depends on PYTHONHASHSEED"
