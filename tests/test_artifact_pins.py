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
          "twap_quarter_day/cost_surface.txt": "8ea4987cc31d4247d362746be2f596f1445e4ebe27be59beaaf84f90b05152a3",
          "twap_quarter_day/events_LIT1.log": "7f2874bf5d3bece3c8a807ee2d47ebb004b078dec420454ba5ab8d22d5d18785",
          "twap_quarter_day/fills.log": "fe91b3913dfd919ea6a9441e66a0aa7fc9bad6a111cd8da1aaa640a5b4f06e19",
          "twap_quarter_day/frontier_arrival.txt": "59a9bfd0214b5d405c48435c560b8dadca50eb17d8c565c3b520dccdec755c05",
          "twap_quarter_day/frontier_previous_close.txt": "ddc6c088cba237b88ad72d1f7d6a8b30fd880220bf9a2b92773955e9880faf4a",
          "twap_quarter_day/report.json": "fb758b00d04e9f33268b96915602cb6b5c2d653bf6e459e4edc183abf37cc29f",
          "twap_quarter_day/scenario_echo.ini": "139fb23f4a2d8993e6c7fceba6773324174e0db4eb34f5a30de4a35f80ed2e23",
          "twap_quarter_day/tca_report.txt": "b5f067752bdedf45f07c4c8ff3408101968c44e9ac3c35d42c30a37b49fe6f2e",
          "pov_quarter_day/events_LIT1.log": "9f64c97b36d488e8226b16c65ac14538121df0118a5cf1fb70c06096e6d2a0f4",
          "pov_quarter_day/fills.log": "4a464fed067751eac7e5f7cfd7738c0270f852107cfdf7f72be7d323a0c248f0",
          "pov_quarter_day/report.csv": "930fc6c3835b93b96ae8abc6a52f86f6be358fdd314052429581557e8b54f3bb",
          "pov_quarter_day/scenario_echo.ini": "a05f3bf3dae1095139c571059a4e861463e136f0fcf981ea62e3f73d5f42e539",
          "pov_quarter_day/tca_report.txt": "7a86d24c4d3657d52b5465804f88b5a94dd98de19cd89cce1c68d653f4f5a93c",
          "frontier_only/cost_surface.txt": "3cb15a08f7b10336d9fc236272b18da944632bba7f5d7480928a17f59b71aff3",
          "frontier_only/frontier_arrival.txt": "ddef9143c106497d15acf0fb50b9d4bb27e94d5ffa8acb431215f5bb54f2dae9",
          "frontier_only/frontier_previous_close.txt": "73b89bdef13dc35ae114db16edf3cba6b212f552cc0a3a40c78c44bab89f72f8",
          "frontier_only/report.csv": "519d302eb5f8c17ca5847f82afa22ce9531c54afa5235590996525281af46e5d",
          "frontier_only/scenario_echo.ini": "4823f5785c6903565eb4af3ba80c5e5b0793d5d35f7600c97d9b8c546587db61",
          "routed_day/cost_surface.txt": "0c40c023458659910ce481b865ff45dc7ac0481e8b74fb0a825d59fdd1a62add",
          "routed_day/events_DARK1.log": "893c9d523e1782a036fd780e6c2ae0936ce356c8d9cd2a21941a009b252aca36",
          "routed_day/events_ECN1.log": "bd13280bb808ed97dbee1131f57386941fac5952e668c7036ba87910d50b53ff",
          "routed_day/events_LIT1.log": "28f1b3432b216f06c06635c2deba3b74471a08eedb5284ab4dd882642669a70e",
          "routed_day/fills.log": "74e26c230fba818c6db36efa7420be3b078123e700a5e398e36af31cb509f100",
          "routed_day/frontier_arrival.txt": "87bc9c2b254c5e598d5ad3a85e4af050141d7c7825dafc57ddbf58fbe00eb609",
          "routed_day/frontier_previous_close.txt": "97160140799199bfd3d89d437499b255ae2147cdf9120ca31694cb08d3559d0b",
          "routed_day/report.json": "186656b4ec4b68a9aec2b9bb4f3336dad968a3d8ba9c96892a7d0a25f772b072",
          "routed_day/scenario_echo.ini": "8626593053217bf3e8e4cfccdcc5ef7ef639081c4c3e2370a8872d0cd0057e02",
          "routed_day/tca_report.txt": "8599dd1fae856ea9d2b8a2540e25321e13ff55450a46a8fe6ed469cded62bb07",
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
