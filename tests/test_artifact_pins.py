"""Pinned behaviour: SHA-256 of every artifact of the packaged scenarios.

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

PINNED = {
    "twap_quarter_day/cost_surface.txt": "6213364302e6795f615b32592ff2fbc804082cbf374e603fc425f09b96c44b1d",
    "twap_quarter_day/events_LIT1.log": "893ac167a06a05a7f8479c689074700ae1bfade1b8941cfa8fecdf867943ab05",
    "twap_quarter_day/fills.log": "a78997fb0d4218deff3f16baf49742444d8eb2739fe7df1cbb92e8496f5ed395",
    "twap_quarter_day/frontier_arrival.txt": "e47ef13953a0acd35a5a162f84b23cd80f409574b11407b07180d01d45d1333f",
    "twap_quarter_day/frontier_previous_close.txt": "139196de08a6cb24c410f51f6c25785281389f35b3981a5fffeeccadd45ab840",
    "twap_quarter_day/report.json": "4072418b9b37a51a39061861fc978ff7e05242ae4ab6e2cd3e9cd514db131fcb",
    "twap_quarter_day/scenario_echo.ini": "03d73a68b5388ca77894ec7b01c858a8671b7f53533c3c5b7c8a717b67b9361b",
    "twap_quarter_day/tca_report.txt": "99e574823b1c9fe0814cccbf62a3881a27e2be11562d8ea6c53963f086526e34",
    "pov_quarter_day/events_LIT1.log": "879aeede6474cd87854aa506b54e46eaa3cb8c03fe8bd7691385bfc7a117bd87",
    "pov_quarter_day/fills.log": "c0c8fec1e5878898ea2cc14d187950278d074f7544b6469828f1d674d02904cf",
    "pov_quarter_day/report.csv": "ea0f75161eef302fd0ba0ba406658ada9c8776848636e846240e731d8e1dc8fd",
    "pov_quarter_day/scenario_echo.ini": "dc5b2274b69f8a30e679b173cefab4dfdcb692e710a69778de588bcf474d2388",
    "pov_quarter_day/tca_report.txt": "f5b4581428b884afdcf6b202cc3d7aece81259a948e3be96b40b8839a237c8cc",
    "frontier_only/cost_surface.txt": "4f7125f1ec5121be864b9779da14f31c23b0e2bf568e85a59f7a55a3eaf81302",
    "frontier_only/frontier_arrival.txt": "f403f3020406fc5ed5e7aef0360a7ab2bd5728009c408da24ff31b8e92ec2e41",
    "frontier_only/frontier_previous_close.txt": "afdd8ffe170987153822cd1f8f81659831f147112ab3a64fcaa9e86c3049ebb3",
    "frontier_only/report.csv": "8532d502120f691f5053ee813069895a74a0dd53385a459b6234a0863841475a",
    "frontier_only/scenario_echo.ini": "f1fe8aed54fcd8385f1be56f8e8564cbcdfc13b39765e0386a4ca35caaee27a2",
}


@pytest.fixture(scope="module")
def packaged_artifacts(tmp_path_factory) -> dict[str, bytes]:
    """Every artifact of one run of each packaged scenario, by "<scenario>/<file>"."""
    root = tmp_path_factory.mktemp("packaged")
    got = {}
    for name in ("twap_quarter_day", "pov_quarter_day", "frontier_only"):
        out = root / name
        harness.run(load_scenario(SCENARIOS / f"{name}.ini"), out)
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
    out = tmp_path / f"hashseed-{hash_seed}"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, "-m", "tradelab.cli", "run",
                    str(SCENARIOS / "twap_quarter_day.ini"), "--out", str(out)],
                   env=env, check=True, capture_output=True, timeout=300)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_cli_run_is_byte_identical_across_hash_seeds(tmp_path):
    first, second = _cli_run(tmp_path, "1"), _cli_run(tmp_path, "2")
    assert first.keys() == second.keys()
    for fname in first:
        assert first[fname] == second[fname], f"{fname} depends on PYTHONHASHSEED"
