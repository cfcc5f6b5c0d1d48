"""Same seed, same bytes: the command outputs for one seed of each preset,
pinned by SHA-256 digest.

A change that is meant to keep every output byte-identical must leave
these digests alone. A change that alters an output on purpose updates the
digest here and says why.
"""

import hashlib
from pathlib import Path

import pytest

from supplykg.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios" / "automotive_sweep.cfg"

# preset -> (horizon, {output: digest}) for seed 3
PINNED = {
    "automotive": (
        178,
        {
            "generate": "6f82e452bd21b148124dbdea3a7dbf13c4664e35b4c96d28e1eaba00b64c0d88",
            "simulate": "9caf26606ca64faaf86e3e56d14cb12734811e27d8f785e1a0e1f79abdf1ea5a",
            "final graph": "7490f785aa3dca28c20d35bfabdabd11c9de98c726bd102b8d525409cdd11bde",
            "report": "32009ed9f9875b2c84e8455d30d8b37712d5d064a441ea73859e8633105ea2f3",
        },
    ),
    "dairy": (
        60,
        {
            "generate": "f0c5b80ca50872753df4b3292e0b5ed65e8554634c1b416e385c5b41f913ff7c",
            "simulate": "4252c608b287aa3d8b1d5410844a0185e9ef9fd224b01b3d269b20504fe26c1a",
            "final graph": "b39d68331a8dd36435ee89450384e2e59cad7a71a7728ea63de7e7036e429c91",
            "report": "d47cf8bd915b7e9f7ea3e85c7ffc3edee4a012b8cda1b13555c298ae6f71c1cb",
        },
    ),
}

SWEEP = {
    "sweep": "a456632da1e72aa0e0050e798cd0ac71b8b934f280565b241be8427f852415d5",
    "plot": "68bf926dd0888e8fc9b39e4484b3504e36c714481f6b538defb86dba4b90bcab",
}


def digests(paths):
    return {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}


@pytest.mark.parametrize("preset", sorted(PINNED))
def test_pipeline_outputs_match_pinned_digests(tmp_path, preset):
    horizon, pinned = PINNED[preset]
    paths = {name: tmp_path / name.replace(" ", "_") for name in pinned}
    assert main(["generate", "--preset", preset, "--seed", "3", "--out", str(paths["generate"])]) == 0
    assert main([
        "simulate", "--graph", str(paths["generate"]), "--horizon", str(horizon),
        "--out", str(paths["simulate"]), "--final-graph", str(paths["final graph"]),
    ]) == 0
    assert main(["report", "--graph", str(paths["final graph"]), "--t", "0", "--out", str(paths["report"])]) == 0
    assert digests(paths) == pinned


def test_sweep_outputs_match_pinned_digests(tmp_path):
    paths = {name: tmp_path / name for name in SWEEP}
    code = main(["sweep", "--scenarios", str(SCENARIOS), "--out", str(paths["sweep"]), "--plot", str(paths["plot"])])
    assert code == 0
    assert digests(paths) == SWEEP
