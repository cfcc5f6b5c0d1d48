"""Same seed, same bytes: the command outputs for one seed of each preset,
and the due-orders query's tables on one final graph, pinned by SHA-256
digest.

A change that is meant to keep every output byte-identical must leave
these digests alone. A change that alters an output on purpose updates the
digest here and says why.

The file also runs without pytest, to check the digests on any Python:
``PYTHONPATH=src python tests/test_pinned_outputs.py`` prints one line per
output and exits 1 if any digest differs.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from supplykg import schema
from supplykg.cli import main
from supplykg.query import evaluate, parse_query
from supplykg.serialization import parse_graph
from supplykg.terms import integer, timestep

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios" / "automotive_sweep.cfg"

# The graph keeps its triples in sets, whose order follows the string hash
# seed; a test run has one seed, so these are checked in a process of their own.
HASH_SEEDS = ["1", "12345"]

# preset -> (horizon, {output: digest}) for seed 3; "due orders" is the CSV of
# the due-orders query on the final graph for every step, one after another
PINNED = {
    "automotive": (
        178,
        {
            "generate": "6f82e452bd21b148124dbdea3a7dbf13c4664e35b4c96d28e1eaba00b64c0d88",
            "simulate": "9caf26606ca64faaf86e3e56d14cb12734811e27d8f785e1a0e1f79abdf1ea5a",
            "final graph": "7490f785aa3dca28c20d35bfabdabd11c9de98c726bd102b8d525409cdd11bde",
            "report": "32009ed9f9875b2c84e8455d30d8b37712d5d064a441ea73859e8633105ea2f3",
            "due orders": "2101ff67ad7d380a594179ece7a05f6599b95975b52691fb6dceef34832d1348",
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


def run(*argv):
    code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"supplykg {' '.join(argv)} exited {code}")


def pipeline_digests(tmp_path, preset):
    horizon, pinned = PINNED[preset]
    paths = {name: tmp_path / name.replace(" ", "_") for name in pinned}
    run("generate", "--preset", preset, "--seed", "3", "--out", str(paths["generate"]))
    run(
        "simulate", "--graph", str(paths["generate"]), "--horizon", str(horizon),
        "--out", str(paths["simulate"]), "--final-graph", str(paths["final graph"]),
    )
    run("report", "--graph", str(paths["final graph"]), "--t", "0", "--out", str(paths["report"]))
    if "due orders" in paths:
        paths["due orders"].write_text(due_orders(paths["final graph"], horizon))
    return digests(paths)


DUE = "SELECT ?o WHERE { ?o :hasDeliveryTime ?dt . FILTER (?dt - lt = t) . }"


def due_orders(graph_path, horizon):
    """The due-orders query's CSV for t = 0 .. horizon - 1, with ``lt`` the
    OEM's lead time, one table after another."""
    graph = parse_graph(graph_path.read_text(encoding="utf-8"))
    lead = integer(schema.node(graph, schema.the_oem(graph)).delivery_time)
    query = parse_query(DUE, params=["lt", "t"])
    return "".join(evaluate(query, graph, {"lt": lead, "t": timestep(t)}).to_csv() for t in range(horizon))


def sweep_digests(tmp_path):
    paths = {name: tmp_path / name for name in SWEEP}
    run("sweep", "--scenarios", str(SCENARIOS), "--out", str(paths["sweep"]), "--plot", str(paths["plot"]))
    return digests(paths)


def pytest_generate_tests(metafunc):
    # parametrized through pytest's hook, so that the module imports without pytest
    if "preset" in metafunc.fixturenames:
        metafunc.parametrize("preset", sorted(PINNED))
    if "hash_seed" in metafunc.fixturenames:
        metafunc.parametrize("hash_seed", HASH_SEEDS)


def test_pipeline_outputs_match_pinned_digests(tmp_path, preset):
    assert pipeline_digests(tmp_path, preset) == PINNED[preset][1]


def test_sweep_outputs_match_pinned_digests(tmp_path):
    assert sweep_digests(tmp_path) == SWEEP


def test_outputs_match_pinned_digests_under_other_hash_seeds(hash_seed):
    """No order of the store's sets leaks into an output: the digests hold
    under another string hash seed too."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr


def check_all() -> int:
    """Compare every output with its pin, printing one line each; 1 if any differs."""
    checks = [(f"{preset} ", lambda d, p=preset: pipeline_digests(d, p), PINNED[preset][1]) for preset in sorted(PINNED)]
    checks.append(("", sweep_digests, SWEEP))
    mismatches = 0
    for label, compute, pinned in checks:
        with tempfile.TemporaryDirectory() as tmp:
            got = compute(Path(tmp))
        for name, digest in pinned.items():
            same = got[name] == digest
            mismatches += not same
            print(f"{'ok' if same else 'MISMATCH'} {label}{name} {got[name]}")
    print(f"Python {sys.version.split()[0]}: {mismatches} mismatch(es)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(check_all())
