"""The simulator, generator, validator and schema readers run without the
query engine: importing them loads no ``supplykg.query`` module."""

import os
import subprocess
import sys
from pathlib import Path

import supplykg

SRC = Path(supplykg.__file__).resolve().parent.parent


def test_core_modules_do_not_load_the_query_engine():
    code = (
        "import sys\n"
        "import supplykg.fulfillment, supplykg.generator, supplykg.validation, supplykg.schema\n"
        "print(sorted(m for m in sys.modules if m.startswith('supplykg.query')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout == "[]\n"
