"""The simulator, generator, validator and schema readers run without the
query engine: importing them loads no ``supplykg.query`` module. The text
format runs without the vocabulary. And no module imports a name it does
not use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import supplykg

SRC = Path(supplykg.__file__).resolve().parent.parent


def _loaded_after(imports: str, prefixes: tuple[str, ...]) -> str:
    """The printed sorted list of ``supplykg`` modules starting with one of
    ``prefixes`` that a fresh interpreter has loaded after ``imports``."""
    code = (
        "import sys\n"
        f"import {imports}\n"
        f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return done.stdout


def test_core_modules_do_not_load_the_query_engine():
    core = "supplykg.fulfillment, supplykg.generator, supplykg.validation, supplykg.schema"
    assert _loaded_after(core, ("supplykg.query",)) == "[]\n"


def test_the_text_format_knows_no_vocabulary():
    """The parser and serializer load neither the vocabulary nor the schema:
    the canonical spelling of legacy names is applied by ``schema.load_graph``."""
    assert _loaded_after("supplykg.serialization", ("supplykg.vocab", "supplykg.schema")) == "[]\n"


def _unused_imports(path: Path) -> list[str]:
    """The names ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read]


def test_src_modules_use_every_import():
    """Every module of the package but ``__init__.py``, which re-exports,
    reads each name it imports."""
    unused = {
        str(path.relative_to(SRC)): names
        for path in sorted((SRC / "supplykg").rglob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path))
    }
    assert unused == {}
