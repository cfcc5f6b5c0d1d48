"""The README's Python API example runs as written, so a renamed or removed
export cannot leave the documented example broken."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_example_runs(tmp_path, monkeypatch):
    [code] = re.findall(r"^## Python API\n\n```python\n(.*?)^```", README.read_text(), re.M | re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    assert (tmp_path / "final.nt").exists()
