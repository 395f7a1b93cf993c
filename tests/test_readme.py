"""The README's library example runs against the package as it is."""

import re
from pathlib import Path

from ipas import read_trace

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    """The first python block under the README's "## Library quick start" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    assert match, "no python block under the quick start heading"
    return match.group(1)


def test_library_quick_start_runs(tmp_path, monkeypatch):
    # k_max = 500: the 500 steps' rows and the terminal row.
    monkeypatch.chdir(tmp_path)
    exec(compile(quick_start_block(), str(README), "exec"), {"__name__": "readme"})
    assert len(read_trace(tmp_path / "trace.csv")) == 501
