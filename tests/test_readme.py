"""The README's library sketch runs, and every exported name exists."""

import re
from pathlib import Path

import qparch

README = Path(__file__).resolve().parents[1] / "README.md"


def library_sketch() -> str:
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_runs(capsys):
    exec(compile(library_sketch(), str(README), "exec"), {})
    printed = capsys.readouterr().out.split("\n")
    assert len(printed) == 3 and printed[-1] == ""


def test_every_exported_name_resolves():
    assert [name for name in qparch.__all__ if not hasattr(qparch, name)] == []
    assert len(set(qparch.__all__)) == len(qparch.__all__)
