"""The README's Quick start runs as written: its Python block and each ``dlf`` line."""

import re
import shlex
from pathlib import Path

import pytest

from dlf.cli import main

ROOT = Path(__file__).resolve().parent.parent
QUICK_START = (ROOT / "README.md").read_text().split("## Quick start\n", 1)[1].split("\n## ", 1)[0]
BLOCKS = re.findall(r"```(\w+)\n(.*?)```", QUICK_START, re.S)
DLF_LINES = [ln for lang, body in BLOCKS if lang == "sh" for ln in body.splitlines()
             if ln.startswith("dlf ")]


def test_quick_start_has_both_blocks():
    assert [lang for lang, _ in BLOCKS] == ["python", "sh"]
    assert len(DLF_LINES) == 5


def test_python_block_runs(monkeypatch):
    monkeypatch.chdir(ROOT)
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})


@pytest.mark.parametrize("line", DLF_LINES, ids=[ln.split()[1] for ln in DLF_LINES])
def test_dlf_line_exits_0(line, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(ROOT)
    argv = shlex.split(line)[1:]
    for k, flag in enumerate(argv[:-1]):
        if flag == "--out":
            argv[k + 1] = str(tmp_path / argv[k + 1])
    assert main(argv) == 0, capsys.readouterr().err
