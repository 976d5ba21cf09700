"""Every python code block of README.md runs as written, and so does every
predscore command of its sh blocks, so the library API and the CLI usage it
documents cannot go stale."""

import re
import shlex
from pathlib import Path

from predscore.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_python_block_runs():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL))
    assert blocks, "README.md has no python block"
    for block in blocks:
        # leading newlines keep a traceback's line numbers those of README.md
        source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_every_cli_command_runs(tmp_path, monkeypatch):
    """The predscore commands run in order, each with its backslash
    continuations joined, in an empty working directory, as a reader would
    paste them; each exits 0."""
    text = README.read_text(encoding="utf-8")
    commands = [line for block in re.findall(r"^```sh\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("predscore ")]
    assert commands, "README.md has no predscore command"
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(shlex.split(command, comments=True)[1:]) == 0, command
