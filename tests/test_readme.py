"""Every python code block of README.md runs as written, so the library
API it documents cannot go stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_python_block_runs():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL))
    assert blocks, "README.md has no python block"
    for block in blocks:
        # leading newlines keep a traceback's line numbers those of README.md
        source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})
