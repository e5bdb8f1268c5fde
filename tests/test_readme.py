"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks, "README has no python code block"
    for i, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {i}", "exec"), {})
    capsys.readouterr()  # the quick start prints; only its running matters
