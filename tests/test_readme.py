"""README.md's ```python blocks run, in order, in one namespace, so the
"Library use" snippets stay in step with the API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    blocks = BLOCK.findall(README.read_text())
    assert len(blocks) >= 2
    namespace = {}
    for i, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {i + 1}", "exec"), namespace)
