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


def test_readme_layout_names_every_module_and_script():
    # the first fenced block after "## Layout": a directory line ends in "/",
    # and each indented line under it starts with one file name
    text = README.read_text()
    block = text.split("## Layout", 1)[1].split("```")[1]
    listed, directory = {}, None
    for line in block.splitlines():
        if line and not line[0].isspace():
            directory = line.split()[0]
            listed.setdefault(directory, set())
        elif line.startswith("  ") and not line.startswith("   "):
            listed[directory].add(line.split()[0])
    root = README.parent
    assert listed["src/liestoch/"] == {p.name for p in (root / "src" / "liestoch").glob("*.py")}
    assert listed["scripts/"] == {p.name for p in (root / "scripts").iterdir() if p.is_file()}


def test_readme_battery_lists_every_criterion():
    # the numbered list under "## Verification battery", one item per
    # criterion of acceptance.ALL_CRITERIA, in order
    from liestoch.acceptance import ALL_CRITERIA

    section = README.read_text().split("## Verification battery", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^(\d+)\. ", section, re.MULTILINE)
    assert items == [str(i + 1) for i in range(len(ALL_CRITERIA))]
