"""README's Library example runs against the package.

The Python block under the "## Library" heading is executed as written, so
renaming or deleting a public name it uses fails here and not only in the
documentation.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1, "the Library section holds one python block"
    return blocks[0]


def test_library_example_runs():
    exec(compile(library_block(), f"{README}:Library", "exec"), {})
