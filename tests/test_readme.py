"""README's library examples run as written, so a public name that is
removed or renamed fails here instead of going stale in the text."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_blocks_run():
    text = README.read_text()
    section = text[text.index("## Library use"):]
    section = section[:section.index("\n## ", 1)]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    # The second block reuses the first's names (np, scn, grid).
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["trace"].status == "completed"
