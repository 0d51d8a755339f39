"""The README's "Library entry points" blocks run as written, so a renamed
entry point fails here instead of going stale there."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_entry_points_run():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library entry points\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["ledger"].residual_moving.max() < 5e-3
    assert namespace["run"].report.ok()
