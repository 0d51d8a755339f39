"""The README's "Library entry points" blocks run as written and its named
constants exist with the stated values, so a renamed or deleted entry point
fails here instead of going stale there."""

import ast
import importlib
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _entry_points_section():
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library entry points\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_entry_points_run():
    section = _entry_points_section()
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["ledger"].residual_moving.max() < 5e-3
    assert namespace["run"].report.ok()


def test_readme_named_constants_exist_with_their_values():
    # each `module.NAME = value` of the section is debondwave.module.NAME
    named = re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*) = ([^`]+)`", _entry_points_section())
    assert len(named) >= 6
    for module, name, value in named:
        got = getattr(importlib.import_module(f"debondwave.{module}"), name)
        assert got == ast.literal_eval(value), (module, name)
