"""The README documents what the package exports and where its helpers live."""

import importlib
import re
from pathlib import Path

import trackfuse

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_export_list_equals_all():
    text = README.read_text(encoding="utf-8")
    listing = text.split("The package exports:", 1)[1].split("\n\n", 2)[1]  # the list after its blank line
    names = re.findall(r"`([A-Za-z_]\w*)`", listing)
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(trackfuse.__all__)


def test_readme_module_helpers_exist_where_it_says():
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("The single stages and helpers live in their modules:", 1)[1].split("\n\n", 1)[0]
    clauses = paragraph.split(";")
    assert len(clauses) > 1
    for clause in clauses:
        # "`a`, `b` and `c` in `trackfuse.module`"
        (module,) = re.findall(r"`(trackfuse\.\w+)`", clause)
        names = re.findall(r"`([A-Za-z_]\w*)`", clause)
        assert names, clause
        for name in names:
            assert hasattr(importlib.import_module(module), name), f"{name} is not in {module}"
