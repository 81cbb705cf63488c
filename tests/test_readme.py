"""The README documents what the package exports."""

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
