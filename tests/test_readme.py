"""The README's "Library use" block runs as written and gives its commented values."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    """The first ```python block after the "## Library use" heading."""
    text = README.read_text()
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_gives_its_commented_values():
    scope: dict = {}
    exec(compile(library_use_block(), "README.md", "exec"), scope)
    res = scope["res"]
    assert res.upper == pytest.approx(2.4, abs=1e-12)
    assert res.lower == pytest.approx(1.6, abs=1e-12)
    assert scope["square"] == pytest.approx(1.0, abs=5e-3)
    assert abs(scope["peng_cos"] - scope["cos"]) <= 1e-3
