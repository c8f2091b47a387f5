"""The top-level package exports exactly the API that README.md documents."""

import re
from pathlib import Path

import lpd

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_imports():
    """Names imported by the README's `from lpd import ...` statements."""
    names = []
    for group in re.findall(r"^from lpd import (\([^)]*\)|[^\n]*)", README.read_text(), re.M):
        names += [n.strip() for n in group.strip("()").split(",") if n.strip()]
    return names


def test_all_is_the_documented_api():
    names = readme_imports()
    assert len(names) == 10
    assert sorted(lpd.__all__) == sorted(names)
    for name in names:
        assert getattr(lpd, name) is not None
