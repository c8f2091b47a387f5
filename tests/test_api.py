"""The top-level package exports exactly the API that README.md documents, and
every `lpd.<module>.<name>` the READMEs name exists."""

import importlib
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


def documented_names():
    """(module, name) of every `lpd.<module>.<name>` that README.md or perfbench/README.md names."""
    root = README.parent
    text = README.read_text() + (root / "perfbench" / "README.md").read_text()
    return sorted(set(re.findall(r"`lpd\.(\w+)\.(\w+)`", text)))


def test_documented_names_exist():
    names = documented_names()
    assert ("l1solver", "FEAS_TOL") in names
    for module, name in names:
        assert hasattr(importlib.import_module(f"lpd.{module}"), name), f"lpd.{module}.{name}"
