"""Smoke tests: every shipped example must run to completion.

Examples are executed in-process (importing their ``main``) so failures
carry real tracebacks and coverage is attributed.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def load_module(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path, capsys):
    mod = load_module(path)
    assert hasattr(mod, "main"), f"{path.name} lacks a main()"
    mod.main()
    out = capsys.readouterr().out
    assert out.strip(), f"{path.name} printed nothing"


def test_all_examples_covered():
    """At least the three required example categories exist."""
    names = {p.stem for p in EXAMPLES}
    assert "quickstart" in names
    assert len(names) >= 3
