"""The public surface: the README's examples run as doctests, the top
level holds exactly the names the README lists, every name a module
exports resolves, and the oracles import only what they do not check."""

from __future__ import annotations

import ast
import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import osinv

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

#: What ``oracle.py`` may take from the package: the oracles compute tail
#: masses and crossings themselves, so that they check the library's.
ORACLE_IMPORTS = {
    "errors": None,  # any error class
    "monotone_fn": {"MonotoneFn", "evaluate_many"},
    "orlicz": {"OrliczFn", "quiet_sum", "rescaled_norm"},
    "spaces": {"WeightPair"},
    "util": {"_check_dimension"},
}


def test_readme_python_blocks_run_as_doctests():
    text = README.read_text(encoding="utf-8")
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    report: list[str] = []
    globs: dict[str, object] = {}
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    assert len(blocks) >= 2
    for block in blocks:
        # Each block runs in the namespace the previous one left, as in
        # one interpreter session.
        test = parser.get_doctest(
            block.group(1), globs, "README.md", str(README),
            text.count("\n", 0, block.start(1)),
        )
        assert test.examples
        runner.run(test, out=report.append, clear_globs=False)
        globs = test.globs
    assert runner.failures == 0, "".join(report)


def test_top_level_holds_exactly_the_readme_names():
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"^The top level `osinv` holds exactly (.*?)\.\s",
                       text, re.M | re.S)
    assert listed is not None
    names = re.findall(r"`(\w+)`", listed.group(1))
    assert len(names) == len(osinv.__all__) == 10
    assert set(names) == set(osinv.__all__)


@pytest.mark.parametrize(
    "name",
    ["osinv", *(f"osinv.{m.name}" for m in pkgutil.iter_modules(osinv.__path__))],
)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_oracle_imports_stay_on_the_allowlist():
    tree = ast.parse((ROOT / "src" / "osinv" / "oracle.py").read_text())
    taken: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "osinv" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "osinv"):
            module = (node.module or "").removeprefix("osinv.")
            taken.setdefault(module, set()).update(a.name for a in node.names)
    assert set(taken) <= set(ORACLE_IMPORTS)
    for module, names in taken.items():
        allowed = ORACLE_IMPORTS[module]
        assert allowed is None or names <= allowed, (module, names - allowed)
