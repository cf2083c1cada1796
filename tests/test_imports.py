"""Every name a pnkit module imports is used by that module, every
name a pnkit module defines at its top level is used somewhere, only
`pn_space` decides strong-neighborhood membership, and only `errors`
turns a conversion error into a validation error."""

import ast
import re
from pathlib import Path
from typing import Iterable

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pnkit"
CORPUS = sorted([*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                 *(ROOT / "perfbench").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that it never references;
    names listed in its `__all__` count as referenced."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import math\nfrom typing import Iterable, Sequence\n__all__ = ['Sequence']\n"
    assert unused_imports(source) == ["Iterable (line 2)", "math (line 1)"]


def referenced_names(sources: Iterable[str]) -> set[str]:
    """Every name the sources read, as a variable or an attribute, and
    every string constant (which takes in `__all__` and setattr names)."""
    refs: set[str] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.add(node.value)
    return refs


def dead_names(source: str, refs: set[str]) -> list[str]:
    """The functions, classes and constants defined at the top level of
    `source`, dunder names aside, that are not among `refs`."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, ast.Assign):
            defined.update((t.id, node.lineno) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined[node.target.id] = node.lineno
    return sorted(f"{name} (line {line})" for name, line in defined.items()
                  if name not in refs and not (name.startswith("__") and name.endswith("__")))


@pytest.fixture(scope="module")
def corpus_refs() -> set[str]:
    return referenced_names(p.read_text() for p in CORPUS)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_names(path, corpus_refs):
    assert dead_names(path.read_text(), corpus_refs) == []


def test_the_check_sees_a_dead_name():
    source = ("HULL_CROSS_SLACK = 1e-12\n"
              "class TriangleFn:\n    kind = None\n"
              "def kept():\n    return KEPT\n"
              "KEPT: float = 1.0\n"
              "__version__ = '0'\n")
    user = "from m import kept\nkept()\n"
    assert dead_names(source, referenced_names([source, user])) == [
        "HULL_CROSS_SLACK (line 1)", "TriangleFn (line 2)"]


MEMBERSHIP = re.compile(r">\s*1\.0\s*-")


def membership_comparisons(path: Path) -> list[str]:
    """Lines of `path` that compare a value against 1.0 minus something,
    the strong-neighborhood test that `pn_space.in_neighborhood` owns."""
    return [f"{path.name}:{k}" for k, line in enumerate(path.read_text().splitlines(), 1)
            if MEMBERSHIP.search(line)]


def test_only_pn_space_decides_neighborhood_membership():
    assert [hit for path in sorted(SRC.glob("*.py")) if path.name != "pn_space.py"
            for hit in membership_comparisons(path)] == []


CONVERSION_ERRORS = {"KeyError", "TypeError", "ValueError", "OverflowError"}


def conversion_handlers(source: str) -> list[int]:
    """Lines of the `except` clauses in `source` that name a conversion
    error, which `errors.converted` alone catches."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(getattr(t, "id", getattr(t, "attr", None)) in CONVERSION_ERRORS
                   for t in types):
                lines.append(node.lineno)
    return sorted(lines)


def test_the_check_sees_a_conversion_handler():
    source = ("try:\n    float(v)\nexcept (TypeError, OverflowError):\n    pass\n"
              "try:\n    d[k]\nexcept builtins.KeyError as exc:\n    raise\n"
              "try:\n    json.loads(s)\nexcept json.JSONDecodeError:\n    pass\n"
              "try:\n    pass\nexcept:\n    pass\n")
    assert conversion_handlers(source) == [3, 7]


def test_only_errors_catches_conversion_errors():
    assert [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
            for line in conversion_handlers(path.read_text())] == []
