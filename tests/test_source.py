import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "memlang"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements; invariant checks must raise instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


def _imported_modules(source: str) -> set[str]:
    """Every module an import statement names, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses(path):
    # node classes are written out by hand, so importing the package
    # generates no class methods
    imported = _imported_modules(path.read_text(encoding="utf-8"))
    assert "dataclasses" not in {name.partition(".")[0] for name in imported}, path.name


@pytest.mark.parametrize("source, found", [
    ("import dataclasses", True),
    ("from dataclasses import dataclass", True),
    ("def f():\n    import dataclasses as d", True),
    ("from .hashonce import HashOnce", False),
    ("import re", False),
])
def test_the_dataclasses_check_finds_an_import(source, found):
    assert ("dataclasses" in _imported_modules(source)) is found


_MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_MUTABLE_TYPES = {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict", "Counter", "deque"}
_CACHE_DECORATORS = {"cache", "lru_cache"}


def _name(node) -> str | None:
    # `f`, `mod.f`, and either of them called: `f(...)`, `mod.f(...)`
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def _module_state(source: str) -> list[int]:
    """Lines where a module binds a mutable container at top level or
    memoizes a function with a cache that outlives the call."""
    tree = ast.parse(source)
    bound = [
        node.lineno
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        and node.value is not None
        and (
            isinstance(node.value, _MUTABLE_DISPLAYS)
            or isinstance(node.value, ast.Call) and _name(node.value) in _MUTABLE_TYPES
        )
    ]
    cached = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_name(d) in _CACHE_DECORATORS for d in node.decorator_list)
    ]
    return sorted(bound + cached)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_mutable_state(path):
    # state at module level outlives a call: it leaks between runs and grows unbounded
    lines = _module_state(path.read_text(encoding="utf-8"))
    assert lines == [], f"{path.name} keeps mutable state at module level at lines {lines}"


@pytest.mark.parametrize("source", [
    "CACHE = {}",
    "CACHE: dict = {}",
    "SEEN = [x for x in range(3)]",
    "SEEN = {1, 2}",
    "CACHE = dict()",
    "BUF = bytearray()",
    "CACHE = collections.defaultdict(list)",
    "from collections import defaultdict\nCACHE = defaultdict(int)",
    "CACHE = collections.OrderedDict()",
    "COUNTS = Counter()",
    "QUEUE = collections.deque()",
    "@functools.lru_cache(maxsize=None)\ndef f(x):\n    return x",
    "@lru_cache\ndef f(x):\n    return x",
    "@functools.cache\ndef f(x):\n    return x",
    "class C:\n    @cache\n    def f(self):\n        return 1",
])
def test_module_state_check_flags(source):
    assert _module_state(source) != []


@pytest.mark.parametrize("source", [
    "BIASES = (1, 2)",
    "STARTERS = frozenset({'a', 'b'})",
    "def f():\n    cache = {}\n    return cache",
    "@dataclass(frozen=True)\nclass C:\n    x: int = 0",
])
def test_module_state_check_passes(source):
    assert _module_state(source) == []
