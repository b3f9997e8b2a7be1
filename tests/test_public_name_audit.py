"""Every public function and class in ``src/repro`` has a caller.

The audit parses the package with :mod:`ast`. A module-level function or
class whose name does not start with ``_`` passes when code outside its
own definition names it, as a ``Name``, an ``Attribute`` or an imported
name. That code may sit in ``src/``, ``perf/``, ``tools/``,
``examples/``, ``benchmarks/`` or a python block of ``README.md``.

* Tests do not count: code that only tests reach belongs in ``tests/``.
* ``__init__`` re-exports do not count, and neither does a mention in a
  docstring or a comment.
* A definition handed to a ``register_*`` decorator is reached through
  its registry (the invariant catalog).
* Methods are not scanned.

Names match by identifier, so a dead definition that shares its name
with a live one passes; a live one is never reported. The few public
names that have no caller on purpose sit on :data:`ALLOWLIST` with their
reason. An entry whose name no longer exists, or has gained a caller, is
stale and fails the audit.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, Mapping, Set, Tuple

import pytest

REPO = Path(__file__).resolve().parents[1]

#: Directories whose code counts as a caller, beside README's python blocks.
CALLER_DIRS = ("src", "perf", "tools", "examples", "benchmarks")

_DECODER = "client-side decoder of a document the library emits"

ALLOWLIST: Dict[str, str] = {
    "repro.scenarios.registry.unregister_scenario": (
        "test hook: removes a scenario a test registered"
    ),
    "repro.schemas.pricing_response_from_doc": _DECODER,
    "repro.schemas.best_response_from_doc": _DECODER,
    "repro.schemas.equilibrium_response_from_doc": _DECODER,
    "repro.schemas.scenario_list_from_doc": _DECODER,
    "repro.schemas.comparison_summary_from_doc": _DECODER,
    "repro.schemas.table_rows_from_doc": _DECODER,
    "repro.models.optim.theorem1_schedule": (
        "Theorem 1's step-size schedule, eta_r = 2 / (max(8L, mu E) + mu r)"
    ),
}

_README_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)

Definition = Tuple[Path, ast.AST]
Site = Tuple[str, str]


def public_definitions(package: Path) -> Dict[str, Definition]:
    """Module-level public functions and classes, by qualified name."""
    found: Dict[str, Definition] = {}
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                found[f"{module}.{node.name}"] = (path, node)
    return found


def _registered(node: ast.AST) -> bool:
    """Whether a ``register_*(...)`` decorator hands ``node`` to a registry."""
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            func = decorator.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", ""
            )
            if name.startswith("register"):
                return True
    return False


def _names_in(node: ast.AST, reexports: bool) -> Set[str]:
    """Identifiers ``node`` references; imports only when not ``reexports``."""
    names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.ImportFrom) and not reexports:
            names.update(alias.name for alias in child.names)
    return names


def reference_sites(root: Path) -> Dict[str, Set[Site]]:
    """Identifier -> the ``(file, enclosing top-level definition)`` sites
    that reference it, over every caller directory and README block."""
    sources: List[Tuple[str, str]] = []
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            sources.append((str(path), path.read_text(encoding="utf-8")))
    readme = root / "README.md"
    if readme.exists():
        for index, block in enumerate(
            _README_BLOCK.findall(readme.read_text(encoding="utf-8"))
        ):
            sources.append((f"README.md#{index}", block))
    sites: Dict[str, Set[Site]] = {}
    for filename, text in sources:
        reexports = filename.endswith("__init__.py")
        for node in ast.parse(text).body:
            owner = getattr(node, "name", "")
            for name in _names_in(node, reexports):
                sites.setdefault(name, set()).add((filename, owner))
    return sites


def audit(root: Path, allowlist: Mapping[str, str]) -> List[str]:
    """Public names under ``root/src/repro`` with no caller and off the
    allowlist, then stale allowlist entries; empty when clean."""
    definitions = public_definitions(root / "src" / "repro")
    sites = reference_sites(root)

    def has_caller(path: Path, node: ast.AST) -> bool:
        own = (str(path), node.name)
        return _registered(node) or any(
            site != own for site in sites.get(node.name, ())
        )

    problems = []
    for qualname, (path, node) in sorted(definitions.items()):
        if qualname not in allowlist and not has_caller(path, node):
            problems.append(
                f"{qualname} ({path.relative_to(root)}:{node.lineno}): "
                "no caller outside tests"
            )
    for qualname in sorted(allowlist):
        if qualname not in definitions:
            problems.append(f"allowlist entry {qualname}: no such definition")
        elif has_caller(*definitions[qualname]):
            problems.append(
                f"allowlist entry {qualname}: has a caller, remove the entry"
            )
    return problems


def test_every_public_name_has_a_caller():
    assert audit(REPO, ALLOWLIST) == []


def test_every_allowlist_entry_gives_a_reason():
    assert all(reason.strip() for reason in ALLOWLIST.values())


def _plant(root: Path, files: Mapping[str, str]) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


_LIBRARY = {
    "src/repro/__init__.py": "from repro.mod import used, orphan\n",
    "src/repro/mod.py": (
        "def used():\n"
        "    return orphan_helper()\n\n\n"
        "def orphan():\n"
        "    return orphan()\n\n\n"
        "def orphan_helper():\n"
        "    return 1\n"
    ),
    "src/repro/user.py": "from repro.mod import used\n\nVALUE = used()\n",
    "tests/test_mod.py": "from repro.mod import orphan\n\norphan()\n",
}


def test_planted_function_without_a_caller_is_reported(tmp_path):
    """A re-export, a test and its own recursive call are not callers."""
    root = _plant(tmp_path, _LIBRARY)
    problems = audit(root, {})
    assert len(problems) == 1
    assert problems[0].startswith("repro.mod.orphan (src/repro/mod.py:5)")


def test_planted_class_without_a_caller_is_reported(tmp_path):
    root = _plant(
        tmp_path,
        {**_LIBRARY, "src/repro/shapes.py": "class Orphan:\n    pass\n"},
    )
    assert [p.split(" ")[0] for p in audit(root, {})] == [
        "repro.mod.orphan",
        "repro.shapes.Orphan",
    ]


def test_methods_and_private_names_are_not_scanned(tmp_path):
    """Only module-level public definitions need a caller: a method of a
    live class and a private helper with no caller pass."""
    root = _plant(
        tmp_path,
        {
            "src/repro/shapes.py": (
                "class Square:\n"
                "    def area(self):\n"
                "        return 1\n\n\n"
                "def _unused():\n"
                "    return 2\n"
            ),
            "src/repro/user.py": "from repro.shapes import Square\n",
        },
    )
    assert sorted(public_definitions(root / "src" / "repro")) == [
        "repro.shapes.Square"
    ]
    assert audit(root, {}) == []


def test_docstring_mention_is_not_a_caller(tmp_path):
    root = _plant(
        tmp_path,
        {
            **_LIBRARY,
            "src/repro/other.py": (
                '"""Calls :func:`orphan` in prose only."""\n\n'
                "# orphan()\n"
                'NAME = "orphan"\n'
            ),
        },
    )
    assert [p.split(" ")[0] for p in audit(root, {})] == ["repro.mod.orphan"]


@pytest.mark.parametrize(
    "caller",
    [
        {"examples/demo.py": "import repro.mod\n\nrepro.mod.orphan()\n"},
        {"README.md": "```python\nfrom repro.mod import orphan\n```\n"},
    ],
    ids=["example", "readme"],
)
def test_caller_outside_src_counts(tmp_path, caller):
    assert audit(_plant(tmp_path, {**_LIBRARY, **caller}), {}) == []


def test_registered_definition_needs_no_caller(tmp_path):
    root = _plant(
        tmp_path,
        {
            "src/repro/catalog.py": (
                "def register_check(name):\n"
                "    return lambda fn: fn\n\n\n"
                '@register_check("x")\n'
                "def check_x():\n"
                "    return []\n"
            ),
        },
    )
    assert audit(root, {}) == []


def test_stale_allowlist_entries_fail(tmp_path):
    root = _plant(tmp_path, _LIBRARY)
    problems = audit(
        root,
        {
            "repro.mod.orphan": "kept on purpose",
            "repro.mod.gone": "deleted since",
            "repro.mod.used": "gained a caller since",
        },
    )
    assert problems == [
        "allowlist entry repro.mod.gone: no such definition",
        "allowlist entry repro.mod.used: has a caller, remove the entry",
    ]
