"""Every module of the package uses each name it imports, and declares what it needs.

``__init__.py`` is exempt from the unused-name scan: its imports are the
public re-exports, so each must be listed in ``__all__``, and each name in
``__all__`` must be bound.  An import whose line carries ``# noqa: F401`` is kept on
purpose and says why there.  Every top-level module that the package imports
from outside the standard library is a dependency in ``pyproject.toml``.
No module-level private name is left that no module of the package uses.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "deniable_fit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # Quoted annotations such as -> "LossSpec" name their imports too.
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "deniability.py", "training.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_name():
    source = (
        "from typing import List, Optional, Sequence\n"
        "def f(x: Optional[int]) -> \"List[int]\":\n"
        "    return 'Sequence'\n"
    )
    assert unused_imports(source) == [(1, "Sequence")]
    kept = "import os  # noqa: F401\n"
    assert unused_imports(kept) == []


def dead_private_names(sources: dict) -> list:
    """Module-level private names (``_x``, not dunder) that no module of ``sources`` uses.

    ``sources`` maps module names to their text.  A name counts as used when
    any module loads it (``_x``), reads it as an attribute (``mod._x``) or
    imports it (``from .mod import _x``); its own definition does not count.
    """
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
    return sorted((module, name) for module, name in defined if name not in used)


def test_no_dead_private_names():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_dead_name_scan_flags_an_unused_name():
    sources = {
        "training": (
            "_STANDARD_REDUCERS = {}\n"
            "_LEAST_SQUARES_KINDS: frozenset = frozenset()\n"
            "def _two_norm(E):\n"
            "    return _two_norm_of(E)\n"
            "def _two_norm_of(E):\n"
            "    return E\n"
            "class _Unused:\n"
            "    pass\n"
            "def __getattr__(name):\n"
            "    return _two_norm\n"
        ),
        "norms": "from .training import _LEAST_SQUARES_KINDS\n",
        "cli": "from . import training\nprint(training._two_norm_of)\n",
    }
    assert dead_private_names(sources) == [("training", "_STANDARD_REDUCERS"),
                                           ("training", "_Unused")]


def export_problems(source: str, bound) -> list:
    """Names in ``source``'s ``__all__`` missing from ``bound``, and imported names it omits."""
    tree = ast.parse(source)
    listed = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    )
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    return ([f"unbound: {name}" for name in listed if name not in bound]
            + [f"unlisted: {name}" for name in sorted(imported - set(listed))])


def test_exports_are_bound_and_listed():
    import deniable_fit

    source = (PACKAGE / "__init__.py").read_text()
    assert export_problems(source, vars(deniable_fit)) == []
    assert len(set(deniable_fit.__all__)) == len(deniable_fit.__all__)


def test_export_scan_flags_stale_names():
    source = (
        "from .linalg import nullspace_projector, numerical_rank\n"
        "__all__ = [\"ProjectionMatrix\", \"nullspace_projector\"]\n"
    )
    bound = {"nullspace_projector", "numerical_rank"}
    assert export_problems(source, bound) == ["unbound: ProjectionMatrix", "unlisted: numerical_rank"]


def third_party_imports(source: str) -> set:
    """Top-level names of the absolute imports in ``source`` outside the standard library."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def undeclared_imports(sources, dependencies) -> list:
    """Third-party modules imported by ``sources`` that no requirement in ``dependencies`` names."""
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower().replace("-", "_")
                for dep in dependencies}
    imported = set().union(*(third_party_imports(source) for source in sources))
    return sorted(imported - declared)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_third_party_imports_are_declared():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert undeclared_imports(sources, dependencies) == []
    # The check sees each runtime dependency: dropping one from the list fails it.
    without_orjson = [d for d in dependencies if not d.startswith("orjson")]
    assert undeclared_imports(sources, without_orjson) == ["orjson"]


def test_import_leaves_orjson_unloaded():
    # Only certificate I/O needs orjson; bound, experiment and adversary never load it.
    path = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    code = "import sys, deniable_fit, deniable_fit.cli; print('orjson' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
