"""Layout checks on the package source, read with ``ast``."""

import ast
import pathlib
import re
import subprocess
import sys

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "puncgon"


def _imported_modules(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    return []


def _words(node) -> list[str]:
    """Identifiers, definition, attribute and imported names, and string
    constants."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        return [node.name]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return []


def test_sources_parse_at_the_declared_python_floor():
    """Every module of the package parses with the grammar of the oldest
    Python that ``pyproject.toml`` admits.  The floor is read with a regex,
    since ``tomllib`` is newer than the floor itself."""
    pyproject = (TESTS.parent / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', pyproject).groups()
    floor = (int(major), int(minor))
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=floor)


def test_only_linalg_uses_fractions():
    """Every production path is exact in plain ints: only ``linalg``
    imports ``fractions``, for the rational reference ``FractionElim``,
    and no other module mentions that reference."""
    importers, mentions = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if any(m.split(".")[0] == "fractions" for m in _imported_modules(node)):
                importers.add(path.name)
            if any("FractionElim" in word for word in _words(node)):
                mentions.add(path.name)
    assert importers == {"linalg.py"}
    assert mentions == {"linalg.py"}


def test_package_imports_only_the_standard_library():
    """puncgon is a pure-stdlib engine: every absolute import in the
    package names a standard-library module (relative imports stay inside
    the package)."""
    foreign = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                continue
            for name in _imported_modules(node):
                if name.split(".")[0] not in sys.stdlib_module_names:
                    foreign.add((path.name, name))
    assert not foreign


def test_oracles_take_only_mesh_primitives():
    """The test oracles place (shift, edge) vertices in ZD_n themselves:
    from ``puncgon.mesh``, directly or through the package root, they
    import only the quiver's arrows and translation, the vertex type, and
    the Hom bases and composition they build on, never the placement the
    sweep tests check.  A plain ``import puncgon`` or ``import
    puncgon.mesh`` would reach any name, so it counts as a breach."""
    import puncgon.mesh

    path = TESTS / "oracles.py"
    taken = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            taken.update(a.name for a in node.names if a.name in ("puncgon", "puncgon.mesh"))
        elif isinstance(node, ast.ImportFrom) and node.module == "puncgon.mesh":
            taken.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "puncgon":
            mesh_names = set(vars(puncgon.mesh)) | {"mesh"}
            taken.update(a.name for a in node.names if a.name in mesh_names)
    assert taken <= {"ZqVertex", "zq_in_arrows", "zq_tau", "compose", "morphism_space"}


def _private_layout(tree) -> tuple[set[str], set[str]]:
    """The ``_``-prefixed attribute names a module defines (by a ``def``,
    an attribute store, ``__slots__`` or ``object.__setattr__`` with a
    constant name) and those it reads on anything other than ``self``.
    Dunder names are left out: they belong to the language."""
    defined, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
            elif not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                read.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
        ):
            defined.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
        elif (
            isinstance(node, ast.Call)
            and ast.unparse(node.func) == "object.__setattr__"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            defined.add(node.args[1].value)
    private = {a for a in read if a.startswith("_") and not (a.startswith("__") and a.endswith("__"))}
    return defined, private


def test_private_attributes_are_read_where_they_are_defined():
    """A ``_``-prefixed attribute that a module reads on something other
    than ``self`` is defined in that same module, so a private layout
    (the windows of ``RowTargets``, the spaces of a sweep) is read
    only next to the code that builds it."""
    for path in sorted(SRC.glob("*.py")):
        defined, private = _private_layout(ast.parse(path.read_text(), str(path)))
        assert private <= defined, (path.name, sorted(private - defined))


def test_import_loads_no_dataclass_typing_or_rational_machinery():
    """``import puncgon, puncgon.cli`` adds none of these modules to
    ``sys.modules``: the records are plain slotted classes, ``fractions``
    is imported where ``FractionElim`` runs and ``random`` where
    ``flipwalk`` draws.  ``-S`` skips ``site``, whose ``.pth`` files may
    import some of them before the package does."""
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import puncgon, puncgon.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC.parent)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    added = set(done.stdout.split())
    assert {"puncgon", "puncgon.cli"} <= added
    heavy = {"dataclasses", "inspect", "typing", "fractions", "decimal", "random"}
    assert not added & heavy
