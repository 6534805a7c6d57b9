"""Layout checks on the package source, read with ``ast``."""

import ast
import pathlib

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
