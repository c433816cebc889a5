import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rmlab"

# Exports that nothing in the package or its scripts calls, one reason each.
UNCALLED = {
    # parts of the MacWilliams sign proof of theorem5 that verify is to run
    "sign_class": "the sign of each central Krawtchouk value",
    "is_doubly_even": "whether the dual's weights are all 0 mod 4",
    "mceliece_check": "McEliece divisibility of the dual's weights",
}


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]


def called_names(path: Path) -> set[str]:
    """Names and attributes the code in path loads, outside type
    annotations and outside the top-level definition of that name."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            node.annotation = None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            node.returns = None
        elif isinstance(node, ast.AnnAssign):
            node.annotation = ast.Constant(None)
    names: set[str] = set()
    for statement in tree.body:
        found = {n.id for n in ast.walk(statement) if isinstance(n, ast.Name)}
        found |= {n.attr for n in ast.walk(statement) if isinstance(n, ast.Attribute)}
        found.discard(getattr(statement, "name", None))
        names |= found
    return names


def test_every_export_has_a_caller_or_a_reason():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "scripts").glob("*.py")
    called = set().union(*(called_names(p) for p in sources))
    exported = exported_names()
    assert [name for name in exported if name not in called and name not in UNCALLED] == []
    # a reason outlives its name only by mistake
    assert [name for name in UNCALLED if name not in exported or name in called] == []
