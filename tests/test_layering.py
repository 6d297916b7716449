"""Import layering of the package, read from its source with ast."""

import ast
import pathlib

from framekit import mispace

PACKAGE = pathlib.Path(mispace.__file__).parent


def _framekit_module(node):
    """The framekit module an import statement names, or None."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            return node.module or "."
        names = [node.module or ""]
    else:
        names = [alias.name for alias in node.names]
    for name in names:
        if name == "framekit" or name.startswith("framekit."):
            return name.removeprefix("framekit").lstrip(".") or "."
    return None


def test_engine_imports_only_numkernel():
    """mispace, the fiber engine, imports no framekit module but numkernel
    outside its TYPE_CHECKING block, and no function of it imports anything,
    so every other layer builds on it and none is reached from it."""
    tree = ast.parse((PACKAGE / "mispace.py").read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            continue
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Import, ast.ImportFrom)):
                module = _framekit_module(sub)
                if module is not None:
                    imported.add(module)
    assert imported == {"numkernel"}
    deferred = [
        f"{func.name}:{sub.lineno}"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for sub in ast.walk(func)
        if isinstance(sub, (ast.Import, ast.ImportFrom))
    ]
    assert deferred == []


def test_determining_sets_are_test_oracles():
    """The determining sets only cross-check the modulation-side pairing, so
    they live in tests/oracles.py and no module of the package defines them."""
    oracle_names = {"DeterminingSet", "_PARSEVAL_TOL", "delta_determining_set", "fourier_determining_set"}
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [f"{path.name}:{node.lineno} {name}" for name in names if name in oracle_names]
    assert defined == []
