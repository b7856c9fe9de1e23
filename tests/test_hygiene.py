"""Static checks on the package source, by `ast` alone: no unused imports,
no unreferenced private names, no cap that nothing enforces, and numpy
imported at module level by `_bulk` alone."""

import ast
from collections import Counter
from pathlib import Path

import zetterberg

PACKAGE = Path(zetterberg.__file__).parent
MODULES = {p.name: ast.parse(p.read_text(), filename=str(p))
           for p in sorted(PACKAGE.glob("*.py"))}


def _loaded_names(tree) -> Counter:
    """Names read in the tree, with multiplicity: bare names, attribute names
    and the names a `from ... import` pulls in."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_definitions(tree):
    """(name, defining node) of the private module-level functions, classes
    and assigned names, and of the private methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _private(node.name):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and _private(sub.id):
                        yield sub.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _private(item.name):
                    yield f"{node.name}.{item.name}", item


def test_every_module_level_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__.py":
            continue  # its imports are the package's exports
        used = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_every_private_name_is_referenced():
    # a read inside the definition itself (recursion) does not count
    loaded = sum(map(_loaded_names, MODULES.values()), Counter())
    unreferenced = []
    for name, tree in MODULES.items():
        for qualname, node in _private_definitions(tree):
            short = qualname.rpartition(".")[2]
            if loaded[short] == _loaded_names(node)[short]:
                unreferenced.append(f"{name}: {qualname}")
    assert unreferenced == []


def test_every_cap_is_read_outside_caps():
    # a Caps field that no other module reads is a cap that nothing enforces
    caps_class = next(node for node in MODULES["caps.py"].body
                      if isinstance(node, ast.ClassDef) and node.name == "Caps")
    fields = {node.target.id for node in caps_class.body if isinstance(node, ast.AnnAssign)}
    read = {node.attr for name, tree in MODULES.items() if name != "caps.py"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert fields and fields - read == set()


def test_only_bulk_imports_numpy_at_module_level():
    # `import zetterberg` loads no numpy: the other modules reach numpy, or
    # `_bulk` (which imports it), only inside the routes that use arrays
    offenders = []
    for name, tree in MODULES.items():
        if name == "_bulk.py":
            continue
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            if any(m.split(".")[0] in ("numpy", "_bulk") for m in imported):
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == []
