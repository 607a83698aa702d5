"""The package's modules form layers: each imports only the layers below it.

The word kernels (with the exact-division pair and the truncated-series
kernel) sit at the bottom, so every layer above can share them.
"""

import ast
from pathlib import Path

LAYERS = ("_kernels", "partitions", "incidence", "coefficients", "symbolic",
          "systems", "freelie", "cli")
SRC = Path(__file__).resolve().parents[1] / "src"


def _imported(path):
    """Yield the dotted name of every module or package a file imports,
    relative imports resolved against the file's package."""
    package = list(path.relative_to(SRC).parent.parts)
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = (package[:len(package) - node.level + 1] if node.level
                    else [])
            if node.module:
                base += node.module.split(".")
            yield ".".join(base)
            for alias in node.names:
                yield ".".join(base + [alias.name])


def test_modules_import_only_lower_layers():
    seen = set()
    for path in sorted((SRC / "ospart").rglob("*.py")):
        parts = path.relative_to(SRC / "ospart").with_suffix("").parts
        if parts == ("__init__",):
            continue  # the package facade re-exports from below
        layer = parts[0]
        assert layer in LAYERS, f"{path.name} belongs to no layer"
        seen.add(layer)
        for name in _imported(path):
            target = name.split(".")
            if target[0] != "ospart" or len(target) < 2:
                continue
            if target[1] not in LAYERS:
                continue  # a name imported from the package facade
            # only the modules of a package (_kernels) share their layer
            below = LAYERS.index(target[1]) < LAYERS.index(layer)
            assert below or (target[1] == layer and len(parts) > 1), (
                f"{'/'.join(parts)} imports {name}, not a lower layer")
    assert seen == set(LAYERS)


def _loads(node):
    """The names a subtree loads: Name and Attribute loads, not imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def test_private_helpers_are_loaded_outside_their_definition():
    # a private module-level function or class that nothing in src loads,
    # apart from its own body, is dead code; the tests do not count
    defined, loaded = [], set()
    for path in sorted((SRC / "ospart").rglob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if own.startswith("_") and not own.startswith("__"):
                    defined.append((path.name, own))
            loaded.update(name for name in _loads(stmt) if name != own)
    unused = [(file, name) for file, name in defined if name not in loaded]
    assert defined and not unused, unused
