"""Every definition in `src/clusterfan` has a caller.

An AST walk starts from `cli.main`, the names in `clusterfan.__all__`, the
functions the bench traces (`ENTRY_POINTS` in `bench/spans.py`, read here
without importing it) and all code that runs at import time.  It follows
names and module attributes to functions and classes.  A method is reached
by any attribute of its name once its class is, and a dunder method with
its class, so the walk can only over-approximate.  What it never reaches is
code that nothing runs: it belongs in the tests as an oracle, or nowhere.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# no entry point calls it, but it is the only query of the relation that the
# exported `compatibility` returns
PUBLIC_QUERIES = {"assoc.CompatibilityRelation.compatible"}


def assigns(node, name):
    return isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == name


def entry_points():
    """The (module, attribute path) pairs of the bench's ENTRY_POINTS."""
    for node in ast.parse((ROOT / "bench" / "spans.py").read_text()).body:
        if assigns(node, "ENTRY_POINTS"):
            return [(value.elts[0].value, value.elts[1].value) for value in node.value.values]
    raise AssertionError("bench/spans.py defines no ENTRY_POINTS")


def unreachable():
    defs = {}  # "module.qualname" -> (module, the nodes that run with it)
    bindings = {}  # (module, local name) -> "module" or "module.name"
    at_import = []  # (module, nodes run at import time)
    exported = []  # clusterfan.__all__
    for path in sorted((ROOT / "src" / "clusterfan").glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = [node.module, alias.name] if node.module else [alias.name]
                    bindings[module, alias.asname or alias.name] = ".".join(target)
        for node in tree.body:
            if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                at_import.append((module, [node]))
                if module == "__init__" and assigns(node, "__all__"):
                    exported = ast.literal_eval(node.value)
                continue
            at_import.append((module, node.decorator_list))
            name = f"{module}.{node.name}"
            if isinstance(node, ast.ClassDef):
                methods = [item for item in node.body if isinstance(item, FUNCTIONS)]
                rest = [item for item in node.body if item not in methods]
                defs[name] = (module, [*node.bases, *node.keywords, *rest])
                defs.update((f"{name}.{item.name}", (module, [item])) for item in methods)
            else:
                defs[name] = (module, [node])

    reached, attributes, queue = set(), set(), []

    def reach(name):
        if name in defs and name not in reached:
            reached.add(name)
            queue.append(name)

    def resolve(module, name):
        if f"{module}.{name}" in defs:
            reach(f"{module}.{name}")
        elif (module, name) in bindings:
            target, _, attr = bindings[module, name].partition(".")
            if attr:
                resolve(target, attr)

    def scan(module, nodes):
        for node in (inner for root in nodes for inner in ast.walk(root)):
            if isinstance(node, ast.Name):
                resolve(module, node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name):
                    target = bindings.get((module, node.value.id), ".")
                    if "." not in target:  # an imported module
                        resolve(target, node.attr)

    resolve("cli", "main")
    for name in exported:
        resolve("__init__", name)
    for module, path in entry_points():
        parts = path.split(".")
        for end in range(1, len(parts) + 1):
            reach(".".join([module, *parts[:end]]))
    for module, nodes in at_import:
        scan(module, nodes)
    while queue:
        while queue:
            name = queue.pop()
            scan(*defs[name])
        for name in defs:
            owner, _, method = name.rpartition(".")
            if owner in reached and owner in defs and (
                method in attributes or method.startswith("__") and method.endswith("__")
            ):
                reach(name)
    return sorted(set(defs) - reached - PUBLIC_QUERIES)


def test_every_definition_has_a_caller():
    assert ("cli", "main") in entry_points()
    missing = unreachable()
    assert not missing, f"{len(missing)} definitions have no caller:\n  " + "\n  ".join(missing)
