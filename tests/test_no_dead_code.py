"""Every top-level function and class in the package has a caller, and
so does every method and property; every module-level name is read.

A definition or module-level name counts as used when some module of
`src/ddilstm` reads it by name, or through an imported module
(`corpus.parse_corpus`); a method or property, when some module there
reads an attribute of its name (`vocab.tokens()`). Code that only tests
call is dead, unless it is an outside entry point or library API listed
below. No module of the package or of the tests imports a name it never
uses.
"""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "ddilstm"

ENTRY_POINTS = {
    # the package's exports (__init__.py)
    ("autodiff", "Parameter"), ("autodiff", "Tape"), ("autodiff", "Tensor"),
    ("labels", "label_id"), ("labels", "label_name"),
    ("model", "ModelConfig"), ("model", "default_config"), ("model", "forward"),
    ("training", "TrainConfig"), ("training", "train"),
    # the `ddilstm` console script (pyproject.toml)
    ("cli", "main"),
    # called by perfbench/run.py
    ("cli", "_featurize_all"), ("corpus", "read_instances"),
    ("features", "PositionVocab"), ("features", "build_vocab"),
    ("model", "build_model"), ("model", "save_checkpoint"),
    ("training", "TrainingDiverged"),
}


# methods and properties that no module calls
METHOD_API = set()


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _assigned_names(node):
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name) and not _is_dunder(t.id)]


def _definitions_and_references():
    defined, methods, used, attributes = [], [], set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(path.stem, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defined += [(path.stem, name) for node in tree.body
                    if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for name in _assigned_names(node)]
        methods += [(path.stem, node.name, item.name) for node in tree.body
                    if isinstance(node, ast.ClassDef) for item in node.body
                    if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name)]
        modules = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module is None
                   for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    used.add(node.attr)
    return defined, methods, used, attributes


def test_every_definition_has_a_caller():
    defined, _, used, _ = _definitions_and_references()
    dead = [f"{module}.{name}" for module, name in defined
            if name not in used and (module, name) not in ENTRY_POINTS]
    assert not dead, f"defined in src/ddilstm but never referenced there: {dead}"


def test_every_method_and_property_has_a_caller():
    _, methods, _, attributes = _definitions_and_references()
    dead = [f"{module}.{cls}.{name}" for module, cls, name in methods
            if name not in attributes and (module, cls, name) not in METHOD_API]
    assert not dead, f"methods in src/ddilstm that nothing there calls: {dead}"


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_import_is_used():
    # __init__.py imports the names it exports
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    unused = {f"{path.parent.name}/{path.name}": names
              for path in paths + sorted(TESTS.glob("*.py"))
              if (names := _unused_imports(path))}
    assert not unused, f"imported but never used: {unused}"
