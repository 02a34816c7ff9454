"""Every name the package imports is used."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pollheap"

# (module, name): why the import stays although the module never uses it
ALLOWED = {
    ("cli", "window_sweep"): "perfbench/tracing.py patches cli.window_sweep",
    ("cli", "mc_histograms"): "perfbench/tracing.py patches cli.mc_histograms",
}


def _unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # names a module re-exports through __all__
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return imported - used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert unused - {name for module, name in ALLOWED if module == path.stem} == set()


def test_every_allowed_import_is_still_unused():
    for module, name in ALLOWED:
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        assert name in _unused_imports(tree), (module, name)


# numpy's generator constructors; model.stream is the one place that
# keys a random stream
GENERATOR_NAMES = {"SeedSequence", "Philox", "Generator", "default_rng"}


def _generator_names(tree: ast.Module) -> set[str]:
    """Generator constructor names a module uses outside annotations."""
    annotations = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            args = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            notes = [arg.annotation for arg in args if arg is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        annotations |= {id(n) for note in notes if note is not None for n in ast.walk(note)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in annotations:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.split(".")[-1])
    return names & GENERATOR_NAMES


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.stem != "model"), ids=lambda p: p.stem
)
def test_only_model_builds_a_random_generator(path):
    assert _generator_names(ast.parse(path.read_text(encoding="utf-8"))) == set()


def test_model_builds_the_random_generator():
    names = _generator_names(ast.parse((SRC / "model.py").read_text(encoding="utf-8")))
    assert names == {"SeedSequence", "Philox", "Generator"}
