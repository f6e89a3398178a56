"""Every top-level import in a package module is used by that module, every
module-level private function or class is referenced somewhere in the
package, and every public function or method is used or exported there, or
kept for a stated reason."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "folkmotif"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    assert _unused_imports("import json\nimport os\n\nos.sep\n") == ["line 1: json"]


def _private_definitions(tree: ast.Module) -> list[str]:
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def _dead_private_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` functions and classes that no module of sources
    refers to, by name or as an attribute."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in referenced
    ]


def test_every_private_definition_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.rglob("*.py"))}
    assert _dead_private_definitions(sources) == []


def test_a_dead_private_definition_is_found():
    sources = {
        "a.py": "def _used():\n    pass\n\n\ndef _dead():\n    pass\n\n\nclass _Dead:\n    pass\n",
        "b.py": "from . import a\n\na._used()\n",
    }
    assert _dead_private_definitions(sources) == ["a.py: _dead", "a.py: _Dead"]


def _public_definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of each module-level public function and each
    public method of a module-level class."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.name, node.name))
        elif isinstance(node, ast.ClassDef):
            found.extend(
                (f"{node.name}.{sub.name}", sub.name)
                for sub in node.body
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    return [(qualname, name) for qualname, name in found if not name.startswith("_")]


def _uncalled_public_definitions(sources: dict[str, str]) -> list[str]:
    """Public functions and methods that no module of sources refers to, by
    name or as an attribute, or imports (as ``__init__.py`` exports the API)."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return [
        f"{module}: {qualname}"
        for module, tree in trees.items()
        for qualname, name in _public_definitions(tree)
        if name not in referenced
    ]


# Public definitions that no package module uses, each kept for a reason.
UNCALLED_BUT_KEPT = {
    "baselines.py: read_svm": "the benchmark harness reads svm.txt with it",
    "cli.py: _Parser.error": "argparse calls this override",
    "melody.py: Melody.transposed": "the transposition-invariance test (criterion 6) uses it",
    "synth.py: motif_class": "the motif-class acceptance test (criterion 5) uses it",
    "sgns.py: Embeddings.vector": "library lookup that names an unknown token",
    "sgns.py: DocVectors.vector": "library lookup that names an unknown song id",
}


def test_every_public_definition_is_used_or_kept_for_a_reason():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.rglob("*.py"))}
    assert sorted(_uncalled_public_definitions(sources)) == sorted(UNCALLED_BUT_KEPT)


def test_an_uncalled_public_definition_is_found():
    sources = {
        "a.py": "def used():\n    pass\n\n\ndef exported():\n    pass\n\n\n"
                "def dead():\n    pass\n\n\nclass C:\n    def run(self):\n        pass\n\n"
                "    def stop(self):\n        pass\n\n    def __init__(self):\n        pass\n",
        "__init__.py": "from .a import exported\n",
        "b.py": "from . import a\n\na.used()\na.C().run()\n",
    }
    assert _uncalled_public_definitions(sources) == ["a.py: dead", "a.py: C.stop"]


def test_all_names_exactly_the_public_imports():
    """A removed export left in ``__all__``, or an import missing from it, fails."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]
    import folkmotif

    assert sorted(folkmotif.__all__) == sorted(imported)
    namespace: dict = {}
    exec("from folkmotif import *", namespace)
    assert set(folkmotif.__all__) <= set(namespace)


def _validate_calls(source: str) -> list[int]:
    """The lines that call a ``.validate(...)`` method."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "validate"
    ]


def test_only_melody_calls_validate():
    """A Melody checks itself when built, so no other module re-checks one."""
    calls = {
        p.name: _validate_calls(p.read_text(encoding="utf-8"))
        for p in sorted(PACKAGE.rglob("*.py"))
        if p.name != "melody.py"
    }
    assert {name: lines for name, lines in calls.items() if lines} == {}


def test_a_validate_call_is_found():
    source = "m.validate()\nbase64.b64decode(x, validate=True)\nvalidate(m)\n"
    assert _validate_calls(source) == [1]


def _callers(source: str, name: str) -> list[str]:
    """The functions whose bodies call ``name`` or pass it on to a call, as
    ``_stage`` takes it, one entry per use; a use outside any function is
    listed as ``<module>``. Defining or importing ``name`` is no use."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == name) or (
                isinstance(child, ast.Attribute) and child.attr == name
            ):
                found.append(where)
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_only_classify_drops_songs_with_no_motif():
    """``classify`` drops the songs no model can read, so no caller pre-filters."""
    calls = [
        f"{p.stem}.{where}"
        for p in sorted(PACKAGE.rglob("*.py"))
        for where in _callers(p.read_text(encoding="utf-8"), "songs_with_motifs")
    ]
    assert calls == ["experiment.classify"]


def test_a_songs_with_motifs_call_is_found():
    source = (
        "songs_with_motifs(s, v)\n"
        "def f():\n    x.songs_with_motifs(s, v)\n"
        "    def g():\n        return _stage('vocabulary', songs_with_motifs, s, v)\n"
        "def songs_with_motifs(songs, vocab):\n    return songs\n"
        "from .experiment import songs_with_motifs\n"
    )
    assert _callers(source, "songs_with_motifs") == ["<module>", "f", "g"]
