"""Every module-level import in the package and the tests is used, and
every private module-level function and class of the package is named
somewhere besides its definition."""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the package __init__ imports are its re-exports
SOURCES = sorted(
    path
    for path in [*ROOT.glob("src/lowmach/*.py"), *ROOT.glob("tests/*.py")]
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports (``__future__`` aside) that the
    module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_scan_flags_an_unused_import():
    assert unused_imports("import math\nimport os\nfrom a import b as c\nos.sep\n") == [
        "math",
        "c",
    ]


def test_no_unused_module_imports():
    found = {
        path.relative_to(ROOT).as_posix(): names
        for path in SOURCES
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def private_definitions(source: str) -> list[str]:
    """Names of the module-level functions and classes that start with a
    single underscore."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def named_once(names, texts) -> list[str]:
    """The names that occur as a word only once in all of ``texts``
    together, which is at their definition."""
    words = collections.Counter(w for text in texts for w in re.findall(r"\w+", text))
    return [name for name in names if words[name] <= 1]


def test_scan_flags_a_dead_definition():
    module = "def _used():\n    pass\n\ndef _dead():\n    _used()\n\nclass _Gone:\n    pass\n"
    names = private_definitions(module)
    assert names == ["_used", "_dead", "_Gone"]
    assert named_once(names, [module]) == ["_dead", "_Gone"]
    assert named_once(names, [module, "from m import _dead  # _Gone"]) == []


def test_no_dead_private_definitions():
    texts = {
        path: path.read_text(encoding="utf-8")
        for pattern in ("src/lowmach/*.py", "tests/*.py", "bench/*.py")
        for path in ROOT.glob(pattern)
    }
    found = {
        path.relative_to(ROOT).as_posix(): dead
        for path in sorted(ROOT.glob("src/lowmach/*.py"))
        if (dead := named_once(private_definitions(texts[path]), texts.values()))
    }
    assert found == {}
