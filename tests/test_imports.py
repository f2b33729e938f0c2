"""Every module-level import in the package and the tests is used, every
private module-level function and class of the package is named somewhere
besides its definition, and every public name of the package is called by
the package itself, except the few listed with their reasons."""

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


# The public names that no live code in src/lowmach reads, each with its
# reason.  Code is live unless only these names' definitions reach it, so a
# name that only they call is listed too.  The list can only shrink: a listed
# name that gains a live caller fails the scan as surely as a new public name
# that has none.
UNCALLED_PUBLIC = {
    "dealiased_product": "bench/tracer.py binds it by name (ROADMAP item 6(b))",
    "step_compressible": "bench/tracer.py binds it by name (ROADMAP item 6(b))",
    "step_incompressible": "bench/tracer.py binds it by name (ROADMAP item 6(b))",
    "step_limit": "bench/tracer.py binds it by name (ROADMAP item 6(b))",
    "assemble_correctors": "whether the correctors stay is ROADMAP item 5",
    "remainder_fields": "whether the correctors stay is ROADMAP item 5",
    "CorrectorSet": "only the correctors build it (ROADMAP item 5)",
    "advect": "only the correctors call it (ROADMAP item 5); bench/tracer.py binds it",
}


def public_names(source: str) -> list[str]:
    """The strings of a module's ``__all__`` list."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [element.value for element in node.value.elts]
    return []


def top_level_reads(sources) -> tuple[dict[str, set[str]], set[str]]:
    """The names that each top-level function or class reads, as a name or
    as an attribute, its own name aside; and the names that the other
    top-level statements read.  Docstrings, comments and the strings of
    ``__all__`` are no reads."""
    definitions, statements = collections.defaultdict(set), set()
    for source in sources:
        for top in ast.parse(source).body:
            names = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(top)
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
            }
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions[top.name] |= names - {top.name}
            else:
                statements |= names
    return definitions, statements


def live_reads(sources, dead_ends) -> set[str]:
    """The names read by live code: the top-level statements, and the
    definitions that they or a public name outside ``dead_ends`` reach."""
    definitions, statements = top_level_reads(sources)
    public = {name for source in sources for name in public_names(source)}
    live, todo = set(), [*statements, *(public - set(dead_ends))]
    while todo:
        if (name := todo.pop()) not in live:
            live.add(name)
            todo += definitions.get(name, ())
    return statements.union(*(definitions[name] for name in live if name in definitions))


def test_scan_flags_an_uncalled_public_name():
    module = (
        '__all__ = ["used", "uncalled", "Recursive", "legacy", "only_legacy"]\n\n'
        "def used():\n"
        '    """uncalled() in a docstring is no call"""\n\n'
        "# nor is uncalled() in a comment\n"
        "def uncalled():\n"
        "    return used()\n\n"
        "class Recursive:\n"
        "    def again(self):\n"
        "        return Recursive()\n\n"
        "def legacy():\n"
        "    return _helper()\n\n"
        "def _helper():\n"
        "    return only_legacy()\n\n"
        "def only_legacy():\n"
        "    pass\n"
    )
    assert public_names(module) == ["used", "uncalled", "Recursive", "legacy", "only_legacy"]
    assert live_reads([module], []) == {"used", "_helper", "only_legacy"}
    # code that only a dead end reaches is not live
    assert live_reads([module], ["legacy"]) == {"used"}
    # a helper that live code reaches stays live
    assert live_reads([module, "_helper()\n"], ["legacy"]) == {"used", "_helper", "only_legacy"}
    assert live_reads(["import m\nm.uncalled(Recursive)\n"], []) == {"m", "uncalled", "Recursive"}


def test_public_names_have_callers_in_the_package():
    texts = [path.read_text(encoding="utf-8") for path in ROOT.glob("src/lowmach/*.py")]
    read = live_reads(texts, UNCALLED_PUBLIC)
    uncalled = sorted(name for text in texts for name in public_names(text) if name not in read)
    assert uncalled == sorted(UNCALLED_PUBLIC)
