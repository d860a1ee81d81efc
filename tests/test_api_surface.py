"""Every public function, class and method of ``girthspan`` has a caller,
and every file the package reads or writes moves as bytes.

A public name (no leading underscore) defined at module level, or as a
method of a public class, must be referenced somewhere in the package's own
code, as an AST name or an attribute, or be a function the benchmark traces
(``BENCHMARK.json`` per-layer metrics).  A name that neither the program nor
the benchmark reaches is surface with no caller; it goes, or it is listed in
``ALLOWED`` with the reason it stays.  An entry whose name gains a caller
leaves ``ALLOWED``.  A private module-level function must be referenced in
the package's own code outside its own body; a test import does not count.

No module calls ``read_text`` or ``write_text`` or opens a file in text
mode: every artifact is read with ``read_bytes`` and written as byte chunks,
so no text passes through a locale codec or a newline translation.
"""

import ast
import json
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "girthspan"

ALLOWED = {
    "oracles.spans_all_pairs": "test oracle: the direct all-pairs stretch check",
    "rng.draw": "test reference for the vectorised draws_array",
    "rng.Stream.random": "test helper: uniform floats for random tiny instances",
}


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def public_definitions(trees) -> set:
    """Qualified names ``module.name`` and ``module.Class.method``."""
    out = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            out.add(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out.update(f"{module}.{node.name}.{item.name}" for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and not item.name.startswith("_"))
    return out


def referenced_names(trees) -> set:
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def traced_names() -> set:
    """``layer.name[.method]`` of every per-layer ``self_s``/``calls`` metric."""
    out = set()
    for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        parts = entry["name"].split(".")
        if len(parts) > 2 and parts[-1] in ("self_s", "calls"):
            out.add(".".join(parts[:-1]))
    return out


def test_every_public_name_has_a_caller():
    trees = _trees()
    referenced = referenced_names(trees)
    traced = traced_names()
    orphans = sorted(name for name in public_definitions(trees)
                     if name.rsplit(".", 1)[-1] not in referenced
                     and name not in traced and name not in ALLOWED)
    assert not orphans, f"public names with no caller in src/ or the benchmark: {orphans}"


def _references(root) -> Counter:
    """How often each name is referred to under ``root``, as an AST name or
    an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(root) if isinstance(node, (ast.Name, ast.Attribute)))


def uncalled_private_functions(trees) -> list:
    """``module.name`` of every private module-level function that no code
    in ``trees`` outside its own body refers to."""
    everywhere = sum(map(_references, trees.values()), Counter())
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and everywhere[node.name] == _references(node)[node.name]]


def test_every_private_function_has_a_caller_in_the_package():
    """A private helper that only the tests reach is dead code of the
    program: it goes, or the tests use what the program uses."""
    orphans = uncalled_private_functions(_trees())
    assert not orphans, f"private functions with no caller in src/: {orphans}"


def test_private_caller_finder_ignores_a_function_calling_itself():
    tree = ast.parse("def _a():\n    return _a()\n\ndef _b():\n    return 1\n\n"
                     "def c():\n    return _b()\n\nx = m._d\n\ndef _d():\n    pass\n")
    assert uncalled_private_functions({"m": tree}) == ["m._a"]


def public_classmethods(trees) -> list:
    """``module.Class.name`` of every public classmethod of a public class."""
    return [f"{module}.{node.name}.{item.name}" for module, tree in trees.items()
            for node in tree.body if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for item in node.body if isinstance(item, ast.FunctionDef)
            and not item.name.startswith("_")
            and any(isinstance(d, ast.Name) and d.id == "classmethod" for d in item.decorator_list)]


def test_no_public_class_has_a_second_public_constructor():
    """Each public class is built one way, by calling it: a public
    classmethod would be a second public constructor.  The private fast
    paths for input already proved valid (``_from_canonical``,
    ``_from_sorted``) stay allowed."""
    found = public_classmethods(_trees())
    assert not found, f"public classmethods of public classes in src/: {found}"


def test_classmethod_finder_sees_only_public_classmethods_of_public_classes():
    tree = ast.parse("class A:\n    @classmethod\n    def of(cls):\n        pass\n\n"
                     "    @classmethod\n    def _fast(cls):\n        pass\n\n"
                     "    @staticmethod\n    def helper():\n        pass\n\n"
                     "    def method(self):\n        pass\n\n"
                     "class _B:\n    @classmethod\n    def of(cls):\n        pass\n")
    assert public_classmethods({"m": tree}) == ["m.A.of"]


def test_allowlist_names_existing_definitions():
    missing = sorted(set(ALLOWED) - public_definitions(_trees()))
    assert not missing, f"ALLOWED lists names that are no longer defined: {missing}"


def test_allowlist_names_have_no_caller():
    """An ``ALLOWED`` entry goes once its name gains a caller in ``src/`` or a
    benchmark trace, so stale entries cannot build up."""
    trees = _trees()
    referenced = referenced_names(trees)
    traced = traced_names()
    stale = sorted(name for name in ALLOWED
                   if name.rsplit(".", 1)[-1] in referenced or name in traced)
    assert not stale, f"ALLOWED lists names that now have a caller: {stale}"


def text_io_calls(trees) -> list:
    """``module:line call`` of every ``read_text``/``write_text`` call and
    every ``open`` whose mode is not binary (a missing mode is text)."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = (node.func.attr if isinstance(node.func, ast.Attribute)
                    else getattr(node.func, "id", None))
            if name in ("read_text", "write_text"):
                found.append(f"{module}:{node.lineno} {name}")
            elif name == "open":
                # Path.open takes the mode first; open() takes the path first.
                first = 0 if isinstance(node.func, ast.Attribute) else 1
                modes = node.args[first:first + 1] + [k.value for k in node.keywords
                                                       if k.arg == "mode"]
                if not any(isinstance(m, ast.Constant) and "b" in str(m.value) for m in modes):
                    found.append(f"{module}:{node.lineno} open")
    return found


def test_no_text_mode_file_io():
    trees = _trees()
    assert {"cli", "pipeline"} <= trees.keys()
    found = text_io_calls(trees)
    assert not found, f"text-mode file I/O in src/: {found}"


def test_text_io_finder_sees_each_form():
    tree = ast.parse("p.read_text()\nq.write_text(s)\nopen(f)\nopen(f, 'w')\n"
                     "p.open()\np.open(mode='r')\nopen(f, 'wb')\np.open('rb')\n"
                     "p.read_bytes()\n")
    assert text_io_calls({"m": tree}) == [
        "m:1 read_text", "m:2 write_text", "m:3 open", "m:4 open", "m:5 open", "m:6 open"]
