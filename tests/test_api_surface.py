"""Every public function, class and method of ``girthspan`` has a caller,
and every file the package reads or writes moves as bytes.

A public name (no leading underscore) defined at module level, or as a
method of a public class, must be referenced somewhere in the package's own
code, as an AST name or an attribute, or be a function the benchmark traces
(``BENCHMARK.json`` per-layer metrics).  A name that neither the program nor
the benchmark reaches is surface with no caller; it goes, or it is listed in
``ALLOWED`` with the reason it stays.  An entry whose name gains a caller
leaves ``ALLOWED``.

No module calls ``read_text`` or ``write_text`` or opens a file in text
mode: every artifact is read with ``read_bytes`` and written as byte chunks,
so no text passes through a locale codec or a newline translation.
"""

import ast
import json
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
