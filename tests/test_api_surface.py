"""Every public function, class and method of ``girthspan`` has a caller.

A public name (no leading underscore) defined at module level, or as a
method of a public class, must be referenced somewhere in the package's own
code, as an AST name or an attribute, or be a function the benchmark traces
(``BENCHMARK.json`` per-layer metrics).  A name that neither the program nor
the benchmark reaches is surface with no caller; it goes, or it is listed in
``ALLOWED`` with the reason it stays.  An entry whose name gains a caller
leaves ``ALLOWED``.
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
    "sampling.montecarlo_satisfied": "Monte Carlo harness, ROADMAP item 3",
    "sampling.montecarlo_kept_edges": "Monte Carlo harness, ROADMAP item 3",
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
