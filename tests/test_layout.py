"""The package keeps only what the program or the benchmark runs.

Every public module-level function and class in `src/opow` must be named
somewhere in `src/opow` outside its own definition, or in `bench/`.  A name
that only the tests call belongs with the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "opow"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _referenced(node: ast.AST) -> set[str]:
    """Identifiers that `node` reads, by bare name or as an attribute."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def unreferenced_public_names(package: Path, others: list[Path]) -> list[str]:
    defined = {}  # (module, name) -> its definition node
    used = set()
    for path in sorted(package.glob("*.py")):
        tree = _parse(path)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[path.stem, node.name] = node
        # A definition's references to itself (recursion, a classmethod
        # returning its class) do not count as a caller.
        for node in tree.body:
            own = getattr(node, "name", None)
            used |= {name for name in _referenced(node) if name != own}
    for path in others:
        used |= _referenced(_parse(path))
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in used)


def test_every_public_name_has_a_caller_outside_the_tests():
    bench = sorted((ROOT / "bench").glob("*.py"))
    assert bench, "bench/ holds the benchmark that counts as a caller"
    assert unreferenced_public_names(PACKAGE, bench) == []


def test_gate_flags_a_name_only_tests_call(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return helper\n\n\n"
        "def orphan():\n    return orphan()\n\n\n"
        "class Kept:\n    pass\n\n\n"
        "def _private():\n    pass\n")
    driver = tmp_path / "bench" / "driver.py"
    driver.parent.mkdir()
    driver.write_text("import mod\nmod.used()\nmod.Kept()\n")
    assert unreferenced_public_names(tmp_path, [driver]) == ["mod.orphan"]
