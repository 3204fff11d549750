"""The package keeps only what the program or the benchmark runs.

Every public module-level function and class in `src/opow`, and every public
method and property of a public class, must be named somewhere in `src/opow`
outside its own definition, or in `bench/`; a method or property only counts
as called through attribute access (`x.entry`), not through a bare name such
as a same-named local.  A name that only the tests call belongs with the
tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "opow"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _referenced(node: ast.AST) -> tuple[set[str], set[str]]:
    """Identifiers that `node` reads by bare name, and those it reads as an
    attribute."""
    names, attrs = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            attrs.add(sub.attr)
    return names, attrs


def _public(node: ast.AST, kinds) -> bool:
    return isinstance(node, kinds) and not node.name.startswith("_")


def unreferenced_public_names(package: Path, others: list[Path]) -> list[str]:
    defined = {}  # qualified name -> (the name a caller uses, is a member)
    names, attrs = set(), set()  # read by bare name, read as an attribute
    for path in sorted(package.glob("*.py")):
        tree = _parse(path)
        # Each module-level statement, and each statement of a class body,
        # is a unit; a unit's references to itself (recursion, a classmethod
        # returning its class) do not count as a caller.
        units = []
        for node in tree.body:
            if _public(node, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{path.stem}.{node.name}"] = (node.name, False)
            if not isinstance(node, ast.ClassDef):
                units.append(({getattr(node, "name", None)}, node))
                continue
            units += [({node.name}, expr) for expr in
                      node.bases + node.keywords + node.decorator_list]
            for item in node.body:
                own = getattr(item, "name", None)
                if _public(node, ast.ClassDef) and _public(item, ast.FunctionDef):
                    defined[f"{path.stem}.{node.name}.{own}"] = (own, True)
                units.append(({node.name, own}, item))
        for own, unit in units:
            unit_names, unit_attrs = _referenced(unit)
            names |= unit_names - own
            attrs |= unit_attrs - own
    for path in others:
        other_names, other_attrs = _referenced(_parse(path))
        names |= other_names
        attrs |= other_attrs
    return sorted(q for q, (name, member) in defined.items()
                  if name not in attrs and (member or name not in names))


def test_every_public_name_has_a_caller_outside_the_tests():
    bench = sorted((ROOT / "bench").glob("*.py"))
    assert bench, "bench/ holds the benchmark that counts as a caller"
    assert unreferenced_public_names(PACKAGE, bench) == []


def test_gate_flags_a_name_only_tests_call(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return helper\n\n\n"
        "def orphan():\n    return orphan()\n\n\n"
        "class Kept:\n"
        "    def called(self):\n        return self.called()\n\n"
        "    def uncalled(self):\n        return self.uncalled()\n\n"
        "    @property\n    def size(self):\n        return 0\n\n"
        "    def entry(self):\n        return 0\n\n"
        "    def _private(self):\n        pass\n\n\n"
        "class _Hidden:\n    def method(self):\n        pass\n\n\n"
        "def _private():\n    return _Hidden\n\n\n"
        "def walk(entries):\n    return [entry for entry in entries]\n")
    driver = tmp_path / "bench" / "driver.py"
    driver.parent.mkdir()
    driver.write_text("import mod\nmod.used()\nk = mod.Kept()\n"
                      "k.called()\nprint(k.size)\nmod.walk([])\n")
    # Kept.entry shares its name with walk's loop variable, not a call.
    assert unreferenced_public_names(tmp_path, [driver]) == [
        "mod.Kept.entry", "mod.Kept.uncalled", "mod.orphan"]
