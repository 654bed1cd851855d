"""The package ships only what the program runs.

Every function and class defined in ``src/richmult`` must be named by the
program itself: by a package module other than ``__init__`` (whose
exports call nothing) or by a ``perfbench`` file.  A definition that
only the tests call belongs in the tests, as a reference beside the test
that uses it.  The paper's checkable statements that nothing calls are
kept on purpose and listed in ``UNCALLED_STATEMENTS``.
"""

import ast
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Statements of the paper kept as checkable functions: the acceptance
# tests call them, the program does not.
UNCALLED_STATEMENTS = {"c_action", "scale_action", "verify_b_matrix", "verify_disjoint_sing"}


def uncalled_definitions(root: Path) -> dict[str, list[str]]:
    """Each function or class defined in ``root/src/richmult`` whose name
    no module there but ``__init__`` and no ``root/perfbench`` file uses as
    a name, an attribute or an import alias, with its definition sites.
    Dunders are left out: Python calls them."""
    package = sorted(p for p in (root / "src" / "richmult").glob("*.py") if p.name != "__init__.py")
    defined: dict[str, list[str]] = {}
    used: set[str] = set()
    for path in package + sorted((root / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if path in package and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                defined.setdefault(node.name, []).append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update((node.name.rsplit(".", 1)[-1], node.asname))
    return {
        name: sites for name, sites in defined.items()
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    }


def test_every_definition_has_a_caller():
    uncalled = uncalled_definitions(ROOT)
    stray = [f"{name} ({', '.join(uncalled[name])})"
             for name in sorted(set(uncalled) - UNCALLED_STATEMENTS)]
    assert not stray, "defined in src/richmult but called only by tests: " + "; ".join(stray)


def test_kept_statements_are_still_uncalled():
    """An allowed name that gains a caller, or is deleted, must leave the
    allow-list, so the list holds only names it excuses."""
    assert set(uncalled_definitions(ROOT)) >= UNCALLED_STATEMENTS


def test_planted_uncalled_definition_is_reported(tmp_path):
    """A copy of the sources with an uncalled function and an uncalled
    class with an uncalled method added: the scan names all three, with
    their files and lines."""
    for part in (Path("src") / "richmult", Path("perfbench")):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    before = uncalled_definitions(tmp_path)
    weyl = tmp_path / "src" / "richmult" / "weyl.py"
    lines = weyl.read_text(encoding="utf-8").splitlines()
    planted = lines + ["", "", "def planted_helper():", "    return 0", "",
                       "", "class Planted:", "    def planted_method(self):", "        return 1", ""]
    weyl.write_text("\n".join(planted), encoding="utf-8")
    uncalled = uncalled_definitions(tmp_path)
    assert uncalled.keys() - before.keys() == {"planted_helper", "Planted", "planted_method"}
    assert uncalled["planted_helper"] == [f"weyl.py:{len(lines) + 3}"]
    assert uncalled["planted_method"] == [f"weyl.py:{len(lines) + 8}"]
