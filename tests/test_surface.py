"""The package ships only what the program runs.

Every function and class defined in ``src/richmult`` must be named by the
program itself: by a package module other than ``__init__`` (whose
exports call nothing) or by a ``perfbench`` file.  A definition that
only the tests call belongs in the tests, as a reference beside the test
that uses it.

Likewise every attribute that the package stores (``obj.name = ...``)
must be read by the program: loaded as an attribute, or named in a
string (as ``getattr`` does) other than a ``__slots__`` entry.
"""

import ast
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _program(root: Path):
    """Each module of ``root/src/richmult`` but ``__init__`` and each
    ``root/perfbench`` file, parsed: (file name, whether it is in the
    package, syntax tree)."""
    package = sorted(p for p in (root / "src" / "richmult").glob("*.py") if p.name != "__init__.py")
    for path in package + sorted((root / "perfbench").glob("*.py")):
        yield path.name, path in package, ast.parse(path.read_text(encoding="utf-8"))


def uncalled_definitions(root: Path) -> dict[str, list[str]]:
    """Each function or class defined in the package whose name no
    program module uses as a name, an attribute or an import alias, with
    its definition sites.  Dunders are left out: Python calls them."""
    defined: dict[str, list[str]] = {}
    used: set[str] = set()
    for name, in_package, tree in _program(root):
        for node in ast.walk(tree):
            if in_package and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                defined.setdefault(node.name, []).append(f"{name}:{node.lineno}")
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


def unread_attributes(root: Path) -> dict[str, list[str]]:
    """Each attribute the package stores (``obj.name = ...``) that no
    program module reads, with the sites that store it.  A read is an
    attribute load or a string constant outside ``__slots__``."""
    stored: dict[str, list[str]] = {}
    read: set[str] = set()
    for name, in_package, tree in _program(root):
        slots = {
            id(entry) for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)
            for entry in ast.walk(node.value)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if not isinstance(node.ctx, ast.Store):
                    read.add(node.attr)
                elif in_package:
                    stored.setdefault(node.attr, []).append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in slots:
                read.add(node.value)
    return {name: sites for name, sites in stored.items() if name not in read}


def test_every_definition_has_a_caller():
    uncalled = uncalled_definitions(ROOT)
    stray = [f"{name} ({', '.join(sites)})" for name, sites in sorted(uncalled.items())]
    assert not stray, "defined in src/richmult but called only by tests: " + "; ".join(stray)


def test_every_stored_attribute_is_read():
    unread = unread_attributes(ROOT)
    stray = [f"{name} ({', '.join(sites)})" for name, sites in sorted(unread.items())]
    assert not stray, "stored in src/richmult but read only by tests: " + "; ".join(stray)


def _copy_program(root: Path):
    for part in (Path("src") / "richmult", Path("perfbench")):
        shutil.copytree(ROOT / part, root / part, ignore=shutil.ignore_patterns("__pycache__"))


def test_planted_uncalled_definition_is_reported(tmp_path):
    """A copy of the sources with an uncalled function and an uncalled
    class with an uncalled method added: the scan names all three, with
    their files and lines."""
    _copy_program(tmp_path)
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


def test_planted_unread_attribute_is_reported(tmp_path):
    """A copy of the sources with a class that lists an attribute in
    ``__slots__`` and stores it, and stores a second one, neither read:
    the scan names both, with their files and lines, and a string that
    names the first counts as its read."""
    _copy_program(tmp_path)
    weyl = tmp_path / "src" / "richmult" / "weyl.py"
    lines = weyl.read_text(encoding="utf-8").splitlines()
    planted = lines + ["", "", "class Planted:", '    __slots__ = ("planted_slot",)', "",
                       "    def __init__(self):", "        self.planted_slot = 0",
                       "        Planted.planted_attr = 1", ""]
    weyl.write_text("\n".join(planted), encoding="utf-8")
    unread = unread_attributes(tmp_path)
    assert unread == {**unread_attributes(ROOT),
                      "planted_slot": [f"weyl.py:{len(lines) + 7}"],
                      "planted_attr": [f"weyl.py:{len(lines) + 8}"]}
    weyl.write_text("\n".join(planted + ['PLANTED_READ = getattr(Planted(), "planted_slot")', ""]),
                    encoding="utf-8")
    assert "planted_slot" not in unread_attributes(tmp_path)
