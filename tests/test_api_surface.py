"""No public name of the package is there for the tests alone.

Every public module-level def, class or assignment in ``src/qndsim`` must be
used by the package, its scripts or its benchmark: loaded as a name or an
attribute, or imported, somewhere in ``src/``, ``scripts/`` or ``perfbench/``.
The few names kept for the tests are listed in KEEP with their reason, and an
entry that becomes used or disappears fails too, so the list cannot go stale.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qndsim"

_WEAK_VALUES = "the paper's weak-value closed forms, the reference for postselected_mean_n"
KEEP = {
    "weakval.N_HAT": _WEAK_VALUES,
    "weakval.weak_value": _WEAK_VALUES,
    "weakval.strong_value_postselected": _WEAK_VALUES,
    "weakval.povm": _WEAK_VALUES,
}


def _public_names() -> set[str]:
    """``module.name`` of every public module-level def, class or assigned name."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            names.update(f"{path.stem}.{n}" for n in found if not n.startswith("_"))
    return names


def _used_names() -> set[str]:
    """Every name loaded, every attribute read and every alias imported outside the tests."""
    used = set()
    for top in ("src", "scripts", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rpartition(".")[2])
    return used


def test_every_public_name_is_used_outside_the_tests():
    used = _used_names()
    unused = {n for n in _public_names() if n.partition(".")[2] not in used}
    assert sorted(unused - set(KEEP)) == [], "public names only the tests use: delete them, or keep them in KEEP"


def test_keep_lists_only_defined_names_the_package_does_not_use():
    used = _used_names()
    assert sorted(set(KEEP) - _public_names()) == [], "KEEP names a definition that is gone"
    assert sorted(n for n in KEEP if n.partition(".")[2] in used) == [], "KEEP names a name now in use"
