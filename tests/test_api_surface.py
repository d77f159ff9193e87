"""Guard against public code that only tests call.

Every top-level public function or class in src/switchseir must be
referenced by the package itself (outside its own definition) or by the
benchmark in perfbench/.  Tests do not count as consumers: a name they
alone need is a duplicate path or dead code.  Exceptions are listed in
ALLOWED with the reason each one stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "switchseir"
CONSUMERS = (PACKAGE, ROOT / "perfbench")

ALLOWED = {
    "read_truth": "reads the truth.csv that `simulate` writes, for users "
    "comparing a fit with the simulated path",
}


def _public_definitions() -> set[str]:
    """module.name of every top-level public function and class."""
    return {
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def _references(tree: ast.AST) -> set[str]:
    """Names read, attributes taken, names imported and bare string
    constants (perfbench rebinds its trace hooks by name) in tree."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _consumed() -> set[str]:
    """module.name of every public definition referenced outside its own
    body by the package or the benchmark (a reference by bare name counts
    for every module that defines that name)."""
    defs = _public_definitions()
    found = set()
    for root in CONSUMERS:
        for path in sorted(root.rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            for stmt in ast.parse(path.read_text()).body:
                name = getattr(stmt, "name", "")
                own = f"{path.stem}.{name}" if root == PACKAGE else ""
                refs = _references(stmt)
                found |= {
                    qual
                    for qual in defs
                    if qual != own and qual.split(".", 1)[1] in refs
                }
    return found


def test_every_public_name_has_a_non_test_consumer():
    consumed = _consumed()
    unused = sorted(
        qual
        for qual in _public_definitions() - consumed
        if qual.split(".", 1)[1] not in ALLOWED
    )
    assert unused == [], (
        "public names that only tests (or nothing) use; delete them, make "
        f"them private or add them to ALLOWED with a reason: {unused}"
    )


def test_allowlist_is_current():
    defs = _public_definitions()
    consumed = _consumed()
    stale = sorted(
        name
        for name in ALLOWED
        if not any(
            qual.split(".", 1)[1] == name and qual not in consumed for qual in defs
        )
    )
    assert stale == [], f"ALLOWED names that are gone or now consumed: {stale}"
