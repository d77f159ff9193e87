"""Guard against public code that only tests call.

Every top-level public function or class in src/switchseir must be
referenced by the package itself (outside its own definition) or by the
benchmark in perfbench/, and so must every public method and property of
those classes (by attribute, outside the method's own body).  Every
parameter with a default of a top-level public function must be set, by
keyword or by position, by some call in the package or the benchmark.
Tests do not count as consumers: a name or a mode they alone need is a
duplicate path or dead code.  Exceptions are listed in ALLOWED and
ALLOWED_DEFAULTS with the reason each one stays.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "switchseir"
CONSUMERS = (PACKAGE, ROOT / "perfbench")

ALLOWED = {
    "read_truth": "reads the truth.csv that `simulate` writes, for users "
    "comparing a fit with the simulated path",
}

# "function.parameter" -> the reason its default stays unset by callers.
ALLOWED_DEFAULTS: dict[str, str] = {}

# "module.attribute" of each perfbench/tracing.py hook that no longer
# binds, with the reason; the traced run reads its span as zero.
STALE_HOOKS = {
    "switchseir.pg.run_csmc_as": "the CSMC pass is smc.run_csmc_as_batch",
    "switchseir.pg.joint_log_posterior": "run_pg keeps its MH target as "
    "model.PosteriorTerms",
    "switchseir.smc.transition_mean": "the filters propagate through "
    "seir.rk4_components",
    "switchseir.smc.dirichlet_logpdf": "the CSMC ancestor weights call "
    "distributions._dirichlet_log_kernel",
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


def _consumer_trees():
    for root in CONSUMERS:
        for path in sorted(root.rglob("*.py")):
            if "tests" not in path.relative_to(ROOT).parts:
                yield ast.parse(path.read_text())


def _attribute_counts(tree: ast.AST) -> Counter:
    return Counter(
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    )


def _public_methods() -> dict[str, ast.AST]:
    """module.Class.name -> definition, for every public method and
    property of a top-level public class."""
    return {
        f"{path.stem}.{cls.name}.{item.name}": item
        for path in sorted(PACKAGE.glob("*.py"))
        for cls in ast.parse(path.read_text()).body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    }


def test_every_public_method_has_a_non_test_consumer():
    taken = Counter()
    for tree in _consumer_trees():
        taken += _attribute_counts(tree)
    unused = sorted(
        qual
        for qual, node in _public_methods().items()
        if taken[node.name] - _attribute_counts(node)[node.name] <= 0
    )
    assert unused == [], (
        "public methods or properties that only tests (or nothing) use; "
        f"delete them or make them private: {unused}"
    )


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


def _public_functions() -> dict[str, ast.AST]:
    """module.name -> definition, for every top-level public function."""
    return {
        f"{path.stem}.{node.name}": node
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    }


def _defaulted_parameters(fn: ast.AST) -> dict[str, int | None]:
    """name -> position (None for keyword-only) of each parameter of fn
    that has a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = {a.arg: i for i, a in enumerate(positional) if i >= first}
    out.update(
        (a.arg, None)
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    )
    return out


def _calls_by_name() -> dict[str, list[ast.Call]]:
    """Every call in the package or the benchmark, by the bare name of
    the function called (f(...) and x.f(...) both count for f)."""
    calls = {}
    for tree in _consumer_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _sets(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether call passes parameter name, by keyword or by position
    (a *args or **kwargs in the call counts as passing it)."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > position


def _unset_defaults() -> set[str]:
    """module.function.parameter of every defaulted parameter that no
    call in the package or the benchmark sets."""
    calls = _calls_by_name()
    return {
        f"{qual}.{param}"
        for qual, fn in _public_functions().items()
        for param, position in _defaulted_parameters(fn).items()
        if not any(_sets(c, param, position) for c in calls.get(fn.name, ()))
    }


def test_every_defaulted_parameter_is_set_by_a_non_test_caller():
    unset = {qual.split(".", 1)[1] for qual in _unset_defaults()}
    test_only = sorted(unset - set(ALLOWED_DEFAULTS))
    assert test_only == [], (
        "defaulted parameters that only tests (or nothing) set; delete "
        "them, make them constants or add them to ALLOWED_DEFAULTS with a "
        f"reason: {test_only}"
    )
    stale = sorted(set(ALLOWED_DEFAULTS) - unset)
    assert stale == [], f"ALLOWED_DEFAULTS entries that are gone or now set: {stale}"


def _trace_hooks() -> list[str]:
    """module.attribute of every Hook listed in perfbench/tracing.py."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    return [
        f"{node.args[0].value}.{node.args[1].value}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "Hook"
    ]


def test_every_trace_hook_binds():
    hooks = _trace_hooks()
    assert hooks, "no Hook found in perfbench/tracing.py"
    unbound = set()
    for hook in hooks:
        module, attr = hook.rsplit(".", 1)
        if not hasattr(importlib.import_module(module), attr):
            unbound.add(hook)
    unlisted = sorted(unbound - set(STALE_HOOKS))
    assert unlisted == [], (
        "perfbench trace hooks that name no attribute; rename them or list "
        f"them in STALE_HOOKS with a reason: {unlisted}"
    )
    stale = sorted(set(STALE_HOOKS) - unbound)
    assert stale == [], f"STALE_HOOKS entries that are gone from HOOKS or bind: {stale}"


def _unread_imports(path: Path, hooked: set[str]) -> list[str]:
    """Names that path imports (outside __future__) and never reads,
    except those a perfbench trace hook rebinds in its module."""
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.split(".", 1)[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"{path.relative_to(ROOT)}: {name}"
        for name in imported - read
        if f"switchseir.{path.stem}.{name}" not in hooked
    )


def test_no_unread_imports():
    # __init__.py imports are its re-exports.
    hooked = set(_trace_hooks())
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    unread = [name for path in paths for name in _unread_imports(path, hooked)]
    assert unread == [], f"imported names never read; drop the imports: {unread}"
