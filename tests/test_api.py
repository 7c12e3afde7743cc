"""The package's public names resolve, its modules keep their layers, and
every name in src/ runs under a command or under a listed outside caller.

Print the outside callers, and any unreached name, with
``PYTHONPATH=src python tests/test_api.py``.
"""

from __future__ import annotations

import ast
import shutil
from collections import Counter
from pathlib import Path

import bmclab

PACKAGE = Path(bmclab.__file__).parent
REPO = Path(__file__).resolve().parent.parent


def test_public_names_resolve():
    assert len(set(bmclab.__all__)) == len(bmclab.__all__)
    missing = [name for name in bmclab.__all__ if not hasattr(bmclab, name)]
    assert missing == []
    namespace: dict = {}
    exec("from bmclab import *", namespace)
    assert set(bmclab.__all__) <= set(namespace)


def _relative_imports(path: Path) -> set[str]:
    """Sibling modules a module imports, read from its source.

    Reading the source, and not sys.modules after import, keeps one module's
    imports from hiding behind another's.
    """
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module.split(".")[0]] if node.module
                         else [alias.name for alias in node.names])
    return found


def test_module_layers():
    imports = {path.stem: _relative_imports(path) for path in PACKAGE.glob("*.py")}
    assert {"cli", "treesim", "variance", "experiments"} <= set(imports)
    # The simulation engine needs only keys, draws and errors.
    assert imports["treesim"] == {"errors", "rng"}
    # The chart writer and the statistics helpers are leaves.
    assert imports["svg"] == imports["stats"] == {"errors"}
    # The closed-form variance never reaches into the simulator.
    assert "treesim" not in imports["variance"]
    # The command line is the top layer: nothing imports it.
    assert sorted(name for name, deps in imports.items() if "cli" in deps) == []


def _references(node: ast.AST) -> Counter:
    """Names a subtree reads or imports: bare names, attributes, import aliases."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else
        sub.attr if isinstance(sub, ast.Attribute) else sub.name
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute, ast.alias)))


# Names that no command reaches but a program or a criterion outside src/
# calls, with that caller: a file, or "file::function" for one function.
# An entry whose caller stops naming it, or that main comes to reach, fails.
OUTSIDE_CALLERS = {
    "kernels.BarParams.symmetric_params": "perfbench/workloads.py",
    "moments.enumerated_cross_moment": "perfbench/workloads.py",
    "moments.enumerated_mean": "perfbench/workloads.py",
    "moments.enumerated_second_moment": "perfbench/workloads.py",
    "moments.exact_cross_moment": "perfbench/workloads.py",
    "moments.exact_mean": "perfbench/workloads.py",
    "moments.exact_second_moment": "perfbench/workloads.py",
    "spectral.apply_kernel": "tests/test_acceptance.py::test_criterion_1_spectral_oracle",
    "spectral.product": "tests/test_acceptance.py::test_criterion_1_spectral_oracle",
    "spectral.stationary_inner":
        "tests/test_acceptance.py::test_criterion_1_spectral_oracle",
}

_DEFS = (ast.FunctionDef, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _reached(trees: dict[str, ast.Module], roots) -> tuple[dict[str, ast.AST], set[str]]:
    """Every definition by qualified name, and those reached from the roots.

    Module-level statements other than imports and definitions run at import,
    so what they name is reached too.  A reached function reaches what its
    body names; a reached class reaches what its decorators, bases and
    class-level statements name, and its dunders, which Python calls for it.
    A name reaches every definition of that name, in any module.
    """
    defs: dict[str, ast.AST] = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, _DEFS):
                defs[f"{module}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                defs.update((f"{module}.{node.name}.{sub.name}", sub)
                            for sub in node.body if isinstance(sub, ast.FunctionDef))
    by_name: dict[str, list[str]] = {}
    for qualified, node in defs.items():
        by_name.setdefault(node.name, []).append(qualified)
    pending = list(roots)
    for tree in trees.values():
        for node in tree.body:
            if not isinstance(node, (*_DEFS, ast.Import, ast.ImportFrom)):
                pending += (q for name in _references(node) for q in by_name.get(name, ()))
    reached: set[str] = set()
    while pending:
        qualified = pending.pop()
        if qualified in reached:
            continue
        reached.add(qualified)
        node = defs[qualified]
        if isinstance(node, ast.ClassDef):
            parts = [*node.decorator_list, *node.bases, *node.keywords,
                     *(sub for sub in node.body if not isinstance(sub, ast.FunctionDef))]
            pending += (f"{qualified}.{sub.name}" for sub in node.body
                        if isinstance(sub, ast.FunctionDef) and _is_dunder(sub.name))
        else:
            parts = [node]
        pending += (q for part in parts for name in _references(part)
                    for q in by_name.get(name, ()))
    return defs, reached


def _caller_names(repo: Path, caller: str) -> Counter:
    """Names the caller's source reads: one file, or one function in it."""
    path, _, function = caller.partition("::")
    tree = ast.parse((repo / path).read_text(encoding="utf-8"))
    if function:
        tree = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == function)
    return _references(tree)


def reachability_problems(package: Path, repo: Path) -> list[str]:
    """What breaks the rule that every src/ name runs under a command.

    Each module-level function and class, and each method that is not a
    dunder, must be reached from cli.main or from an OUTSIDE_CALLERS name.
    Each of those must name a definition, be named by its caller, and not be
    reached from main already.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    defs, from_main = _reached(trees, ["cli.main"])
    problems = []
    for qualified, caller in sorted(OUTSIDE_CALLERS.items()):
        if qualified not in defs:
            problems.append(f"{qualified}: no such definition")
        elif qualified in from_main:
            problems.append(f"{qualified}: main reaches it; drop it from the table")
        elif qualified.rsplit(".", 1)[1] not in _caller_names(repo, caller):
            problems.append(f"{qualified}: {caller} no longer names it")
    _, reached = _reached(trees, ["cli.main", *(q for q in OUTSIDE_CALLERS if q in defs)])
    problems += (f"{qualified}: unreached" for qualified in sorted(set(defs) - reached)
                 if not _is_dunder(qualified.rsplit(".", 1)[1]))
    return problems


def test_every_src_name_has_a_program_caller():
    # Code only the tests call belongs in tests/ (oracles.py), not in src/.
    assert reachability_problems(PACKAGE, REPO) == []


def test_reachability_fails_on_a_planted_function(tmp_path):
    package = tmp_path / "bmclab"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "stats.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef planted():\n    return 1\n")
    assert reachability_problems(package, REPO) == ["stats.planted: unreached"]


def test_reachability_fails_on_a_stale_outside_caller(tmp_path):
    for path in {caller.partition("::")[0] for caller in OUTSIDE_CALLERS.values()}:
        (tmp_path / path).parent.mkdir(exist_ok=True)
        shutil.copy(REPO / path, tmp_path / path)
    workloads = tmp_path / "perfbench" / "workloads.py"
    workloads.write_text(workloads.read_text(encoding="utf-8").replace(
        "BarParams.symmetric_params(a)", "BarParams(a)"), encoding="utf-8")
    assert reachability_problems(PACKAGE, tmp_path) == [
        "kernels.BarParams.symmetric_params: perfbench/workloads.py no longer names it"]


def test_one_helper_writes_every_cli_output():
    # Runners return their files and lines; _dispatch joins the names to the
    # output directory and writes them, all through one helper.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    opens = sorted(fn.name for fn in functions for sub in ast.walk(fn)
                   if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                   and sub.func.id == "open")
    assert opens == ["_load_config_file", "_write"]
    assert sum(isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
               and sub.func.id == "open" for sub in ast.walk(tree)) == 2
    runners = [fn for fn in functions if fn.name.startswith("_run_")]
    assert len(runners) == 7
    joins = [fn.name for fn in runners for sub in ast.walk(fn)
             if isinstance(sub, ast.Attribute) and sub.attr == "join"
             and isinstance(sub.value, ast.Attribute) and sub.value.attr == "path"]
    assert joins == []


if __name__ == "__main__":
    for qualified, caller in sorted(OUTSIDE_CALLERS.items()):
        print(f"{qualified:38} {caller}")
    for problem in reachability_problems(PACKAGE, REPO):
        print(problem)
