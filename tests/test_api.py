"""The package's public names all resolve, and its modules keep their layers."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import bmclab

PACKAGE = Path(bmclab.__file__).parent


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


# Methods that only a program outside src/ calls, with that program.
_OUTSIDE_CALLERS = {
    "kernels.BarParams.symmetric_params": "called by perfbench/workloads.py",
}


def test_every_src_name_has_a_program_caller():
    # Code only the tests call belongs in tests/ (oracles.py), not in src/.
    # That holds for module-level functions and classes outside __all__ and
    # for every method that is not a dunder.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    defs = [(f"{module}.{node.name}", node)
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in bmclab.__all__]
    methods = [(f"{module}.{cls.name}.{node.name}", node)
               for module, tree in trees.items() for cls in tree.body
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef)
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    orphans = sorted(name for name, node in defs + methods
                     if used[node.name] == _references(node)[node.name])
    assert orphans == sorted(_OUTSIDE_CALLERS)


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
