import ast
import pkgutil
import sys
import types
from pathlib import Path

import stratopt
import stratopt.stratify


def test_package_namespace_is_its_modules():
    # the function stratify.stratify used to shadow the module of that name
    assert isinstance(stratopt.stratify, types.ModuleType)
    modules = {info.name for info in pkgutil.iter_modules(stratopt.__path__)}
    public = {name for name in vars(stratopt) if not name.startswith("_")}
    assert public <= modules
    assert all(isinstance(getattr(stratopt, name), types.ModuleType) for name in public)
    assert stratopt.__version__ == "0.1.0"


def test_no_module_imports_another_modules_private_names():
    # a private name is its module's own business; a shared step gets a public name
    found = []
    for path in sorted(Path(stratopt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "stratopt"):
                found += [f"{path.name}:{node.lineno}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert found == []


def test_the_package_imports_only_the_standard_library_and_numpy():
    # src/ depends on numpy alone; scipy and the rest stay out of the package
    allowed = set(sys.stdlib_module_names) | {"numpy", "stratopt"}
    found = []
    for path in sorted(Path(stratopt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert found == []



def test_tables_is_the_one_csv_reader():
    # every CSV is parsed by tables, so each input has one grammar and one fault report
    found, readers = [], 0
    for path in sorted(Path(stratopt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                names = ["loadtxt"] if "loadtxt" in (getattr(node, "attr", None),
                                                    getattr(node, "id", None)) else []
            readers += isinstance(node, ast.Attribute) and ast.unparse(node) == "csv.reader"
            if path.name != "tables.py":
                found += [f"{path.name}:{node.lineno}: {name}" for name in names
                          if name == "loadtxt" or name.split(".")[0] == "csv"]
    assert found == []
    assert readers == 1  # the one csv.reader, in tables._records
