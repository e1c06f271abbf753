"""Module boundaries inside the gradagrad package: no module reads a
_-prefixed (private) name of another gradagrad module, neither as an
attribute of the imported module nor through `from module import _name`;
and each of the one-path rules holds: only verify._report builds a
CheckReport, only core.drive steps an optimizer, only data.open_input and
the writers open files, only csvio._read_csv (every CSV),
cli._load_config_flags and data.load_dataset call data.open_input, no
module imports csv (csvio._write_csv writes every CSV), and only
cli._build_run compares a run's --optimizer, --problem or --mode with a
string (cli.READS says which runs read which flag)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gradagrad"


def _private_reads(source: str) -> list[str]:
    """`module.name` for every private name of a gradagrad module that source reads."""
    tree = ast.parse(source)
    modules = {}  # local name -> the gradagrad module it is bound to
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and base != "gradagrad" and not base.startswith("gradagrad."):
                continue
            base = base.removeprefix("gradagrad").lstrip(".")
            for alias in node.names:
                if base:  # from .core import name
                    if alias.name.startswith("_"):
                        reads.append(f"{base}.{alias.name}")
                else:  # from . import verify
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("gradagrad.") and alias.asname:
                    modules[alias.asname] = alias.name.removeprefix("gradagrad.")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_") and not node.attr.startswith("__")):
            reads.append(f"{modules[node.value.id]}.{node.attr}")
    return reads


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_reads_another_modules_private_names(path):
    assert _private_reads(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source,found", [
    ("from . import verify\nverify._worst(1)\n", ["verify._worst"]),
    ("from . import verify as v\nv._report\n", ["verify._report"]),
    ("from .core import _column, Trace\n", ["core._column"]),
    ("from gradagrad.core import _column\n", ["core._column"]),
    ("import gradagrad.data as d\nd._x\n", ["data._x"]),
    ("from . import verify\nverify.check_errnegativity\nverify.__name__\n", []),
    ("import numpy as np\nnp._NoValue\n", []),
])
def test_the_scan_finds_private_reads(source, found):
    assert _private_reads(source) == found


def _callers(source: str, name: str) -> set[str]:
    """The functions of source (None for module level) that call `name(...)`
    or `<expr>.name(...)`; a call in a nested function or lambda counts for
    the innermost named function around it."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("name,owner", [("CheckReport", "verify._report"), ("step", "core.drive")])
def test_one_function_makes_each_call(name, owner):
    callers = {f"{path.stem}.{function}" for path in PACKAGE.glob("*.py")
               for function in _callers(path.read_text(encoding="utf-8"), name)}
    assert callers == {owner}


@pytest.mark.parametrize("source,found", [
    ("def f():\n    opt.step(g)\n", {"f"}),
    ("def f():\n    def g():\n        return lambda: o.step(1)\n", {"g"}),
    ("step(1)\n", {None}),
    ("def f():\n    opt.steps(g)\n    opt.step\n", set()),
])
def test_the_scan_finds_callers(source, found):
    assert _callers(source, "step") == found


# every input file is opened by data.open_input, which reports a file that is
# not UTF-8 at its line; only the writers open a file themselves
WRITERS = {"csvio._write_csv", "data.save_dataset"}


@pytest.mark.parametrize("name,owners", [("open", {"data.open_input", *WRITERS}), ("read_bytes", {"data.open_input"})],
                         ids=["open", "read_bytes"])
def test_only_the_input_reader_and_the_writers_open_files(name, owners):
    callers = {f"{path.stem}.{function}" for path in PACKAGE.glob("*.py")
               for function in _callers(path.read_text(encoding="utf-8"), name)}
    assert callers == owners


def test_only_the_csv_config_and_libsvm_readers_open_input_files():
    callers = {f"{path.stem}.{function}" for path in PACKAGE.glob("*.py")
               for function in _callers(path.read_text(encoding="utf-8"), "open_input")}
    assert callers == {"csvio._read_csv", "cli._load_config_flags", "data.load_dataset"}


def _catchers(source: str, name: str) -> set[str]:
    """The functions of source (None for module level) with an `except`
    clause that names the exception `name`, alone or in a tuple; a clause in
    a nested function counts for the innermost named function around it."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if name in [getattr(t, "id", None) or getattr(t, "attr", None) for t in types]:
                found.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_only_the_input_reader_catches_decode_errors():
    catchers = {f"{path.stem}.{function}" for path in PACKAGE.glob("*.py")
                for function in _catchers(path.read_text(encoding="utf-8"), "UnicodeDecodeError")}
    assert catchers == {"data.open_input"}


@pytest.mark.parametrize("source,found", [
    ("def f():\n    try:\n        g()\n    except UnicodeDecodeError:\n        pass\n", {"f"}),
    ("def f():\n    def g():\n        try:\n            h()\n        except (KeyError, UnicodeDecodeError):\n"
     "            pass\n", {"g"}),
    ("try:\n    g()\nexcept builtins.UnicodeDecodeError as e:\n    pass\n", {None}),
    ("def f():\n    try:\n        g()\n    except ValueError:\n        raise UnicodeDecodeError\n", set()),
    ("def f():\n    try:\n        g()\n    except:\n        pass\n", set()),
])
def test_the_scan_finds_catchers(source, found):
    assert _catchers(source, "UnicodeDecodeError") == found


def _imported_modules(source: str) -> set[str]:
    """The top-level names of the modules that source imports; a relative import counts as ''."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add("" if node.level else node.module.partition(".")[0])
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_csv(path):
    assert "csv" not in _imported_modules(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("source,found", [
    ("import csv\n", {"csv"}),
    ("import os.path, csv as c\n", {"os", "csv"}),
    ("from csv import writer\n", {"csv"}),
    ("def f():\n    import csv.x\n", {"csv"}),
    ("from . import verify\nfrom .data import open_input\n", {""}),
    ("import csvkit\ncsv = 1\n", {"csvkit"}),
])
def test_the_scan_finds_imports(source, found):
    assert _imported_modules(source) == found


RUN_FIELDS = {"optimizer", "problem", "mode"}


def _literal_comparers(source: str) -> set[str]:
    """The functions of source (None for module level) that compare
    args.optimizer, args.problem or args.mode with a string literal, or with
    a tuple, list or set that holds one; a comparison in a nested function
    counts for the innermost named function around it."""
    found = set()

    def is_field(node):
        return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args"
                and node.attr in RUN_FIELDS)

    def is_literal(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(map(is_literal, node.elts))
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(is_field, operands)) and any(map(is_literal, operands)):
                found.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_only_build_run_compares_a_run_field_with_a_string():
    comparers = {f"{path.stem}.{function}" for path in PACKAGE.glob("*.py")
                 for function in _literal_comparers(path.read_text(encoding="utf-8"))}
    assert comparers == {"cli._build_run"}


@pytest.mark.parametrize("source,found", [
    ("def f(args):\n    return args.mode == 'theory'\n", {"f"}),
    ("def f():\n    if 'sgd' != args.optimizer:\n        pass\n", {"f"}),
    ("def f():\n    return args.problem in ('abs', 'quadratic')\n", {"f"}),
    ("def f():\n    def g():\n        return lambda: 0 < len(x) and args.mode not in {'practical'}\n", {"g"}),
    ("ok = args.optimizer == 'adam'\n", {None}),
    ("def f():\n    return args.problem == name or self.mode == 'theory' or args.seed == '0'\n", set()),
    ("def f():\n    return getattr(args, 'mode') in readers and args.mode.startswith('t')\n", set()),
])
def test_the_scan_finds_literal_comparisons(source, found):
    assert _literal_comparers(source) == found
