"""The package's public surface, and the modules each entry point loads."""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import somborlab


def test_all_names_resolve():
    missing = [name for name in somborlab.__all__ if not hasattr(somborlab, name)]
    assert missing == []
    assert len(set(somborlab.__all__)) == len(somborlab.__all__)


def test_star_import():
    namespace = {}
    exec("from somborlab import *", namespace)
    assert set(somborlab.__all__) <= set(namespace)


def test_exports_are_their_home_modules_objects():
    for name in somborlab.__all__:
        value = getattr(somborlab, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("somborlab."), name
        assert getattr(home, name) is value, name


def test_dir_lists_every_export():
    assert set(somborlab.__all__) <= set(dir(somborlab))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        somborlab.no_such_name
    assert not hasattr(somborlab, "__wrapped__")


def _run(code: str, stdin: str = "") -> str:
    """stdout of `code` in a fresh interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(somborlab.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True, input=stdin,
                          capture_output=True, text=True).stdout


def test_submodules_are_attributes():
    out = _run("import somborlab\n"
               "print(somborlab.oracle.verify_theorem2.__name__,"
               " somborlab.errors.ValidationError.__name__,"
               " somborlab._kernels.MAX_VERTICES)")
    assert out.split() == ["verify_theorem2", "ValidationError", "16"]


_SHIM = ("import sys\nfrom somborlab.cli import main\n"
         "try:\n    code = main({argv!r})\nexcept SystemExit as exc:\n    code = exc.code\n"
         "assert code in (0, None), code\n")
_BASE = ["somborlab", "somborlab.cli", "somborlab.errors", "somborlab.limits"]
#: what every theorem sweep loads: the oracle and the layers under it
_SWEEP = _BASE + ["somborlab._kernels", "somborlab._value", "somborlab.graphs",
                  "somborlab.oracle", "somborlab.sombor"]
#: what every single-input command loads: the handlers' module and the text formats
_COMMANDS = _BASE + ["somborlab._commands", "somborlab.formats"]


def _cli(*argv: str) -> str:
    return _SHIM.format(argv=list(argv))


#: entry point -> (the code that reaches it, the `somborlab` modules it loads)
_ENTRY_POINTS = {
    "import": ("import somborlab", ["somborlab"]),
    "export": ("from somborlab import Deadline",
               ["somborlab", "somborlab.errors", "somborlab.limits"]),
    "version": (_cli("--version"), _BASE),
    # certifying the grid needs the alpha rule and the grid alone: no graph
    # model, oracle, kernel, BFS recognizer or constructor
    "prop1": (_cli("verify", "--theorem", "prop1", "--grid", "3"),
              _BASE + ["somborlab._value", "somborlab.indices", "somborlab.sombor"]),
    # each sweep loads the one layer above the oracle that it calls, if any
    "theorem1": (_cli("verify", "--theorem", "1", "--n-max", "4"), _SWEEP + ["somborlab.bfs"]),
    "theorem2": (_cli("verify", "--theorem", "2", "--n-max", "4"),
                 _SWEEP + ["somborlab.construct"]),
    "theorem3": (_cli("verify", "--theorem", "3", "--n-max", "4"), _SWEEP),
    "majorize": (_cli("majorize", "3,2,1", "4,1,1"),
                 _COMMANDS + ["somborlab._value", "somborlab.graphs"]),
    "construct-objective": (
        _cli("construct", "--pi", "3,2,2,1,1,1", "--alpha", "0.5", "--objective", "min"),
        _COMMANDS + ["somborlab._kernels", "somborlab._value", "somborlab.construct",
                     "somborlab.graphs", "somborlab.sombor"]),
    "eval": (_cli("eval", "--graph", "-", "--input-format", "graph6"),
             _COMMANDS + ["somborlab._kernels", "somborlab._value", "somborlab.graphs",
                          "somborlab.sombor"]),
    "enumerate": (_cli("enumerate", "--pi", "3,2,2,1,1,1", "--alpha", "0.5"),
                  _SWEEP + ["somborlab._commands", "somborlab.formats"]),
    # the text formats need only the graph model
    "formats": ("from somborlab import parse_graph6",
                ["somborlab", "somborlab._value", "somborlab.errors", "somborlab.formats",
                 "somborlab.graphs"]),
}


def test_entry_points_load_every_module():
    # a module that no entry point loads is one that no command runs
    modules = {f"somborlab.{m.name}" for m in pkgutil.iter_modules(somborlab.__path__)}
    loaded = {m for _, names in _ENTRY_POINTS.values() for m in names}
    assert loaded == modules | {"somborlab"}


@pytest.mark.parametrize("code, loaded", _ENTRY_POINTS.values(), ids=_ENTRY_POINTS)
def test_entry_point_loads_only_its_layers(code, loaded):
    probe = ("\nprint(sorted(m for m in sys.modules if m.partition('.')[0] == 'somborlab'),"
             " sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    last = _run("import sys\n" + code + probe, stdin="Bw\n").splitlines()[-1]
    assert last == f"{sorted(loaded)} []"


#: classes no `except` clause names: ValidationError is the one the CLI maps
#: to exit 2 through its base, and the two float refusals are due for deletion
_UNCAUGHT = {"ValidationError", "ExtremumResolutionError", "GridResolutionError"}


def _caught_names(tree: ast.AST) -> set[str]:
    names = set()
    for handler in ast.walk(tree):
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
            for node in ast.walk(handler.type):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_error_class_is_caught_somewhere():
    # an error class that no handler tells apart from its parent is one name
    # too many: raise the parent with the same message instead
    src = pathlib.Path(somborlab.__file__).parent
    errors = ast.parse((src / "errors.py").read_text())
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    caught = set()
    for path in src.rglob("*.py"):
        caught |= _caught_names(ast.parse(path.read_text()))
    assert sorted(classes - caught - _UNCAUGHT) == []
