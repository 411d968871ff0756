"""The package's public surface, and the modules each entry point loads."""

import importlib
import os
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


def _run(code: str) -> str:
    """stdout of `code` in a fresh interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(somborlab.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
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


@pytest.mark.parametrize("code, loaded", [
    ("import somborlab", ["somborlab"]),
    ("from somborlab import Deadline", ["somborlab", "somborlab.errors", "somborlab.limits"]),
    (_SHIM.format(argv=["--version"]), _BASE),
    # certifying the grid needs the index layer alone: no oracle, kernel,
    # BFS recognizer or constructor
    (_SHIM.format(argv=["verify", "--theorem", "prop1", "--grid", "3"]),
     sorted(_BASE + ["somborlab.graphs", "somborlab.indices"])),
], ids=["import", "export", "version", "prop1"])
def test_entry_point_loads_only_its_layers(code, loaded):
    probe = ("\nprint(sorted(m for m in sys.modules if m.partition('.')[0] == 'somborlab'),"
             " sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    last = _run("import sys\n" + code + probe).splitlines()[-1]
    assert last == f"{loaded} []"
