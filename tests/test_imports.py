import ast
import inspect
import subprocess
import sys
from pathlib import Path

import invop
import invop.errors


def test_import_loads_no_scipy_module():
    """Importing the package and its CLI must not load scipy at all: numpy is
    the only run-time dependency, and scipy.linalg alone costs about 0.3 s and
    28 MB of a cold start."""
    src = str(Path(invop.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import invop, invop.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def _raised_names(tree):
    """Names of the exception classes in the ``raise`` statements of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


def test_every_error_class_is_raised():
    """Each InvopError subclass defined in invop.errors is raised somewhere in
    the package, so no exception class outlives the code that raised it."""
    defined = {
        name for name, cls in inspect.getmembers(invop.errors, inspect.isclass)
        if issubclass(cls, invop.errors.InvopError)
        and cls is not invop.errors.InvopError
        and cls.__module__ == invop.errors.__name__
    }
    raised = set()
    for path in Path(invop.__file__).parent.glob("*.py"):
        raised.update(_raised_names(ast.parse(path.read_text(), str(path))))
    assert defined, "no error classes found"
    assert sorted(defined - raised) == []
