import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import invop
import invop.errors
import invop.grid


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


def test_only_the_records_that_use_dataclass_methods_are_dataclasses():
    """Creating a frozen dataclass costs about 0.6 ms of every cold start; the
    records that use none of its generated methods are NamedTuples or
    ``__slots__`` classes.  GridFunction (whose ``__post_init__`` the
    benchmark's tracer wraps), StudyConfig (whose ``fields`` the config
    reader lists), TikhonovConfig (which callers ``replace``) and
    PerturbationSpec (whose ``__post_init__`` checks the arguments of
    ``generate_training_set``, and whose ``count`` field would shadow
    ``tuple.count``) stay dataclasses."""
    src = str(Path(invop.__file__).resolve().parents[1])
    code = (
        "import dataclasses, inspect, sys; sys.path.insert(0, sys.argv[1]); "
        "import invop, invop.cli; "
        "print(*sorted({c.__name__ for m in list(sys.modules.values()) "
        "if m.__name__.startswith('invop') "
        "for c in vars(m).values() if inspect.isclass(c) "
        "and c.__module__.startswith('invop') and dataclasses.is_dataclass(c)}))"
    )
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["GridFunction", "PerturbationSpec", "StudyConfig",
                                  "TikhonovConfig"]


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.skipif(invop.grid._LAPACK is None, reason="numpy bundles no OpenBLAS")
@pytest.mark.parametrize("given, numpy_first, threads, variable", [
    ({}, False, 1, "1"),
    ({"OPENBLAS_NUM_THREADS": "2"}, False, 2, "2"),
    ({"OMP_NUM_THREADS": "2"}, False, 2, None),
    ({}, True, None, None),
], ids=["default", "openblas-2", "omp-2", "numpy-first"])
def test_import_loads_openblas_with_one_thread(given, numpy_first, threads, variable):
    """Importing the package starts numpy's OpenBLAS with one thread, unless the
    caller set a count or loaded numpy first; the variable it sets stays set."""
    if threads == 2 and os.cpu_count() < 2:
        pytest.skip("OpenBLAS runs no more threads than there are cores")
    src = str(Path(invop.__file__).resolve().parents[1])
    code = (
        "import ctypes, os, sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
        + ("import numpy; " if numpy_first else "") + "import invop, numpy; "
        "lib = ctypes.CDLL(str(min(Path(numpy.__file__).parents[1].glob("
        "'numpy.libs/libscipy_openblas64_*.so')))); "
        "print(lib.scipy_openblas_get_num_threads64_(), os.environ.get('OPENBLAS_NUM_THREADS'))"
    )
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         env={**env, **given}, check=True, timeout=120)
    count, set_variable = out.stdout.split()
    if threads is not None:
        assert int(count) == threads
    assert set_variable == str(variable)


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
