import subprocess
import sys
from pathlib import Path

import invop


def test_import_does_not_load_scipy_integrate_or_optimize():
    """Importing the package and its CLI must not pull in scipy.integrate or
    scipy.optimize, which together cost about 0.4 s of a cold start."""
    src = str(Path(invop.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import invop, invop.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
