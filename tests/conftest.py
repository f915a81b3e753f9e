import pytest

import invop.fem
import invop.studies


@pytest.fixture
def reference_solves(monkeypatch):
    """List that gains the nodal bytes of each reference-mesh input solved,
    whoever asks for it.  The study memos start empty, so their solves count."""
    for memo in (invop.studies._a_example_data, invop.studies._c_example_data):
        memo.cache_clear()
    calls = []
    solve = invop.fem.solve_forward_fem

    def counting(kind, x, f):
        if x.n_cells == invop.fem.REFERENCE_CELLS:
            calls.append(x.values.tobytes())
        return solve(kind, x, f)

    monkeypatch.setattr(invop.fem, "solve_forward_fem", counting)
    return calls
