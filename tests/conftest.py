import pytest

import invop.fem


@pytest.fixture
def reference_solves(monkeypatch):
    """List that gains one entry per reference-mesh solve, whoever asks for it."""
    calls = []
    solve = invop.fem.solve_forward_fem

    def counting(kind, x, f, n):
        if n == invop.fem.REFERENCE_CELLS:
            calls.append(n)
        return solve(kind, x, f, n)

    monkeypatch.setattr(invop.fem, "solve_forward_fem", counting)
    return calls
