import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def buchberger_runs(monkeypatch):
    """The orders of the Buchberger runs made while the test runs, one entry
    per run that computes a basis; a call that returns the ideal's own
    cache computes nothing and is not counted."""
    from wittcert import cli, derham, polyring, vanish

    runs = []
    compute = polyring.buchberger

    def counted(ideal, order=polyring.GREVLEX):
        result = compute(ideal, order)
        if result is not ideal:
            runs.append(result.basis_order)
        return result

    for module in (polyring, derham, vanish, cli):
        monkeypatch.setattr(module, "buchberger", counted, raising=False)
    return runs
