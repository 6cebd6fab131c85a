import numpy as np
import pytest


@pytest.fixture
def eigensolves(monkeypatch):
    """Names of the numpy decompositions called while the test runs, in call order."""
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
