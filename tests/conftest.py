import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn) wraps fn at every name a smplab module binds it under
    and returns the list that gains one entry per call."""

    def install(original) -> list:
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("smplab") and module is not None:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        return calls

    return install
