from unittest import mock

import pytest


@pytest.fixture
def spy(monkeypatch):
    """``spy(module, "name")`` replaces a package function by a Mock that
    wraps it, on its module object as perfbench/tracer.py does, so calls
    through module attributes and module globals are both counted in the
    returned Mock's ``call_count``."""

    def install(module, name):
        wrapped = mock.Mock(wraps=getattr(module, name))
        monkeypatch.setattr(module, name, wrapped)
        return wrapped

    return install
