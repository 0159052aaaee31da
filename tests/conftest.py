import math
from unittest import mock

import numpy as np
import pytest

from pdtls import linalg, model


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


class _Watched(np.ndarray):
    """A view of an input matrix that appends the input's name to ``log`` for
    each matrix product whose operands are both views of that same input
    (M^T M, a Gram matrix).  Every other operation sees a plain array."""

    def __array_finalize__(self, obj):
        self.name = getattr(obj, "name", None)
        self.log = getattr(obj, "log", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        names = {x.name if isinstance(x, _Watched) else None for x in inputs}
        if ufunc is np.matmul and len(names) == 1 and None not in names:
            self.log.append(self.name)
        plain = [x.view(np.ndarray) if isinstance(x, _Watched) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def _power_of_four_multiple(a, b) -> bool:
    """Whether a == 4**k * b for an integer k (k = 0 included)."""
    if a.shape != b.shape or not b.any():
        return False
    i = np.argmax(np.abs(b))
    c = a.flat[i] / b.flat[i]
    mantissa, exponent = math.frexp(c)
    return mantissa == 0.5 and (exponent - 1) % 2 == 0 and np.array_equal(a, c * b)


@pytest.fixture
def grams(spy):
    """``grams.watch(p)`` returns a copy of ProblemInstance p whose d and t
    log their Gram products; ``grams.count("t")`` is then how many times
    a Gram matrix of T or of T times a power of four was formed from it:
    T^T T as a product of T's own views, or linalg.gram called on such a
    multiple, as the partition scales T before it forms B.  Likewise for
    "d"."""
    gram = spy(linalg, "gram")

    class Grams:
        def __init__(self):
            self.log = []
            self.inputs = {}

        def watch(self, p):
            q = model.ProblemInstance(d=p.d, t=p.t)
            for name in ("d", "t"):
                self.inputs[name] = getattr(p, name)
                view = getattr(p, name).view(_Watched)
                view.name, view.log = name, self.log
                object.__setattr__(q, name, view)
            return q

        def count(self, name):
            # A call on a watched view is logged by its own product already.
            scaled = [a for c in gram.call_args_list for a in c.args[:1]
                      if not isinstance(a, _Watched)
                      and _power_of_four_multiple(a, self.inputs[name])]
            return self.log.count(name) + len(scaled)

    return Grams()
