"""Autodiff primitives that only the tests' reference chains use.

The fused ops of ``hcgr.manifold`` and ``hcgr.autodiff.softplus`` are
checked against chains of plain primitives: forward bytes equal, backward
within roundoff. The network records none of exp, log, cosh, sinh, concat
or reshape as a node of its own, so they live here, built on
``ad.primitive``, which gives them the package's non-finite check.
"""

import numpy as np

from hcgr import autodiff as ad


def exp(a) -> ad.Tensor:
    a = ad.as_tensor(a)
    y = np.exp(a.data)
    return ad.primitive(y, "exp", (a,), lambda g: ((a, g * y),))


def log(a) -> ad.Tensor:
    a = ad.as_tensor(a)
    return ad.primitive(np.log(a.data), "log", (a,), lambda g: ((a, g / a.data),))


def cosh(a) -> ad.Tensor:
    a = ad.as_tensor(a)
    return ad.primitive(np.cosh(a.data), "cosh", (a,), lambda g: ((a, g * np.sinh(a.data)),))


def sinh(a) -> ad.Tensor:
    a = ad.as_tensor(a)
    return ad.primitive(np.sinh(a.data), "sinh", (a,), lambda g: ((a, g * np.cosh(a.data)),))


def reshape(a, shape) -> ad.Tensor:
    a = ad.as_tensor(a)
    old = a.data.shape
    return ad.primitive(a.data.reshape(shape), "reshape", (a,), lambda g: ((a, g.reshape(old)),))


def concat(tensors, axis: int = 0) -> ad.Tensor:
    ts = [ad.as_tensor(t) for t in tensors]
    if not ts:
        raise ValueError("concat of an empty sequence")
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in ts])

    def back(g):
        slicer = [slice(None)] * g.ndim
        outs = []
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            slicer[axis] = slice(lo, hi)
            outs.append((t, g[tuple(slicer)]))
        return outs

    return ad.primitive(np.concatenate([t.data for t in ts], axis=axis), "concat", ts, back)
