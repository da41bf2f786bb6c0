"""Autodiff primitives that only the tests' reference chains use.

The fused ops of ``hcgr.manifold`` are checked against chains of plain
primitives: forward bytes equal, backward within roundoff. The network
records none of neg, sqrt, exp, log, cosh, sinh, arcosh, clamp, softplus,
concat or reshape as a node of its own, so they live here, built on
``ad.primitive``, which gives them the package's non-finite check.
"""

import numpy as np

from hcgr import autodiff as ad
from hcgr.manifold import ARCOSH_GRAD_FLOOR


def neg(a) -> ad.Tensor:
    a = ad.as_tensor(a)
    return ad.primitive(-a.data, "neg", (a,), lambda g: ((a, -g),))


def sqrt(a) -> ad.Tensor:
    a = ad.as_tensor(a)
    y = np.sqrt(a.data)
    return ad.primitive(y, "sqrt", (a,), lambda g: ((a, g / (2.0 * y)),))


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


def arcosh(a) -> ad.Tensor:
    """Inverse hyperbolic cosine; forward floors its input at exactly 1, so
    arcosh(1) = 0 exactly, and backward evaluates 1/sqrt(u^2 - 1) at u
    floored to ARCOSH_GRAD_FLOOR, finite at the branch point."""
    a = ad.as_tensor(a)

    def back(g):
        uc = np.maximum(a.data, ARCOSH_GRAD_FLOOR)
        return ((a, g / np.sqrt(uc * uc - 1.0)),)

    return ad.primitive(np.arccosh(np.maximum(a.data, 1.0)), "arcosh", (a,), back)


def clamp(a, lo=None, hi=None) -> ad.Tensor:
    """Clip values to [lo, hi]. Entries outside the range get zero gradient."""
    a = ad.as_tensor(a)
    if lo is None and hi is None:
        raise ValueError("clamp needs at least one bound")

    def back(g):
        mask = np.ones_like(a.data, dtype=bool)
        if lo is not None:
            mask &= a.data >= lo
        if hi is not None:
            mask &= a.data <= hi
        return ((a, g * mask),)

    return ad.primitive(np.clip(a.data, lo, hi), "clamp", (a,), back)


def softplus(a) -> ad.Tensor:
    """log(1 + exp(a)) in overflow-safe form, max(a, 0) + log(1 + exp(-|a|)),
    as one node whose gradient is sigmoid(a)."""
    a = ad.as_tensor(a)
    x = a.data
    pos = np.maximum(x, 0.0)
    e = np.exp(-(pos + np.maximum(-x, 0.0)))

    def back(g):
        return ((a, g * np.where(x >= 0, 1.0, e) / (1.0 + e)),)

    return ad.primitive(pos + np.log(1.0 + e), "softplus", (a,), back)


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
