"""Lorentz (hyperboloid) model of hyperbolic space.

Points live on the upper sheet ``{x in R^{d+1} : <x,x>_L = -k, x_0 > 0}``
where ``<x,y>_L = -x_0 y_0 + sum_i x_i y_i`` is the Lorentz inner product and
``k > 0`` is the (trainable) curvature parameter; the sectional curvature of
the manifold is ``-1/k``. Index 0 is the time-like coordinate.

The geometry has one API: ``rowwise_inner`` and the batched ops suffixed
``_rows``. Each takes autodiff tensors whose last axis holds one point or
tangent vector, as ``(n, w)`` rows, such as the packed nodes of a session
batch; a single point is one ``(1, w)`` row. ``weighted_log_rows``, which
pairs the nodes of each session, takes packed rows and lays them out in
padded slots itself (``slot_layout``). Points on the hyperboloid, and
tangents at any base point other than the origin, are (d+1)-wide; they read
the time coordinate as ``[..., 0:1]`` and the space block as ``[..., 1:]``.
The tangent space at the origin is R^d (its time coordinate is identically
0), so tangents there are d-wide: ``exp_o_rows`` takes them,
``log_o_rows`` returns them, and ``boost_rows`` reads each as the Lorentz
boost that carries the origin to its exponential. The network's linear
layers and activations act on these tangents directly, and its hyperbolic
bias is one boost: the boost of ``u`` applied to ``exp_o(b)`` is
``exp_h(PT_{o->h}(b))`` at ``h = exp_o(u)``. All ops reduce over the last
axis and are fully differentiable (including through ``k``). The network,
the loss and ``hcgr check`` are built from them.

Numerical guards: arguments of arcosh are floored at exactly 1 (so coincident
points get distance exactly 0), squared norms are floored before square roots
so the 0/0 limits of the exponential and logarithmic maps degrade smoothly to
``exp_x(0) = x`` and ``log_x(x) = 0``, and points produced away from the
origin are repaired onto the hyperboloid by recomputing the time coordinate.
All arithmetic is 64-bit; 32-bit loses too much through the arcosh/sinh
compositions near the origin.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

# Floor under squared norms before dividing; keeps the coincident
# point limits finite without branching.
MIN_SQ_NORM = 1e-30

# Curvature reparameterization: k = softplus(kappa_raw) + CURVATURE_FLOOR.
CURVATURE_FLOOR = 1e-4
# kappa_raw value giving k = 1 exactly under the reparameterization.
KAPPA_RAW_FOR_UNIT_K = math.log(math.expm1(1.0 - CURVATURE_FLOOR))


def curvature_from_raw(kappa_raw) -> Tensor:
    """Positive curvature parameter k from an unconstrained scalar."""
    return ad.add(ad.softplus(kappa_raw), CURVATURE_FLOOR)


# ---------------------------------------------------------------------------
# batched differentiable core: rows of points and tangents
# ---------------------------------------------------------------------------


_FLIP_MASKS: dict[int, np.ndarray] = {}


def _flip_mask(width: int) -> np.ndarray:
    """(1, ..., 1) with -1 in the time column, turning plain dots into
    Lorentz products."""
    mask = _FLIP_MASKS.get(width)
    if mask is None:
        mask = _FLIP_MASKS[width] = np.ones(width)
        mask[0] = -1.0
    return mask


def rowwise_inner(X: Tensor, Y: Tensor) -> Tensor:
    """Lorentz inner product of paired rows, shape (..., n, 1), as one
    autodiff node. X and Y broadcast against each other as ``ad.mul``'s
    operands do, such as one anchor row against m rows."""
    X, Y = ad.as_tensor(X), ad.as_tensor(Y)
    ad._binary_shapes(X, Y, "rowwise_inner")
    mask = _flip_mask(X.shape[-1])
    flipped = X.data * mask

    def back(g):
        return (
            (X, ad._unbroadcast(g * Y.data * mask, X.shape)),
            (Y, ad._unbroadcast(g * flipped, Y.shape)),
        )

    return ad.primitive((flipped * Y.data).sum(axis=-1, keepdims=True), "rowwise_inner", (X, Y), back)


def dist_rows(X: Tensor, Y: Tensor, k) -> Tensor:
    """Geodesic distance between paired rows, shape (..., n, 1)."""
    u = ad.clamp(ad.div(ad.neg(rowwise_inner(X, Y)), k), lo=1.0)
    return ad.mul(ad.sqrt(ad.as_tensor(k)), ad.arcosh(u))


def exp_map_rows(X: Tensor, V: Tensor, k) -> Tensor:
    """Exponential map of tangent rows V at base rows X, as one autodiff node.

    cosh(|v|/sqrt(k)) x + sqrt(k) sinh(|v|/sqrt(k)) v/|v|, with |v|^2 (a
    Lorentz square) floored at MIN_SQ_NORM so the zero-vector limit returns
    x. The result is repaired onto the hyperboloid by recomputing its time
    coordinate as sqrt(|space|^2 + k), so the time coordinate of the sum is
    never formed and x_0 gets no gradient. The backward pass is written out
    by hand; the floor stops the norm's gradient, as a clamp would.
    """
    X, V, k = ad.as_tensor(X), ad.as_tensor(V), ad.as_tensor(k)
    sk = np.sqrt(k.data)
    flipped = V.data * _flip_mask(V.shape[-1])
    vv = (flipped * V.data).sum(axis=-1, keepdims=True)
    nrm = np.sqrt(np.clip(vv, MIN_SQ_NORM, None))
    arg = nrm / sk
    cosh, sinh = np.cosh(arg), np.sinh(arg)
    coef = (sk * sinh) / nrm
    x_space, v_space = X.data[..., 1:], V.data[..., 1:]
    space = x_space * cosh + v_space * coef
    time = np.sqrt((space * space).sum(axis=-1, keepdims=True) + k.data)

    def back(g):
        g_sq = g[..., 0:1] / (2.0 * time)
        g_space = g[..., 1:] + 2.0 * space * g_sq
        g_cosh = (g_space * x_space).sum(axis=-1, keepdims=True)
        g_coef = (g_space * v_space).sum(axis=-1, keepdims=True)
        g_arg = g_cosh * sinh + g_coef * (sk / nrm) * cosh
        # coef = sqrt(k) sinh(a) / n with a = n / sqrt(k)
        g_nrm = g_arg / sk - g_coef * coef / nrm
        gV = flipped * ((g_nrm / nrm) * (vv >= MIN_SQ_NORM))
        gV[..., 1:] += g_space * coef
        gX = np.zeros(X.shape)
        gX[..., 1:] = ad._unbroadcast(g_space * cosh, x_space.shape)
        g_sk = (g_coef * sinh / nrm).sum() - (g_arg * arg).sum() / sk
        g_k = g_sq.sum() + g_sk / (2.0 * sk)
        return ((X, gX), (V, ad._unbroadcast(gV, V.shape)), (k, np.asarray(g_k)))

    return ad.primitive(np.concatenate([time, space], axis=-1), "exp_map_rows", (X, V, k), back)


def weighted_log_rows(A: Tensor, X: Tensor, k, slots: np.ndarray) -> Tensor:
    """Weighted sums of logarithms between the rows of one set of points, as
    one autodiff node: row i is sum_{j != i} A_ij log_{x_i}(x_j).

    X holds packed (N, d+1) rows and A is (..., n, n), and the result has
    X's rows: row r sits at flat position slots[r] of A's (..., n) slots,
    and every other slot holds the zero row. A must give the zero rows
    weight 0: they yield G = 0, distance 0 and a finite coefficient, so the
    result stays finite, but only weight 0 leaves the sums unchanged. Through the Lorentz Gram matrix
    G = <x_i, x_j>_L, log_{x_i}(x_j) = d_ij / |u_ij| (x_j + (G_ij / k) x_i)
    with d_ij = sqrt(k) arcosh(max(-G_ij / k, 1)) and |u_ij|^2 = G_ij^2 / k - k
    floored at MIN_SQ_NORM, so the sum is C X + diag(C G^T / k) X with
    C = A * d / |u|. log_x(x) = 0, so the diagonal of C, a 0/0 that roundoff
    sends to 0 or about 1, is zeroed. The backward pass is written out by
    hand; each floor stops its argument's gradient, as a clamp would, and
    arcosh's derivative is bounded as in ``ad.arcosh``.
    """
    A, X, k = ad.as_tensor(A), ad.as_tensor(X), ad.as_tensor(k)
    a, kd = A.data, k.data
    x = slot_layout(X.data, slots, a.shape[:-1])
    sk = np.sqrt(kd)
    mask = _flip_mask(x.shape[-1])
    xt = np.swapaxes(x, -1, -2)
    # a batch's transpose is copied contiguous, as ad.transpose copies it, so
    # matmul takes the same path and G has the bytes of the unfused chain
    G = (x * mask) @ (xt if xt.ndim == 2 else xt.copy())
    u = -G / kd
    acosh = np.arccosh(np.clip(u, 1.0, None))
    dist = sk * acosh
    q = G * G / kd - kd
    root = np.sqrt(np.clip(q, MIN_SQ_NORM, None))
    inv = 1.0 / root
    off_diag = 1.0 - np.eye(x.shape[-2])
    C = a * dist * inv * off_diag
    self_coef = (C * G).sum(axis=-1, keepdims=True) / kd

    def back(g):
        g = slot_layout(g, slots, a.shape[:-1])
        g_self = (g * x).sum(axis=-1, keepdims=True)
        gX = np.swapaxes(C, -1, -2) @ g + g * self_coef
        g_C = (g @ xt + (g_self / kd) * G) * off_diag
        g_G = (g_self / kd) * C
        g_dist = g_C * a * inv
        g_inv = g_C * a * dist
        uc = np.maximum(u, ad.ARCOSH_GRAD_FLOOR)
        g_u = (g_dist * sk / np.sqrt(uc * uc - 1.0)) * (u >= 1.0)
        g_q = (-g_inv / (root * root) / (2.0 * root)) * (q >= MIN_SQ_NORM)
        g_G += g_q * (2.0 * G / kd) - g_u / kd
        gX += ((g_G + np.swapaxes(g_G, -1, -2)) @ x) * mask
        g_k = (
            (g_u * G).sum() / (kd * kd)
            - (g_q * (G * G / (kd * kd) + 1.0)).sum()
            - (g_self * self_coef).sum() / kd
            + (g_dist * acosh).sum() / (2.0 * sk)
        )
        gX = gX.reshape(-1, gX.shape[-1])[slots]
        return ((A, g_C * dist * inv), (X, gX), (k, np.asarray(g_k)))

    out = (C @ x + x * self_coef).reshape(-1, x.shape[-1])[slots]
    return ad.primitive(out, "weighted_log_rows", (A, X, k), back)


def slot_layout(rows: np.ndarray, slots: np.ndarray, lead: tuple) -> np.ndarray:
    """Packed (N, ...) rows laid out as lead + (...): row r at flat slot
    slots[r] of the lead axes, zeros in the other slots. A plain array, not
    an autodiff node: the ops that take packed rows call it on their data."""
    out = np.zeros((math.prod(lead),) + rows.shape[1:])
    out[slots] = rows
    return out.reshape(lead + rows.shape[1:])


def exp_o_rows(V: Tensor, k) -> Tensor:
    """Exponential map at the origin of d-wide tangent rows, as one autodiff
    node; the result rows are (d+1)-wide points.

    With n = sqrt(max(|s|^2, MIN_SQ_NORM)) for a row s and a = n / sqrt(k)
    the result is (sqrt(k) cosh a, c s) with c = sqrt(k) sinh(a) / n. The
    closed form already lands on the hyperboloid to machine precision
    (time = sqrt(k) cosh a equals the projection's sqrt(k + |s|^2)), so no
    repair step is applied. The backward pass is written out by hand; the
    floor on |s|^2 stops the norm's gradient, as a clamp would.
    """
    V, k = ad.as_tensor(V), ad.as_tensor(k)
    sk = np.sqrt(k.data)
    space = V.data
    sq = (space * space).sum(axis=-1, keepdims=True)
    nrm = np.sqrt(np.clip(sq, MIN_SQ_NORM, None))
    arg = nrm / sk
    cosh, sinh = np.cosh(arg), np.sinh(arg)
    coef = (sk * sinh) / nrm
    out = np.concatenate([sk * cosh, space * coef], axis=-1)

    def back(g):
        g_time, g_space = g[..., 0:1], g[..., 1:]
        g_coef = (g_space * space).sum(axis=-1, keepdims=True)
        # d time / d n = sinh a and d coef / d n = (cosh a - coef) / n; the
        # norm passes g_n s / n on to s, except under the floor
        g_nrm = g_time * sinh + g_coef * (cosh - coef) / nrm
        gV = g_space * coef + space * ((g_nrm / nrm) * (sq >= MIN_SQ_NORM))
        # d time / d sqrt(k) = cosh a - a sinh a and
        # d coef / d sqrt(k) = (sinh a - a cosh a) / n
        g_sk = (g_time * (cosh - arg * sinh)).sum() + (g_coef * (sinh - arg * cosh) / nrm).sum()
        return ((V, gV), (k, np.asarray(g_sk / (2.0 * sk))))

    return ad.primitive(out, "exp_o_rows", (V, k), back)


def log_o_rows(X: Tensor, k) -> Tensor:
    """Logarithmic map at the origin, as one autodiff node: d-wide tangent
    rows of (d+1)-wide points.

    A row (x_0, s) maps to c s with c = dist / n, where dist =
    sqrt(k) arcosh(max(x_0 / sqrt(k), 1)) and n = sqrt(max(|s|^2,
    MIN_SQ_NORM)). The backward pass is written out by hand; each floor
    stops its argument's gradient, as a clamp would, and arcosh's derivative
    is bounded as in ``ad.arcosh``.
    """
    X, k = ad.as_tensor(X), ad.as_tensor(k)
    sk = np.sqrt(k.data)
    x0, space = X.data[..., 0:1], X.data[..., 1:]
    u = x0 / sk
    acosh = np.arccosh(np.clip(u, 1.0, None))
    dist = sk * acosh
    sq = (space * space).sum(axis=-1, keepdims=True)
    nrm = np.sqrt(np.clip(sq, MIN_SQ_NORM, None))
    coef = dist / nrm

    def back(g):
        g_coef = (g * space).sum(axis=-1, keepdims=True)
        g_dist = g_coef / nrm
        uc = np.maximum(u, ad.ARCOSH_GRAD_FLOOR)
        g_u = (g_dist * sk / np.sqrt(uc * uc - 1.0)) * (u >= 1.0)
        g_nrm = -g_coef * coef / nrm
        gX = np.empty(X.shape)
        gX[..., 0:1] = g_u / sk
        gX[..., 1:] = g * coef + space * ((g_nrm / nrm) * (sq >= MIN_SQ_NORM))
        g_sk = (g_dist * acosh).sum() - (g_u * u).sum() / sk
        return ((X, gX), (k, np.asarray(g_sk / (2.0 * sk))))

    return ad.primitive(space * coef, "log_o_rows", (X, k), back)


def boost_rows(U: Tensor, Y: Tensor, k) -> Tensor:
    """The Lorentz boost that carries the origin to exp_o(u), applied to Y,
    as one autodiff node; U is d-wide origin tangent rows and Y (d+1)-wide
    rows, or one row shared by every row of U.

    With n = sqrt(max(|u|^2, MIN_SQ_NORM)), r = n / sqrt(k), e = u / n and
    a = e . y_s, a row y = (y_0, y_s) maps to
    (cosh r y_0 + sinh r a, y_s + ((cosh r - 1) a + sinh r y_0) e): a
    hyperbolic rotation by r in the plane of the time axis and e, fixing
    its orthogonal complement. The map is linear and keeps the Lorentz
    product, takes o to exp_o(u) and a tangent (0, b) at o to its parallel
    transport there, so applied to exp_o(b) it gives the HGCN bias
    exp_h(PT_{o->h}(b)) at h = exp_o(u) without forming h or the
    transported tangent. The backward pass is written out by hand; the floor
    on |u|^2 stops the norm's gradient, as a clamp would.
    """
    U, Y, k = ad.as_tensor(U), ad.as_tensor(Y), ad.as_tensor(k)
    sk = np.sqrt(k.data)
    u, y0, ys = U.data, Y.data[..., 0:1], Y.data[..., 1:]
    sq = (u * u).sum(axis=-1, keepdims=True)
    nrm = np.sqrt(np.clip(sq, MIN_SQ_NORM, None))
    arg = nrm / sk
    cosh, sinh = np.cosh(arg), np.sinh(arg)
    e = u / nrm
    a = (e * ys).sum(axis=-1, keepdims=True)
    m = (cosh - 1.0) * a + sinh * y0
    out = np.concatenate([cosh * y0 + sinh * a, ys + m * e], axis=-1)

    def back(g):
        g_time, g_space = g[..., 0:1], g[..., 1:]
        g_m = (g_space * e).sum(axis=-1, keepdims=True)
        g_a = g_time * sinh + g_m * (cosh - 1.0)
        g_arg = (g_time * y0 + g_m * a) * sinh + (g_time * a + g_m * y0) * cosh
        g_e = g_space * m + g_a * ys
        # e = u / n and arg = n / sqrt(k); the norm passes g_n u / n on to u,
        # except under the floor
        g_nrm = g_arg / sk - (g_e * u).sum(axis=-1, keepdims=True) / (nrm * nrm)
        gU = g_e / nrm + u * ((g_nrm / nrm) * (sq >= MIN_SQ_NORM))
        gY = np.concatenate([g_time * cosh + g_m * sinh, g_space + g_a * e], axis=-1)
        g_sk = -(g_arg * arg).sum() / sk
        return ((U, gU), (Y, ad._unbroadcast(gY, Y.shape)), (k, np.asarray(g_sk / (2.0 * sk))))

    return ad.primitive(out, "boost_rows", (U, Y, k), back)
