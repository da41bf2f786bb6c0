"""Lorentz (hyperboloid) model of hyperbolic space.

Points live on the upper sheet ``{x in R^{d+1} : <x,x>_L = -k, x_0 > 0}``
where ``<x,y>_L = -x_0 y_0 + sum_i x_i y_i`` is the Lorentz inner product and
``k > 0`` is the (trainable) curvature parameter; the sectional curvature of
the manifold is ``-1/k``. Index 0 is the time-like coordinate.

Two API layers:

* Batched functions suffixed ``_rows`` operate on autodiff tensors whose
  last axis holds one point or tangent vector: ``(n, w)`` rows, or
  ``(B, n, w)`` padded session batches. Points on the hyperboloid, and
  tangents at any base point other than the origin, are (d+1)-wide; they
  read the time coordinate as ``[..., 0:1]`` and the space block as
  ``[..., 1:]``. The tangent space at the origin is R^d (its time
  coordinate is identically 0), so tangents there are d-wide: ``exp_o_rows``
  and ``hyp_activation_rows`` take them, ``log_o_rows`` returns them, and
  the biases of ``transport_from_o_rows`` and ``hyp_bias_add_rows``
  and the weights of ``hyp_matmul_rows`` act on them. All reduce over the
  last axis and are fully differentiable (including through ``k``). The
  network is built from these.
* A typed single-point API (:class:`LorentzPoint`, :class:`TangentVector`)
  with explicit validation, for tests, analyses and anything that wants the
  geometry without the autodiff machinery. Its tangents keep d+1
  coordinates at every base, the origin included.

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
from dataclasses import dataclass

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


def log_map_rows(X: Tensor, Y: Tensor, k) -> Tensor:
    """Logarithmic map of rows Y into the tangent space at rows X.

    d(x,y) * u / |u|_L with u = y + (<x,y>_L / k) x; coincident rows map to
    the zero vector via the floored norm.
    """
    ip = rowwise_inner(X, Y)
    d = ad.mul(ad.sqrt(ad.as_tensor(k)), ad.arcosh(ad.clamp(ad.div(ad.neg(ip), k), lo=1.0)))
    u = ad.add(Y, ad.mul(X, ad.div(ip, k)))
    unorm = ad.sqrt(ad.clamp(rowwise_inner(u, u), lo=MIN_SQ_NORM))
    return ad.mul(u, ad.div(d, unorm))


def weighted_log_rows(A: Tensor, X: Tensor, k) -> Tensor:
    """Weighted sums of logarithms between the rows of one set of points, as
    one autodiff node: row i is sum_{j != i} A_ij log_{x_i}(x_j).

    X is (..., n, d+1) and A is (..., n, n). Through the Lorentz Gram matrix
    G = <x_i, x_j>_L, log_{x_i}(x_j) = d_ij / |u_ij| (x_j + (G_ij / k) x_i)
    with d_ij = sqrt(k) arcosh(max(-G_ij / k, 1)) and |u_ij|^2 = G_ij^2 / k - k
    floored at MIN_SQ_NORM, so the sum is C X + diag(C G^T / k) X with
    C = A * d / |u|. log_x(x) = 0, so the diagonal of C, a 0/0 that roundoff
    sends to 0 or about 1, is zeroed. The backward pass is written out by
    hand; each floor stops its argument's gradient, as a clamp would, and
    arcosh's derivative is bounded as in ``ad.arcosh``.
    """
    A, X, k = ad.as_tensor(A), ad.as_tensor(X), ad.as_tensor(k)
    x, a, kd = X.data, A.data, k.data
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
        return ((A, g_C * dist * inv), (X, gX), (k, np.asarray(g_k)))

    return ad.primitive(C @ x + x * self_coef, "weighted_log_rows", (A, X, k), back)


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


def transport_rows(X: Tensor, Y: Tensor, V: Tensor, k) -> Tensor:
    """Parallel transport of tangent rows V from base rows X to base rows Y.

    Computed as v + <y,v>_L / (k - <x,y>_L) (x + y), the closed algebraic
    form of the geodesic transport; its denominator is at least 2k on the
    upper sheet, so coincident bases degrade smoothly to v. This equals the
    logarithmic-map expression v - (<log_x(y), v>_L / d(x,y)^2)(log_x(y) +
    log_y(x)) wherever the latter is well conditioned (the d^2 denominator
    turns arcosh roundoff into O(1) noise as y approaches x); the test suite
    asserts the equivalence on separated points.
    """
    coef = ad.div(rowwise_inner(Y, V), ad.sub(k, rowwise_inner(X, Y)))
    return ad.add(V, ad.mul(ad.add(X, Y), coef))


def transport_from_o_rows(Y: Tensor, B: Tensor, k) -> Tensor:
    """Parallel transport of d-wide tangent-at-origin rows B to base rows Y.

    B has the rows of Y, or is a single (d,) tangent carried to every row;
    the result is (d+1)-wide. Uses the closed form
    PT_{o->y}(b) = b + <y,b>_L / (k + sqrt(k) y_0) (o + y), the same operator
    as the generic formula without the 0/0 guards; the denominator is at
    least 2k on the upper sheet. b's time coordinate is 0, so <y,b>_L is the
    dot product of y's space block with b. One autodiff node, with the
    backward pass written out by hand.
    """
    Y, B, k = ad.as_tensor(Y), ad.as_tensor(B), ad.as_tensor(k)
    sk = np.sqrt(k.data)
    y0, space, b = Y.data[..., 0:1], Y.data[..., 1:], B.data
    num = (space * b).sum(axis=-1, keepdims=True)
    den = sk * y0 + k.data
    coef = num / den
    out = np.concatenate([(y0 + sk) * coef, b + space * coef], axis=-1)

    def back(g):
        g_time, g_space = g[..., 0:1], g[..., 1:]
        g_coef = g_time * (y0 + sk) + (g_space * space).sum(axis=-1, keepdims=True)
        g_num = g_coef / den
        g_den = -g_coef * coef / den
        gY = np.empty(Y.shape)
        gY[..., 0:1] = g_time * coef + g_den * sk
        gY[..., 1:] = g_space * coef + g_num * b
        gB = ad._unbroadcast(g_space + g_num * space, B.shape)
        g_sk = (g_time * coef).sum() + (g_den * y0).sum()
        return ((Y, gY), (B, gB), (k, np.asarray(g_den.sum() + g_sk / (2.0 * sk))))

    return ad.primitive(out, "transport_from_o_rows", (Y, B, k), back)


def hyp_matmul_rows(X: Tensor, W: Tensor, k) -> Tensor:
    """Hyperbolic matrix multiplication: exp_o(W log_o(x)) per row.

    W has shape (m, d) acting on column vectors of the d-wide tangent at the
    origin; rows of X are mapped to (m+1)-wide points under the same
    curvature.
    """
    return exp_o_rows(ad.matmul(log_o_rows(X, k), ad.transpose(W)), k)


def hyp_bias_add_rows(X: Tensor, b: Tensor, k) -> Tensor:
    """Hyperbolic bias: exp_x(PT_{o->x}(b)) per row; b is a (d,) tangent at o,
    so any parameter vector is a valid one."""
    return exp_map_rows(X, transport_from_o_rows(X, b, k), k)


def hyp_activation_rows(X: Tensor, act, k_from, k_to) -> Tensor:
    """Apply an origin-fixing elementwise activation between curvatures.

    exp_o under k_to of act(log_o under k_from of x). act must map 0 to 0 so
    the origin is a fixed point.
    """
    return exp_o_rows(act(log_o_rows(X, k_from)), k_to)


# ---------------------------------------------------------------------------
# typed single-point API
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Curvature:
    """Unconstrained curvature parameter with its positive derived value."""

    kappa_raw: float

    @property
    def k(self) -> float:
        x = self.kappa_raw
        softplus = max(x, 0.0) + math.log1p(math.exp(-abs(x)))
        return softplus + CURVATURE_FLOOR


@dataclass(frozen=True)
class LorentzPoint:
    """A point on the hyperboloid of curvature parameter k (coords[0] > 0)."""

    coords: np.ndarray
    k: float

    @property
    def dim(self) -> int:
        return self.coords.shape[0] - 1


@dataclass(frozen=True)
class TangentVector:
    """A vector in the tangent space at ``base`` (Lorentz-orthogonal to it)."""

    coords: np.ndarray
    base: LorentzPoint


def origin(d: int, k: float) -> LorentzPoint:
    """The distinguished reference point (sqrt(k), 0, ..., 0)."""
    coords = np.zeros(d + 1)
    coords[0] = math.sqrt(k)
    return LorentzPoint(coords, k)


def lorentz_inner(x: np.ndarray, y: np.ndarray) -> float:
    """Lorentz inner product -x0*y0 + sum_i xi*yi of two raw coordinate vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.shape[0] < 2:
        raise ValueError(f"lorentz_inner needs equal 1-D arguments of dim >= 2, got {x.shape} and {y.shape}")
    return float(-x[0] * y[0] + x[1:] @ y[1:])


def lorentz_norm(v: TangentVector) -> float:
    """sqrt(max(<v,v>_L, 0)); the clamp absorbs negative roundoff."""
    return math.sqrt(max(lorentz_inner(v.coords, v.coords), 0.0))


def _check_same_k(x: LorentzPoint, y: LorentzPoint, op: str):
    if x.k != y.k:
        raise ValueError(f"{op}: curvature mismatch ({x.k} vs {y.k})")


def _check_base(v: TangentVector, x: LorentzPoint, op: str):
    if v.base.k != x.k or not np.array_equal(v.base.coords, x.coords):
        raise ValueError(f"{op}: tangent vector is not based at the given point")


def _row(a: np.ndarray) -> Tensor:
    return Tensor(a.reshape(1, -1))


def distance(x: LorentzPoint, y: LorentzPoint) -> float:
    """Geodesic distance sqrt(k) * arcosh(-<x,y>_L / k), clamped below at 0."""
    _check_same_k(x, y, "distance")
    if x.coords.shape != y.coords.shape:
        raise ValueError("distance: dimension mismatch")
    with ad.no_grad():
        return float(dist_rows(_row(x.coords), _row(y.coords), x.k).data[0, 0])


def exp_map(x: LorentzPoint, v: TangentVector) -> LorentzPoint:
    """Follow the geodesic from x with initial velocity v for unit time."""
    _check_base(v, x, "exp_map")
    with ad.no_grad():
        out = exp_map_rows(_row(x.coords), _row(v.coords), x.k)
    return LorentzPoint(out.data[0].copy(), x.k)


def log_map(x: LorentzPoint, y: LorentzPoint) -> TangentVector:
    """Tangent vector at x pointing along the geodesic to y, of length d(x,y).

    Coincident points return the zero vector (the continuous limit), which
    downstream attention needs for self-loops.
    """
    _check_same_k(x, y, "log_map")
    with ad.no_grad():
        out = log_map_rows(_row(x.coords), _row(y.coords), x.k)
    return TangentVector(out.data[0].copy(), x)


def parallel_transport(x: LorentzPoint, y: LorentzPoint, v: TangentVector) -> TangentVector:
    """Transport v from the tangent space at x to the tangent space at y.

    Transporting to the same point is the identity and is returned as such.
    """
    _check_same_k(x, y, "parallel_transport")
    _check_base(v, x, "parallel_transport")
    if np.array_equal(x.coords, y.coords):
        return TangentVector(v.coords.copy(), y)
    with ad.no_grad():
        out = transport_rows(_row(x.coords), _row(y.coords), _row(v.coords), x.k)
    return TangentVector(out.data[0].copy(), y)


def hyp_matmul(W: np.ndarray, x: LorentzPoint) -> LorentzPoint:
    """exp_o(W log_o(x)): linear map through the tangent space at the origin."""
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[1] != x.coords.shape[0] or W.shape[0] < 2:
        raise ValueError(f"hyp_matmul: weight shape {W.shape} does not act on dim {x.coords.shape[0]}")
    with ad.no_grad():
        # row 0 of W only feeds the time coordinate that exp_o drops, and
        # column 0 only multiplies the 0 time coordinate of log_o(x)
        out = hyp_matmul_rows(_row(x.coords), Tensor(W[1:, 1:]), x.k)
    return LorentzPoint(out.data[0].copy(), x.k)


def hyp_bias_add(x: LorentzPoint, b: TangentVector) -> LorentzPoint:
    """exp_x of b parallel-transported from the origin to x."""
    o = origin(x.dim, x.k)
    _check_base(b, o, "hyp_bias_add")
    with ad.no_grad():
        out = hyp_bias_add_rows(_row(x.coords), Tensor(b.coords[1:]), x.k)
    return LorentzPoint(out.data[0].copy(), x.k)


def hyp_activation(x: LorentzPoint, act, k_next: float) -> LorentzPoint:
    """Apply an elementwise activation in the tangent space at the origin,
    mapping from the curvature of x onto the hyperboloid of k_next.

    act operates on autodiff tensors (e.g. ``ad.relu``, ``ad.tanh``) and must
    fix zero, otherwise the origin would not map to the origin.
    """
    with ad.no_grad():
        probe = act(ad.constant(np.zeros((1, 2))))
        if not np.allclose(probe.data, 0.0):
            raise ValueError("hyp_activation: activation must map 0 to 0")
        out = hyp_activation_rows(_row(x.coords), act, x.k, k_next)
    return LorentzPoint(out.data[0].copy(), float(k_next))


def project_to_hyperboloid(coords: np.ndarray, k: float) -> LorentzPoint:
    """Force coordinates onto the hyperboloid by recomputing the time entry."""
    coords = np.asarray(coords, dtype=np.float64)
    out = coords.copy()
    out[0] = math.sqrt(k + float(out[1:] @ out[1:]))
    return LorentzPoint(out, float(k))


def hyperboloid_violation(x: LorentzPoint) -> float:
    """|<x,x>_L + k|, i.e. how far the point is off the constraint surface."""
    return abs(lorentz_inner(x.coords, x.coords) + x.k)
