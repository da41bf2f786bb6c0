"""Self-diagnostics: manifold property sweeps and the toy gradient sweep.

These run the same invariants the test suite asserts, packaged so the CLI
can verify an installation. All geometry is exercised through the module
attributes of :mod:`hcgr.manifold` that the network and the loss call, so a
perturbed operation (e.g. in a fault-injection test) is caught by the
relevant property check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import manifold
from .model import HCGRModel, HyperParams
from .training import TrainConfig, GradientCheckReport, gradient_check


@dataclass
class CheckResult:
    name: str
    worst: float
    limit: float

    @property
    def passed(self) -> bool:
        return self.worst < self.limit


def _random_tangents_at_origin(rng, n: int, d: int, max_norm: float = 5.0) -> np.ndarray:
    dirs = rng.normal(size=(n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    norms = rng.uniform(1e-3, max_norm, size=(n, 1))
    return dirs * norms


def _constraint_violation(X: np.ndarray, k: float) -> float:
    inner = -X[:, 0] ** 2 + (X[:, 1:] ** 2).sum(axis=1)
    return float(np.abs(inner + k).max())


def _relative(got: np.ndarray, want: np.ndarray) -> float:
    """Largest row error of got, relative to the row's norm in want."""
    err = np.linalg.norm(got - want, axis=1)
    return float((err / np.maximum(np.linalg.norm(want, axis=1), 1e-6)).max())


def manifold_check(dims=(2, 8), ks=(0.5, 1.0, 2.0), n: int = 300, seed: int = 0) -> list[CheckResult]:
    """Property sweep over random points/tangents for each (d, k) pair.

    Every row measures ops the forward pass or the loss runs: the log map at
    a point is ``weighted_log_rows`` over packed rows, as in graph
    attention, and tangents there are boosts of tangents at the origin, the
    transport inside the feed-forward's bias. Base points stay within
    geodesic radius 2 of the origin and steps within norm 2.5 (origin
    roundtrips go out to norm 5). Beyond radius ~7 the hyperboloid residual
    of float64 arithmetic grows like eps*cosh^2(r/sqrt(k)) and no
    implementation could meet the 1e-8 bound; the network itself operates
    well inside this region.
    """
    rng = np.random.default_rng(seed)
    worst: dict[str, float] = {}

    def log_rows(X: ad.Tensor, Y: ad.Tensor, k) -> np.ndarray:
        """log_{x_i}(y_i) per row, through the network's own log map: each
        two-point set [x_i, y_i] is a session of two packed rows, with
        weight 1 on the pair (0, 1) and 0 elsewhere."""
        pairs = ad.Tensor(np.stack([X.data, Y.data], axis=1).reshape(2 * n, -1))
        weights = np.broadcast_to([[0.0, 1.0], [0.0, 0.0]], (n, 2, 2))
        return manifold.weighted_log_rows(weights, pairs, k, np.arange(2 * n)).data[0::2]

    def record(name: str, value: float):
        worst[name] = max(worst.get(name, 0.0), value)

    with ad.no_grad():
        for d in dims:
            for k in ks:
                T = ad.Tensor
                Ux = T(_random_tangents_at_origin(rng, n, d, 2.0))
                X = manifold.exp_o_rows(Ux, k)
                Y = manifold.exp_o_rows(T(_random_tangents_at_origin(rng, n, d, 2.0)), k)
                Z = manifold.exp_o_rows(T(_random_tangents_at_origin(rng, n, d, 2.0)), k)
                record("hyperboloid constraint after exp at origin", _constraint_violation(X.data, k))

                # origin roundtrips at the full norm-5 range
                B5 = T(_random_tangents_at_origin(rng, n, d, 5.0))
                P5 = manifold.exp_o_rows(B5, k)
                record("hyperboloid constraint after exp at origin", _constraint_violation(P5.data, k))
                record("exp/log roundtrip", _relative(manifold.log_o_rows(P5, k).data, B5.data))

                # tangent vectors at X: the boost carrying o to X transports
                # the tangents (0, b) at the origin
                B = np.pad(_random_tangents_at_origin(rng, n, d, 2.5), ((0, 0), (1, 0)))
                B2 = np.pad(_random_tangents_at_origin(rng, n, d, 2.5), ((0, 0), (1, 0)))
                V = manifold.boost_rows(Ux, T(B), k)
                W = manifold.boost_rows(Ux, T(B2), k)

                # transport from the origin is an isometry and lands tangent
                before = (B * B2).sum(axis=1, keepdims=True)
                after = manifold.rowwise_inner(V, W).data
                record("transport inner-product preservation", float(np.abs(after - before).max()))
                tang = manifold.rowwise_inner(V, X).data
                record("transport tangency at destination", float(np.abs(tang).max()))

                # exp/log roundtrips at X, relative per row
                Ex = manifold.exp_map_rows(X, V, k)
                record("hyperboloid constraint after exp_map", _constraint_violation(Ex.data, k))
                record("exp/log roundtrip", _relative(log_rows(X, Ex, k), V.data))
                Lxy = T(log_rows(X, Y, k))
                Y2 = manifold.exp_map_rows(X, Lxy, k)
                record("log/exp roundtrip", _relative(Y2.data, Y.data))
                record("log at coincident points", float(np.abs(log_rows(X, X, k)).max()))

                # distance axioms, and the distance is the length of the log
                dxy = manifold.dist_rows(X, Y, k).data[:, 0]
                dyx = manifold.dist_rows(Y, X, k).data[:, 0]
                record("distance symmetry", float(np.abs(dxy - dyx).max()))
                dxz = manifold.dist_rows(X, Z, k).data[:, 0]
                dyz = manifold.dist_rows(Y, Z, k).data[:, 0]
                record("triangle inequality violation", float((dxz - dxy - dyz).max()))
                record("distance self", float(manifold.dist_rows(X, X, k).data.max()))
                log_len = np.sqrt(np.maximum(manifold.rowwise_inner(Lxy, Lxy).data[:, 0], 0.0))
                record("distance equals log length", float((np.abs(dxy - log_len) / np.maximum(dxy, 1e-6)).max()))

                Xb = manifold.boost_rows(Ux, manifold.exp_o_rows(T(np.zeros(d)), k), k)
                record("boost of the origin is exp_o(u)", float(np.abs(Xb.data - X.data).max()))

    limits = {
        "hyperboloid constraint after exp at origin": 1e-8,
        "hyperboloid constraint after exp_map": 1e-8,
        "exp/log roundtrip": 1e-7,
        "log/exp roundtrip": 1e-7,
        "log at coincident points": 1e-9,
        "distance symmetry": 0.0 + 1e-300,  # bit-exact; any nonzero fails
        "triangle inequality violation": 1e-9,
        "distance self": 1e-6,
        "distance equals log length": 1e-9,
        "transport inner-product preservation": 1e-7,
        "transport tangency at destination": 1e-7,
        "boost of the origin is exp_o(u)": 1e-9,
    }
    return [CheckResult(name, worst[name], limits[name]) for name in limits]


TOY_BATCH = [([0, 1, 2], 3), ([3, 4, 5], 0), ([1, 2, 2, 4], 5)]


def toy_model(seed: int = 11, contrastive_weight: float = 0.1):
    """Tiny network and config used for the finite-difference sweep."""
    hyper = HyperParams(dim=4, graph_layers=1, attention_blocks=1, max_session_len=50)
    model = HCGRModel.create(hyper, catalog_size=6, seed=seed)
    cfg = TrainConfig(
        epochs=1,
        batch_size=3,
        contrastive_weight=contrastive_weight,
        seed=seed,
    )
    return model, cfg


def gradient_check_toy(seed: int = 11, contrastive_weight: float = 0.1) -> GradientCheckReport:
    model, cfg = toy_model(seed, contrastive_weight)
    return gradient_check(model, TOY_BATCH, cfg, h=1e-5, tol=1e-3)
