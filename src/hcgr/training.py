"""Joint training: cross-entropy plus hyperbolic contrastive margin loss.

The total objective per batch is

    ce_weight * mean(L_ce) + contrastive_weight * mean(L_margin) + l2 * sum ||theta||^2

where the margin term hinges on geodesic distances between the session
representation (mapped back onto the item manifold), the target item and
uniformly sampled negative items. L_ce is the binary cross-entropy of the
catalog softmax against the one-hot target,
-log p_t - sum_{i != t} log(1 - p_i), computed from the scaled logits by
one autodiff node with a closed-form gradient; no probability is clamped.
A batch is scored by one forward pass over its SessionBatch, so its
loss is one autodiff graph whose size does not grow with the batch: the
catalog logits, the cross-entropy and the margin hinges each run once over
(B, ...) tensors. The L2 penalty covers every parameter that starts from a
random draw; the curvature scalars and the catalog logit scale, which start
at constants, are left out (``model.initial_constant`` gives the reasons).

Optimization is plain Adam over the flat/tangent parameter arrays, swept in
cache-sized blocks; the manifold only enters through the forward pass,
so no Riemannian machinery is needed. The learning rate halves after every
third epoch and early stopping watches validation MRR@20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import manifold
from .autodiff import Tensor
from .metrics import RankingMetrics, evaluate
from .model import HCGRModel, initial_constant

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# adam_step sweeps each parameter's flat view in blocks of this many entries,
# so that the six arrays one block touches (p, g, m, v and the two scratch
# arrays, 256 KB each at this size) stay in a 4 MiB L2
# across the update's passes instead of streaming from memory on each.
# One update of a (32119, 64) table, median of 15, one thread of a 2-core
# Xeon with 4 MiB L2 per core: 41.2 ms whole; in blocks of 4k entries
# 32.9 ms, 8k 26.9, 16k 23.3, 32k 23.5, 64k 23.8, 128k 26.9, 256k 29.0.
ADAM_BLOCK = 32768

# Smallest normal float64. cross_entropy_loss takes log r and 1/r of a row's
# non-argmax mass r only at or above it; below, 1/r can overflow.
_TINY = np.finfo(np.float64).tiny


class TrainingNumericError(ArithmeticError):
    """A batch produced a non-finite value; carries the batch index."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    lr_decay: float = 0.5
    lr_decay_every: int = 3
    l2: float = 3e-3
    batch_size: int = 128
    epochs: int = 30
    patience: int = 10
    ce_weight: float = 1.0
    contrastive_weight: float = 0.1
    margin: float = 0.5
    negatives: int = 1
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails each test
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0 < self.lr_decay < math.inf:
            raise ValueError("lr_decay must be positive and finite")
        if self.lr_decay_every < 1:
            raise ValueError("lr_decay_every must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.batch_size < 1 or self.negatives < 1:
            raise ValueError("batch_size and negatives must be >= 1")
        for name in ("ce_weight", "contrastive_weight", "margin", "l2"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")

    def lr_at_epoch(self, epoch: int) -> float:
        """Learning rate for a 1-based epoch under the halving schedule."""
        return self.learning_rate * self.lr_decay ** ((epoch - 1) // self.lr_decay_every)


@dataclass
class TrainState:
    model: HCGRModel
    config: TrainConfig
    step: int = 0
    epoch: int = 0
    moments: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    # adam_step's in-place arithmetic on one block of ADAM_BLOCK entries
    scratch: tuple[np.ndarray, np.ndarray] = field(
        default_factory=lambda: (np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)), repr=False
    )
    best_epoch: int = 0
    best_metrics: RankingMetrics | None = None  # the best epoch's validation metrics at K = 10 and 20
    best_arrays: dict[str, np.ndarray] | None = None  # the best epoch's parameters, None before one
    history: list[dict] = field(default_factory=list)

    def __post_init__(self):
        if not self.moments:
            for name, t in self.model.params.named_parameters():
                self.moments[name] = (np.zeros_like(t.data), np.zeros_like(t.data))

    @property
    def best_mrr(self) -> float:
        """Validation MRR@20 of the best epoch, -inf before the first."""
        return -np.inf if self.best_metrics is None else self.best_metrics.mrr[20]


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def cross_entropy_loss(logits: Tensor, target) -> Tensor:
    """Binary cross-entropy of the catalog softmax against the one-hot
    target, summed over the catalog, as one autodiff node.

    logits is one (V,) row of scaled catalog logits z with an int target, or
    a (B, V) batch with B targets, whose losses are summed. With
    p = softmax(z), a row's loss is -log p_t - sum_{i != t} log(1 - p_i):

    - log p_t = z_t - max(z) - log S, with S the sum of exp(z - max(z)),
      which is 1 plus the other entries' mass r, so log S = log1p(r);
    - log(1 - p_i) = log1p(-p_i), except at the row's argmax, where 1 - p
      is r / S, with r summed directly: p there can round to 1, and 1 - p
      to 0, while r keeps full precision. Where r falls below the smallest
      normal float (every other logit more than about 708 below the
      maximum), log r is taken by a logsumexp over the other entries.

    The gradient is closed form, dL/dz = w - p sum(w) with w_i = p_i/(1 - p_i)
    and w_t = -1. At the argmax m, w_m (1 - p_m) is p_m, or -(1 - p_m) when
    m = t, so dL/dz_m is taken as w_m (1 - p_m) - p_m sum_{k != m} w_k. That
    avoids cancelling w_m against p_m w_m, which both grow without bound as
    p_m nears 1. In a row whose r is below the smallest normal float,
    w_m = 1/r would overflow, so p_i w_m is formed as exp(z_i - max - log r) / S.
    """
    z = logits.data.reshape(-1, logits.shape[-1])
    targets = np.atleast_1d(np.asarray(target, dtype=np.intp))
    n = z.shape[-1]
    if targets.shape != z.shape[:-1]:
        raise ValueError(f"{targets.size} targets for {z.shape[0]} logit rows")
    if targets.min() < 0 or targets.max() >= n:
        raise ValueError(f"target out of range for {n} items")
    rows = np.arange(targets.size)
    top = z.argmax(axis=-1)
    shift = z[rows, top]
    e = np.subtract(z, shift[:, None])
    np.exp(e, out=e)  # exactly 1 at the argmax
    e[rows, top] = 0.0
    rest = e.sum(axis=-1)  # the other entries' mass, S - 1
    S = rest + 1.0
    p = np.divide(e, S[:, None], out=e)  # the softmax, but 0 at the argmax
    log_miss = np.negative(p)
    np.log1p(log_miss, out=log_miss)
    log_S = np.log1p(rest)
    at_target = targets == top
    normal = rest >= _TINY
    rest_or_1 = np.where(normal, rest, 1.0)
    log_rest = np.log(rest_or_1)
    # rows where r underflows and log r is used: the target is not the argmax
    under = np.flatnonzero(~normal & ~at_target)
    if under.size:
        z_rest = z[under] - shift[under, None]
        z_rest[np.arange(under.size), top[under]] = -np.inf
        m = z_rest.max(axis=-1, keepdims=True)
        log_rest[under] = (m + np.log(np.exp(z_rest - m).sum(axis=-1, keepdims=True)))[:, 0]
    log_miss[rows, top] = log_rest - log_S
    log_miss[rows, targets] = 0.0
    loss = -((z[rows, targets] - shift - log_S).sum() + log_miss.sum())

    def back(g):
        w = np.subtract(1.0, p)
        np.divide(p, w, out=w)
        w[rows, targets] = -1.0
        w[rows, top] = 0.0
        rest_w = w.sum(axis=-1)  # sum of w over k != argmax
        p_top = 1.0 / S
        w_top = np.where(at_target, -1.0, 1.0 / rest_or_1)
        w_top_miss = np.where(at_target, -rest / S, p_top)  # w_m (1 - p_m)
        w_top[under] = 0.0  # p_i w_m of these rows is taken from log r below
        w -= p * (rest_w + w_top)[:, None]
        if under.size:
            w[under] -= np.exp(z_rest - log_rest[under, None]) / S[under, None]
        w[rows, top] = w_top_miss - p_top * rest_w
        w *= g
        return ((logits, w.reshape(logits.shape)),)

    return ad.primitive(np.asarray(loss), "cross_entropy_loss", (logits,), back)


def contrastive_loss(anchor: Tensor, positive: Tensor, negatives: Tensor, margin, k) -> Tensor:
    """Margin hinge on geodesic distances: sum over negatives of
    max(d(anchor, positive) - d(anchor, negative) + margin, 0).

    anchor and positive are single (1, d+1) point rows, negatives is (m, d+1);
    with a leading batch axis they are (B, 1, d+1) and (B, m, d+1), and the
    hinges of every batch entry are summed. Everything must live on the
    hyperboloid of the same curvature k.
    """
    if negatives.shape[-2] < 1:
        raise ValueError("contrastive_loss: need at least one negative")
    d_pos = manifold.dist_rows(anchor, positive, k)
    d_neg = manifold.dist_rows(anchor, negatives, k)
    return ad.tsum(ad.relu(ad.add(ad.sub(d_pos, d_neg), margin)))


def l2_penalty(model: HCGRModel) -> Tensor:
    """Sum of squared entries over the parameters that ModelParams.init
    draws; those with a ``model.initial_constant`` (the curvatures and the
    logit scale) are left out."""
    total = None
    for name, t in model.params.named_parameters():
        if initial_constant(name) is not None:
            continue
        term = ad.tsum(ad.mul(t, t))
        total = term if total is None else ad.add(total, term)
    return total


def total_loss(
    model: HCGRModel,
    batch: list[tuple[list[int], int]],
    negatives: list[np.ndarray],
    cfg: TrainConfig,
) -> Tensor:
    """Weighted batch objective from one batched forward pass.

    `negatives` holds pre-drawn ids per pair, all of one length or empty; a
    pair with none adds no margin term.
    """
    if not batch:
        raise ValueError("total_loss: empty batch")
    caches = model.caches()
    result = model.forward(model.batch([session for session, _ in batch]), caches=caches)
    targets = np.array([target for _, target in batch], dtype=np.intp)
    ce = cross_entropy_loss(result.logits, targets)
    loss = ad.mul(cfg.ce_weight, ad.div(ce, float(len(batch))))

    rows = [i for i, neg_ids in enumerate(negatives) if len(neg_ids)]
    if cfg.contrastive_weight != 0.0 and rows:
        k0 = caches.graph_k[0]
        anchor = manifold.exp_o_rows(ad.take_rows(result.readout_tangent, np.array(rows)[:, None]), k0)
        # the positive and the negatives of each pair, mapped in one call
        ids = np.concatenate([targets[rows].reshape(-1, 1), np.stack([negatives[i] for i in rows])], axis=1)
        points = model.item_points(ids, k0)
        margin = contrastive_loss(anchor, points[:, :1], points[:, 1:], cfg.margin, k0)
        loss = ad.add(loss, ad.mul(cfg.contrastive_weight, ad.div(margin, float(len(batch)))))
    if cfg.l2 > 0:
        loss = ad.add(loss, ad.mul(cfg.l2, l2_penalty(model)))
    return loss


def draw_negatives(
    rng: np.random.Generator, session: list[int], target: int, catalog_size: int, count: int
) -> np.ndarray:
    """Uniform negatives excluding the session's own items and the target.

    The pool is the sorted catalog without the excluded ids, drawn from
    without replacement unless it is smaller than count. It is never built:
    the draw picks positions in it, and position j maps to the j-th kept id,
    which is j plus the number of excluded ids below that id. So the draws
    and the generator's state are those of rng.choice over the pool.
    """
    excluded = sorted({*session, target})
    if excluded[0] < 0 or excluded[-1] >= catalog_size:
        raise ValueError(f"item id out of range for {catalog_size} items")
    size = catalog_size - len(excluded)
    if size == 0:
        return np.empty(0, dtype=np.intp)
    idx = rng.choice(size, size=count, replace=size < count)
    # excluded[i] - i kept ids lie below excluded[i]
    kept_below = np.array(excluded, dtype=np.intp) - np.arange(len(excluded))
    return idx + np.searchsorted(kept_below, idx, side="right")


# ---------------------------------------------------------------------------
# optimizer and epochs
# ---------------------------------------------------------------------------


def _adam_update(p, g, m, v, a, b, lr, bc1, bc2):
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, g, out=a)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(1.0 - ADAM_BETA2, g, out=b), g, out=b)
    np.multiply(lr, np.divide(m, bc1, out=a), out=a)
    np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), ADAM_EPS, out=b)
    p -= np.divide(a, b, out=a)


def adam_step(state: TrainState, lr: float):
    """One Adam update of every parameter from its .grad.

    The arithmetic is m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    p -= lr (m / bc1) / (sqrt(v / bc2) + eps), evaluated in that order
    through the state's two scratch arrays, so no parameter-sized temporary
    is allocated. Each parameter is swept through its flat view in blocks of
    ADAM_BLOCK entries, each taken through the whole update before the next;
    every entry's arithmetic is elementwise, so the result is byte-identical
    to the whole-array update. The flat views write into the parameters and
    moments themselves, which ``ModelParams.from_arrays`` and ``TrainState``
    hold C-contiguous.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    a, b = state.scratch
    for name, p in state.model.params.named_parameters():
        m, v = state.moments[name]
        pf, gf, mf, vf = p.data.reshape(-1), p.grad.reshape(-1), m.reshape(-1), v.reshape(-1)
        for r in range(0, pf.size, ADAM_BLOCK):
            blk = slice(r, r + ADAM_BLOCK)
            n = len(pf[blk])
            _adam_update(pf[blk], gf[blk], mf[blk], vf[blk], a[:n], b[:n], lr, bc1, bc2)


def train_epoch(state: TrainState, train_pairs: list[tuple[list[int], int]], lr: float) -> float:
    """One pass over the shuffled training pairs; returns the mean batch loss."""
    if not train_pairs:
        raise ValueError("train_epoch: empty training split")
    cfg = state.config
    state.epoch += 1
    rng = np.random.default_rng([cfg.seed, state.epoch])
    order = rng.permutation(len(train_pairs))
    catalog = state.model.catalog_size

    losses = []
    for batch_index, start in enumerate(range(0, len(order), cfg.batch_size)):
        batch = [train_pairs[i] for i in order[start : start + cfg.batch_size]]
        negatives = [
            draw_negatives(rng, session, target, catalog, cfg.negatives)
            for session, target in batch
        ]
        state.model.params.zero_grads()
        try:
            loss = total_loss(state.model, batch, negatives, cfg)
            loss.backward()
        except ad.NumericError as exc:
            raise TrainingNumericError(
                f"epoch {state.epoch} batch {batch_index}: {exc}"
            ) from exc
        adam_step(state, lr)
        losses.append(float(loss.data))
    return float(np.mean(losses))


def fit(
    model: HCGRModel,
    cfg: TrainConfig,
    train_pairs: list[tuple[list[int], int]],
    valid_pairs: list[tuple[list[int], int]],
    log=None,
) -> TrainState:
    """Train with early stopping on validation MRR@20.

    Returns the state with the best-epoch parameter snapshot restored into
    the model, and that epoch's validation metrics in ``best_metrics``; with
    no best epoch (no epoch run) the parameters are left as they are.
    `log` receives one formatted line per epoch.
    """
    if not train_pairs or not valid_pairs:
        raise ValueError("fit: training and validation splits must be nonempty")
    state = TrainState(model=model, config=cfg)
    stale = 0
    for epoch in range(1, cfg.epochs + 1):
        lr = cfg.lr_at_epoch(epoch)
        loss = train_epoch(state, train_pairs, lr)
        val = evaluate(model, valid_pairs, ks=(10, 20))
        line = (
            f"epoch={epoch} loss={loss:.6f} val_hr20={val.hr[20]:.6f} "
            f"val_mrr20={val.mrr[20]:.6f} val_ndcg20={val.ndcg[20]:.6f} lr={lr:.6g}"
        )
        state.history.append(
            {"epoch": epoch, "loss": loss, "hr20": val.hr[20], "mrr20": val.mrr[20], "ndcg20": val.ndcg[20], "lr": lr}
        )
        if log is not None:
            log(line)
        if val.mrr[20] > state.best_mrr:
            state.best_epoch = epoch
            state.best_metrics = val
            state.best_arrays = model.params.state_arrays()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    if state.best_arrays is not None:
        model.params.load_arrays(state.best_arrays)
    return state


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------


@dataclass
class GradientCheckReport:
    max_rel_error: float
    worst_param: str
    passed: bool
    tolerance: float


def gradient_check(
    model: HCGRModel,
    batch: list[tuple[list[int], int]],
    cfg: TrainConfig,
    h: float = 1e-5,
    tol: float = 1e-3,
) -> GradientCheckReport:
    """Central differences over every parameter entry vs the backward pass.

    Only sensible for small models; guarded at 5000 parameters because the
    sweep runs two forward passes per entry.
    """
    n_params = sum(t.data.size for _, t in model.params.named_parameters())
    if n_params > 5000:
        raise ValueError(f"gradient_check limited to 5000 parameters, got {n_params}")

    rng = np.random.default_rng(cfg.seed)
    negatives = [
        draw_negatives(rng, session, target, model.catalog_size, cfg.negatives)
        for session, target in batch
    ]

    model.params.zero_grads()
    loss = total_loss(model, batch, negatives, cfg)
    loss.backward()
    analytic = {name: t.grad.copy() for name, t in model.params.named_parameters()}

    def loss_value() -> float:
        with ad.no_grad():
            return float(total_loss(model, batch, negatives, cfg).data)

    worst = ("", 0.0)
    for name, t in model.params.named_parameters():
        flat = t.data.reshape(-1)
        ana = analytic[name].reshape(-1)
        worst_here = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_value()
            flat[i] = orig - h
            down = loss_value()
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            rel = abs(fd - ana[i]) / max(abs(fd), abs(ana[i]), 1e-6)
            if rel > worst_here:
                worst_here = rel
        if worst_here > worst[1]:
            worst = (name, worst_here)
    return GradientCheckReport(
        max_rel_error=worst[1],
        worst_param=worst[0],
        passed=worst[1] < tol,
        tolerance=tol,
    )

