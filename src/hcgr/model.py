"""Session recommender operating on the Lorentz hyperboloid.

Pipeline per session: look up item embeddings (stored as tangent vectors at
the origin), run graph attention layers over the session graph (GAT-style
LeakyReLU pair scores plus log transition counts), fuse all depths with
softmax-normalized coefficients, refine with hyperbolic self-attention
blocks, blend the long-term (self-attention) and short-term (last item)
representations through a learned gate, and score the whole catalog with
tangent-space dot products, multiplied by a learned positive scale.
``forward`` returns these scaled logits; their softmax, the catalog
probabilities, is computed when it is first read (``ForwardResult.yhat``),
so training, whose loss works from the logits, never builds it.

A session's graph has one node per distinct item, in first-occurrence
order, so "the last clicked item" is a well-defined node. Each consecutive
pair of clicks (v_t, v_t+1) adds one count to the directed edge
v_t -> v_t+1; immediate repeats land on the node's self-loop, and a node
without one gets a self-loop of weight 1, so every neighbourhood contains
the node itself. Attention runs over the undirected union weights
count(i->j) + count(j->i), the self-loop counted once.

The pipeline runs on batches. ``HCGRModel.batch`` turns B sessions into a
SessionBatch: node ids padded to the longest session's n_max nodes, a
(B, n_max, n_max) graph-attention offset (log union weight on neighbour
pairs, MASK_LOGIT elsewhere) and a (B, 1, n_max) self-attention key mask.
``build_graph`` and ``neighborhood`` compute the graphs of the whole batch
at once from its flat clicks.
``forward`` then runs every stage once over the batch, reads out each
session's last node, and scores the catalog with one (B, V) product.

Stages hand each other (B, n_max, d) tangents at the origin. Each graph
layer and each attention block has its own curvature, and moving between
them through the origin, exp_o under the next curvature of log_o under the
last, is the identity on these tangents. So a stage maps onto its own
hyperboloid, as (B, n_max, d+1) points, only where a manifold operation
needs points: the Gram matrix and the logarithms at each node in graph
attention, and the hyperbolic biases in each block's feed-forward.

Padding slots repeat a valid item, so every manifold op stays finite on
them; each neighbours only itself and is masked as a key, so no real node
attends to it, it changes no real node's output and it receives exactly
zero gradient. Training, evaluation and single-session requests all go
through this path; one session is a batch of one.

Every trainable parameter is an unconstrained array in the tangent space at
the origin (or a plain Euclidean matrix/scalar); the manifold structure
enters only through the exponential/logarithmic maps inside the forward
pass, so a standard first-order optimizer applies directly.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from . import autodiff as ad
from . import manifold
from .autodiff import Tensor

CHECKPOINT_FORMAT = "hcgr-v2"
AGGREGATORS = ("multi_hop", "gat_last_layer", "gcn_mean")

# Pre-softmax logit for non-neighbor pairs; exp underflows to exactly 0.
MASK_LOGIT = -1e30

# Negative-side slope of the graph-attention pair score (GAT's LeakyReLU).
ATTN_SLOPE = 0.2

# Starting value of the catalog logit scale (the parameter holds its log).
# At the N(0, 0.1) initialization the tangent dot products spread over about
# 0.1 across the catalog, so an unscaled softmax starts almost uniform, its
# gradients are small, and Adam moves the scale too slowly to leave that
# regime: on the 100-item acceptance corpus a scale starting at 1 only
# reached 1.28, and test HR@10 was 0.59 against popularity's 0.55. Started
# at 4 the scale settles near 4.2 and HR@10 reaches 0.63.
LOGIT_SCALE_INIT = 4.0


class CheckpointError(ValueError):
    """Checkpoint file is missing, malformed, or has an unknown format."""


@dataclass(frozen=True)
class HyperParams:
    """Architecture knobs; loss/optimizer knobs live in training.TrainConfig."""

    dim: int = 128
    graph_layers: int = 1
    attention_blocks: int = 1
    max_session_len: int = 50
    aggregator: str = "multi_hop"

    def __post_init__(self):
        for name in ("dim", "graph_layers", "attention_blocks", "max_session_len"):
            value = getattr(self, name)
            if type(value) is not int:  # a float cannot size an array, and a bool is not a size
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.graph_layers < 1:
            raise ValueError("graph_layers must be >= 1")
        if self.attention_blocks < 1:
            raise ValueError("attention_blocks must be >= 1")
        if self.max_session_len < 1:
            raise ValueError("max_session_len must be >= 1")
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"aggregator must be one of {AGGREGATORS}")


@dataclass
class BlockParams:
    """One hyperbolic self-attention block with its feed-forward sublayer."""

    w_query: Tensor
    w_key: Tensor
    w_value: Tensor
    ff_w1: Tensor
    ff_w2: Tensor
    ff_b1: Tensor
    ff_b2: Tensor
    kappa: Tensor


@dataclass
class ModelParams:
    """Every trainable parameter, by attribute and by name in
    ``expected_shapes`` order. ``from_arrays`` builds fresh and loaded
    parameters alike."""

    embeddings: Tensor
    attn_w: Tensor
    attn_b: Tensor
    fusion_logits: Tensor
    gate_logit: Tensor
    logit_scale: Tensor  # log of the catalog logit scale
    graph_kappa: list[Tensor]
    blocks: list[BlockParams]
    by_name: dict[str, Tensor] = field(repr=False)  # every tensor above, in expected_shapes order

    @classmethod
    def init(cls, hyper: HyperParams, catalog_size: int, seed: int) -> "ModelParams":
        """One generator draws Gaussian(0, 0.1) for each parameter in
        ``expected_shapes`` order; a parameter with an ``initial_constant``
        takes that value instead and draws nothing."""
        rng = np.random.default_rng(seed)
        arrays = {}
        for name, shape in expected_shapes(hyper, catalog_size).items():
            value = initial_constant(name)
            arrays[name] = rng.normal(0.0, 0.1, shape) if value is None else np.array(value)
        return cls.from_arrays(hyper, catalog_size, arrays)

    @classmethod
    def from_arrays(cls, hyper: HyperParams, catalog_size: int, arrays: dict) -> "ModelParams":
        """Parameters from a name -> array table, such as a checkpoint's. A
        table whose names or shapes differ from ``expected_shapes`` raises
        CheckpointError."""
        shapes = expected_shapes(hyper, catalog_size)
        missing = sorted(set(shapes) - set(arrays))
        extra = sorted(set(arrays) - set(shapes))
        if missing or extra:
            raise CheckpointError(f"parameter set mismatch: missing={missing} extra={extra}")
        tensors = {}
        for name, shape in shapes.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != shape:
                raise CheckpointError(f"parameter '{name}' has shape {arr.shape}, expected {shape}")
            tensors[name] = Tensor(arr, requires_grad=True)
        return cls(
            **{f.name: tensors[f.name] for f in fields(cls) if f.name in tensors},
            graph_kappa=[tensors[f"graph_kappa.{l}"] for l in range(hyper.graph_layers + 1)],
            blocks=[
                BlockParams(**{f.name: tensors[f"block.{j}.{f.name}"] for f in fields(BlockParams)})
                for j in range(hyper.attention_blocks)
            ],
            by_name=tensors,
        )

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.by_name.items())

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_parameters()}

    def load_arrays(self, arrays: dict[str, np.ndarray]):
        for name, t in self.named_parameters():
            t.data[...] = arrays[name]

    def zero_grads(self):
        for _, t in self.named_parameters():
            t.zero_grad()


def expected_shapes(hyper: HyperParams, catalog_size: int) -> dict[str, tuple]:
    """The parameter layout: each parameter's name and shape, in the order
    that ``ModelParams.init`` draws them, ``named_parameters`` returns them
    and a checkpoint stores them. Block j's entries are named
    ``block.{j}.{field}`` after the fields of BlockParams."""
    shapes: dict[str, tuple] = {
        "embeddings": (catalog_size, hyper.dim),
        "attn_w": (2 * hyper.dim,),
        "attn_b": (),
        "fusion_logits": (hyper.graph_layers + 1,),
        "gate_logit": (),
        "logit_scale": (),
    }
    for l in range(hyper.graph_layers + 1):
        shapes[f"graph_kappa.{l}"] = ()
    for j in range(hyper.attention_blocks):
        for nm in ("w_query", "w_key", "w_value", "ff_w1", "ff_w2"):
            shapes[f"block.{j}.{nm}"] = (hyper.dim, hyper.dim)
        shapes[f"block.{j}.ff_b1"] = (hyper.dim,)
        shapes[f"block.{j}.ff_b2"] = (hyper.dim,)
        shapes[f"block.{j}.kappa"] = ()
    return shapes


def initial_constant(name: str) -> float | None:
    """The fixed starting value of parameter ``name``, or None for one that
    ``ModelParams.init`` draws.

    The curvatures start at k = 1 and the logit scale at LOGIT_SCALE_INIT.
    The L2 penalty leaves them out: toward a softplus fixed point it would
    be an arbitrary prior on a curvature, and it would pull the scale back
    to 1, the uniform-softmax regime the scale exists to leave.
    """
    if name == "logit_scale":
        return math.log(LOGIT_SCALE_INIT)
    if name.startswith("graph_kappa.") or name.endswith(".kappa"):
        return manifold.KAPPA_RAW_FOR_UNIT_K
    return None


@dataclass
class ModelCaches:
    """Per-batch curvature tensors shared by every forward pass until
    parameters change. Nothing catalog-sized is cached: the forward works
    on the embedding rows it gathers, which are already origin tangents.
    graph_k[0] is the curvature of the item points the margin loss and
    catalog_points use; the forward pass itself does not read it."""

    graph_k: list[Tensor]
    block_k: list[Tensor]


@dataclass
class SessionBatch:
    """Sessions padded to a common node count for one batched forward pass.

    Session b fills the first slots of row b, one per distinct item in
    first-occurrence order; the slots after them are padding.
    """

    node_ids: np.ndarray  # (B, n_max) item of each slot; padding holds item 0
    bias: np.ndarray  # (B, n_max, n_max) graph-attention logit offsets
    key_mask: np.ndarray  # (B, 1, n_max) self-attention logit offsets
    last: np.ndarray  # (B,) slot of each session's last click


@dataclass
class Traces:
    """Attention weights captured during one forward pass.

    For one session the arrays are (n, n) attention matrices and (n, d+1)
    points, and node_items holds the item of each node slot; for a
    SessionBatch the arrays keep the leading batch axis and padding slots,
    and node_items is empty. ``points`` (with collect_points=True)
    holds each stage's output tangents mapped onto that stage's hyperboloid:
    "embed" and "graph_layer_l" under graph_k[0] and graph_k[l], "fused"
    under graph_k[-1], "block_j" under block_k[j].
    """

    node_items: tuple[int, ...]
    graph_attention: list[np.ndarray] = field(default_factory=list)
    self_attention: list[np.ndarray] = field(default_factory=list)
    fusion_weights: np.ndarray | None = None
    gate: float = 0.0
    points: dict[str, np.ndarray] | None = None


@dataclass
class ForwardResult:
    """Output of one forward pass."""

    logits: Tensor  # (V,) scaled catalog logits, (B, V) for a batch
    readout_tangent: Tensor  # (d,) origin tangent that ``score`` ranks the catalog with, (B, d) for a batch
    traces: Traces

    @cached_property
    def yhat(self) -> Tensor:
        """Catalog probabilities, softmax(logits) over the last axis,
        computed on first read."""
        return ad.softmax_rows(self.logits)

    @cached_property
    def readout(self) -> Tensor:
        """The readout tangent as a (d+1)-wide constant with time coordinate
        0, computed on first read."""
        o = self.readout_tangent.data
        return ad.constant(np.concatenate([np.zeros(o.shape[:-1] + (1,)), o], axis=-1))


def build_graph(sessions, catalog_size: int, max_len: int):
    """Session graphs of a batch, from its clicks: node ids (B, n_max), node
    counts (B,), the slot of each last click (B,) and directed transition
    counts with self-loops (B, n_max, n_max).

    Each session is cut to its most recent max_len clicks. Padding slots
    hold item 0 and no counts.
    """
    cut = [list(items)[-max_len:] for items in sessions]
    if not cut:
        raise ValueError("no sessions to batch")
    lengths = np.array([len(c) for c in cut])
    if lengths.min() == 0:
        raise ValueError("empty session")
    try:
        clicks = np.array([v for c in cut for v in c], dtype=np.intp)
    except OverflowError:
        raise ValueError("item id out of catalog range") from None
    if clicks.min() < 0 or clicks.max() >= catalog_size:
        raise ValueError("item id out of catalog range")
    session = np.repeat(np.arange(len(cut)), lengths)
    # keys sort by (session, item); ranking them by first click puts each
    # session's nodes in first-occurrence order, sessions one after another
    keys, first, inverse = np.unique(session * catalog_size + clicks, return_index=True, return_inverse=True)
    rank = np.empty(len(keys), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(keys))
    node_session, node_items = np.divmod(keys, catalog_size)
    sizes = np.bincount(node_session, minlength=len(cut))
    node_slot = rank - (np.cumsum(sizes) - sizes)[node_session]
    n_max = int(sizes.max())
    node_ids = np.zeros((len(cut), n_max), dtype=np.intp)
    node_ids[node_session, node_slot] = node_items
    slot = node_slot[inverse]
    src = np.nonzero(session[:-1] == session[1:])[0]  # clicks followed by one of their session
    flat = (session[src] * n_max + slot[src]) * n_max + slot[src + 1]
    counts = np.bincount(flat, minlength=len(cut) * n_max * n_max).reshape(len(cut), n_max, n_max)
    # a real slot without a self-loop gets one of weight 1; padding stays 0
    i = np.arange(n_max)
    counts[:, i, i] = np.maximum(counts[:, i, i], i < sizes[:, None])
    return node_ids, sizes, slot[np.cumsum(lengths) - 1], counts


def neighborhood(counts: np.ndarray) -> np.ndarray:
    """Undirected union weights count(i->j) + count(j->i) of directed counts
    (..., n, n), each self-loop counted once."""
    union = counts + np.swapaxes(counts, -1, -2)
    i = np.arange(counts.shape[-1])
    union[..., i, i] = counts[..., i, i]
    return union


class HCGRModel:
    def __init__(self, hyper: HyperParams, catalog_size: int, params: ModelParams):
        self.hyper = hyper
        self.catalog_size = catalog_size
        self.params = params

    @classmethod
    def create(cls, hyper: HyperParams, catalog_size: int, seed: int) -> "HCGRModel":
        return cls(hyper, catalog_size, ModelParams.init(hyper, catalog_size, seed))

    # -- shared per-batch tensors ---------------------------------------
    def caches(self) -> ModelCaches:
        p = self.params
        graph_k = [manifold.curvature_from_raw(t) for t in p.graph_kappa]
        block_k = [manifold.curvature_from_raw(b.kappa) for b in p.blocks]
        return ModelCaches(graph_k, block_k)

    def item_points(self, ids, k) -> Tensor:
        """Hyperboloid points of the items in ``ids``, an index array of any
        shape, under curvature k: ids.shape + (d+1,).

        The embedding rows are d-wide tangent vectors at the origin; only
        the gathered rows are mapped.
        """
        return manifold.exp_o_rows(ad.take_rows(self.params.embeddings, ids), k)

    def catalog_points(self) -> tuple[np.ndarray, Tensor]:
        """Points of every catalog item under the embedding curvature, with
        that curvature (no gradients)."""
        with ad.no_grad():
            k = self.caches().graph_k[0]
            return self.item_points(np.arange(self.catalog_size), k).data, k

    # -- typed single-item view ------------------------------------------
    def embed(self, item: int) -> manifold.LorentzPoint:
        """Hyperbolic point of one item (analysis helper, no gradients)."""
        if not 0 <= item < self.catalog_size:
            raise ValueError(f"item id {item} out of range")
        with ad.no_grad():
            k = self.caches().graph_k[0]
            coords = self.item_points([item], k).data[0]
        return manifold.LorentzPoint(coords, float(k.data))

    def embedding_distances(self) -> np.ndarray:
        """Geodesic distance from the origin for every catalog item:
        d(o, exp_o(v)) = |v| for the item's tangent v, under any curvature."""
        return np.linalg.norm(self.params.embeddings.data, axis=1)

    # -- forward pass -----------------------------------------------------
    def batch(self, sessions) -> SessionBatch:
        """Padded node ids and attention masks of several sessions.

        Each session is cut to its most recent max_session_len clicks. Real
        slots get the log union weight of each neighbour as graph-attention
        offset (0 under gcn_mean) and MASK_LOGIT off the neighbourhood. A
        padding slot neighbours only itself, and its key column is masked in
        self-attention, so no real slot ever attends to it.
        """
        node_ids, sizes, last, counts = build_graph(sessions, self.catalog_size, self.hyper.max_session_len)
        union = neighborhood(counts)
        linked = union > 0
        bias = np.full(union.shape, MASK_LOGIT)
        if self.hyper.aggregator == "gcn_mean":
            bias[linked] = 0.0
        else:
            weights, which = np.unique(union[linked], return_inverse=True)
            bias[linked] = np.array([math.log(w) for w in weights.tolist()])[which]
        pad = np.arange(node_ids.shape[1]) >= sizes[:, None]
        pad_b, pad_i = np.nonzero(pad)
        bias[pad_b, pad_i, pad_i] = 0.0
        key_mask = np.where(pad, MASK_LOGIT, 0.0)[:, None, :]
        return SessionBatch(node_ids, bias, key_mask, last)

    def forward(self, items, caches: ModelCaches | None = None, collect_points: bool = False) -> ForwardResult:
        """Scaled catalog logits for one session (item ids) or a SessionBatch.

        Both run the same batched pipeline over (B, n_max, d) origin
        tangents; one session is a batch of one whose result drops the batch
        axis.
        """
        single = not isinstance(items, SessionBatch)
        sb = self.batch([items]) if single else items
        if caches is None:
            caches = self.caches()
        p = self.params
        traces = Traces(node_items=tuple(sb.node_ids[0].tolist()) if single else ())
        stage_tangents: dict[str, tuple[Tensor, Tensor]] = {}

        T = ad.take_rows(p.embeddings, sb.node_ids)
        stage_tangents["embed"] = (T, caches.graph_k[0])
        per_layer = [T]
        for l in range(1, self.hyper.graph_layers + 1):
            T, attn = self._graph_attention(sb.bias, T, caches.graph_k[l])
            traces.graph_attention.append(attn)
            per_layer.append(T)
            stage_tangents[f"graph_layer_{l}"] = (T, caches.graph_k[l])

        Z, fusion_weights = self._fuse(per_layer)
        traces.fusion_weights = fusion_weights
        stage_tangents["fused"] = (Z, caches.graph_k[-1])

        E = Z
        for j, blk in enumerate(p.blocks):
            E, attn = self._self_attention_block(E, sb.key_mask, blk, caches.block_k[j])
            traces.self_attention.append(attn)
            stage_tangents[f"block_{j}"] = (E, caches.block_k[j])

        at_last = (np.arange(len(sb.last)), sb.last)
        gate = ad.sigmoid(p.gate_logit)
        o_vec = ad.add(ad.mul(gate, E[at_last]), ad.mul(ad.sub(1.0, gate), Z[at_last]))
        traces.gate = float(gate.data)

        if single:
            o_vec = o_vec[0]
            traces.graph_attention = [a[0] for a in traces.graph_attention]
            traces.self_attention = [a[0] for a in traces.self_attention]
        if collect_points:
            with ad.no_grad():
                traces.points = {
                    name: manifold.exp_o_rows(t, k).data[0 if single else slice(None)]
                    for name, (t, k) in stage_tangents.items()
                }
        return ForwardResult(self.score(o_vec), o_vec, traces)

    def score(self, o_vec: Tensor) -> Tensor:
        """Scaled catalog logits z = exp(logit_scale) * (o E^T), as one
        autodiff node named catalog_logits.

        Each logit is the dot product of the d-wide readout tangent with an
        item's embedding row (both tangents at the origin), multiplied by
        the learned scale s = exp(logit_scale). A (d,) readout gives (V,)
        through one matrix-vector product, a (B, d) batch (B, V) through one
        matrix product against a transposed view of the embeddings. The
        backward pass is written out by hand: g_o = (s g) E,
        g_E = (s g)^T o, which numpy lays out contiguous like the table, and
        g_logit_scale = sum(g z).
        """
        embeddings, logit_scale = self.params.embeddings, self.params.logit_scale
        o, E = o_vec.data, embeddings.data
        s = np.exp(logit_scale.data)
        z = s * (E @ o if o.ndim == 1 else o @ E.T)

        def back(g):
            gs = s * g
            g_E = np.multiply.outer(gs, o) if o.ndim == 1 else gs.T @ o
            return ((o_vec, gs @ E), (embeddings, g_E), (logit_scale, np.vdot(g, z)))

        return ad.primitive(z, "catalog_logits", (o_vec, embeddings, logit_scale), back)

    # -- stages ------------------------------------------------------------
    def _graph_attention(self, bias: np.ndarray, T: Tensor, k) -> tuple[Tensor, np.ndarray]:
        """One round of neighborhood attention in the tangent bundle, from
        and to origin tangents T of the nodes.

        The score of a pair (i, j) is LeakyReLU(a_row.T_i + a_col.T_j + b) plus
        the pair's offset in ``bias`` (the log of the transition count, or
        MASK_LOGIT off the neighbourhood). A linear score would lose the
        centre-node term and the bias to the row softmax's shift invariance;
        through the LeakyReLU they change the weights of any row whose scores
        straddle the kink. The nodes are mapped onto the hyperboloid of
        curvature k once; weighted neighbor tangents (logarithms at the node)
        are combined, mapped back with exp at the node, and the result is
        handed on as its tangent at the origin.
        """
        n = T.shape[-2]
        if self.hyper.aggregator == "gcn_mean":
            logits = ad.constant(bias)
        else:
            d = self.hyper.dim
            a_row = ad.matmul(T, self.params.attn_w[:d])  # (B, n)
            a_col = ad.matmul(T, self.params.attn_w[d:])  # (B, n)
            pair = ad.add(ad.add(ad.reshape(a_row, (-1, n, 1)), ad.reshape(a_col, (-1, 1, n))), self.params.attn_b)
            logits = ad.add(ad.leaky_relu(pair, ATTN_SLOPE), ad.constant(bias))
        attn = ad.softmax_rows(logits)

        X = manifold.exp_o_rows(T, k)
        agg = manifold.weighted_log_rows(attn, X, k)
        return manifold.log_o_rows(manifold.exp_map_rows(X, agg, k), k), attn.data

    def _fuse(self, per_layer: list[Tensor]) -> tuple[Tensor, np.ndarray]:
        """Convex combination of the origin tangents of all aggregation depths."""
        if self.hyper.aggregator == "gat_last_layer":
            return per_layer[-1], np.eye(len(per_layer))[-1]
        weights = ad.softmax_rows(self.params.fusion_logits)
        acc = None
        for l, t in enumerate(per_layer):
            term = ad.mul(weights[l], t)
            acc = term if acc is None else ad.add(acc, term)
        return acc, weights.data.copy()

    def _self_attention_block(self, T: Tensor, key_mask: np.ndarray, blk: BlockParams, k) -> tuple[Tensor, np.ndarray]:
        """Scaled dot-product self-attention and feed-forward, from and to
        origin tangents T, with a tangent skip link. ``key_mask`` offsets the
        logits of padding keys by MASK_LOGIT.

        The attention works on the tangents themselves. The feed-forward maps
        onto the hyperboloid of curvature k only for its two hyperbolic
        biases, and takes each result back to the origin tangent space.
        """
        q = ad.matmul(T, blk.w_query)
        key = ad.matmul(T, blk.w_key)
        v = ad.matmul(T, blk.w_value)
        # 1/sqrt(d + 1), not 1/sqrt(d): the temperature the model and the oracle are defined with
        scores = ad.div(ad.matmul(q, ad.transpose(key)), math.sqrt(self.hyper.dim + 1))
        attn = ad.softmax_rows(ad.add(scores, ad.constant(key_mask)))
        f_tan = ad.matmul(attn, v)  # log_o of the attention output point

        h1 = manifold.exp_o_rows(ad.matmul(f_tan, ad.transpose(blk.ff_w1)), k)
        h1 = manifold.hyp_bias_add_rows(h1, blk.ff_b1, k)
        act_tan = ad.leaky_relu(manifold.log_o_rows(h1, k), 0.2)
        h2 = manifold.exp_o_rows(ad.matmul(act_tan, ad.transpose(blk.ff_w2)), k)
        h2 = manifold.hyp_bias_add_rows(h2, blk.ff_b2, k)
        return ad.add(manifold.log_o_rows(h2, k), f_tan), attn.data


# ---------------------------------------------------------------------------
# checkpoint round-trip
# ---------------------------------------------------------------------------


def save_checkpoint(path: str, model: HCGRModel, rng_seed: int):
    """Write the model to exactly ``path`` as one npz archive: a JSON header
    (format, hyperparams, catalog size, seed) and every named parameter.
    The archive goes to ``path + ".tmp"`` first and is renamed into place,
    so an interrupted save leaves no partial checkpoint at ``path``."""
    header = {
        "format": CHECKPOINT_FORMAT,
        "hyperparams": asdict(model.hyper),
        "catalog_size": model.catalog_size,
        "rng_seed": rng_seed,
    }
    tmp = path + ".tmp"
    # the parameter arrays themselves: copying them first cost about a fifth
    # of the save-and-load round trip of a (32119, 64) table
    arrays = {name: t.data for name, t in model.params.named_parameters()}
    # an open handle, because numpy appends ".npz" to a path without it
    with open(tmp, "wb") as fh:
        np.savez(fh, header=np.array(json.dumps(header)), **arrays)
    os.replace(tmp, path)


def _not_a_checkpoint(path: str, reason) -> CheckpointError:
    return CheckpointError(f"{path} is not a checkpoint of format {CHECKPOINT_FORMAT!r}: {reason}")


def load_checkpoint(path: str) -> tuple[HCGRModel, int]:
    """Read a checkpoint written by save_checkpoint; any other file raises
    CheckpointError."""
    try:
        npz = np.load(path, allow_pickle=False)
    except OSError as exc:
        raise _not_a_checkpoint(path, exc) from exc
    except (EOFError, ValueError, zipfile.BadZipFile) as exc:
        # numpy's own message here may suggest loading the file as a pickle
        raise _not_a_checkpoint(path, "not an npz archive, or a truncated one") from exc
    if not isinstance(npz, np.lib.npyio.NpzFile):
        raise _not_a_checkpoint(path, "a lone array, not an npz archive")
    try:
        with npz:
            if "header" not in npz.files:
                raise ValueError("no header")
            header = json.loads(npz["header"].item())
            if not isinstance(header, dict):
                raise ValueError("the header is not a JSON object")
            if header.get("format") != CHECKPOINT_FORMAT:
                raise ValueError(f"the header names format {header.get('format')!r}")
            hyper = HyperParams(**header["hyperparams"])
            catalog_size = int(header["catalog_size"])
            seed = int(header.get("rng_seed", 0))
            arrays = {name: npz[name] for name in npz.files if name != "header"}
        params = ModelParams.from_arrays(hyper, catalog_size, arrays)
    except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise _not_a_checkpoint(path, exc) from exc
    return HCGRModel(hyper, catalog_size, params), seed
