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
so training, whose loss works from the logits, never builds it, and
evaluation computes it in place over each chunk's logits.

A session's graph has one node per distinct item, in first-occurrence
order, so "the last clicked item" is a well-defined node. Each consecutive
pair of clicks (v_t, v_t+1) adds one count to the directed edge
v_t -> v_t+1; immediate repeats land on the node's self-loop, and a node
without one gets a self-loop of weight 1, so every neighbourhood contains
the node itself. Attention runs over the undirected union weights
count(i->j) + count(j->i), the self-loop counted once.

The pipeline runs on batches. ``HCGRModel.batch`` turns B sessions into a
SessionBatch. Its N real nodes are packed rows, session after session and
each session's nodes in slot order. For the two attention computations it
also lays them out in slots padded to the longest session's n_max nodes,
with a (B, n_max, n_max) graph-attention offset (log union weight on
neighbour pairs, MASK_LOGIT elsewhere), a (B, 1, n_max) self-attention key
mask and the flat slot of each packed row. ``build_graph`` and
``neighborhood`` compute the graphs of the whole batch at once from its
flat clicks. ``forward`` then runs every stage once over the batch, reads
out each session's last node by its packed row, and scores the catalog with
one (B, V) product.

Stages hand each other packed (N, d) tangents at the origin. Each graph
layer and each attention block has its own curvature, and moving between
them through the origin, exp_o under the next curvature of log_o under the
last, is the identity on these tangents. So a stage maps onto its own
hyperboloid, as (N, d+1) points, only where a manifold operation needs
points: the Gram matrix and the logarithms at each node in graph
attention, and the hyperbolic biases in each block's feed-forward. A bias b
is added as in HGCN, exp_h(PT_{o->h}(b)) at h = exp_o(u) for a layer's
output tangent u; that point is the Lorentz boost carrying the origin to h
applied to exp_o(b), so the feed-forward maps only its bias onto the
hyperboloid, boosts it by each row's u and takes the result back with log_o.

Padding exists only inside the two attention computations: the pair
scores and the weighted logarithms of graph attention, and the scores,
softmax and weighted values of self-attention. Each of these three is one
autodiff node that lays its packed input rows out in the slots, zero rows
in the padding, and gathers its output rows back. A padding slot
neighbours only itself and is masked as a key, so no real node attends to
it and it changes no real node's output. Every other stage (the maps, the
fusion, the projections and the feed-forward) computes the N real rows
only. Training, evaluation and single-session requests all go through this
path; one session is a batch of one without padding, N = n_max.

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
        """Parameters from a name -> array table, such as a checkpoint's, held
        as C-contiguous float64 arrays (adam_step updates their flat views in
        place). A table whose names or shapes differ from ``expected_shapes``
        raises CheckpointError."""
        shapes = expected_shapes(hyper, catalog_size)
        missing = sorted(set(shapes) - set(arrays))
        extra = sorted(set(arrays) - set(shapes))
        if missing or extra:
            raise CheckpointError(f"parameter set mismatch: missing={missing} extra={extra}")
        tensors = {}
        for name, shape in shapes.items():
            arr = np.asarray(arrays[name], dtype=np.float64, order="C")
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
    """The nodes of several sessions, packed as rows and laid out in padded
    slots, for one batched forward pass.

    Session b fills the first slots of slot row b, one per distinct item in
    first-occurrence order; the slots after them are padding. The row-wise
    stages see only the N real slots, as packed rows in session-major slot
    order; the two attention computations see the (B, n_max) slots.
    """

    node_ids: np.ndarray  # (B, n_max) item of each slot; padding holds item 0
    bias: np.ndarray  # (B, n_max, n_max) graph-attention logit offsets
    key_mask: np.ndarray  # (B, 1, n_max) self-attention logit offsets
    slots: np.ndarray  # (N,) flat slot b * n_max + i of each packed row
    last_row: np.ndarray  # (B,) packed row of each session's last click


@dataclass
class ForwardResult:
    """Output of one forward pass."""

    logits: Tensor  # (V,) scaled catalog logits, (B, V) for a batch
    readout_tangent: Tensor  # (d,) origin tangent that ``score`` ranks the catalog with, (B, d) for a batch
    # attention weights per graph layer and per block: (n, n) for one
    # session, (B, n_max, n_max) with the padding slots for a batch
    graph_attention: list[np.ndarray]
    self_attention: list[np.ndarray]

    @cached_property
    def yhat(self) -> Tensor:
        """Catalog probabilities, softmax(logits) over the last axis,
        computed on first read into one new array; ``logits`` keeps its
        bytes."""
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

    def embedding_distances(self) -> np.ndarray:
        """Geodesic distance from the origin for every catalog item:
        d(o, exp_o(v)) = |v| for the item's tangent v, under any curvature."""
        return np.linalg.norm(self.params.embeddings.data, axis=1)

    # -- forward pass -----------------------------------------------------
    def batch(self, sessions) -> SessionBatch:
        """The packed node rows, padded slots and attention masks of several
        sessions.

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
        return SessionBatch(node_ids, bias, key_mask, np.flatnonzero(~pad), np.cumsum(sizes) - sizes + last)

    def forward(self, items, caches: ModelCaches | None = None) -> ForwardResult:
        """Scaled catalog logits for one session (item ids) or a SessionBatch.

        Both run the same batched pipeline over packed (N, d) origin
        tangents, one row per real node; one session is a batch of one,
        without padding, whose result drops the batch axis.
        """
        single = not isinstance(items, SessionBatch)
        sb = self.batch([items]) if single else items
        if caches is None:
            caches = self.caches()
        p = self.params

        T = ad.take_rows(p.embeddings, sb.node_ids.reshape(-1)[sb.slots])
        per_layer, graph_attention = [T], []
        for l in range(1, self.hyper.graph_layers + 1):
            T, attn = self._graph_attention(sb, T, caches.graph_k[l])
            per_layer.append(T)
            graph_attention.append(attn)

        Z = self._fuse(per_layer)
        E, self_attention = Z, []
        for j, blk in enumerate(p.blocks):
            E, attn = self._self_attention_block(sb, E, blk, caches.block_k[j])
            self_attention.append(attn)

        gate = ad.sigmoid(p.gate_logit)
        o_vec = ad.add(ad.mul(gate, E[sb.last_row]), ad.mul(ad.sub(1.0, gate), Z[sb.last_row]))
        if single:
            o_vec = o_vec[0]
            graph_attention = [a[0] for a in graph_attention]
            self_attention = [a[0] for a in self_attention]
        return ForwardResult(self.score(o_vec), o_vec, graph_attention, self_attention)

    def score(self, o_vec: Tensor) -> Tensor:
        """Scaled catalog logits z = exp(logit_scale) * (o E^T), as one
        autodiff node named catalog_logits.

        Each logit is the dot product of the d-wide readout tangent with an
        item's embedding row (both tangents at the origin), multiplied by
        the learned scale s = exp(logit_scale). A (d,) readout gives (V,)
        through one matrix-vector product, a (B, d) batch (B, V) through one
        matrix product against a transposed view of the embeddings; the
        product is scaled in place, so the logits are the one catalog-sized
        array the forward allocates. The backward pass is written out by
        hand: g_o = (s g) E,
        g_E = (s g)^T o, which numpy lays out contiguous like the table, and
        g_logit_scale = sum(g z).
        """
        embeddings, logit_scale = self.params.embeddings, self.params.logit_scale
        o, E = o_vec.data, embeddings.data
        s = np.exp(logit_scale.data)
        z = E @ o if o.ndim == 1 else o @ E.T
        z *= s

        def back(g):
            gs = s * g
            g_E = np.multiply.outer(gs, o) if o.ndim == 1 else gs.T @ o
            return ((o_vec, gs @ E), (embeddings, g_E), (logit_scale, np.vdot(g, z)))

        return ad.primitive(z, "catalog_logits", (o_vec, embeddings, logit_scale), back)

    # -- stages ------------------------------------------------------------
    def _graph_attention(self, sb: SessionBatch, T: Tensor, k) -> tuple[Tensor, np.ndarray]:
        """One round of neighborhood attention in the tangent bundle, from
        and to packed (N, d) origin tangents T of the nodes.

        The score of a pair (i, j) is LeakyReLU(a_row.T_i + a_col.T_j + b) plus
        the pair's offset in ``sb.bias`` (the log of the transition count, or
        MASK_LOGIT off the neighbourhood). A linear score would lose the
        centre-node term and the bias to the row softmax's shift invariance;
        through the LeakyReLU they change the weights of any row whose scores
        straddle the kink. The nodes are mapped onto the hyperboloid of
        curvature k once, as packed rows; only the pair scores and the
        weighted sum of neighbor tangents (logarithms at the node) lay them
        out in the (B, n_max) slots. The sums are mapped back with exp at the
        node, and the result is handed on as its tangent at the origin.
        """
        if self.hyper.aggregator == "gcn_mean":
            attn = ad.softmax_rows(ad.constant(sb.bias))
        else:
            attn = pair_attention(T, self.params.attn_w, self.params.attn_b, sb.bias, sb.slots)
        X = manifold.exp_o_rows(T, k)
        agg = manifold.weighted_log_rows(attn, X, k, sb.slots)
        return manifold.log_o_rows(manifold.exp_map_rows(X, agg, k), k), attn.data

    def _fuse(self, per_layer: list[Tensor]) -> Tensor:
        """Convex combination of the origin tangents of all aggregation depths."""
        if self.hyper.aggregator == "gat_last_layer":
            return per_layer[-1]
        weights = ad.softmax_rows(self.params.fusion_logits)
        acc = None
        for l, t in enumerate(per_layer):
            term = ad.mul(weights[l], t)
            acc = term if acc is None else ad.add(acc, term)
        return acc

    def _self_attention_block(self, sb: SessionBatch, T: Tensor, blk: BlockParams, k) -> tuple[Tensor, np.ndarray]:
        """Scaled dot-product self-attention and feed-forward, from and to
        packed (N, d) origin tangents T, with a tangent skip link.

        The projections and the feed-forward work on the packed rows; only
        the attention itself lays them out in the (B, n_max) slots, where
        ``sb.key_mask`` offsets the logits of padding keys by MASK_LOGIT.
        The attention works on the tangents themselves. Each half of the
        feed-forward adds its hyperbolic bias b to the linear map's output
        tangents u on the hyperboloid of curvature k as one Lorentz boost:
        the boost of u applied to exp_o(b) is exp_h(PT_{o->h}(b)) at
        h = exp_o(u), and log_o takes it back to the origin tangent space.
        """
        q = ad.matmul(T, blk.w_query)
        key = ad.matmul(T, blk.w_key)
        v = ad.matmul(T, blk.w_value)
        # 1/sqrt(d + 1), not 1/sqrt(d): the temperature the model and the oracle are defined with
        f_tan, attn = self_attention(q, key, v, sb.key_mask, sb.slots, math.sqrt(self.hyper.dim + 1))

        h1 = manifold.boost_rows(ad.matmul(f_tan, ad.transpose(blk.ff_w1)), manifold.exp_o_rows(blk.ff_b1, k), k)
        act_tan = ad.leaky_relu(manifold.log_o_rows(h1, k), 0.2)
        h2 = manifold.boost_rows(ad.matmul(act_tan, ad.transpose(blk.ff_w2)), manifold.exp_o_rows(blk.ff_b2, k), k)
        return ad.add(manifold.log_o_rows(h2, k), f_tan), attn


def pair_attention(T: Tensor, attn_w: Tensor, attn_b: Tensor, bias: np.ndarray, slots: np.ndarray) -> Tensor:
    """Graph-attention weights of packed (N, d) node tangents T, as one
    autodiff node named pair_attention, laid out (B, n_max, n_max) like
    ``bias``.

    Row i of session b is the softmax over j of
    LeakyReLU(a_row.T_i + a_col.T_j + attn_b) + bias[b, i, j], with
    attn_w = (a_row, a_col). The two per-node terms are computed on the
    packed rows and laid out in ``slots``; a padding slot's terms are 0, and
    ``bias`` decides its weights. The forward runs the numpy operations of
    the chain of primitives this replaces, in its order; the backward is
    written out by hand.
    """
    lead = bias.shape[:-1]
    t, w = T.data, attn_w.data
    d = t.shape[-1]
    a_row = manifold.slot_layout(t @ w[:d], slots, lead)
    a_col = manifold.slot_layout(t @ w[d:], slots, lead)
    pair = a_row[..., :, None] + a_col[..., None, :] + attn_b.data
    y = ad.softmax_in_place(np.where(pair > 0, pair, ATTN_SLOPE * pair) + bias)

    def back(g):
        g_logits = y * (g - (g * y).sum(axis=-1, keepdims=True))
        g_pair = np.where(pair > 0, g_logits, ATTN_SLOPE * g_logits)
        g_row = g_pair.sum(axis=-1).reshape(-1)[slots]
        g_col = g_pair.sum(axis=-2).reshape(-1)[slots]
        g_T = np.multiply.outer(g_row, w[:d]) + np.multiply.outer(g_col, w[d:])
        g_w = np.concatenate([t.T @ g_row, t.T @ g_col])
        return ((T, g_T), (attn_w, g_w), (attn_b, np.asarray(g_pair.sum())))

    return ad.primitive(y, "pair_attention", (T, attn_w, attn_b), back)


def self_attention(
    q: Tensor, key: Tensor, v: Tensor, key_mask: np.ndarray, slots: np.ndarray, temperature: float
) -> tuple[Tensor, np.ndarray]:
    """Masked scaled dot-product attention of packed (N, d) query, key and
    value rows within each session, as one autodiff node named
    self_attention: softmax(q key^T / temperature + key_mask) v.

    The rows are laid out in ``slots`` of the (B, n_max) slots of
    ``key_mask`` (B, 1, n_max), padding slots holding zero rows. Returns the
    packed (N, d) outputs and the (B, n_max, n_max) weights. The forward
    runs the numpy operations of the chain of primitives this replaces, in
    its order; the backward is written out by hand.
    """
    lead = key_mask.shape[0], key_mask.shape[-1]
    qs, ks, vs = (manifold.slot_layout(t.data, slots, lead) for t in (q, key, v))
    # the keys transposed contiguous, as ad.transpose copies a batch
    attn = ad.softmax_in_place((qs @ np.swapaxes(ks, -1, -2).copy()) / temperature + key_mask)

    def packed(a):
        return a.reshape(-1, a.shape[-1])[slots]

    def back(g):
        g_out = manifold.slot_layout(g, slots, lead)
        g_attn = g_out @ np.swapaxes(vs, -1, -2)
        g_scores = attn * (g_attn - (g_attn * attn).sum(axis=-1, keepdims=True)) / temperature
        return (
            (q, packed(g_scores @ ks)),
            (key, packed(np.swapaxes(g_scores, -1, -2) @ qs)),
            (v, packed(np.swapaxes(attn, -1, -2) @ g_out)),
        )

    return ad.primitive(packed(attn @ vs), "self_attention", (q, key, v), back), attn


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


def _header_int(header: dict, name: str, default: int | None = None) -> int:
    """The header entry ``name`` (``default`` when absent, if given), which
    must be exactly an int, as HyperParams requires of its sizes."""
    value = header[name] if default is None else header.get(name, default)
    if type(value) is not int:  # int() would truncate 2.7 and parse "5"; a bool is not a count
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


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
            catalog_size = _header_int(header, "catalog_size")
            seed = _header_int(header, "rng_seed", 0)
            arrays = {name: npz[name] for name in npz.files if name != "header"}
        params = ModelParams.from_arrays(hyper, catalog_size, arrays)
    except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise _not_a_checkpoint(path, exc) from exc
    return HCGRModel(hyper, catalog_size, params), seed
