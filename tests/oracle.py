"""Straight-line numpy re-implementation of the forward pass.

Deliberately independent of the package internals: plain loops over nodes
and neighbor lists, one point at a time, composing the published formulas
step by step. Used to cross-check the vectorized model to 1e-9.
"""

import math

import numpy as np


def softplus(x: float) -> float:
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def curvature(kappa_raw: float) -> float:
    return softplus(kappa_raw) + 1e-4


def mink(x, y) -> float:
    return float(-x[0] * y[0] + x[1:] @ y[1:])


def dist(x, y, k: float) -> float:
    return math.sqrt(k) * math.acosh(max(-mink(x, y) / k, 1.0))


def project(x, k: float):
    out = np.array(x, dtype=float)
    out[0] = math.sqrt(k + float(out[1:] @ out[1:]))
    return out


def exp_map(x, v, k: float):
    nrm = math.sqrt(max(mink(v, v), 1e-30))
    sk = math.sqrt(k)
    out = math.cosh(nrm / sk) * x + sk * math.sinh(nrm / sk) * v / nrm
    return project(out, k)


def log_map(x, y, k: float):
    d = dist(x, y, k)
    u = y + (mink(x, y) / k) * x
    un = math.sqrt(max(mink(u, u), 1e-30))
    return d * u / un


def exp_o(v, k: float):
    space = np.array(v[1:], dtype=float)
    nrm = math.sqrt(max(float(space @ space), 1e-30))
    sk = math.sqrt(k)
    out = np.empty(len(v))
    out[0] = sk * math.cosh(nrm / sk)
    out[1:] = sk * math.sinh(nrm / sk) * space / nrm
    return project(out, k)


def log_o(x, k: float):
    sk = math.sqrt(k)
    d = sk * math.acosh(max(x[0] / sk, 1.0))
    space = np.array(x[1:], dtype=float)
    nrm = math.sqrt(max(float(space @ space), 1e-30))
    out = np.zeros(len(x))
    out[1:] = d * space / nrm
    return out


def origin(d: int, k: float):
    out = np.zeros(d + 1)
    out[0] = math.sqrt(k)
    return out


def transport(x, y, v, k: float):
    lx = log_map(x, y, k)
    ly = log_map(y, x, k)
    dsq = max(dist(x, y, k) ** 2, 1e-20)
    return v - (mink(lx, v) / dsq) * (lx + ly)


def hyp_matmul(W, x, k: float):
    t = W @ log_o(x, k)
    t[0] = 0.0
    return exp_o(t, k)


def hyp_bias_add(x, b, k: float):
    o = origin(len(x) - 1, k)
    bt = np.array(b, dtype=float)
    bt[0] = 0.0
    return exp_map(x, transport(o, x, bt, k), k)


def hyp_activation(x, act, k_from: float, k_to: float):
    return exp_o(act(log_o(x, k_from)), k_to)


def leaky_relu(x: float) -> float:
    return x if x > 0 else 0.2 * x


def softmax(z):
    e = np.exp(z - np.max(z))
    return e / e.sum()


def build_graph(items):
    nodes, index = [], {}
    for v in items:
        if v not in index:
            index[v] = len(nodes)
            nodes.append(v)
    edges = {}
    for a, b in zip(items, items[1:]):
        key = (index[a], index[b])
        edges[key] = edges.get(key, 0) + 1
    for i in range(len(nodes)):
        edges.setdefault((i, i), 1)
    return nodes, index[items[-1]], edges


def union_neighbors(edges, n, i):
    weights = {}
    for (a, b), w in edges.items():
        if a == i and b == i:
            weights[i] = weights.get(i, 0) + w
        elif a == i:
            weights[b] = weights.get(b, 0) + w
        elif b == i:
            weights[a] = weights.get(a, 0) + w
    return sorted(weights.items())


def forward(model, items):
    """Probability vector over the catalog, mirroring HCGRModel.forward."""
    hyper = model.hyper
    p = model.params.state_arrays()
    # the model keeps tangents at the origin d-wide; zero-pad its parameters
    # back into the (d+1)-wide layout with a time coordinate of 0
    d = hyper.dim
    p["attn_w"] = np.concatenate([[0.0], p["attn_w"][:d], [0.0], p["attn_w"][d:]])
    for name, arr in list(p.items()):
        if name.startswith("block.") and arr.ndim:
            p[name] = np.pad(arr, [(1, 0) if n == d else (0, 0) for n in arr.shape])
    items = list(items)[-hyper.max_session_len :]
    L = hyper.graph_layers
    J = hyper.attention_blocks
    k_graph = [curvature(float(p[f"graph_kappa.{l}"])) for l in range(L + 1)]
    k_block = [curvature(float(p[f"block.{j}.kappa"])) for j in range(J)]
    emb = p["embeddings"]
    width = emb.shape[1] + 1

    nodes, last_pos, edges = build_graph(items)
    n = len(nodes)
    X = [exp_o(np.concatenate([[0.0], emb[v]]), k_graph[0]) for v in nodes]
    per_layer = [X]
    attn_u = p["attn_w"][:width]
    attn_v = p["attn_w"][width:]
    b_a = float(p["attn_b"])
    for l in range(1, L + 1):
        k = k_graph[l]
        X = [exp_o(log_o(x, k_graph[l - 1]), k) for x in per_layer[-1]]
        T = [log_o(x, k) for x in X]
        out = []
        for i in range(n):
            nbrs = union_neighbors(edges, n, i)
            logits = np.array(
                [leaky_relu(float(attn_u @ T[i] + attn_v @ T[j]) + b_a) + math.log(w) for j, w in nbrs]
            )
            w = softmax(logits)
            tangent = np.zeros(width)
            for wj, (j, _) in zip(w, nbrs):
                tangent = tangent + wj * log_map(X[i], X[j], k)
            out.append(exp_map(X[i], tangent, k))
        X = out
        per_layer.append(X)

    alpha = softmax(p["fusion_logits"])
    Z = []
    for i in range(n):
        acc = np.zeros(width)
        for l in range(L + 1):
            acc = acc + alpha[l] * log_o(per_layer[l][i], k_graph[l])
        Z.append(exp_o(acc, k_graph[L]))

    E = Z
    k_prev = k_graph[L]
    for j in range(J):
        k = k_block[j]
        E = [exp_o(log_o(e, k_prev), k) for e in E]
        T = np.stack([log_o(e, k) for e in E])
        q = T @ p[f"block.{j}.w_query"]
        key = T @ p[f"block.{j}.w_key"]
        v = T @ p[f"block.{j}.w_value"]
        scores = q @ key.T / math.sqrt(width)
        F = []
        for i in range(n):
            ft = softmax(scores[i]) @ v
            ft[0] = 0.0
            F.append(exp_o(ft, k))
        out = []
        for i in range(n):
            h = hyp_matmul(p[f"block.{j}.ff_w1"], F[i], k)
            h = hyp_bias_add(h, p[f"block.{j}.ff_b1"], k)
            h = hyp_activation(h, lambda t: np.where(t > 0, t, 0.2 * t), k, k)
            h = hyp_matmul(p[f"block.{j}.ff_w2"], h, k)
            h = hyp_bias_add(h, p[f"block.{j}.ff_b2"], k)
            out.append(exp_o(log_o(h, k) + log_o(F[i], k), k))
        E = out
        k_prev = k

    gate = 1.0 / (1.0 + math.exp(-float(p["gate_logit"])))
    o_vec = gate * log_o(E[last_pos], k_prev) + (1.0 - gate) * log_o(Z[last_pos], k_graph[L])

    scale = math.exp(float(p["logit_scale"]))
    logits = np.array(
        [
            scale * float(o_vec @ log_o(exp_o(np.concatenate([[0.0], emb[i]]), k_graph[0]), k_graph[0]))
            for i in range(emb.shape[0])
        ]
    )
    return softmax(logits)
