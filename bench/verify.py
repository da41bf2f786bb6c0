"""Correctness checks on the program's outputs, and a self-test showing that
each check rejects a deliberately corrupted output.

Every check recomputes its answer apart from the code under test (plain
numpy over the parameter arrays) or tests a property the method must have,
and raises :class:`CheckFailed` naming what disagreed.
"""

from __future__ import annotations

import math

import numpy as np

# Agreement required between the program and the numpy recomputation.
TOL = 1e-12


class CheckFailed(AssertionError):
    pass


def numpy_rank(scores: np.ndarray, target: int) -> int:
    """1 + #(s > s_t) + #(s == s_t and id < t): the rank under descending
    score with ties broken by ascending id."""
    s_t = scores[target]
    return 1 + int(np.count_nonzero(scores > s_t)) + int(np.count_nonzero(scores[:target] == s_t))


def metrics_from_ranks(ranks, ks) -> dict[str, dict[int, float]]:
    """HR, NDCG and MRR at each cutoff, summed in pair order."""
    out = {"hr": {}, "ndcg": {}, "mrr": {}}
    n = len(ranks)
    for k in ks:
        hits = [r for r in ranks if r <= k]
        out["hr"][k] = len(hits) / n
        out["ndcg"][k] = sum(1.0 / math.log2(r + 1.0) for r in hits) / n
        out["mrr"][k] = sum(1.0 / r for r in hits) / n
    return out


def check_eval(ranks, result, ks):
    """The program's evaluate() must equal metrics rebuilt from numpy ranks."""
    if result.n_evaluated != len(ranks):
        raise CheckFailed(f"evaluate counted {result.n_evaluated} pairs, expected {len(ranks)}")
    expect = metrics_from_ranks(ranks, ks)
    for kind in ("hr", "ndcg", "mrr"):
        got = getattr(result, kind)
        for k in ks:
            if not abs(got[k] - expect[kind][k]) <= TOL:
                raise CheckFailed(f"{kind}@{k}: evaluate {got[k]!r} vs numpy ranks {expect[kind][k]!r}")


def softmax_from_params(readout: np.ndarray, embeddings: np.ndarray, logit_scale: float) -> np.ndarray:
    """Catalog probabilities exp(logit_scale) * E o under a plain softmax."""
    z = math.exp(logit_scale) * (embeddings @ readout[1:])
    e = np.exp(z - z.max())
    return e / e.sum()


def check_yhat(yhat: np.ndarray, expect: np.ndarray):
    if yhat.shape != expect.shape:
        raise CheckFailed(f"yhat has shape {yhat.shape}, expected {expect.shape}")
    err = float(np.max(np.abs(yhat - expect)))
    if not err <= TOL:
        raise CheckFailed(f"yhat differs from the numpy softmax by {err:.3g}")
    if not np.all(yhat >= 0.0):
        raise CheckFailed("yhat has a negative entry")
    if not abs(float(yhat.sum()) - 1.0) <= TOL:
        raise CheckFailed(f"yhat sums to {float(yhat.sum())!r}")


def top_ids(p: np.ndarray, k: int) -> np.ndarray:
    return np.lexsort((np.arange(p.shape[0]), -p))[:k]


def check_top(top: np.ndarray, p: np.ndarray):
    expect = top_ids(p, len(top))
    if not np.array_equal(top, expect):
        raise CheckFailed(f"recommended {top.tolist()} but the numpy softmax ranks {expect.tolist()}")


def check_losses(losses):
    bad = [x for x in losses if not math.isfinite(x)]
    if not losses or bad:
        raise CheckFailed(f"non-finite or missing train losses: {bad or losses}")


def check_gradient(entries, tol: float):
    """entries: (name, index, analytic, central difference), compared by the
    relative error gradient_check uses."""
    for name, index, ana, fd in entries:
        rel = abs(fd - ana) / max(abs(fd), abs(ana), 1e-6)
        if not rel < tol:
            raise CheckFailed(f"d loss / d {name}{list(index)}: backward {ana!r} vs central difference {fd!r} (rel {rel:.3g})")


def check_checkpoint(saved: dict, loaded: dict, yhat_saved: list[bytes], yhat_loaded: list[bytes]):
    if saved.keys() != loaded.keys():
        raise CheckFailed(f"checkpoint parameter names differ: {sorted(saved.keys() ^ loaded.keys())}")
    for name, arr in saved.items():
        other = loaded[name]
        if arr.shape != other.shape or arr.tobytes() != other.tobytes():
            raise CheckFailed(f"checkpoint array {name} did not round-trip bit-exactly")
    for i, (a, b) in enumerate(zip(yhat_saved, yhat_loaded, strict=True)):
        if a != b:
            raise CheckFailed(f"yhat of session {i} differs after the checkpoint round trip")


def _expect_rejected(label: str, fn, *args):
    try:
        fn(*args)
    except CheckFailed:
        return
    raise CheckFailed(f"self-test: the {label} check accepted a corrupted output")


def self_test(*, ranks, eval_result, ks, yhat, yhat_expect, top, top_p, losses, gradient, tol, ckpt_saved, ckpt_loaded, ckpt_yhat):
    """Run every check on a corrupted copy of this run's own outputs; each
    must reject it."""
    ranks = list(ranks)
    ranks[int(np.argmin(ranks))] += 1  # one rank moved by one
    _expect_rejected("eval rank", check_eval, ranks, eval_result, ks)

    corrupted = yhat.copy()
    corrupted[int(np.argmax(corrupted))] += 1e-10  # one score perturbed
    _expect_rejected("yhat", check_yhat, corrupted, yhat_expect)
    _expect_rejected("yhat sign", check_yhat, -yhat_expect, -yhat_expect)

    swapped = top.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    _expect_rejected("top-20", check_top, swapped, top_p)

    _expect_rejected("loss", check_losses, list(losses) + [math.nan])

    name, index, ana, fd = gradient[0]
    _expect_rejected("gradient", check_gradient, [(name, index, ana * 1.01, fd)], tol)

    arr = ckpt_loaded["embeddings"].copy()
    arr.flat[0] = np.nextafter(arr.flat[0], np.inf)  # one checkpoint array changed
    _expect_rejected("checkpoint array", check_checkpoint, ckpt_saved, {**ckpt_loaded, "embeddings": arr}, ckpt_yhat, ckpt_yhat)
    flipped = list(ckpt_yhat)
    flipped[0] = flipped[0][:-1] + bytes([flipped[0][-1] ^ 1])
    _expect_rejected("checkpoint yhat", check_checkpoint, ckpt_saved, ckpt_loaded, ckpt_yhat, flipped)
