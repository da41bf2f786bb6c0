"""Command-line entry point: prepare, synth, train, eval, analyze, check.

Configuration precedence is built-in defaults < config file < command-line
flags. Config files are ``key=value`` lines with ``#`` comments; unknown keys
abort before anything is written. The effective configuration is echoed next
to each command's output, as ``<output>.run-config.txt``; ``train`` also
writes ``<checkpoint>.epoch-log.txt``, and ``analyze`` writes
``run-config.txt`` into its output directory. So the records of commands that
share a directory do not overwrite each other.

Exit codes: 0 success, 1 check failure, 2 input/usage error, 3 numeric
failure during training or evaluation.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import fields

import numpy as np

from . import autodiff as ad
from . import checks, dataset, metrics
from .model import CheckpointError, HCGRModel, HyperParams, load_checkpoint, save_checkpoint
from .training import TrainConfig, TrainingNumericError, TrainState, fit


class UsageError(ValueError):
    pass


HYPER_KEYS = tuple(f.name for f in fields(HyperParams))
TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig))
CONFIG_TYPES = {f.name: type(f.default) for f in fields(HyperParams) + fields(TrainConfig)}


def _default_seed() -> int:
    env = os.environ.get("HCGR_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError as exc:
        raise UsageError(f"HCGR_SEED must be an integer, got {env!r}") from exc


def load_config_file(path: str) -> dict:
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_TYPES:
            raise UsageError(f"{path}:{lineno}: unknown config key '{key}'")
        try:
            values[key] = CONFIG_TYPES[key](value)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for '{key}': {exc}") from exc
    return values


def merge_config(args, keys) -> dict:
    """defaults < config file < flags, restricted to the requested keys."""
    merged = {**HyperParams().__dict__, **TrainConfig().__dict__}
    merged["seed"] = _default_seed()
    file_values = load_config_file(args.config) if getattr(args, "config", None) else {}
    merged.update({k: v for k, v in file_values.items() if k in keys})
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return {k: merged[k] for k in keys}


def write_run_config(path: str, conf: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(conf):
            fh.write(f"{key}={conf[key]}\n")


def _hyper_from(conf: dict) -> HyperParams:
    try:
        return HyperParams(**{k: conf[k] for k in HYPER_KEYS})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _train_config_from(conf: dict) -> TrainConfig:
    try:
        return TrainConfig(**{k: conf[k] for k in TRAIN_KEYS})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    if args.items < 10 or args.sessions < 1:
        raise UsageError("synth needs --items >= 10 and --sessions >= 1")
    seed = args.seed if args.seed is not None else _default_seed()
    sessions = dataset.synth_hierarchical(args.items, args.sessions, seed)
    os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
    dataset.write_session_log(args.output, sessions)
    write_run_config(args.output + ".run-config.txt", {"command": "synth", "items": args.items, "sessions": args.sessions, "seed": seed})
    print(f"wrote {len(sessions)} sessions over {args.items} items to {args.output}")
    return 0


def cmd_prepare(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    sessions, tokens = dataset.ingest(args.input)
    try:
        ds = dataset.preprocess(
            sessions,
            tokens,
            seed,
            min_item_freq=args.min_item_freq,
            min_session_len=args.min_session_len,
            max_session_len=args.max_session_len,
        )
    except (dataset.DataFormatError, dataset.EmptyDatasetError):
        raise
    except ValueError as exc:  # a threshold preprocess refuses
        raise UsageError(str(exc)) from exc
    # each pair is one filtered session: its prefix and its last click
    stats = dataset.corpus_stats([prefix + [target] for prefix, target in ds.train + ds.valid + ds.test])
    os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
    dataset.save_prepared(args.output, ds, seed, stats)
    write_run_config(
        args.output + ".run-config.txt",
        {
            "command": "prepare",
            "input": args.input,
            "seed": seed,
            "min_item_freq": args.min_item_freq,
            "min_session_len": args.min_session_len,
            "max_session_len": args.max_session_len,
        },
    )
    print(f"sessions={stats['sessions']} items={stats['items']} behaviors={stats['behaviors']}")
    print(
        f"avg_interactions_per_session={stats['avg_interactions_per_session']:.4f} "
        f"avg_interactions_per_item={stats['avg_interactions_per_item']:.4f}"
    )
    print(
        f"splits: train={len(ds.train)} valid={len(ds.valid)} test={len(ds.test)} -> {args.output}"
    )
    return 0


def cmd_train(args) -> int:
    conf = merge_config(args, HYPER_KEYS + TRAIN_KEYS)
    hyper = _hyper_from(conf)
    cfg = _train_config_from(conf)
    ds = dataset.load_prepared(args.data)
    model = HCGRModel.create(hyper, ds.n_items, cfg.seed)

    os.makedirs(os.path.dirname(os.path.abspath(args.checkpoint_out)), exist_ok=True)
    write_run_config(args.checkpoint_out + ".run-config.txt", {**conf, "command": "train", "data": args.data})

    log_lines: list[str] = []

    def log(line: str):
        log_lines.append(line)
        print(line)

    if cfg.epochs > 0:
        if not ds.train or not ds.valid:
            raise UsageError("training requires nonempty train and valid splits")
        state = fit(model, cfg, ds.train, ds.valid, log=log)
        val = state.best_metrics
        print(
            f"best_epoch={state.best_epoch} val_hr10={val.hr[10]:.6f} val_hr20={val.hr[20]:.6f} "
            f"val_mrr10={val.mrr[10]:.6f} val_mrr20={val.mrr[20]:.6f}"
        )
    save_checkpoint(args.checkpoint_out, model, cfg.seed)
    with open(args.checkpoint_out + ".epoch-log.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in log_lines)
    print(f"checkpoint -> {args.checkpoint_out}")
    return 0


def _load_model_for(args) -> tuple[HCGRModel, dataset.Dataset, int]:
    model, seed = load_checkpoint(args.checkpoint)
    ds = dataset.load_prepared(args.data)
    if model.catalog_size != ds.n_items:
        raise CheckpointError(
            f"checkpoint catalog size {model.catalog_size} != dataset items {ds.n_items}"
        )
    return model, ds, seed


def cmd_eval(args) -> int:
    model, ds, _ = _load_model_for(args)
    try:
        ks = tuple(sorted(int(k) for k in args.ks.split(",")))
    except ValueError as exc:
        raise UsageError(f"bad --ks value {args.ks!r}") from exc
    if len(set(ks)) < len(ks) or ks[0] < 1 or ks[-1] > model.catalog_size:
        raise UsageError(f"--ks {args.ks!r} needs distinct cutoffs in [1, {model.catalog_size}]")
    if not ds.test:
        raise UsageError("test split is empty")
    result = metrics.evaluate(model, ds.test, ks=ks)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["split", "K", "hit_rate", "ndcg", "mrr", "n"])
        for k in ks:
            writer.writerow(["test", k, repr(result.hr[k]), repr(result.ndcg[k]), repr(result.mrr[k]), result.n_evaluated])
    write_run_config(args.out + ".run-config.txt", {"command": "eval", "checkpoint": args.checkpoint, "data": args.data, "ks": args.ks})
    print(f"{'split':<6}{'K':>4}{'hit_rate':>12}{'ndcg':>12}{'mrr':>12}{'n':>8}")
    for k in ks:
        print(f"{'test':<6}{k:>4}{result.hr[k]:>12.6f}{result.ndcg[k]:>12.6f}{result.mrr[k]:>12.6f}{result.n_evaluated:>8}")
    print(f"metrics -> {args.out}")
    return 0


def cmd_analyze(args) -> int:
    model, ds, _ = _load_model_for(args)
    os.makedirs(args.out_dir, exist_ok=True)
    write_run_config(os.path.join(args.out_dir, "run-config.txt"), {"command": "analyze", "checkpoint": args.checkpoint, "data": args.data})

    rows = metrics.hierarchy_report(model, ds.train)
    with open(os.path.join(args.out_dir, "hierarchy.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["region", "n_items", "mean_distance", "mean_interactions"])
        for row in rows:
            writer.writerow([row["region"], row["n_items"], repr(row["mean_distance"]), repr(row["mean_interactions"])])

    counts = metrics.interaction_counts(ds.train, model.catalog_size)
    dists = model.embedding_distances()
    points, _ = model.catalog_points()
    width = points.shape[1]
    with open(os.path.join(args.out_dir, "embeddings.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item_id", "interaction_count", "dist_to_origin"] + [f"c{i+1}" for i in range(width)])
        for item in range(model.catalog_size):
            writer.writerow([item, int(counts[item]), repr(float(dists[item]))] + [repr(float(v)) for v in points[item]])

    with open(os.path.join(args.out_dir, "attention.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["session", "kind", "layer", "src_item", "dst_item", "weight"])
        with ad.no_grad():
            caches = model.caches()
            for s_idx, (prefix, _) in enumerate(ds.test[:10]):
                sb = model.batch([prefix])
                out = model.forward(sb, caches=caches)
                items = sb.node_ids[0].tolist()
                for layer, (mat,) in enumerate(out.graph_attention, start=1):
                    for i in range(mat.shape[0]):
                        for j in range(mat.shape[1]):
                            if mat[i, j] > 0.0:
                                writer.writerow([s_idx, "graph", layer, items[i], items[j], repr(float(mat[i, j]))])
                for block, (mat,) in enumerate(out.self_attention, start=1):
                    for i in range(mat.shape[0]):
                        for j in range(mat.shape[1]):
                            writer.writerow([s_idx, "self", block, items[i], items[j], repr(float(mat[i, j]))])
    print(f"analysis -> {args.out_dir}")
    return 0


def cmd_check(args) -> int:
    results = checks.manifold_check(dims=(2, 8), ks=(0.5, 1.0, 2.0), n=300, seed=0)
    failures = []
    for res in results:
        status = "ok" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: worst={res.worst:.3e} limit={res.limit:.1e}")
        if not res.passed:
            failures.append(res)
    if args.level == "full":
        report = checks.gradient_check_toy()
        status = "ok" if report.passed else "FAIL"
        print(
            f"[{status}] gradient check: max relative error={report.max_rel_error:.3e} "
            f"(worst parameter: {report.worst_param}, tolerance {report.tolerance:.1e})"
        )
        if not report.passed:
            failures.append(
                checks.CheckResult("gradient check", report.max_rel_error, report.tolerance)
            )
    if failures:
        worst = max(failures, key=lambda r: r.worst / r.limit if r.limit else np.inf)
        print(f"check failed: worst offender is '{worst.name}'")
        return 1
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hcgr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic hierarchical session log")
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--sessions", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prepare", help="ingest and preprocess a session log")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--min-item-freq", type=int, default=3, dest="min_item_freq")
    p.add_argument("--min-session-len", type=int, default=3, dest="min_session_len")
    p.add_argument("--max-session-len", type=int, default=50, dest="max_session_len")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model on a prepared dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--checkpoint-out", required=True, dest="checkpoint_out")
    for key in HYPER_KEYS + TRAIN_KEYS:
        p.add_argument(f"--{key.replace('_', '-')}", type=CONFIG_TYPES[key], default=None, dest=key)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--ks", default="10,20")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="export hierarchy, embedding and attention reports")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("check", help="run self-diagnostics")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (UsageError, dataset.DataFormatError, dataset.EmptyDatasetError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainingNumericError, ad.NumericError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
