import csv
import json
import os
from collections import defaultdict

import numpy as np
import pytest

from hcgr import autodiff as ad
from hcgr import cli, dataset, manifold, metrics, training
from hcgr.model import load_checkpoint
from hcgr.training import TrainingNumericError


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture
def corpus(tmp_path):
    """Small synthetic corpus prepared for train/eval commands."""
    log = str(tmp_path / "synth.txt")
    prepared = str(tmp_path / "prepared.json")
    assert run("synth", "--items", "40", "--sessions", "240", "--seed", "5", "--output", log) == 0
    assert run("prepare", "--input", log, "--output", prepared, "--seed", "5") == 0
    return prepared


@pytest.fixture
def checkpoint(tmp_path, corpus):
    ckpt = str(tmp_path / "model.json")
    code = run(
        "train",
        "--data", corpus,
        "--checkpoint-out", ckpt,
        "--dim", "6",
        "--epochs", "2",
        "--batch-size", "16",
        "--learning-rate", "0.01",
        "--seed", "5",
    )
    assert code == 0
    return ckpt


class TestSynth:
    def test_writes_requested_sessions(self, tmp_path):
        out = str(tmp_path / "s.txt")
        assert run("synth", "--items", "30", "--sessions", "120", "--seed", "1", "--output", out) == 0
        lines = [l for l in open(out, encoding="utf-8") if l.strip() and not l.startswith("#")]
        assert len(lines) == 120

    def test_same_seed_identical_bytes(self, tmp_path):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        run("synth", "--items", "30", "--sessions", "60", "--seed", "2", "--output", a)
        run("synth", "--items", "30", "--sessions", "60", "--seed", "2", "--output", b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_too_few_items_is_usage_error(self, tmp_path):
        assert run("synth", "--items", "5", "--sessions", "10", "--seed", "0",
                   "--output", str(tmp_path / "x.txt")) == 2


class TestPrepare:
    def test_fixture_statistics(self, tmp_path, capsys):
        log = tmp_path / "fix.txt"
        log.write_text(
            "s1\ta b c d\ns2\ta b c d\ns3\td c b a\n", encoding="utf-8"
        )
        out = str(tmp_path / "prep.json")
        assert run("prepare", "--input", str(log), "--output", out, "--seed", "0") == 0
        printed = capsys.readouterr().out
        assert "sessions=3" in printed and "items=4" in printed

    def test_min_item_freq_one_keeps_rare_items(self, tmp_path, capsys):
        log = tmp_path / "fix.txt"
        log.write_text("s1\ta b c\ns2\ta b c\ns3\ta b d\n", encoding="utf-8")
        out = str(tmp_path / "prep.json")
        assert run("prepare", "--input", str(log), "--output", out, "--seed", "0",
                   "--min-item-freq", "1") == 0
        assert "items=4" in capsys.readouterr().out

    def test_same_seed_byte_identical(self, tmp_path):
        log = str(tmp_path / "synth.txt")
        run("synth", "--items", "25", "--sessions", "80", "--seed", "3", "--output", log)
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        run("prepare", "--input", log, "--output", a, "--seed", "3")
        run("prepare", "--input", log, "--output", b, "--seed", "3")
        assert open(a, "rb").read() == open(b, "rb").read()

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("thresholds", [(), ("--min-item-freq", "9", "--min-session-len", "5", "--max-session-len", "6")])
    def test_statistics_are_those_of_the_filtered_log(self, tmp_path, capsys, seed, thresholds):
        log = str(tmp_path / "synth.txt")
        run("synth", "--items", "60", "--sessions", "300", "--seed", str(seed), "--output", log)
        capsys.readouterr()
        assert run("prepare", "--input", log, "--output", str(tmp_path / "p.json"), "--seed", str(seed), *thresholds) == 0
        printed = capsys.readouterr().out.splitlines()
        args = dict(zip(thresholds[::2], map(int, thresholds[1::2])))
        sessions, _ = dataset.ingest(log)
        stats = dataset.corpus_stats(dataset.filter_sessions(
            sessions, args.get("--min-item-freq", 3), args.get("--min-session-len", 3), args.get("--max-session-len", 50)))
        assert printed[0] == f"sessions={stats['sessions']} items={stats['items']} behaviors={stats['behaviors']}"
        assert printed[1] == (f"avg_interactions_per_session={stats['avg_interactions_per_session']:.4f} "
                              f"avg_interactions_per_item={stats['avg_interactions_per_item']:.4f}")
        with open(tmp_path / "p.json", encoding="utf-8") as fh:
            assert json.load(fh)["stats"] == stats

    @pytest.mark.parametrize("text", ["", "# only a comment\n", "s1\ta b\ns2\tc d\n"])
    def test_empty_or_fully_filtered_log_exits_2_without_output(self, tmp_path, text):
        log = tmp_path / "log.txt"
        log.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert run("prepare", "--input", str(log), "--output", str(out / "p.json"), "--seed", "0") == 2
        assert not out.exists()

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        log = tmp_path / "bad.txt"
        log.write_text("line without tab\n", encoding="utf-8")
        assert run("prepare", "--input", str(log), "--output", str(tmp_path / "o.json"),
                   "--seed", "0") == 2
        assert "line 1" in capsys.readouterr().err


class TestTrain:
    def test_zero_epochs_writes_initial_checkpoint(self, tmp_path, corpus, capsys):
        ckpt = str(tmp_path / "init.json")
        assert run("train", "--data", corpus, "--checkpoint-out", ckpt,
                   "--dim", "6", "--epochs", "0", "--seed", "5") == 0
        printed = capsys.readouterr().out
        assert "epoch=" not in printed
        model, seed = load_checkpoint(ckpt)
        assert seed == 5 and model.hyper.dim == 6
        assert open(ckpt + ".epoch-log.txt", encoding="utf-8").read() == ""

    def test_training_writes_epoch_log_and_config(self, tmp_path, checkpoint):
        lines = open(checkpoint + ".epoch-log.txt", encoding="utf-8").read().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("epoch=1 loss=")
        conf = open(checkpoint + ".run-config.txt", encoding="utf-8").read()
        assert "dim=6" in conf and "seed=5" in conf

    def test_aggregator_flag_pass_through(self, tmp_path, corpus):
        ckpt = str(tmp_path / "gcn.json")
        assert run("train", "--data", corpus, "--checkpoint-out", ckpt, "--dim", "6",
                   "--epochs", "0", "--aggregator", "gcn_mean", "--seed", "5") == 0
        model, _ = load_checkpoint(ckpt)
        assert model.hyper.aggregator == "gcn_mean"

    def test_config_file_and_flag_precedence(self, tmp_path, corpus):
        conf = tmp_path / "run.conf"
        conf.write_text("dim=8\nepochs=0\nseed=9\n", encoding="utf-8")
        ckpt = str(tmp_path / "conf.json")
        assert run("train", "--data", corpus, "--config", str(conf),
                   "--checkpoint-out", ckpt, "--dim", "6") == 0
        model, seed = load_checkpoint(ckpt)
        assert model.hyper.dim == 6  # flag wins
        assert seed == 9  # file beats default

    @pytest.mark.parametrize("key", ["frobnicate", "threads", "data"])
    def test_unknown_config_key_aborts_before_output(self, tmp_path, corpus, capsys, key):
        conf = tmp_path / "bad.conf"
        conf.write_text(f"{key}=1\n", encoding="utf-8")
        ckpt = str(tmp_path / "never.json")
        assert run("train", "--data", corpus, "--config", str(conf),
                   "--checkpoint-out", ckpt) == 2
        assert not os.path.exists(ckpt)
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ["learning_rate=nan", "lr_decay=0", "lr_decay=-0.5", "lr_decay_every=0", "l2=nan", "margin=nan"]
    )
    def test_config_value_that_breaks_a_run_exits_2_before_output(self, tmp_path, corpus, capsys, line):
        conf = tmp_path / "bad.conf"
        conf.write_text(f"{line}\nepochs=1\n", encoding="utf-8")
        ckpt = tmp_path / "out" / "never.json"
        assert run("train", "--data", corpus, "--config", str(conf), "--checkpoint-out", str(ckpt),
                   "--dim", "6", "--seed", "5") == 2
        assert capsys.readouterr().err.startswith("error: " + line.split("=")[0])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("text", ["[1, 2]", '{"format": "hcgr-data-v1", "tokens": ["a"]}'])
    def test_malformed_prepared_data_exits_2(self, tmp_path, checkpoint, capsys, command, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        if command == "train":
            argv = ("train", "--data", str(bad), "--checkpoint-out", str(out / "m.json"), "--dim", "6", "--epochs", "0")
        else:
            argv = ("eval", "--data", str(bad), "--checkpoint", checkpoint, "--out", str(out / "m.csv"))
        assert run(*argv) == 2
        assert capsys.readouterr().err.startswith("error: prepared dataset")
        assert not out.exists()

    def test_summary_is_the_best_epochs_validation(self, tmp_path, corpus, capsys, monkeypatch):
        """The summary line reports the validation fit measured for the best
        epoch, which is not the last here; validation runs once per epoch."""
        evaluate, calls = metrics.evaluate, []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("ks"))
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(metrics, "evaluate", counted)
        monkeypatch.setattr(training, "evaluate", counted)
        ckpt = str(tmp_path / "out" / "model")
        capsys.readouterr()
        assert run("train", "--data", corpus, "--checkpoint-out", ckpt, "--dim", "6", "--epochs", "4",
                   "--batch-size", "16", "--learning-rate", "0.05", "--seed", "5") == 0
        printed = capsys.readouterr().out.splitlines()
        epochs = [line for line in printed if line.startswith("epoch=")]
        with open(tmp_path / "out" / "model.epoch-log.txt", encoding="utf-8", newline="") as fh:
            assert fh.read() == "".join(line + "\n" for line in epochs)
        assert calls == [(10, 20)] * len(epochs) == [(10, 20)] * 4
        summary = printed[len(epochs)]
        best = int(summary.split()[0].removeprefix("best_epoch="))
        assert best < len(epochs)
        # a fresh validation pass over the restored best-epoch parameters
        val = evaluate(load_checkpoint(ckpt)[0], dataset.load_prepared(corpus).valid, ks=(10, 20))
        assert summary == (
            f"best_epoch={best} val_hr10={val.hr[10]:.6f} val_hr20={val.hr[20]:.6f} "
            f"val_mrr10={val.mrr[10]:.6f} val_mrr20={val.mrr[20]:.6f}"
        )
        assert f"val_mrr20={val.mrr[20]:.6f} " in epochs[best - 1]

    def test_numeric_failure_exit_code(self, tmp_path, corpus, monkeypatch):
        def boom(*a, **kw):
            raise TrainingNumericError("epoch 1 batch 0: non-finite values produced by 'exp'")

        monkeypatch.setattr(cli, "fit", boom)
        assert run("train", "--data", corpus, "--checkpoint-out", str(tmp_path / "x.json"),
                   "--dim", "6", "--epochs", "1", "--seed", "5") == 3


class TestEval:
    def test_csv_shape_and_determinism(self, tmp_path, corpus, checkpoint):
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        assert run("eval", "--data", corpus, "--checkpoint", checkpoint, "--out", out_a) == 0
        assert run("eval", "--data", corpus, "--checkpoint", checkpoint, "--out", out_b) == 0
        rows = list(csv.reader(open(out_a, encoding="utf-8")))
        assert rows[0] == ["split", "K", "hit_rate", "ndcg", "mrr", "n"]
        assert len(rows) == 3
        assert [r[1] for r in rows[1:]] == ["10", "20"]
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

    def test_metric_values_within_range(self, tmp_path, corpus, checkpoint):
        out = str(tmp_path / "m.csv")
        run("eval", "--data", corpus, "--checkpoint", checkpoint, "--out", out)
        rows = list(csv.reader(open(out, encoding="utf-8")))[1:]
        for row in rows:
            for v in row[2:5]:
                assert 0.0 <= float(v) <= 1.0

    @pytest.mark.parametrize("ks", ["10,10", "0,10", "-1", "10,41", "ten", ""])
    def test_bad_or_repeated_ks_exits_2(self, tmp_path, corpus, checkpoint, capsys, ks):
        out = tmp_path / "m.csv"
        assert run("eval", "--data", corpus, "--checkpoint", checkpoint, "--ks", ks, "--out", str(out)) == 2
        assert "--ks" in capsys.readouterr().err
        assert not out.exists()

    def test_ks_up_to_catalog_size(self, tmp_path, corpus, checkpoint):
        out = str(tmp_path / "m.csv")
        n_items = load_checkpoint(checkpoint)[0].catalog_size
        assert run("eval", "--data", corpus, "--checkpoint", checkpoint, "--ks", f"{n_items},1", "--out", out) == 0
        rows = list(csv.reader(open(out, encoding="utf-8")))[1:]
        assert [r[1] for r in rows] == ["1", str(n_items)]
        assert rows[1][2] == "1.0"

    def test_bad_checkpoint_exits_2(self, tmp_path, corpus):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "other"}', encoding="utf-8")
        assert run("eval", "--data", corpus, "--checkpoint", str(bad),
                   "--out", str(tmp_path / "x.csv")) == 2

    def test_json_array_checkpoint_exits_2(self, tmp_path, corpus, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]", encoding="utf-8")
        assert run("eval", "--data", corpus, "--checkpoint", str(bad),
                   "--out", str(tmp_path / "x.csv")) == 2
        assert "hcgr-v2" in capsys.readouterr().err

    def test_non_integer_size_in_checkpoint_exits_2(self, tmp_path, corpus, checkpoint, capsys):
        with np.load(checkpoint) as npz:
            arrays = dict(npz)
        header = json.loads(arrays.pop("header").item())
        header["hyperparams"]["dim"] = float(header["hyperparams"]["dim"])
        bad = tmp_path / "float-dim"
        with open(bad, "wb") as fh:
            np.savez(fh, header=np.array(json.dumps(header)), **arrays)
        capsys.readouterr()
        assert run("eval", "--data", corpus, "--checkpoint", str(bad), "--out", str(tmp_path / "x.csv")) == 2
        assert "dim must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, value", [("catalog_size", 2.7), ("catalog_size", "6"), ("rng_seed", 6.9)])
    def test_non_integer_header_entry_exits_2(self, tmp_path, corpus, checkpoint, capsys, entry, value):
        with np.load(checkpoint) as npz:
            arrays = dict(npz)
        header = json.loads(arrays.pop("header").item())
        header[entry] = value
        bad = tmp_path / "bad-header"
        with open(bad, "wb") as fh:
            np.savez(fh, header=np.array(json.dumps(header)), **arrays)
        capsys.readouterr()
        assert run("eval", "--data", corpus, "--checkpoint", str(bad), "--out", str(tmp_path / "x.csv")) == 2
        assert f"{entry} must be an integer" in capsys.readouterr().err

    def test_catalog_mismatch_exits_2(self, tmp_path, corpus, checkpoint):
        log = str(tmp_path / "other.txt")
        run("synth", "--items", "20", "--sessions", "100", "--seed", "8", "--output", log)
        other = str(tmp_path / "other.json")
        run("prepare", "--input", log, "--output", other, "--seed", "8")
        assert run("eval", "--data", other, "--checkpoint", checkpoint,
                   "--out", str(tmp_path / "x.csv")) == 2


class TestAnalyze:
    def test_outputs(self, tmp_path, corpus, checkpoint):
        out_dir = str(tmp_path / "analysis")
        assert run("analyze", "--checkpoint", checkpoint, "--data", corpus,
                   "--out-dir", out_dir) == 0

        hier = list(csv.reader(open(os.path.join(out_dir, "hierarchy.csv"), encoding="utf-8")))
        assert len(hier) == 5  # header + 4 regions
        assert [r[0] for r in hier[1:]] == ["1", "2", "3", "4"]

        emb = list(csv.reader(open(os.path.join(out_dir, "embeddings.csv"), encoding="utf-8")))
        model, _ = load_checkpoint(checkpoint)
        assert len(emb) == 1 + model.catalog_size
        assert emb[0][:3] == ["item_id", "interaction_count", "dist_to_origin"]
        assert len(emb[0]) == 3 + model.hyper.dim + 1

        att = list(csv.reader(open(os.path.join(out_dir, "attention.csv"), encoding="utf-8")))
        assert att[0] == ["session", "kind", "layer", "src_item", "dst_item", "weight"]
        sums = defaultdict(float)
        for session, kind, layer, src, dst, w in att[1:]:
            sums[(session, kind, layer, src)] += float(w)
        assert sums, "attention export is empty"
        for total in sums.values():
            assert abs(total - 1.0) < 1e-9

    def test_two_runs_write_identical_files(self, tmp_path, corpus, checkpoint):
        dirs = [str(tmp_path / name) for name in ("a", "b")]
        for out_dir in dirs:
            assert run("analyze", "--checkpoint", checkpoint, "--data", corpus, "--out-dir", out_dir) == 0
        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1])) and "attention.csv" in names
        for name in names:
            a, b = (open(os.path.join(d, name), "rb").read() for d in dirs)
            assert a == b, name

    def test_attention_weights_are_the_one_session_forward(self, tmp_path, corpus, checkpoint):
        out_dir = str(tmp_path / "analysis")
        assert run("analyze", "--checkpoint", checkpoint, "--data", corpus, "--out-dir", out_dir) == 0
        model, _ = load_checkpoint(checkpoint)
        want = [["session", "kind", "layer", "src_item", "dst_item", "weight"]]
        for s_idx, (prefix, _) in enumerate(dataset.load_prepared(corpus).test[:10]):
            out = model.forward(prefix)
            items = model.batch([prefix]).node_ids[0].tolist()
            for kind, mats in (("graph", out.graph_attention), ("self", out.self_attention)):
                for layer, mat in enumerate(mats, start=1):
                    for i, j in np.ndindex(mat.shape):
                        if kind == "self" or mat[i, j] > 0.0:
                            want.append([str(s_idx), kind, str(layer), str(items[i]), str(items[j]), repr(float(mat[i, j]))])
        att = list(csv.reader(open(os.path.join(out_dir, "attention.csv"), encoding="utf-8")))
        assert att == want


class TestRunRecords:
    def test_outputs_sharing_a_directory_keep_every_record(self, tmp_path, corpus):
        # the corpus fixture wrote synth.txt and prepared.json into tmp_path
        for name, epochs in (("a", "1"), ("b", "2")):
            assert run("train", "--data", corpus, "--checkpoint-out", str(tmp_path / name), "--dim", "6",
                       "--epochs", epochs, "--batch-size", "16", "--seed", "5") == 0
        assert run("eval", "--data", corpus, "--checkpoint", str(tmp_path / "b"), "--out", str(tmp_path / "b.csv")) == 0
        outputs = ["synth.txt", "prepared.json", "a", "b", "b.csv"]
        records = [f"{name}.run-config.txt" for name in outputs] + ["a.epoch-log.txt", "b.epoch-log.txt"]
        assert sorted(os.listdir(tmp_path)) == sorted(outputs + records)
        config = {name: (tmp_path / f"{name}.run-config.txt").read_text(encoding="utf-8") for name in outputs}
        for name, command in zip(outputs, ["synth", "prepare", "train", "train", "eval"]):
            assert f"command={command}\n" in config[name]
        assert "epochs=1\n" in config["a"] and "epochs=2\n" in config["b"]
        for name, epochs in (("a", 1), ("b", 2)):
            lines = (tmp_path / f"{name}.epoch-log.txt").read_text(encoding="utf-8").splitlines()
            assert [line.split()[0] for line in lines] == [f"epoch={e}" for e in range(1, epochs + 1)]


class TestCheck:
    def test_quick_check_passes(self, capsys):
        assert run("check", "--level", "quick") == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_perturbed_exp_map_fails_roundtrip(self, monkeypatch, capsys):
        true_exp = manifold.exp_map_rows

        def warped(X, V, k):
            # exponentiate a slightly longer tangent: stays on the manifold,
            # breaks inversion against log_map
            return true_exp(X, ad.mul(V, 1.001), k)

        monkeypatch.setattr(manifold, "exp_map_rows", warped)
        assert run("check", "--level", "quick") == 1
        out = capsys.readouterr().out
        assert "roundtrip" in out.lower()

    def test_stretched_log_map_fails_roundtrip(self, monkeypatch, capsys):
        true_log = manifold.weighted_log_rows

        def stretched(A, X, k, slots):
            return ad.mul(true_log(A, X, k, slots), 1.001)

        monkeypatch.setattr(manifold, "weighted_log_rows", stretched)
        assert run("check", "--level", "quick") == 1
        assert "[FAIL] exp/log roundtrip" in capsys.readouterr().out

    def test_stretched_boost_fails_isometry(self, monkeypatch, capsys):
        true_boost = manifold.boost_rows

        def stretched(U, Y, k):
            return true_boost(U, ad.mul(Y, 1.001), k)

        monkeypatch.setattr(manifold, "boost_rows", stretched)
        assert run("check", "--level", "quick") == 1
        assert "[FAIL] transport inner-product preservation" in capsys.readouterr().out

    def test_stretched_distance_fails_log_length(self, monkeypatch, capsys):
        # a multiple of the metric keeps symmetry, the triangle inequality
        # and d(x, x) = 0; only the length of the log map tells them apart
        true_dist = manifold.dist_rows

        def stretched(X, Y, k):
            return ad.mul(true_dist(X, Y, k), 1.001)

        monkeypatch.setattr(manifold, "dist_rows", stretched)
        assert run("check", "--level", "quick") == 1
        out = capsys.readouterr().out
        assert "[FAIL] distance equals log length" in out
        assert out.count("[FAIL]") == 1


class TestSeedFallback:
    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HCGR_SEED", "77")
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        run("synth", "--items", "20", "--sessions", "30", "--output", a)
        run("synth", "--items", "20", "--sessions", "30", "--output", b)
        monkeypatch.setenv("HCGR_SEED", "78")
        c = str(tmp_path / "c.txt")
        run("synth", "--items", "20", "--sessions", "30", "--output", c)
        assert open(a, "rb").read() == open(b, "rb").read()
        assert open(a, "rb").read() != open(c, "rb").read()


class TestUsage:
    def test_no_command_exits_2(self):
        assert run() == 2

    def test_unknown_flag_exits_2(self):
        assert run("synth", "--bogus", "1") == 2
