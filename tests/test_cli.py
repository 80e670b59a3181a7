import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trfnet.baselines import DenseNetConfig
from trfnet.builder import BuildConfig, EvalReport, FinetuneHyper, save_report
from trfnet.cli import _parse_corruption, _parse_int_list, build_parser, main
from trfnet.dae import CorruptionConfig, DaeHyper
from trfnet.data import save_sparse_bow
from trfnet.synth import news_corpus


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    d = news_corpus(n_docs=250, vocab_size=100, n_classes=3, block_size=8, seed=4)
    docs, vocab = root / "docs.txt", root / "vocab.txt"
    save_sparse_bow(d, docs, vocab)
    emb = root / "emb.txt"
    rng = np.random.default_rng(0)
    with open(emb, "w", encoding="utf-8") as fh:
        fh.write("100 4\n")
        for name in d.feature_names:
            fh.write(name + " " + " ".join(f"{x:.4f}" for x in rng.normal(size=4)) + "\n")
    return {"docs": str(docs), "vocab": str(vocab), "emb": str(emb)}


def bow_flags(files):
    return ["--bow", files["docs"], "--vocab", files["vocab"]]


class TestTreeCommand:
    def test_dot_output_and_manifest(self, corpus_files, tmp_path):
        out = str(tmp_path / "t.dot")
        assert main(["tree", *bow_flags(corpus_files), "--out", out]) == 0
        dot = open(out).read()
        assert dot.count(" -- ") == 99  # V-1 edges
        assert dot.count("[label=") == 100 + 99  # V node labels + edge labels
        manifest = json.load(open(out + ".manifest.json"))
        assert manifest["command"] == "tree"
        assert any(k.endswith("docs.txt") for k in manifest["inputs"])
        edges = open(out + ".edges.txt").read().splitlines()
        assert edges[0].startswith("rank")

    def test_missing_data_is_usage_error(self, tmp_path):
        assert main(["tree", "--out", str(tmp_path / "t.dot")]) == 2

    @pytest.mark.parametrize("policy", ["bogus", "fixed:abc", "fixed:nan"])
    def test_bad_policy_is_usage_error(self, corpus_files, tmp_path, policy):
        out = str(tmp_path / "t.dot")
        assert main(["tree", *bow_flags(corpus_files), "--policy", policy, "--out", out]) == 2

    def test_missing_required_flag_exits_two(self, corpus_files):
        with pytest.raises(SystemExit) as exc:
            main(["tree", *bow_flags(corpus_files)])
        assert exc.value.code == 2

    def test_negative_top_edges_is_usage_error(self, corpus_files, tmp_path, capsys):
        out = tmp_path / "t.dot"
        assert main(["tree", *bow_flags(corpus_files), "--top-edges", "-1", "--out", str(out)]) == 2
        assert "--top-edges" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_top_edges_lists_no_edge(self, corpus_files, tmp_path):
        out = str(tmp_path / "t.dot")
        assert main(["tree", *bow_flags(corpus_files), "--top-edges", "0", "--out", out]) == 0
        assert open(out + ".edges.txt").read().splitlines() == ["rank\tmi\tnode_u\tnode_v"]

    def test_rerun_byte_identical(self, corpus_files, tmp_path):
        a, b = str(tmp_path / "a.dot"), str(tmp_path / "b.dot")
        main(["tree", *bow_flags(corpus_files), "--out", a])
        main(["tree", *bow_flags(corpus_files), "--out", b])
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_label_outside_int64_names_file_and_line(self, tmp_path, capsys):
        (tmp_path / "v.txt").write_text("a\nb\n")
        (tmp_path / "d.txt").write_text("0 1:1\n99999999999999999999999 0:1\n")
        flags = ["--bow", str(tmp_path / "d.txt"), "--vocab", str(tmp_path / "v.txt")]
        assert main(["tree", *flags, "--out", str(tmp_path / "t.dot")]) == 1
        err = capsys.readouterr().err
        assert "d.txt: line 2: label '99999999999999999999999' is outside int64" in err

    def test_inputs_never_mutated(self, corpus_files, tmp_path):
        before = (
            open(corpus_files["docs"], "rb").read(),
            open(corpus_files["vocab"], "rb").read(),
        )
        main(["tree", *bow_flags(corpus_files), "--out", str(tmp_path / "t.dot")])
        after = (
            open(corpus_files["docs"], "rb").read(),
            open(corpus_files["vocab"], "rb").read(),
        )
        assert before == after


@pytest.fixture(scope="module")
def model_path(corpus_files, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("model") / "m.trf")
    rc = main(
        [
            "build", *bow_flags(corpus_files),
            "--radius", "2", "--stride", "2", "--depth", "2",
            "--globals", "0.1", "--epochs", "4", "--seed", "7",
            "--out", out,
        ]
    )
    assert rc == 0
    return out


class TestBuildAndDownstream:
    def test_build_artifacts(self, model_path):
        from trfnet.builder import load

        net = load(model_path)
        assert net.depth == 2
        assert net.head is None
        log = open(model_path + ".train_log.csv").read().splitlines()
        assert log[0] == "layer,epoch,mean_loss"
        assert len(log) == 1 + 2 * 4  # two layers, four epochs each

    def test_finetune_eval_inspect_compare(self, corpus_files, model_path, tmp_path):
        tuned = str(tmp_path / "tuned.trf")
        report = str(tmp_path / "tuned.report")
        rc = main(
            [
                "finetune", "--model", model_path, *bow_flags(corpus_files),
                "--epochs", "15", "--patience", "10", "--seed", "7",
                "--out", tuned, "--report", report, "--name", "trf",
            ]
        )
        assert rc == 0
        assert "accuracy" in open(report).read()

        eval_report = str(tmp_path / "eval.report")
        rc = main(
            ["eval", "--model", tuned, *bow_flags(corpus_files), "--report", eval_report]
        )
        assert rc == 0

        table = str(tmp_path / "units.txt")
        rc = main(
            [
                "inspect", "--model", tuned, *bow_flags(corpus_files),
                "--top", "5", "--embeddings", corpus_files["emb"], "--out", table,
            ]
        )
        assert rc == 0
        lines = open(table).read().splitlines()
        assert lines[0].startswith("unit 0\t")
        assert lines[-1].startswith("model_interpretability ")

        compare_out = str(tmp_path / "cmp.txt")
        rc = main(["compare", report, eval_report, "--out", compare_out])
        assert rc == 0
        body = open(compare_out).read().splitlines()
        assert body[0].split()[:2] == ["model", "accuracy/auc"]
        assert len(body) == 3

    def test_inspect_prints_the_library_score(self, corpus_files, model_path, tmp_path):
        from trfnet.builder import load
        from trfnet.data import load_sparse_bow
        from trfnet.interpret import interpretability_score, load_embeddings

        table = tmp_path / "units.txt"
        rc = main(
            [
                "inspect", "--model", model_path, *bow_flags(corpus_files),
                "--top", "6", "--embeddings", corpus_files["emb"], "--out", str(table),
            ]
        )
        assert rc == 0
        key, printed = table.read_text().splitlines()[-1].split(" ")
        d = load_sparse_bow(corpus_files["docs"], corpus_files["vocab"])
        score = interpretability_score(load(model_path), d, load_embeddings(corpus_files["emb"]), 6)
        assert key == "model_interpretability"
        assert float(printed) == score

    @pytest.mark.parametrize("top", ["0", "-2"])
    def test_inspect_top_below_one_is_usage_error(self, corpus_files, model_path, tmp_path, capsys, top):
        out = tmp_path / "units.txt"
        rc = main(["inspect", "--model", model_path, *bow_flags(corpus_files), "--top", top, "--out", str(out)])
        assert rc == 2
        assert "--top" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_requires_labels_flag_message(self, model_path, tmp_path):
        missing = str(tmp_path / "nope.report")
        assert main(["eval", "--model", model_path, "--report", missing]) == 2

    def test_compare_names_the_damaged_report(self, tmp_path, capsys):
        good, bad = tmp_path / "good.report", tmp_path / "bad.report"
        save_report(EvalReport(parameter_count=3, sparsity=0.1, accuracy=0.5), good, name="good")
        bad.write_text(good.read_text().replace("accuracy 0.5\n", "accuracy 0.5\naccuracy 0.5\n"))
        assert main(["compare", str(good), str(bad), "--out", str(tmp_path / "table.txt")]) == 1
        err = capsys.readouterr().err
        assert f"error: {bad}: line 4: expected 'parameter_count', found 'accuracy 0.5'" in err


    def test_compare_scores_a_multitask_report_by_its_auc_mean(self, tmp_path):
        """The score column is EvalReport.score: the AUC mean without an accuracy, "-" with neither."""
        multi, unscored = tmp_path / "multi.report", tmp_path / "unscored.report"
        aucs = EvalReport(parameter_count=40, sparsity=0.5, auc_per_task=(0.75, -1.0))
        save_report(aucs, multi, name="multi")
        save_report(EvalReport(parameter_count=40, sparsity=0.5, auc_per_task=(-1.0, -1.0)), unscored, name="none")
        out = tmp_path / "table.txt"
        assert main(["compare", str(multi), str(unscored), "--out", str(out)]) == 0
        rows = [ln.split() for ln in out.read_text().splitlines()[1:]]
        assert rows == [["multi", "0.7500", "40", "50.00%", "-"], ["none", "-", "40", "50.00%", "-"]]


class TestBaselineCommand:
    @pytest.mark.parametrize(
        "kind,extra",
        [
            ("dense", []),
            ("prune", ["--keep", "0.2"]),
            ("l1", ["--strength", "1e-4"]),
        ],
    )
    def test_kinds_produce_model_and_report(self, corpus_files, tmp_path, kind, extra):
        out = str(tmp_path / f"{kind}.trf")
        rc = main(
            [
                "baseline", kind, *bow_flags(corpus_files),
                "--widths", "24", "--epochs", "10", "--patience", "5",
                "--seed", "3", "--out", out, *extra,
            ]
        )
        assert rc == 0
        text = open(out + ".report").read()
        assert "sparsity" in text
        if kind == "l1":
            assert "effective_sparsity" in text

    def test_prune_model_straight_from_build(self, corpus_files, model_path, tmp_path):
        from trfnet.builder import load

        out = str(tmp_path / "pruned.trf")
        rc = main(
            [
                "baseline", "prune", "--model", model_path, *bow_flags(corpus_files),
                "--keep", "0.2", "--epochs", "4", "--patience", "4",
                "--seed", "3", "--out", out,
            ]
        )
        assert rc == 0
        assert "sparsity" in open(out + ".report").read()
        assert load(out).head is not None

    def test_bad_widths_usage_error(self, corpus_files, tmp_path, capsys):
        rc = main(
            [
                "baseline", "dense", *bow_flags(corpus_files),
                "--widths", "x,y", "--out", str(tmp_path / "m.trf"),
            ]
        )
        assert rc == 2
        assert "error: --widths: expected comma-separated ints, got 'x,y'" in capsys.readouterr().err


def main_without_inputs(tmp_path, command, flag, value) -> int:
    """Run command with flag set to value on inputs that do not exist, so a
    flag that is not rejected before any input is read fails with exit 1."""
    missing = str(tmp_path / "missing.txt")
    data = ["--bow", missing, "--vocab", missing]
    argv = {
        "tree": ["tree", *data],
        "build": ["build", *data],
        "finetune": ["finetune", "--model", missing, *data],
        "baseline": ["baseline", "dense", *data],
        "eval": ["eval", "--model", missing, *data],
    }[command]
    return main([*argv, flag, value, "--report" if command == "eval" else "--out", str(tmp_path / "m.trf")])


class TestCountFlags:
    """A count below 1 is a usage error carrying its config's message after the flag."""

    FIELDS = {"--epochs": "epochs", "--depth": "depth", "--batch": "batch_size", "--patience": "patience"}

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("build", "--epochs", "0"),
            ("build", "--depth", "0"),
            ("build", "--batch", "0"),
            ("finetune", "--epochs", "0"),
            ("finetune", "--batch", "-1"),
            ("finetune", "--patience", "0"),
            ("baseline", "--epochs", "0"),
            ("baseline", "--batch", "0"),
            ("baseline", "--patience", "-3"),
        ],
    )
    def test_count_below_one_is_usage_error(self, tmp_path, capsys, command, flag, value):
        assert main_without_inputs(tmp_path, command, flag, value) == 2
        assert f"error: {flag}: {self.FIELDS[flag]} must be >= 1, got {value}\n" in capsys.readouterr().err
        assert not (tmp_path / "m.trf").exists()


class TestFitFlagDefaults:
    """The fit flags read their defaults from FinetuneHyper and DenseNetConfig."""

    FIELDS = {"epochs": "epochs", "batch": "batch_size", "step": "step_size",
              "dropout": "dropout_rate", "patience": "patience", "seed": "seed"}

    @pytest.mark.parametrize("argv", [["finetune", "--model", "m.trf"], ["baseline", "dense"]])
    def test_fit_flags_default_to_finetune_hyper(self, argv):
        args = build_parser().parse_args([*argv, "--out", "m.trf"])
        for flag, field in self.FIELDS.items():
            default = getattr(FinetuneHyper(), field)
            assert (getattr(args, flag), type(getattr(args, flag))) == (default, type(default)), flag

    def test_activation_defaults_to_finetune_hyper(self):
        args = build_parser().parse_args(["finetune", "--model", "m.trf", "--out", "m.trf"])
        assert args.activation == FinetuneHyper().activation
        assert args.reinit == FinetuneHyper().reinit

    def test_widths_default_to_dense_net_config(self):
        args = build_parser().parse_args(["baseline", "dense", "--out", "m.trf"])
        assert tuple(int(w) for w in args.widths.split(",")) == DenseNetConfig().hidden_widths


class TestBuildFlagDefaults:
    """The build flags read their defaults from BuildConfig, DaeHyper and CorruptionConfig."""

    def test_build_flags_default_to_the_configs(self):
        args = build_parser().parse_args(["build", "--out", "m.trf"])
        parsed = {
            (BuildConfig, "radius"): _parse_int_list(args.radius, "--radius"),
            (BuildConfig, "stride"): _parse_int_list(args.stride, "--stride"),
            (BuildConfig, "depth"): args.depth,
            (BuildConfig, "global_fraction"): args.globals_fraction,
            (BuildConfig, "seed"): args.seed,
            (DaeHyper, "epochs"): args.epochs,
            (DaeHyper, "batch_size"): args.batch,
            (DaeHyper, "step_size"): args.step,
            (DaeHyper, "loss_family"): args.family,
        }
        for (config, field), value in parsed.items():
            default = getattr(config, field)
            assert (value, type(value)) == (default, type(default)), field
        corruption = _parse_corruption(args.corruption, args.seed)
        assert corruption == CorruptionConfig() and type(corruption.rate) is type(CorruptionConfig.rate)


class TestRangeFlags:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("build", "--radius", "-1"),
            ("build", "--radius", "1,2"),
            ("build", "--stride", "0"),
            ("build", "--globals", "1.5"),
            ("build", "--family", "foo"),
            ("build", "--step", "0"),
            ("build", "--step", "-1"),
            ("build", "--step", "nan"),
            ("build", "--policy", "bogus"),
            ("tree", "--policy", "bogus"),
            ("finetune", "--step", "0"),
            ("finetune", "--dropout", "1.0"),
            ("finetune", "--activation", "foo"),
            ("finetune", "--train-frac", "1.5"),
            ("finetune", "--valid-frac", "-0.1"),
            ("baseline", "--widths", "0"),
            ("baseline", "--step", "-1"),
            ("baseline", "--dropout", "1.0"),
            ("baseline", "--keep", "0"),
            ("baseline", "--strength", "-1"),
            ("baseline", "--train-frac", "1.5"),
            ("finetune", "--name", "a\nb"),
            ("eval", "--name", "a\u2028b"),
            ("baseline", "--name", "a\rb"),
        ],
    )
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys, command, flag, value):
        assert main_without_inputs(tmp_path, command, flag, value) == 2
        assert f"error: {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "m.trf").exists()


class TestDeterminism:
    def test_build_rerun_byte_identical(self, corpus_files, tmp_path):
        outs = []
        for name in ("m1.trf", "m2.trf"):
            out = str(tmp_path / name)
            main(
                [
                    "build", *bow_flags(corpus_files),
                    "--radius", "1", "--stride", "2", "--depth", "1",
                    "--epochs", "2", "--seed", "5", "--out", out,
                ]
            )
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]


@pytest.fixture(scope="module")
def quick_start(tmp_path_factory):
    """The README quick start, with fewer epochs, on the fixture script's
    data; maps each command to the first output it names."""
    repo = Path(__file__).resolve().parents[1]
    root = tmp_path_factory.mktemp("quick")
    news = root / "news"
    path = os.pathsep.join(p for p in (str(repo / "src"), os.environ.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, str(repo / "scripts" / "make_news_fixture.py"), "--out-dir", str(news),
         "--docs", "300", "--vocab", "200", "--block-size", "8"],
        check=True, capture_output=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    train = ["--bow", str(news / "train.txt"), "--vocab", str(news / "vocab.txt")]
    test = ["--bow", str(news / "test.txt"), "--vocab", str(news / "vocab.txt")]
    fit = ["--epochs", "3", "--seed", "7"]

    def at(name):
        return str(root / name)

    commands = {
        "tree": ["tree", *train, "--out", at("news.dot")],
        "build": ["build", *train, "--radius", "3", "--stride", "3", "--depth", "2", *fit, "--out", at("news.trf")],
        "finetune": ["finetune", "--model", at("news.trf"), *train, *fit, "--out", at("tuned.trf")],
        "eval": ["eval", "--model", at("tuned.trf"), *test, "--report", at("test.report")],
        "baseline dense": ["baseline", "dense", *train, "--widths", "32", *fit, "--out", at("dense.trf")],
        "baseline prune": ["baseline", "prune", "--model", at("dense.trf"), *train, *fit, "--out", at("pruned.trf")],
        "baseline prune, no model": ["baseline", "prune", *train, "--widths", "32", *fit,
                                     "--out", at("pruned-base.trf")],
        "baseline l1": ["baseline", "l1", *train, "--widths", "32", *fit, "--out", at("l1.trf")],
        "inspect": ["inspect", "--model", at("tuned.trf"), *train,
                    "--embeddings", str(news / "embeddings.txt"), "--out", at("units.txt")],
        "compare": ["compare", at("test.report"), at("dense.trf.report"), "--out", at("table.txt")],
    }
    for argv in commands.values():
        assert main(argv) == 0, argv
    return {name: argv[argv.index("--report" if name == "eval" else "--out") + 1]
            for name, argv in commands.items()}


COMMAND_NAMES = ["tree", "build", "finetune", "eval", "baseline dense", "baseline prune", "baseline prune, no model",
                 "baseline l1", "inspect", "compare"]
THREAD_KEYS = {"TRFNET_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "cpu_affinity"}


class TestManifests:
    """Every command writes <first output>.manifest.json: its command, the
    digest of every input, its BLAS environment, and timings that hold a
    numeric total plus the library's stage timings."""

    @pytest.mark.parametrize("name", COMMAND_NAMES)
    def test_manifest_next_to_the_first_output(self, quick_start, name):
        manifest = json.load(open(quick_start[name] + ".manifest.json"))
        assert manifest["command"] == name.split()[0]
        assert manifest["outputs"][0] == quick_start[name]
        assert manifest["inputs"]
        for path, digest in manifest["inputs"].items():
            assert digest == "sha256:" + hashlib.sha256(open(path, "rb").read()).hexdigest()
        total = manifest["timings"]["total"]
        assert isinstance(total, float) and total > 0

    @pytest.mark.parametrize("name", COMMAND_NAMES)
    def test_manifest_names_its_blas_environment(self, quick_start, name):
        manifest = json.load(open(quick_start[name] + ".manifest.json"))
        assert manifest["blas"] == json.loads(json.dumps(np.show_config(mode="dicts")["Build Dependencies"]["blas"]))
        threads = manifest["threads"]
        assert set(threads) == THREAD_KEYS
        assert all(threads[var] == os.environ.get(var) for var in THREAD_KEYS - {"cpu_affinity"})
        assert isinstance(threads["cpu_affinity"], int) and 1 <= threads["cpu_affinity"] <= os.cpu_count()

    def test_manifest_records_the_thread_variables_a_run_sees(self, quick_start, tmp_path, monkeypatch):
        monkeypatch.setenv("TRFNET_THREADS", "3")
        monkeypatch.setenv("MKL_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        out = tmp_path / "table.txt"
        assert main(["compare", quick_start["eval"], "--out", str(out)]) == 0
        threads = json.load(open(f"{out}.manifest.json"))["threads"]
        assert (threads["TRFNET_THREADS"], threads["MKL_NUM_THREADS"], threads["OMP_NUM_THREADS"]) == ("3", "1", None)

    def test_eval_records_its_evaluate_timing(self, quick_start):
        timings = json.load(open(quick_start["eval"] + ".manifest.json"))["timings"]
        assert set(timings) == {"total", "evaluate"}

    def test_finetune_records_its_finetune_call(self, quick_start):
        timings = json.load(open(quick_start["finetune"] + ".manifest.json"))["timings"]
        assert set(timings) == {"total", "finetune"}
        assert all(isinstance(t, float) for t in timings.values())
        assert timings["finetune"] < timings["total"]

    @pytest.mark.parametrize("name", ["baseline dense", "baseline prune", "baseline l1"])
    def test_training_records_finetune_and_evaluate(self, quick_start, name):
        timings = json.load(open(quick_start[name] + ".manifest.json"))["timings"]
        assert set(timings) == {"total", "finetune", "evaluate"}
        assert all(isinstance(t, float) for t in timings.values())
        assert timings["finetune"] + timings["evaluate"] < timings["total"]

    def test_prune_without_a_model_records_its_dense_base_training(self, quick_start):
        timings = json.load(open(quick_start["baseline prune, no model"] + ".manifest.json"))["timings"]
        assert set(timings) == {"total", "base_finetune", "finetune", "evaluate"}
        assert all(isinstance(t, float) for t in timings.values())
        assert timings["base_finetune"] + timings["finetune"] < timings["total"]
