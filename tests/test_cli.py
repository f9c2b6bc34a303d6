"""End-to-end CLI behavior on the shipped fixture files."""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cobar import CobarModel, Fallback, cli, evaluation, parse_ratings
from cobar.clustering import clusterable_users

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvaluate:
    def test_report_structure(self, data_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(
            capsys,
            "evaluate",
            "--data", str(data_dir / "two_clusters.tsv"),
            "--algos", "cobar,mp",
            "--folds", "5",
            "--seed", "42",
            "--out", str(out),
        )
        assert code == 0
        assert "cobar" in stdout and "mp" in stdout
        payload = json.loads(out.read_text())
        assert payload["folds"] == 5
        assert len(payload["results"]["cobar"]["fold_rmse"]) == 5
        assert len(payload["wilcoxon"]) == 1

    def test_missing_file_names_path(self, capsys):
        code, _, stderr = run_cli(capsys, "evaluate", "--data", "/nope/missing.tsv", "--algos", "mp")
        assert code != 0
        assert "/nope/missing.tsv" in stderr

    def test_data_directory_exits_2(self, tmp_path, capsys):
        # the path exists, but reading it fails
        code, stdout, stderr = run_cli(capsys, "evaluate", "--data", str(tmp_path), "--algos", "mp")
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: ") and str(tmp_path) in stderr

    def test_deterministic_reports(self, data_dir, tmp_path, capsys):
        args = [
            "evaluate",
            "--data", str(data_dir / "two_clusters.tsv"),
            "--algos", "cobar,mp,mf",
            "--folds", "4",
            "--seed", "7",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(capsys, *args, "--out", str(a))[0] == 0
        assert run_cli(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_algorithm_fails(self, data_dir, capsys):
        code, _, stderr = run_cli(
            capsys, "evaluate", "--data", str(data_dir / "two_clusters.tsv"), "--algos", "zz"
        )
        assert code != 0
        assert "unknown algorithm" in stderr

    def test_clustering_budget_guard(self, data_dir, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_CLUSTERING_USERS", 3)
        with pytest.raises(SystemExit) as exc:
            cli.main(["evaluate", "--data", str(data_dir / "two_clusters.tsv"), "--algos", "cobar"])
        assert "--max-users" in str(exc.value)
        # the memory the guard protects: the condensed distances
        n = len(clusterable_users(parse_ratings(data_dir / "two_clusters.tsv")))
        assert f"n(n-1)/2 float64 distances, {4 * n * (n - 1) / 2**20:.3g} MB for {n} users" in str(exc.value)

    def test_max_users_subsampling_unlocks_run(self, data_dir, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_CLUSTERING_USERS", 6)
        code, stdout, _ = run_cli(
            capsys,
            "evaluate",
            "--data", str(data_dir / "two_clusters.tsv"),
            "--algos", "cobar,mp",
            "--folds", "3",
            "--max-users", "6",
        )
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["--wilcoxon-level", "1.5"],
        ["--wilcoxon-level", "0"],
        ["--algos", ","],
        ["--algos", "mp,mp"],
        ["--confidence", "1.5"],
        ["--out", "{missing}/r.json"],
        ["--mf-lr", "nan"],
        ["--out", "{directory}"],
    ])
    def test_bad_input_exits_2_before_any_fold(self, data_dir, tmp_path, capsys, monkeypatch, argv):
        def no_fold(*args):
            raise AssertionError("a fold was built")

        monkeypatch.setattr(evaluation, "fold_train_test", no_fold)
        argv = [arg.format(missing=tmp_path / "missing", directory=tmp_path) for arg in argv]
        code, stdout, stderr = run_cli(
            capsys, "evaluate", "--data", str(data_dir / "two_clusters.tsv"), "--algos", "mp", *argv
        )
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: ")

    def test_knn_k_past_a_c_integer_runs(self, data_dir, capsys, each_backend):
        for _ in each_backend:
            code, stdout, stderr = run_cli(
                capsys, "evaluate", "--data", str(data_dir / "two_clusters.tsv"), "--algos", "uknn,iknn",
                "--folds", "3", "--knn-k", "99999999999999999999",
            )
            assert (code, stderr) == (0, "")
            assert "uknn" in stdout and "iknn" in stdout

    @pytest.mark.parametrize("flag, value", [("--seed", "-5"), ("--subsample-seed", "-1")])
    def test_negative_seed_named_before_the_parse(self, data_dir, capsys, monkeypatch, flag, value):
        def no_parse(*args, **kwargs):
            raise AssertionError("the file was parsed")

        monkeypatch.setattr(cli, "parse_ratings", no_parse)
        with pytest.raises(SystemExit) as exc:
            cli.main(["evaluate", "--data", str(data_dir / "two_clusters.tsv"), "--max-users", "5", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: seed must be non-negative, got {value}" in capsys.readouterr().err

    def test_budget_ignored_without_cobar(self, data_dir, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_CLUSTERING_USERS", 3)
        code, _, _ = run_cli(
            capsys,
            "evaluate",
            "--data", str(data_dir / "two_clusters.tsv"),
            "--algos", "mp",
            "--folds", "3",
        )
        assert code == 0

    def test_book_crossing_like_scale(self, tmp_path, capsys, monkeypatch, each_backend):
        # Book-Crossing rates 0-10 with implicit zeros: about 40% of the
        # ratings are 0, and some users rated nothing but 0, so they stay out
        # of the hierarchy and take the unclustered_user fallback
        rng = np.random.default_rng(2018)
        lines = []
        for u in range(80):
            for i in rng.choice(50, size=int(rng.integers(3, 16)), replace=False):
                zero = u % 10 == 0 or rng.random() < 0.33
                lines.append(f"u{u}\ti{i}\t{0 if zero else int(rng.integers(1, 11))}\n")
        path = tmp_path / "bookcrossing_like.tsv"
        path.write_text("".join(lines))
        ds = parse_ratings(path)
        assert abs(np.mean(ds.ratings == 0.0) - 0.4) < 0.05
        unclustered = set(range(ds.n_users)) - set(clusterable_users(ds).tolist())
        assert {ds.user_index(f"u{u}") for u in range(0, 80, 10)} <= unclustered
        fallbacks = Counter()
        bind = CobarModel._bind

        def counted_bind(model):
            # `predict` is the bound query, set on the model by `_bind`,
            # and does not pass through `predict_detailed`
            bind(model)
            predict = model.predict

            def counted(user, item):
                fallbacks[model.predict_detailed(user, item).fallback] += 1
                return predict(user, item)

            model.predict = counted

        monkeypatch.setattr(CobarModel, "_bind", counted_bind)
        fold_rmse = {}
        for backend in each_backend:
            out = tmp_path / f"{backend}.json"
            code, _, _ = run_cli(
                capsys, "evaluate", "--data", str(path), "--folds", "3", "--seed", "11",
                "--mf-epochs", "5", "--out", str(out),
            )
            assert code == 0
            results = json.loads(out.read_text())["results"]
            assert sorted(results) == ["cobar", "iknn", "mf", "mp", "uknn"]
            # mf's dot products may sum in another order on each backend
            fold_rmse[backend] = {algo: results[algo]["fold_rmse"] for algo in ("cobar", "mp", "uknn", "iknn")}
        assert fold_rmse["python"] == fold_rmse["c"]
        assert fallbacks[Fallback.UNCLUSTERED_USER] > 0


class TestPredict:
    def test_worked_example_output(self, data_dir, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "predict",
            "--data", str(data_dir / "demo.tsv"),
            "--user", "1",
            "--item", "100",
        )
        assert code == 0
        assert "predicted rating : 3.1000" in stdout
        assert "user mean        : 3.4000" in stdout
        assert "cluster mean     : 2.8000" in stdout
        assert "3 users" in stdout
        assert "  interval half-width at 95%: 0.5000\n" in stdout   # the README's line

    @pytest.mark.parametrize("level, shown", [("0.999", "99.9%"), ("0.975", "97.5%")])
    def test_level_is_shown_unrounded(self, data_dir, capsys, level, shown):
        # not rounded to a whole percent, where 0.999 would read 100%
        code, stdout, _ = run_cli(capsys, "predict", "--data", str(data_dir / "demo.tsv"), "--user", "1",
                                  "--item", "100", "--confidence", level)
        assert code == 0
        assert f"  interval half-width at {shown}: " in stdout

    def test_gamma_zero_is_cluster_mean(self, data_dir, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "predict",
            "--data", str(data_dir / "demo.tsv"),
            "--user", "1",
            "--item", "100",
            "--gamma", "0",
        )
        assert code == 0
        assert "predicted rating : 2.8000" in stdout

    def test_single_rating_fallback_reported(self, tmp_path, capsys):
        path = tmp_path / "single.tsv"
        path.write_text("a\tx\t4.0\na\tw\t2.0\nb\ty\t1.0\nb\tw\t3.0\n")
        code, stdout, _ = run_cli(
            capsys,
            "predict",
            "--data", str(path),
            "--user", "b",
            "--item", "x",   # rated once, by a only
        )
        assert code == 0
        assert "fallback         : single_rating" in stdout
        assert "predicted rating : 2.0000" in stdout   # b's mean of {1, 3}

    def test_unclustered_user_fallback_reported(self, tmp_path, capsys):
        path = tmp_path / "zeros.tsv"
        path.write_text("a\tx\t0\na\ty\t0\nb\tx\t3\nc\tx\t5\n")
        code, stdout, _ = run_cli(capsys, "predict", "--data", str(path), "--user", "a", "--item", "x")
        assert code == 0
        assert "fallback         : unclustered_user" in stdout   # x has three ratings
        assert "predicted rating : 0.0000" in stdout   # a's mean

    def test_unknown_user_errors(self, data_dir, capsys):
        code, _, stderr = run_cli(
            capsys,
            "predict",
            "--data", str(data_dir / "demo.tsv"),
            "--user", "nobody",
            "--item", "100",
        )
        assert code != 0
        assert "nobody" in stderr

    @pytest.mark.parametrize("user,item,message", [
        ("nobody", "100", "unknown user id 'nobody'"),
        ("1", "nothing", "unknown item id 'nothing'"),
    ], ids=["user", "item"])
    def test_unknown_id_rejected_before_fit(self, data_dir, tmp_path, capsys, monkeypatch, user, item, message):
        def no_fit(*args):
            raise AssertionError("the model was fitted")

        monkeypatch.setattr(cli.CobarModel, "fit", no_fit)
        out = tmp_path / "tree.txt"
        code, stdout, stderr = run_cli(
            capsys,
            "predict",
            "--data", str(data_dir / "demo.tsv"),
            "--user", user,
            "--item", item,
            "--dendrogram-out", str(out),
        )
        assert code == 2
        assert stdout == ""
        assert stderr == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("user,item,message", [
        ("1", "100", "unknown user id '1' in the --max-users 2 subsample (--subsample-seed 7); the file has it"),
        ("4", "200", "unknown item id '200' in the --max-users 2 subsample (--subsample-seed 7); the file has it"),
        ("nobody", "100", "unknown user id 'nobody'"),
        ("4", "nothing", "unknown item id 'nothing'"),
    ], ids=["dropped-user", "dropped-item", "unknown-user", "unknown-item"])
    def test_id_dropped_by_the_subsample_is_named_so(self, data_dir, capsys, user, item, message):
        # seed 7 keeps users 4 and 5 of the demo file, and so not item 200
        code, stdout, stderr = run_cli(
            capsys,
            "predict",
            "--data", str(data_dir / "demo.tsv"),
            "--user", user,
            "--item", item,
            "--max-users", "2",
        )
        assert (code, stdout, stderr) == (2, "", f"error: {message}\n")

    def test_missing_dendrogram_dir_exits_2_before_loading(self, data_dir, tmp_path, capsys, monkeypatch):
        def no_parse(*args, **kwargs):
            raise AssertionError("the data was loaded")

        monkeypatch.setattr(cli, "parse_ratings", no_parse)
        out = tmp_path / "missing" / "tree.txt"
        code, stdout, stderr = run_cli(
            capsys,
            "predict",
            "--data", str(data_dir / "demo.tsv"),
            "--user", "1",
            "--item", "100",
            "--dendrogram-out", str(out),
        )
        assert code == 2
        assert stdout == ""
        assert stderr == f"error: output directory not found: {out.parent} (for {out})\n"

    def test_dendrogram_out_directory_exits_2_before_loading(self, data_dir, tmp_path, capsys, monkeypatch):
        def no_parse(*args, **kwargs):
            raise AssertionError("the data was loaded")

        monkeypatch.setattr(cli, "parse_ratings", no_parse)
        code, stdout, stderr = run_cli(capsys, "predict", "--data", str(data_dir / "demo.tsv"), "--user", "1",
                                       "--item", "100", "--dendrogram-out", str(tmp_path))
        assert code == 2
        assert stdout == ""
        assert stderr == f"error: output path is a directory: {tmp_path}\n"

    def test_dendrogram_export(self, data_dir, tmp_path, capsys):
        out = tmp_path / "tree.txt"
        code, _, _ = run_cli(
            capsys,
            "predict",
            "--data", str(data_dir / "demo.tsv"),
            "--user", "1",
            "--item", "100",
            "--dendrogram-out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4   # 5 users -> 4 merges
        for line in lines:
            parts = line.split()
            assert len(parts) == 4
            float(parts[2])

    def test_baseline_flags_rejected(self, data_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["predict", "--data", str(data_dir / "demo.tsv"), "--user", "1", "--item", "100",
                      "--knn-k", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --knn-k 5" in capsys.readouterr().err


@pytest.mark.parametrize("clamp_args,golden", [([], "two_clusters_cv"), (["--no-clamp"], "two_clusters_cv_no_clamp")])
def test_golden_report(data_dir, tmp_path, capsys, clamp_args, golden):
    """The report and table of a fixed evaluation, against outputs committed
    when they were first produced.  mf is left out: its bits depend on the
    kernel backend."""
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(
        capsys,
        "evaluate",
        "--data", str(data_dir / "two_clusters.tsv"),
        "--algos", "cobar,mp,uknn,iknn",
        "--folds", "5",
        "--seed", "42",
        *clamp_args,
        "--out", str(out),
    )
    assert code == 0
    got = json.loads(out.read_text())
    want = json.loads((GOLDEN_DIR / f"{golden}.json").read_text())
    for report in (got, want):
        del report["metadata"]["data_path"], report["metadata"]["kernel_backend"]
    assert got == want
    table = stdout.split(f"\n\nreport written to {out}")[0]
    assert table + "\n" == (GOLDEN_DIR / f"{golden}.txt").read_text()


class TestParsing:
    def test_comma_delimiter_flag(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        path.write_text("u1,i1,3.0\nu1,i2,4.0\nu2,i1,2.0\nu2,i2,1.0\n")
        code, stdout, _ = run_cli(
            capsys,
            "predict",
            "--data", str(path),
            "--delimiter", "comma",
            "--user", "u1",
            "--item", "i1",
        )
        assert code == 0

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.tsv"
        path.write_text("u1\ti1\tgood\n")
        code, _, stderr = run_cli(capsys, "evaluate", "--data", str(path), "--algos", "mp")
        assert code != 0
        assert "line 1" in stderr

    @pytest.mark.parametrize("command, flag, value, message", [
        ("evaluate", "--knn-k", "0", "neighbor count must be >= 1, got 0"),
        ("evaluate", "--mf-factors", "0", "factors must be >= 1"),
        ("evaluate", "--mf-lr", "nan", "learning_rate must be finite and > 0, got nan"),
        ("evaluate", "--mf-reg", "-1", "regularization must be finite and >= 0, got -1.0"),
        ("evaluate", "--mf-epochs", "-1", "epochs must be >= 0"),
        ("evaluate", "--folds", "1", "fold count must be >= 2, got 1"),
        ("evaluate", "--max-users", "0", "max_users must be >= 1"),
        ("evaluate", "--wilcoxon-level", "1.5", "Wilcoxon level must be in (0, 1), got 1.5"),
        ("evaluate", "--gamma", "2", "gamma must be in [0, 1], got 2.0"),
        ("evaluate", "--confidence", "1", "confidence level must be in (0, 1), got 1.0"),
        ("evaluate", "--algos", "mp,foo", "unknown algorithm(s) ['foo']; registered: "
                                          "['cobar', 'iknn', 'mf', 'mp', 'uknn']"),
        ("evaluate", "--algos", "mp,cobar,mp", "algorithm(s) ['mp'] named more than once"),
        ("evaluate", "--algos", ", ,", "no algorithm selected"),
        ("predict", "--max-users", "0", "max_users must be >= 1"),
        ("predict", "--gamma", "-0.5", "gamma must be in [0, 1], got -0.5"),
        ("predict", "--confidence", "0", "confidence level must be in (0, 1), got 0.0"),
    ])
    def test_bad_option_named_before_the_parse(self, tmp_path, capsys, command, flag, value, message):
        # the file cannot be parsed: the option's error must come first
        path = tmp_path / "bad.tsv"
        path.write_text("u1\ti1\tgood\n")
        extra = ["--user", "u1", "--item", "i1"] if command == "predict" else []
        code, stdout, stderr = run_cli(capsys, command, "--data", str(path), *extra, flag, value)
        assert (code, stdout) == (2, "")
        assert stderr.startswith(f"error: {flag} ")
        assert stderr.endswith(f": {message}\n")

    def test_non_utf8_file_reported(self, tmp_path, capsys):
        path = tmp_path / "latin1.tsv"
        path.write_bytes("u1\ti1\t3.0\nJos\u00e9\ti2\t4.0\n".encode("latin-1"))
        code, _, stderr = run_cli(capsys, "evaluate", "--data", str(path), "--algos", "mp")
        assert code == 2
        assert stderr.startswith("error: line 2: 'utf-8' codec can't decode byte 0xe9")
