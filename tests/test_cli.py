"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "abt_buy", "/tmp/x", "--scale", "0.2"])
        assert args.dataset == "abt_buy"
        assert args.scale == 0.2

    def test_match_defaults(self):
        args = build_parser().parse_args(["match"])
        assert args.system == "automl-em"
        assert args.budget == 20
        assert args.trial_timeout is None
        assert args.log is None
        assert args.resume_from is None

    def test_match_runner_knobs(self):
        args = build_parser().parse_args(
            ["match", "--trial-timeout", "2.5", "--log", "/tmp/r.jsonl",
             "--resume-from", "/tmp/prior.jsonl"])
        assert args.trial_timeout == 2.5
        assert args.log == "/tmp/r.jsonl"
        assert args.resume_from == "/tmp/prior.jsonl"

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestCommands:
    def test_list_datasets(self, capsys):
        assert main(["list-datasets"]) == 0
        out = capsys.readouterr().out
        assert "fodors_zagats" in out
        assert "Abt-Buy" in out

    def test_generate_round_trip(self, tmp_path, capsys):
        assert main(["generate", "fodors_zagats", str(tmp_path / "out"),
                     "--scale", "0.2", "--seed", "3"]) == 0
        for name in ("tableA.csv", "tableB.csv", "train.csv", "valid.csv",
                     "test.csv"):
            assert (tmp_path / "out" / name).exists()

    def test_match_on_generated_csvs(self, tmp_path, capsys):
        main(["generate", "fodors_zagats", str(tmp_path / "d"),
              "--scale", "0.3", "--seed", "1"])
        code = main(["match", "--data-dir", str(tmp_path / "d"),
                     "--budget", "3", "--forest-size", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "f1=" in out

    def test_match_writes_run_log(self, tmp_path, capsys):
        from repro.events import read_events

        log_path = tmp_path / "run.jsonl"
        code = main(["match", "--dataset", "fodors_zagats",
                     "--scale", "0.25", "--budget", "3",
                     "--forest-size", "8", "--log", str(log_path)])
        assert code == 0
        records = read_events(log_path)
        assert sum(1 for r in records if r["type"] == "trial") == 3
        assert records[-1]["type"] == "summary"

    def test_match_magellan_system(self, capsys):
        code = main(["match", "--dataset", "fodors_zagats",
                     "--system", "magellan", "--scale", "0.25",
                     "--forest-size", "8"])
        assert code == 0
        assert "f1=" in capsys.readouterr().out


class TestMonitorWatchLoading:
    def test_watch_train_generates_the_benchmark_once(self, tmp_path,
                                                      monkeypatch, capsys):
        """``--train`` fits on the splits the traffic then replays: one
        benchmark generation serves both."""
        from repro.data import synthetic

        calls = []
        load_benchmark = synthetic.load_benchmark

        def counted(*args, **kwargs):
            calls.append(args)
            return load_benchmark(*args, **kwargs)

        monkeypatch.setattr(synthetic, "load_benchmark", counted)
        code = main(["monitor", "watch", str(tmp_path / "bundle"),
                     "--train", "--budget", "1", "--forest-size", "2",
                     "--dataset", "fodors_zagats", "--scale", "0.25",
                     "--batches", "2", "--batch-pairs", "8"])
        assert code == 0
        assert len(calls) == 1
        assert "exported bundle" in capsys.readouterr().out


class TestVersionFlag:
    def test_version_exits_zero_and_prints_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestServeParsers:
    def test_export_defaults(self):
        args = build_parser().parse_args(["export", "/tmp/bundle"])
        assert args.output == "/tmp/bundle"
        assert args.name is None
        assert args.budget == 20
        assert not args.tune_threshold
        assert not args.overwrite

    def test_export_registry_mode(self):
        args = build_parser().parse_args(
            ["export", "/tmp/models", "--name", "prod",
             "--tune-threshold", "--budget", "5"])
        assert args.name == "prod"
        assert args.tune_threshold
        assert args.budget == 5

    def test_predict_args(self):
        args = build_parser().parse_args(
            ["predict", "/tmp/bundle", "--data-dir", "/tmp/d",
             "--batch-size", "128", "--output", "p.csv"])
        assert args.bundle == "/tmp/bundle"
        assert args.pairs == "test.csv"
        assert args.batch_size == 128
        assert args.output == "p.csv"

    def test_serve_batch_args(self):
        args = build_parser().parse_args(
            ["serve-batch", "/tmp/models", "--name", "prod",
             "--block-on", "city", "--min-overlap", "2"])
        assert args.name == "prod"
        assert args.block_on == "city"
        assert args.min_overlap == 2
        assert args.batch_size == 4096

    def test_serve_stream_args(self):
        args = build_parser().parse_args(
            ["serve-stream", "/tmp/models", "--name", "prod",
             "--max-queue", "16",
             "--overflow", "reject", "--batch-rows", "32"])
        assert not hasattr(args, "workers")
        assert args.max_queue == 16
        assert args.overflow == "reject"
        assert args.batch_rows == 32
        assert args.q == 3

    @pytest.mark.parametrize("argv", [
        ["match"], ["block"], ["predict", "b", "--data-dir", "d"],
        ["serve-batch", "b"], ["serve-stream", "b"], ["resolve"],
        ["monitor", "watch", "b"],
        ["monitor", "shadow", "r", "--model-name", "m",
         "--challenger", "v2"],
        ["monitor", "promote", "r", "--model-name", "m", "--to", "v2"],
    ])
    def test_one_log_flag_per_command(self, argv):
        assert build_parser().parse_args([*argv, "--log", "x"]).log == "x"
        # (Elsewhere "--out" abbreviates the commands' own --output.)
        olds = ["--run-log", "--request-log", "--resolve-log",
                *(["--out"] if argv[0] == "monitor" else [])]
        for old in olds:
            with pytest.raises(SystemExit):
                build_parser().parse_args([*argv, old, "x"])

    def test_serve_stream_rejects_bad_overflow(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve-stream", "/tmp/models", "--overflow", "drop"])


class TestServeCommands:
    def test_export_predict_serve_round_trip(self, tmp_path, capsys):
        main(["generate", "fodors_zagats", str(tmp_path / "d"),
              "--scale", "0.25", "--seed", "1"])
        code = main(["export", str(tmp_path / "models"), "--name", "fz",
                     "--data-dir", str(tmp_path / "d"),
                     "--budget", "2", "--forest-size", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "registered fz v0001" in out
        assert "fingerprint=" in out

        code = main(["predict", str(tmp_path / "models"), "--name", "fz",
                     "--data-dir", str(tmp_path / "d"),
                     "--batch-size", "16",
                     "--output", str(tmp_path / "preds.csv"),
                     "--log", str(tmp_path / "req.jsonl")])
        assert code == 0
        out = capsys.readouterr().out
        assert "predicted matches" in out
        assert "f1=" in out
        header = (tmp_path / "preds.csv").read_text().splitlines()[0]
        assert header == "ltable_id,rtable_id,probability,prediction"
        from repro.events import read_events

        records = read_events(tmp_path / "req.jsonl")
        assert records[0]["type"] == "request"
        assert records[-1]["type"] == "summary"

        code = main(["serve-batch", str(tmp_path / "models"),
                     "--name", "fz", "--data-dir", str(tmp_path / "d"),
                     "--block-on", "name", "--min-overlap", "2",
                     "--output", str(tmp_path / "matches.csv")])
        assert code == 0
        assert "candidates" in capsys.readouterr().out
        assert (tmp_path / "matches.csv").exists()

        code = main(["serve-stream", str(tmp_path / "models"),
                     "--name", "fz", "--data-dir", str(tmp_path / "d"),
                     "--batch-rows", "16",
                     "--log", str(tmp_path / "stream.jsonl"),
                     "--output", str(tmp_path / "streamed.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "record batches" in out
        assert "rejected" in out
        header = (tmp_path / "streamed.csv").read_text().splitlines()[0]
        assert header == "ltable_id,rtable_id,probability,prediction"
        stream_records = read_events(tmp_path / "stream.jsonl")
        kinds = {r["type"] for r in stream_records}
        assert kinds == {"request", "summary"}
        assert stream_records[-1]["type"] == "summary"
        assert stream_records[-1]["errors"] == 0

        # With --resolve the matcher and the entity store share the one
        # --log handle: every line parses, one resolve per request.
        code = main(["serve-stream", str(tmp_path / "models"),
                     "--name", "fz", "--data-dir", str(tmp_path / "d"),
                     "--batch-rows", "16", "--resolve",
                     "--log", str(tmp_path / "resolved.jsonl")])
        assert code == 0
        assert "entities" in capsys.readouterr().out
        shared = read_events(tmp_path / "resolved.jsonl")
        by_type = {}
        for record in shared:
            by_type.setdefault(record["type"], []).append(record)
        assert set(by_type) == {"request", "resolve", "summary"}
        assert len(by_type["resolve"]) == len(by_type["request"])
        assert [r for r in by_type["summary"] if "requests" in r][0][
            "requests"] == len(by_type["request"])

    def test_export_direct_bundle_path(self, tmp_path, capsys):
        main(["generate", "fodors_zagats", str(tmp_path / "d"),
              "--scale", "0.25", "--seed", "1"])
        code = main(["export", str(tmp_path / "bundle"),
                     "--data-dir", str(tmp_path / "d"),
                     "--budget", "2", "--forest-size", "8",
                     "--tune-threshold"])
        assert code == 0
        assert "wrote bundle" in capsys.readouterr().out
        from repro.serve import ModelBundle

        bundle = ModelBundle.load(tmp_path / "bundle")
        assert bundle.threshold is not None


class TestBlockCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["block"])
        assert args.blocker == "qgram"
        assert args.block_on == "name"
        assert args.min_overlap == 2 and args.q == 3
        assert args.num_perm == 128 and args.bands == 32
        assert args.index_path is None

    def test_invalid_blocker_choice(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["block", "--blocker", "sorted-nbhd"])

    def test_block_on_benchmark_reports_quality(self, capsys):
        code = main(["block", "--dataset", "fodors_zagats",
                     "--scale", "0.3", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "QGramBlocker" in out
        assert "reduction=" in out
        assert "completeness=" in out
        assert "block sizes:" in out

    def test_block_minhash_and_run_log(self, tmp_path, capsys):
        log = tmp_path / "blocking.jsonl"
        argv = ["block", "--blocker", "minhash", "--dataset",
                "fodors_zagats", "--scale", "0.3",
                "--num-perm", "32", "--bands", "8", "--log", str(log)]
        # --log rewrites its file: a second run replaces the first.
        assert main(argv) == 0
        assert main(argv) == 0
        assert "MinHashLSHBlocker" in capsys.readouterr().out
        import json

        records = [json.loads(line)
                   for line in log.read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["type"] == "blocking"
        assert records[0]["dataset"] == "fodors_zagats"

    def test_index_path_persists_and_reuses(self, tmp_path, capsys):
        idx = tmp_path / "standing.idx"
        argv = ["block", "--dataset", "fodors_zagats", "--scale", "0.3",
                "--index-path", str(idx)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "built and saved index" in first
        assert idx.exists()
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "reusing persisted index" in second

    def test_data_dir_mode_writes_candidates(self, tmp_path, capsys):
        main(["generate", "fodors_zagats", str(tmp_path / "d"),
              "--scale", "0.3", "--seed", "1"])
        out_csv = tmp_path / "candidates.csv"
        code = main(["block", "--data-dir", str(tmp_path / "d"),
                     "--output", str(out_csv)])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "candidate pairs" in out
        assert "completeness=" not in out  # no gold pairs in CSV mode
        assert out_csv.exists()

    def test_blocking_experiment_runs(self, capsys):
        assert main(["experiment", "blocking"]) == 0
        out = capsys.readouterr().out
        assert "qgram" in out and "minhash_lsh" in out
        assert "recall_pct" in out
