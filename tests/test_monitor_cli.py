"""Tests for the ``repro monitor`` command group (watch / shadow /
promote / report) driven through the real argument parser."""

import json

import pytest

from repro.cli import build_parser, main
from repro.events import read_events
from repro.monitor import RetrainPlan
from repro.serve import ModelBundle, ModelRegistry

TRAFFIC = ["--dataset", "fodors_zagats", "--scale", "0.25",
           "--batches", "4", "--batch-pairs", "16"]


@pytest.fixture(scope="module")
def watch_env(tmp_path_factory):
    """One ``watch --train`` bootstrap shared by the module: a trained
    bundle, a monitor log of drifted traffic, and an emitted plan."""
    root = tmp_path_factory.mktemp("monitor-cli")
    bundle = root / "bundle"
    log = root / "monitor.jsonl"
    plan = root / "plan.json"
    code = main(["monitor", "watch", str(bundle), "--train",
                 "--budget", "2", "--forest-size", "4",
                 *TRAFFIC, "--min-rows", "50", "--drift", "1.0",
                 "--interval", "2", "--log", str(log),
                 "--resume-from", "runs/champion.jsonl",
                 "--emit-plan", str(plan)])
    assert code == 0
    return {"root": root, "bundle": bundle, "log": log, "plan": plan}


class TestParser:
    def test_monitor_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["monitor"])

    def test_watch_defaults(self):
        args = build_parser().parse_args(["monitor", "watch", "b"])
        assert args.monitor_command == "watch"
        assert args.drift == 0.0
        assert args.min_rows == 100
        assert args.interval == 5
        assert not args.train
        assert not args.fail_on_drift

    def test_shadow_requires_challenger(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["monitor", "shadow", "reg", "--model-name", "em"])


class TestWatch:
    def test_bootstrap_exports_a_monitorable_bundle(self, watch_env):
        bundle = ModelBundle.load(watch_env["bundle"])
        assert bundle.reference_profile is not None

    def test_drifted_traffic_logs_and_emits_a_plan(self, watch_env):
        records = read_events(watch_env["log"])
        drift = [r for r in records if r["type"] == "drift"]
        assert drift and drift[-1]["final"] is True
        assert drift[-1]["drifted"] is True
        assert [r["type"] for r in records if r["type"] == "trigger"]
        plan = RetrainPlan.load(watch_env["plan"])
        assert plan.policy == "drift"
        assert plan.resume_from == "runs/champion.jsonl"

    def test_fail_on_drift_exit_code(self, watch_env, capsys):
        code = main(["monitor", "watch", str(watch_env["bundle"]),
                     *TRAFFIC, "--min-rows", "50", "--drift", "1.0",
                     "--fail-on-drift"])
        assert code == 2
        assert "DRIFTED" in capsys.readouterr().out

    def test_missing_bundle_without_train_flag(self, tmp_path):
        with pytest.raises(SystemExit, match="--train"):
            main(["monitor", "watch", str(tmp_path / "ghost"), *TRAFFIC])


class TestReport:
    def test_summary_counts_and_verdict(self, watch_env, capsys):
        assert main(["monitor", "report", str(watch_env["log"])]) == 0
        out = capsys.readouterr().out
        assert "drift" in out
        assert "drift verdict: DRIFTED" in out
        assert "trigger [drift]" in out

    def test_deterministic_view_is_json_and_timing_free(self, watch_env,
                                                        capsys):
        assert main(["monitor", "report", str(watch_env["log"]),
                     "--deterministic"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == len(read_events(watch_env["log"]))
        flat = json.dumps(records)
        assert "latency" not in flat and "elapsed" not in flat


class TestRegistryCommands:
    @pytest.fixture()
    def registry(self, watch_env, tmp_path):
        bundle = ModelBundle.load(watch_env["bundle"])
        registry = ModelRegistry(tmp_path / "registry")
        registry.register(bundle, "em")
        registry.register(bundle, "em")
        return registry

    def test_promote_flips_latest_and_logs(self, registry, tmp_path,
                                           capsys):
        log = tmp_path / "promo.jsonl"
        log.write_text('{"type": "shadow", "final": true}\n')
        assert main(["monitor", "promote", str(registry.root),
                     "--model-name", "em", "--to", "v0001",
                     "--log", str(log)]) == 0
        assert registry.latest("em") == "v0001"
        assert "promoted em: v0002 -> v0001" in capsys.readouterr().out
        # promote appends: the log's earlier records survive.
        assert [r["type"] for r in read_events(log)] == \
            ["shadow", "promotion"]
        record = read_events(log)[-1]
        assert record["type"] == "promotion"
        assert record["promoted"] == "v0001"

    def test_shadow_self_challenger_promotes_below_threshold(
            self, registry, capsys):
        registry.promote("em", "v0001")
        assert main(["monitor", "shadow", str(registry.root),
                     "--model-name", "em", "--challenger", "v0002",
                     "--sample-rate", "1.0", *TRAFFIC,
                     "--promote-below", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "disagreement=0.0000" in out
        assert "promoted em -> v0002" in out
        assert registry.latest("em") == "v0002"
