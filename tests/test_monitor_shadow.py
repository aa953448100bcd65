"""Tests for ShadowEvaluator: sampling, disagreement accounting,
registry promotion, and the shadow tap on the matcher."""

import numpy as np
import pytest

from repro.events import EventLog, read_events
from repro.monitor import ShadowEvaluator
from repro.serve import ModelRegistry, StreamMatcher


@pytest.fixture(scope="module")
def champion(trained_em):
    matcher, _, _, test = trained_em
    return matcher.export_bundle(metrics=matcher.evaluate(test))


@pytest.fixture(scope="module")
def challenger(trained_em):
    """A differently-seeded (still decent) second model."""
    from repro.core import AutoMLEM

    _, train, valid, _ = trained_em
    rival = AutoMLEM(n_iterations=1, forest_size=4, seed=9)
    rival.fit(train, valid)
    return rival.export_bundle()


class TestObserve:
    def test_self_shadow_never_disagrees(self, trained_em, champion):
        _, _, _, test = trained_em
        evaluator = ShadowEvaluator(champion, champion, sample_rate=1.0)
        matcher = StreamMatcher(champion, shadow=evaluator)
        matcher.submit(test)
        summary = evaluator.summary()
        assert summary["n_requests"] == 1
        assert summary["n_pairs"] == len(test)
        assert summary["n_sampled"] == len(test)
        assert summary["n_disagreements"] == 0
        assert summary["disagreement_rate"] == 0.0
        assert summary["mean_abs_delta"] == 0.0
        assert summary["champion_fingerprint"] == \
            summary["challenger_fingerprint"]

    def test_different_challenger_measures_deltas(self, trained_em,
                                                  champion, challenger):
        _, _, _, test = trained_em
        evaluator = ShadowEvaluator(champion, challenger, sample_rate=1.0)
        matcher = StreamMatcher(champion, shadow=evaluator)
        matcher.submit(test)
        summary = evaluator.summary()
        assert summary["n_sampled"] == len(test)
        assert summary["max_abs_delta"] > 0.0
        assert summary["champion_latency"] > 0.0
        assert summary["challenger_latency"] > 0.0
        assert summary["champion_fingerprint"] != \
            summary["challenger_fingerprint"]

    def test_sampling_is_seeded_and_partial(self, trained_em, champion,
                                            challenger):
        _, _, _, test = trained_em

        def sampled(seed):
            evaluator = ShadowEvaluator(champion, challenger,
                                        sample_rate=0.5, seed=seed)
            matcher = StreamMatcher(champion, shadow=evaluator)
            matcher.submit(test)
            return evaluator.summary()["n_sampled"]

        assert 0 < sampled(0) < len(test)
        assert sampled(0) == sampled(0)

    def test_invalid_sample_rate(self, champion):
        with pytest.raises(ValueError, match="sample_rate"):
            ShadowEvaluator(champion, champion, sample_rate=0.0)

    def test_log_records_each_request_and_final_summary(
            self, trained_em, champion, challenger, tmp_path):
        _, _, _, test = trained_em
        log_path = tmp_path / "shadow.jsonl"
        with ShadowEvaluator(champion, challenger, sample_rate=1.0,
                             log=log_path) as evaluator:
            matcher = StreamMatcher(champion, shadow=evaluator)
            matcher.submit(test[:8])
            matcher.submit(test[8:16])
        records = read_events(log_path)
        assert [r["type"] for r in records] == ["shadow"] * 3
        assert records[0]["n_pairs"] == 8
        assert records[-1]["final"] is True
        assert records[-1]["n_requests"] == 2

    def test_shared_log_is_not_closed(self, trained_em, champion,
                                      tmp_path):
        _, _, _, test = trained_em
        log = EventLog(tmp_path / "shared.jsonl")
        evaluator = ShadowEvaluator(champion, champion, sample_rate=1.0,
                                    log=log)
        StreamMatcher(champion, shadow=evaluator).submit(test[:4])
        evaluator.close()
        log.event("drift", after_close=True)  # still open
        log.close()
        assert read_events(tmp_path / "shared.jsonl")[-1][
            "after_close"] is True


class TestPromotion:
    @pytest.fixture()
    def registry(self, champion, challenger, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.register(champion, "matcher")    # v0001 = champion
        registry.register(challenger, "matcher")  # v0002 = challenger
        registry.promote("matcher", "v0001")      # champion stays LATEST
        return registry

    def test_from_registry_resolves_both_sides(self, registry, champion,
                                               challenger):
        evaluator = ShadowEvaluator.from_registry(registry, "matcher",
                                                  "v0002")
        assert evaluator.champion.fingerprint == champion.fingerprint
        assert evaluator.challenger.fingerprint == challenger.fingerprint
        assert evaluator.model_name == "matcher"
        assert evaluator.challenger_version == "v0002"

    def test_challenger_equal_champion_rejected(self, registry):
        with pytest.raises(ValueError, match="already the champion"):
            ShadowEvaluator.from_registry(registry, "matcher", "v0001")

    def test_promote_flips_latest_and_logs(self, trained_em, registry,
                                           tmp_path):
        _, _, _, test = trained_em
        log_path = tmp_path / "promo.jsonl"
        evaluator = ShadowEvaluator.from_registry(
            registry, "matcher", "v0002", sample_rate=1.0, log=log_path)
        StreamMatcher(evaluator.champion, shadow=evaluator).submit(test[:8])
        assert registry.latest("matcher") == "v0001"
        assert evaluator.promote() == "v0002"
        assert registry.latest("matcher") == "v0002"
        evaluator.close()
        records = read_events(log_path)
        promo = [r for r in records if r["type"] == "promotion"]
        assert len(promo) == 1
        assert promo[0]["previous"] == "v0001"
        assert promo[0]["promoted"] == "v0002"
        assert promo[0]["summary"]["n_sampled"] == 8

    def test_promote_without_registry_coordinates(self, champion):
        evaluator = ShadowEvaluator(champion, champion, sample_rate=1.0)
        with pytest.raises(ValueError, match="registry coordinates"):
            evaluator.promote()
