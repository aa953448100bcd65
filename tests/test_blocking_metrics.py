"""Blocking metrics: completeness, reduction, histograms, telemetry."""

import json

import pytest

from repro.blocking import (
    QGramBlocker,
    block_size_histogram,
    evaluate_blocking,
    gold_pair_keys,
    pair_completeness,
    reduction_ratio,
)
from repro.data import MATCH, NON_MATCH, PairSet, RecordPair, Table
from repro.events import EventLog


@pytest.fixture()
def tables():
    a = Table("A", ["name"], [["arnie mortons"], ["arts deli"],
                              ["cafe bizou"]])
    b = Table("B", ["name"], [["arnie mortons of chicago"],
                              ["arts delicatessen"], ["cafe bizou"]])
    return a, b


def labeled_pairs(table_a, table_b, labels):
    pairs = [RecordPair(table_a.by_id(left), table_b.by_id(right), label)
             for (left, right), label in labels.items()]
    return PairSet(table_a, table_b, pairs)


class TestPairCompleteness:
    def test_full_recall(self, tables):
        a, b = tables
        candidates = QGramBlocker("name", min_overlap=2).block(a, b)
        gold = {(0, 0), (1, 1), (2, 2)}
        assert pair_completeness(candidates, gold) == pytest.approx(1.0)

    def test_partial_recall(self, tables):
        a, b = tables
        candidates = labeled_pairs(a, b, {(0, 0): MATCH})
        assert pair_completeness(candidates,
                                 {(0, 0), (1, 1)}) == pytest.approx(0.5)

    def test_vacuous_on_empty_gold(self, tables):
        a, b = tables
        candidates = labeled_pairs(a, b, {(0, 0): MATCH})
        assert pair_completeness(candidates, set()) == pytest.approx(1.0)

    def test_gold_pair_keys_filters_by_label(self, tables):
        a, b = tables
        pairs = labeled_pairs(a, b, {(0, 0): MATCH, (0, 1): NON_MATCH,
                                     (2, 2): MATCH})
        assert gold_pair_keys(pairs) == {(0, 0), (2, 2)}


class TestReductionRatio:
    def test_basic(self):
        assert reduction_ratio(10, 10, 10) == pytest.approx(0.9)

    def test_no_reduction(self):
        assert reduction_ratio(100, 10, 10) == pytest.approx(0.0)

    def test_empty_cross_product_is_vacuous(self):
        assert reduction_ratio(0, 0, 10) == pytest.approx(1.0)

    def test_negative_candidates_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            reduction_ratio(-1, 10, 10)


class TestBlockSizeHistogram:
    def test_power_of_two_buckets(self):
        hist = block_size_histogram([1, 1, 2, 3, 4, 7, 8, 100])
        assert hist == {"1": 2, "2": 1, "3-4": 2, "5-8": 2, "65-128": 1}

    def test_empty_sizes(self):
        assert block_size_histogram([]) == {}

    def test_empty_buckets_omitted(self):
        assert block_size_histogram([1, 100]) == {"1": 1, "65-128": 1}


class TestEvaluateBlocking:
    def test_report_fields(self, tables):
        a, b = tables
        report = evaluate_blocking(QGramBlocker("name", min_overlap=2),
                                   a, b, gold_pairs={(0, 0), (1, 1), (2, 2)})
        assert report.num_table_a == 3 and report.num_table_b == 3
        assert report.num_gold == 3
        assert report.pair_completeness == pytest.approx(1.0)
        assert 0.0 <= report.reduction_ratio < 1.0
        assert report.elapsed >= 0.0
        assert "QGramBlocker" in report.blocker
        assert report.block_sizes == {}  # no standing index supplied

    def test_index_path_reports_block_sizes(self, tables):
        a, b = tables
        blocker = QGramBlocker("name", min_overlap=2)
        index = blocker.index(b)
        direct = evaluate_blocking(blocker, a, b)
        probed = evaluate_blocking(blocker, a, b, index=index)
        assert probed.num_candidates == direct.num_candidates
        assert probed.block_sizes  # histogram present on the index path

    def test_to_dict_round_trips_through_json(self, tables):
        a, b = tables
        report = evaluate_blocking(QGramBlocker("name"), a, b)
        assert json.loads(json.dumps(report.to_dict())) == report.to_dict()

    def test_run_log_records(self, tables, tmp_path):
        a, b = tables
        log_path = tmp_path / "blocking.jsonl"
        evaluate_blocking(QGramBlocker("name", min_overlap=2), a, b,
                          gold_pairs={(0, 0)}, run_log=str(log_path),
                          dataset="demo")
        records = [json.loads(line)
                   for line in log_path.read_text().splitlines()]
        blocking = [r for r in records if r["type"] == "blocking"]
        assert len(blocking) == 1
        assert blocking[0]["dataset"] == "demo"
        assert blocking[0]["num_gold"] == 1
        assert blocking[0]["pair_completeness"] == pytest.approx(1.0)

    def test_shared_log_stays_open(self, tables, tmp_path):
        a, b = tables
        log = EventLog(tmp_path / "shared.jsonl")
        evaluate_blocking(QGramBlocker("name"), a, b, run_log=log)
        evaluate_blocking(QGramBlocker("name", min_overlap=2), a, b,
                          run_log=log)
        log.close()
        lines = (tmp_path / "shared.jsonl").read_text().splitlines()
        assert len([ln for ln in lines
                    if json.loads(ln)["type"] == "blocking"]) == 2
