"""Tests for the experiment harness (ResultTable + cheap runner smoke)."""

import pytest

from repro.experiments import (
    FAST,
    PAPER_NUMBERS,
    ResultTable,
    f1_spread,
    load_bundle,
)
from repro.experiments.configs import ExperimentConfig


class TestResultTable:
    def test_add_and_render(self):
        table = ResultTable("T", ["dataset", "f1"])
        table.add_row(dataset="abt_buy", f1=59.234)
        text = table.to_text()
        assert "abt_buy" in text
        assert "59.23" in text

    def test_unknown_column_rejected(self):
        table = ResultTable("T", ["a"])
        with pytest.raises(ValueError, match="unknown columns"):
            table.add_row(b=1)

    def test_column_accessor(self):
        table = ResultTable("T", ["a", "b"])
        table.add_row(a=1, b=2)
        table.add_row(a=3)
        assert table.column("a") == [1, 3]
        assert table.column("b") == [2, None]

    def test_column_unknown(self):
        with pytest.raises(KeyError, match="no column"):
            ResultTable("T", ["a"]).column("z")

    def test_missing_cell_renders_dash(self):
        table = ResultTable("T", ["a", "b"])
        table.add_row(a=1)
        assert "-" in table.to_text()

    def test_markdown_shape(self):
        table = ResultTable("My table", ["x", "y"])
        table.add_row(x=1, y=2.5)
        md = table.to_markdown()
        assert md.startswith("### My table")
        assert "| x | y |" in md
        assert "| 1 | 2.5 |" in md

    def test_float_rendering(self):
        table = ResultTable("T", ["v"])
        table.add_row(v=100.0)
        table.add_row(v=0.25)
        table.add_row(v=59.2)
        cells = table.to_text().splitlines()[-3:]
        assert cells[0].strip() == "100"
        assert cells[1].strip() == "0.25"
        assert cells[2].strip() == "59.2"

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError, match="at least one column"):
            ResultTable("T", [])

    def test_f1_spread(self):
        table = ResultTable("T", ["f1"])
        for value in (40.0, 55.0, 48.0):
            table.add_row(f1=value)
        assert f1_spread(table) == pytest.approx(15.0)


class TestConfigs:
    def test_paper_numbers_cover_all_datasets(self):
        from repro.data.synthetic import ALL_DATASETS
        assert set(PAPER_NUMBERS) == set(ALL_DATASETS)

    def test_paper_table4_average_gap(self):
        # Reproduction note: Table IV's printed summary row (78.1 / 83.9 /
        # +5.8) does not match its own columns — the AutoML-EM column
        # averages 84.46 and the per-row ∆ entries are inconsistent too
        # (Abt-Buy is listed as +5.3 although 59.2 - 43.6 = 15.6).  We pin
        # the column arithmetic; the claimed improvement is ~+6 either way.
        magellan = sum(v["magellan"] for v in PAPER_NUMBERS.values()) / 8
        autoem = sum(v["automl_em"] for v in PAPER_NUMBERS.values()) / 8
        assert magellan == pytest.approx(78.16, abs=0.05)
        assert autoem == pytest.approx(84.46, abs=0.05)
        assert autoem - magellan == pytest.approx(6.3, abs=0.1)

    def test_fast_config_scales_known_datasets(self):
        from repro.data.synthetic import ALL_DATASETS
        assert set(FAST.scales) == set(ALL_DATASETS)


class TestBundles:
    def test_bundle_caching(self):
        b1 = load_bundle("fodors_zagats", FAST)
        b2 = load_bundle("fodors_zagats", FAST)
        assert b1 is b2

    def test_bundle_features_cached_and_consistent(self):
        bundle = load_bundle("fodors_zagats", FAST)
        X_tr, X_va, X_te, generator = bundle.features("magellan")
        assert X_tr.shape[0] == len(bundle.train)
        assert X_va.shape[0] == len(bundle.valid)
        assert X_te.shape[0] == len(bundle.test)
        assert X_tr.shape[1] == generator.num_features
        again = bundle.features("magellan")
        assert again[0] is X_tr

    def test_pool_is_train_plus_valid(self):
        bundle = load_bundle("fodors_zagats", FAST)
        assert len(bundle.pool) == len(bundle.train) + len(bundle.valid)


class TestRunLogRouting:
    def test_run_log_dir_threads_into_matchers(self, tmp_path):
        from repro.events import read_events
        from repro.experiments import runners

        runners.set_run_log_dir(tmp_path)
        try:
            first = runners._automl_em(FAST)
            second = runners._automl_em(FAST)
            assert first.run_log != second.run_log  # numbered per search
            assert first.run_log.parent == tmp_path
            assert first.trial_timeout == FAST.trial_timeout
            # and the log actually gets written by a fit
            import numpy as np
            rng = np.random.default_rng(0)
            n = 80
            y = (rng.random(n) < 0.3).astype(int)
            X = np.column_stack([y + rng.normal(0, 0.2, n), rng.random(n)])
            tiny = runners._automl_em(FAST, n_iterations=2, forest_size=8)
            tiny.fit_matrices(X[:60], y[:60], X[60:], y[60:])
            records = read_events(tiny.run_log)
            assert records[-1]["type"] == "summary"
        finally:
            runners.set_run_log_dir(None)

    def test_run_logs_off_by_default(self):
        from repro.experiments import runners

        assert runners._automl_em(FAST).run_log is None


class TestRunnersSmoke:
    """One cheap runner execution checking table structure (full runs are
    the benchmarks' job)."""

    @pytest.fixture(scope="class")
    def tiny_config(self):
        scales = dict(FAST.scales)
        scales.update({"fodors_zagats": 0.3})
        return ExperimentConfig(scales=scales, automl_iterations=3,
                                forest_size=8, generator_seeds=(1,),
                                split_seed=0)

    def test_table4_row_structure(self, tiny_config):
        from repro.experiments import run_table4
        table = run_table4(tiny_config, datasets=("fodors_zagats",))
        assert len(table) == 1
        row = table.rows[0]
        assert row["paper_magellan"] == 100.0
        assert 0 <= row["magellan"] <= 100
        assert 0 <= row["automl_em"] <= 100
        assert row["delta"] == pytest.approx(
            row["automl_em"] - row["magellan"])

    def test_fig9_reports_feature_counts(self, tiny_config):
        from repro.experiments import run_fig9
        table = run_fig9(tiny_config, datasets=("fodors_zagats",))
        row = table.rows[0]
        assert row["autoem_nfeat"] == 84
        assert row["magellan_nfeat"] < 84

    def test_fig12_has_three_variants(self, tiny_config):
        from repro.experiments import run_fig12
        table = run_fig12(tiny_config, datasets=("fodors_zagats",))
        row = table.rows[0]
        assert {"automl_em", "excl_dp", "excl_dp_fp"} <= set(row)
