"""Tests for ModelBundle serialization and the ModelRegistry."""

import json

import numpy as np
import pytest
from bit_parity import assert_bits_equal

from repro.serve import (
    FORMAT_VERSION,
    BundleError,
    BundleIntegrityError,
    ModelBundle,
    ModelRegistry,
    SchemaMismatchError,
)
from repro.serve.bundle import (
    MANIFEST_NAME,
    PIPELINE_NAME,
    _canonical_json,
    _sha256,
)


@pytest.fixture()
def bundle(trained_em):
    matcher, _, _, test = trained_em
    return matcher.export_bundle(metrics=matcher.evaluate(test))


def _rewrite_manifest(path, **fields):
    """Set manifest ``fields`` and recompute the manifest fingerprint, as
    a bundle written with those fields would carry it."""
    manifest_path = path / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest.pop("fingerprint")
    manifest.update(fields)
    manifest["fingerprint"] = _sha256(
        _canonical_json(manifest).encode("utf-8"))
    manifest_path.write_text(json.dumps(manifest))


class TestRoundTrip:
    def test_save_load_predict_bit_matches(self, trained_em, bundle,
                                           tmp_path):
        matcher, _, _, test = trained_em
        bundle.save(tmp_path / "b")
        loaded = ModelBundle.load(tmp_path / "b")
        X = matcher.feature_generator_.transform(test)
        assert np.array_equal(loaded.predict(X), matcher.predict(test))
        assert np.array_equal(loaded.predict_proba(X),
                              matcher.predict_proba(test)[:, 1])

    def test_round_trip_preserves_bundle_fields(self, bundle, tmp_path):
        bundle.save(tmp_path / "b")
        loaded = ModelBundle.load(tmp_path / "b")
        assert loaded.plan == bundle.plan
        assert loaded.schema == bundle.schema
        assert loaded.threshold == bundle.threshold
        assert loaded.metadata == bundle.metadata
        assert loaded.fingerprint == bundle.fingerprint

    def test_manifest_is_versioned_and_checksummed(self, bundle, tmp_path):
        bundle.save(tmp_path / "b")
        manifest = json.loads(
            (tmp_path / "b" / MANIFEST_NAME).read_text())
        assert manifest["format_version"] == FORMAT_VERSION
        assert PIPELINE_NAME in manifest["checksums"]
        assert "fingerprint" in manifest
        assert manifest["metadata"]["best_config"]

    def test_export_records_metrics_and_provenance(self, trained_em,
                                                   bundle):
        matcher = trained_em[0]
        assert bundle.metadata["metrics"]["f1"] >= 0.0
        assert bundle.metadata["search"] == matcher.search
        assert bundle.metadata["best_score"] == matcher.best_score_

    def test_save_refuses_overwrite_by_default(self, bundle, tmp_path):
        bundle.save(tmp_path / "b")
        with pytest.raises(FileExistsError):
            bundle.save(tmp_path / "b")
        bundle.save(tmp_path / "b", overwrite=True)
        assert ModelBundle.load(tmp_path / "b").plan == bundle.plan

    def test_overwrite_refuses_non_bundle_directory(self, bundle, tmp_path):
        target = tmp_path / "not-a-bundle"
        target.mkdir()
        (target / "precious.txt").write_text("user data")
        with pytest.raises(BundleError, match="does not look like"):
            bundle.save(target, overwrite=True)


class TestIntegrity:
    def test_corrupted_pipeline_raises(self, bundle, tmp_path):
        bundle.save(tmp_path / "b")
        pipeline = tmp_path / "b" / PIPELINE_NAME
        pipeline.write_bytes(pipeline.read_bytes()[:-1] + b"\x00")
        with pytest.raises(BundleIntegrityError, match="checksum"):
            ModelBundle.load(tmp_path / "b")

    def test_edited_manifest_raises(self, bundle, tmp_path):
        bundle.save(tmp_path / "b")
        manifest_path = tmp_path / "b" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["threshold"] = 0.99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(BundleIntegrityError, match="fingerprint"):
            ModelBundle.load(tmp_path / "b")

    def test_unsupported_format_version_raises(self, bundle, tmp_path):
        bundle.save(tmp_path / "b")
        manifest_path = tmp_path / "b" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match="format_version"):
            ModelBundle.load(tmp_path / "b")

    def test_missing_manifest_raises(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(BundleError, match="not a model bundle"):
            ModelBundle.load(tmp_path / "empty")

    def test_truncated_manifest_raises(self, bundle, tmp_path):
        bundle.save(tmp_path / "b")
        manifest_path = tmp_path / "b" / MANIFEST_NAME
        manifest_path.write_bytes(manifest_path.read_bytes()[:40])
        with pytest.raises(BundleIntegrityError, match="unreadable"):
            ModelBundle.load(tmp_path / "b")

    def test_garbage_manifest_raises(self, bundle, tmp_path):
        bundle.save(tmp_path / "b")
        (tmp_path / "b" / MANIFEST_NAME).write_bytes(b"\xff\x00 garbage")
        with pytest.raises(BundleIntegrityError, match="unreadable"):
            ModelBundle.load(tmp_path / "b")

    def test_missing_pipeline_raises(self, bundle, tmp_path):
        bundle.save(tmp_path / "b")
        (tmp_path / "b" / PIPELINE_NAME).unlink()
        with pytest.raises(BundleIntegrityError, match=PIPELINE_NAME):
            ModelBundle.load(tmp_path / "b")

    def test_manifest_with_null_sequence_cap_loads(self, trained_em, bundle,
                                                   tmp_path):
        # Bundles written while the prefix cap was a generator option
        # record ``"sequence_max_chars": null``.
        matcher, _, _, test = trained_em
        bundle.save(tmp_path / "b")
        _rewrite_manifest(tmp_path / "b", sequence_max_chars=None)
        loaded = ModelBundle.load(tmp_path / "b")
        X = loaded.feature_generator().transform(test)
        assert_bits_equal(X, matcher.feature_generator_.transform(test))
        assert_bits_equal(loaded.predict_proba(X),
                          matcher.predict_proba(test)[:, 1])

    def test_manifest_with_other_sequence_cap_raises(self, bundle, tmp_path):
        bundle.save(tmp_path / "b")
        _rewrite_manifest(tmp_path / "b", sequence_max_chars=8)
        with pytest.raises(BundleError, match="prefix cap of 8"):
            ModelBundle.load(tmp_path / "b")

    def test_failed_overwrite_restores_old_bundle(self, bundle, tmp_path,
                                                  monkeypatch):
        """Overwriting moves the old bundle aside, and moves it back if
        the new one cannot be renamed into place."""
        import os

        from repro import persist

        target = tmp_path / "b"
        bundle.save(target)
        real_replace = os.replace
        failed = []

        def flaky_replace(src, dst):
            if dst == target and not failed:
                failed.append(src)
                raise OSError("injected: rename failed")
            real_replace(src, dst)

        monkeypatch.setattr(persist.os, "replace", flaky_replace)
        edited = ModelBundle(bundle.predictor, bundle.plan, bundle.schema,
                             threshold=0.9)
        with pytest.raises(OSError, match="injected"):
            edited.save(target, overwrite=True)
        monkeypatch.undo()
        assert failed
        assert ModelBundle.load(target).fingerprint == bundle.fingerprint
        assert [p.name for p in tmp_path.iterdir()] == ["b"]


class TestSchema:
    def test_check_schema_accepts_training_tables(self, trained_em,
                                                  small_benchmark, bundle):
        bundle.check_schema(small_benchmark.table_a,
                            small_benchmark.table_b)

    def test_check_schema_rejects_missing_attribute(self, small_benchmark,
                                                    bundle):
        kept = [c for c in small_benchmark.table_a.columns
                if c != bundle.plan[0][0]]
        narrowed = small_benchmark.table_a.project(kept)
        with pytest.raises(SchemaMismatchError, match="lacks attributes"):
            bundle.check_schema(narrowed)

    def test_plan_must_be_covered_by_schema(self, bundle):
        with pytest.raises(BundleError, match="absent from the recorded"):
            ModelBundle(bundle.predictor, plan=[("ghost", "jaccard_space")],
                        schema={"name": "WORDS_1_5"})

    def test_empty_plan_rejected(self, bundle):
        with pytest.raises(BundleError, match="non-empty"):
            ModelBundle(bundle.predictor, plan=[], schema={})


class TestThreshold:
    def test_native_threshold_matches_predict(self, trained_em, bundle):
        matcher, _, _, test = trained_em
        X = matcher.feature_generator_.transform(test)
        assert bundle.threshold is None
        assert np.array_equal(bundle.predict(X), matcher.predict(test))

    def test_explicit_threshold_applied(self, trained_em):
        matcher, _, _, test = trained_em
        X = matcher.feature_generator_.transform(test)
        eager = matcher.export_bundle(threshold=0.0)
        assert (eager.predict(X) == 1).all()
        strict = matcher.export_bundle(threshold=1.01)
        assert (strict.predict(X) == 0).all()

    def test_threshold_survives_round_trip(self, trained_em, tmp_path):
        matcher = trained_em[0]
        matcher.export_bundle(tmp_path / "b", threshold=0.25)
        assert ModelBundle.load(tmp_path / "b").threshold == 0.25


class TestExportGuards:
    def test_unfitted_matcher_cannot_export(self):
        from repro.core import AutoMLEM

        with pytest.raises(RuntimeError, match="not fitted"):
            AutoMLEM().export_bundle()

    def test_matrix_fit_cannot_export(self, trained_em):
        from repro.core import AutoMLEM

        matcher, train, valid, _ = trained_em
        X_tr = matcher.feature_generator_.transform(train)
        X_va = matcher.feature_generator_.transform(valid)
        matrix_fit = AutoMLEM(n_iterations=1, forest_size=4)
        matrix_fit.fit_matrices(X_tr, train.labels, X_va, valid.labels)
        with pytest.raises(RuntimeError, match="fitted from matrices"):
            matrix_fit.export_bundle()


class TestRegistry:
    def test_register_get_latest(self, bundle, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        assert registry.register(bundle, "model") == "v0001"
        assert registry.register(bundle, "model") == "v0002"
        assert registry.latest("model") == "v0002"
        assert registry.get("model").fingerprint == bundle.fingerprint
        assert registry.get("model", "v0001").plan == bundle.plan

    def test_list_models_and_versions(self, bundle, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.register(bundle, "alpha")
        registry.register(bundle, "beta")
        registry.register(bundle, "beta")
        assert registry.list() == {"alpha": ["v0001"],
                                   "beta": ["v0001", "v0002"]}
        assert "alpha" in registry
        assert "gamma" not in registry

    def test_missing_model_raises(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        with pytest.raises(KeyError, match="no model"):
            registry.latest("ghost")
        with pytest.raises(KeyError):
            registry.get("ghost")

    def test_invalid_names_rejected(self, bundle, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        for name in ("", "../escape", "a/b", ".hidden"):
            with pytest.raises(ValueError, match="invalid model name"):
                registry.register(bundle, name)

    def test_latest_survives_missing_pointer_file(self, bundle, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.register(bundle, "model")
        registry.register(bundle, "model")
        (tmp_path / "reg" / "model" / "LATEST").unlink()
        assert registry.latest("model") == "v0002"

    def test_versions_lists_oldest_first(self, bundle, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        for _ in range(3):
            registry.register(bundle, "model")
        assert registry.versions("model") == ["v0001", "v0002", "v0003"]
        with pytest.raises(KeyError, match="no model"):
            registry.versions("ghost")

    def test_promote_flips_latest_atomically(self, bundle, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.register(bundle, "model")
        registry.register(bundle, "model")
        assert registry.latest("model") == "v0002"
        assert registry.promote("model", "v0001") == "v0001"
        assert registry.latest("model") == "v0001"
        with pytest.raises(KeyError, match="no bundle"):
            registry.promote("model", "v9999")

    def test_stale_pointer_is_rewritten_on_disk(self, bundle, tmp_path):
        """latest() self-heals: a pointer at a deleted version falls
        back to a directory scan AND rewrites LATEST, so only the first
        reader pays for the scan."""
        import shutil

        registry = ModelRegistry(tmp_path / "reg")
        registry.register(bundle, "model")
        registry.register(bundle, "model")
        shutil.rmtree(tmp_path / "reg" / "model" / "v0002")
        pointer = tmp_path / "reg" / "model" / "LATEST"
        assert pointer.read_text().strip() == "v0002"  # now stale
        assert registry.latest("model") == "v0001"
        assert pointer.read_text().strip() == "v0001"  # healed

    def test_garbage_pointer_contents_also_heal(self, bundle, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.register(bundle, "model")
        pointer = tmp_path / "reg" / "model" / "LATEST"
        pointer.write_text("not-a-version\n")
        assert registry.latest("model") == "v0001"
        assert pointer.read_text().strip() == "v0001"


class TestReferenceProfile:
    def test_export_embeds_profile_in_manifest(self, trained_em, tmp_path):
        matcher, _, _, _ = trained_em
        matcher.export_bundle(tmp_path / "b")
        manifest = json.loads(
            (tmp_path / "b" / MANIFEST_NAME).read_text())
        profile = manifest["reference_profile"]
        names = [f"{attribute}__{measure}"
                 for attribute, measure in manifest["plan"]]
        assert [f["name"] for f in profile["features"]] == names
        assert profile["n_rows"] > 0

    def test_profile_round_trips_through_load(self, trained_em, tmp_path):
        matcher, _, _, _ = trained_em
        bundle = matcher.export_bundle(tmp_path / "b")
        restored = ModelBundle.load(tmp_path / "b")
        assert restored.reference_profile == bundle.reference_profile

    def test_manifest_key_is_additive(self, trained_em, tmp_path):
        """Bundles without a profile simply omit the key — FORMAT_VERSION
        is unchanged and old manifests stay loadable."""
        from repro.core import AutoMLEM

        _, train, valid, _ = trained_em
        plain = AutoMLEM(n_iterations=1, forest_size=4, seed=0,
                         capture_reference_profile=False)
        plain.fit(train, valid)
        plain.export_bundle(tmp_path / "plain")
        manifest = json.loads(
            (tmp_path / "plain" / MANIFEST_NAME).read_text())
        assert "reference_profile" not in manifest
        assert ModelBundle.load(tmp_path / "plain").reference_profile \
            is None