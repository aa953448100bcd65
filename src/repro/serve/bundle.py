"""ModelBundle: the deployable artifact of an AutoML-EM run.

Training produces a fitted pipeline plus everything needed to apply it
to new record pairs: the feature plan, the source schema, the decision
threshold and the run's provenance.  A :class:`ModelBundle` packages all
of that as one versioned directory so the model that won the search can
be reloaded — in another process, on another machine — and reproduce its
in-process predictions exactly.

On-disk layout (one directory per bundle)::

    <bundle>/
      MANIFEST.json   # format version, plan, schema, threshold,
                      # metadata, pipeline checksum, fingerprint
      pipeline.pkl    # pickled fitted predictor (pipeline or ensemble)

``load`` verifies the pickle against the manifest's SHA-256 checksum
(:class:`BundleIntegrityError` on any corruption) and that the unpickled
predictor matches the manifest's recorded configuration; applying a
bundle to tables whose columns do not cover the feature plan raises
:class:`SchemaMismatchError`.  The bundle ``fingerprint`` digests the
manifest payload *and* the pickle bytes, so two bundles share a
fingerprint only if they are byte-equivalent models.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from collections.abc import Iterable
from pathlib import Path
from typing import Any

import numpy as np

from .. import persist
from ..core.thresholding import apply_threshold
from ..data.table import Table
from ..features.vectorize import FeatureGenerator
from ..similarity.registry import SEQUENCE_MAX_CHARS

#: Current on-disk format; bumped on any incompatible manifest change.
FORMAT_VERSION = 1

MANIFEST_NAME = "MANIFEST.json"
PIPELINE_NAME = "pipeline.pkl"


class BundleError(Exception):
    """Base class for bundle save/load failures."""


class BundleIntegrityError(BundleError, persist.CorruptArtifactError):
    """The bundle's contents are unreadable or do not match its recorded
    checksums."""


class SchemaMismatchError(BundleError):
    """The bundle's feature plan does not fit the offered tables."""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class ModelBundle:
    """A trained matcher plus the context needed to serve it.

    Parameters
    ----------
    predictor:
        A fitted :class:`~repro.automl.components.ConfiguredPipeline`
        (or :class:`~repro.automl.ensemble.PipelineEnsemble`) exposing
        ``predict`` / ``predict_proba`` over feature matrices.
    plan:
        The ``(attribute, measure)`` feature slots the predictor was
        trained on, in column order.
    schema:
        ``{attribute: data-type name}`` for the training tables — the
        compatibility contract checked against serving tables.
    threshold:
        Decision threshold on P(match).  ``None`` (default) uses the
        predictor's own ``predict`` — bit-identical to in-process
        inference; a float applies
        :func:`repro.core.thresholding.apply_threshold` instead (e.g. a
        validation-tuned operating point).
    metadata:
        Free-form JSON-serializable provenance: training metrics, the
        winning configuration, search settings, timestamps.
    reference_profile:
        Optional training-time feature/score distribution summary (a
        :meth:`repro.features.profile.ReferenceProfile.as_dict`
        payload), stored in the manifest so a drift monitor can be
        attached to the loaded bundle
        (:meth:`repro.monitor.FeatureDriftMonitor.for_bundle`).
    """

    def __init__(self, predictor: Any,
                 plan: Iterable[tuple[str, str]],
                 schema: dict[str, str],
                 threshold: float | None = None,
                 metadata: dict | None = None,
                 reference_profile: dict | None = None):
        self.predictor = predictor
        self.plan = [(str(a), str(m)) for a, m in plan]
        if not self.plan:
            raise BundleError("bundle needs a non-empty feature plan")
        self.schema = {str(k): str(v) for k, v in schema.items()}
        missing = sorted({a for a, _ in self.plan} - set(self.schema))
        if missing:
            raise BundleError(
                f"feature plan uses attributes absent from the recorded "
                f"schema: {missing}")
        self.threshold = None if threshold is None else float(threshold)
        self.metadata = dict(metadata or {})
        self.reference_profile = (None if reference_profile is None
                                  else dict(reference_profile))

    # -- identity -------------------------------------------------------

    def _manifest_payload(self, pipeline_checksum: str) -> dict:
        payload = {
            "format_version": FORMAT_VERSION,
            "plan": [list(slot) for slot in self.plan],
            "schema": self.schema,
            "threshold": self.threshold,
            "predictor_type": type(self.predictor).__name__,
            "metadata": self.metadata,
            "checksums": {PIPELINE_NAME: pipeline_checksum},
        }
        # Additive, optional key: bundles without a profile keep their
        # pre-monitoring manifests (and fingerprints) byte-identical.
        if self.reference_profile is not None:
            payload["reference_profile"] = self.reference_profile
        return payload

    @property
    def fingerprint(self) -> str:
        """Content digest over the manifest payload and the pickle."""
        pipeline_bytes = pickle.dumps(self.predictor, protocol=4)
        payload = self._manifest_payload(_sha256(pipeline_bytes))
        return _sha256(_canonical_json(payload).encode("utf-8"))

    @property
    def feature_names(self) -> list[str]:
        return [f"{attribute}__{measure}" for attribute, measure in self.plan]

    # -- serving --------------------------------------------------------

    def feature_generator(self, *, n_jobs: int = 1) -> FeatureGenerator:
        """A :class:`FeatureGenerator` reproducing the training features."""
        return FeatureGenerator(list(self.plan), n_jobs=n_jobs)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """P(match) per row of a feature matrix."""
        return np.asarray(self.predictor.predict_proba(X))[:, 1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Match/non-match decisions at the bundle's operating point."""
        if self.threshold is None:
            return np.asarray(self.predictor.predict(X))
        return apply_threshold(self.predictor.predict_proba(X)[:, 1],
                               self.threshold)

    def decide(self, probabilities: np.ndarray) -> np.ndarray:
        """Decisions from already-computed P(match) — no second scoring.

        Equivalent to :meth:`predict` on the matrix that produced
        ``probabilities``: with a tuned ``threshold`` this *is*
        :func:`~repro.core.thresholding.apply_threshold`; without one it
        reproduces the predictor's native ``predict``, which for every
        binary probabilistic classifier in :mod:`repro.ml` selects class
        1 exactly when ``P(match) > 0.5`` (argmax ties break to class
        0).  Lets the serving path score each batch once instead of
        twice.
        """
        probabilities = np.asarray(probabilities, dtype=np.float64)
        if self.threshold is not None:
            return apply_threshold(probabilities, self.threshold)
        return (probabilities > 0.5).astype(np.int64)

    def check_schema(self, *tables: Table) -> None:
        """Raise :class:`SchemaMismatchError` if any table cannot serve
        this bundle's feature plan (a plan attribute is missing)."""
        required = {attribute for attribute, _ in self.plan}
        for table in tables:
            missing = sorted(required - set(table.columns))
            if missing:
                raise SchemaMismatchError(
                    f"table {table.name!r} lacks attributes {missing} "
                    f"required by the bundle's feature plan "
                    f"(columns: {list(table.columns)})")

    # -- persistence ----------------------------------------------------

    def save(self, path: str | Path, overwrite: bool = False) -> Path:
        """Write the bundle directory atomically; returns its path.

        The directory is assembled under a temporary name next to the
        target and moved into place with one rename
        (:func:`repro.persist.replace_directory`), so readers never
        observe a half-written bundle.
        """
        path = Path(path)
        if path.exists():
            if not overwrite:
                raise FileExistsError(f"bundle path {path} already exists "
                                      f"(pass overwrite=True to replace)")
            if not (path / MANIFEST_NAME).exists():
                raise BundleError(
                    f"refusing to overwrite {path}: it exists but does not "
                    f"look like a bundle (no {MANIFEST_NAME})")
        pipeline_bytes = pickle.dumps(self.predictor, protocol=4)
        payload = self._manifest_payload(_sha256(pipeline_bytes))
        payload["fingerprint"] = _sha256(
            _canonical_json(payload).encode("utf-8"))
        manifest = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        persist.replace_directory(path, {
            PIPELINE_NAME: pipeline_bytes,
            MANIFEST_NAME: manifest.encode("utf-8")})
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ModelBundle":
        """Read a bundle directory, verifying integrity end to end.

        If ``path`` is missing because an overwrite died between its two
        renames, the previous bundle is read where the overwrite left it.
        """
        path = Path(path)
        if not path.exists():
            aside = persist.moved_aside(path)
            if len(aside) > 1:
                raise BundleError(
                    f"{path} is missing and {len(aside)} interrupted "
                    f"overwrites left earlier bundles aside "
                    f"({', '.join(map(str, aside))}); move one back")
            path = aside[0] if aside else path
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.exists():
            raise BundleError(f"{path} is not a model bundle "
                              f"(missing {MANIFEST_NAME})")
        try:
            manifest = json.loads(manifest_path.read_bytes())
            pipeline_bytes = (path / PIPELINE_NAME).read_bytes()
        except (ValueError, FileNotFoundError) as exc:
            raise BundleIntegrityError(
                f"{path}: unreadable bundle ({exc})") from exc
        version = manifest.get("format_version") \
            if isinstance(manifest, dict) else None
        if version != FORMAT_VERSION:
            raise BundleIntegrityError(
                f"unsupported bundle format_version {version!r} "
                f"(this build reads version {FORMAT_VERSION})")
        expected = manifest.get("checksums", {}).get(PIPELINE_NAME)
        actual = _sha256(pipeline_bytes)
        if actual != expected:
            raise BundleIntegrityError(
                f"{path / PIPELINE_NAME}: checksum mismatch "
                f"(manifest {expected}, file {actual}) — the bundle is "
                f"corrupted or was tampered with")
        recorded = dict(manifest)
        fingerprint = recorded.pop("fingerprint", None)
        if fingerprint != _sha256(
                _canonical_json(recorded).encode("utf-8")):
            raise BundleIntegrityError(
                f"{manifest_path}: manifest fingerprint mismatch — the "
                f"manifest was edited after the bundle was written")
        predictor = pickle.loads(pipeline_bytes)
        if type(predictor).__name__ != manifest.get("predictor_type"):
            raise BundleIntegrityError(
                f"{path}: pickled predictor is a "
                f"{type(predictor).__name__}, manifest says "
                f"{manifest.get('predictor_type')!r}")
        # Bundles written before the character-DP prefix cap became a
        # constant record it; every one of them holds null (the default).
        cap = manifest.get("sequence_max_chars")
        if cap not in (None, SEQUENCE_MAX_CHARS):
            raise BundleError(
                f"{manifest_path}: the bundle was trained with a "
                f"character-DP prefix cap of {cap!r}; this build "
                f"featurizes with {SEQUENCE_MAX_CHARS} only")
        bundle = cls(predictor,
                     plan=[tuple(slot) for slot in manifest["plan"]],
                     schema=manifest["schema"],
                     threshold=manifest.get("threshold"),
                     metadata=manifest.get("metadata"),
                     reference_profile=manifest.get("reference_profile"))
        return bundle

    def __repr__(self) -> str:
        return (f"ModelBundle({type(self.predictor).__name__}, "
                f"{len(self.plan)} features, "
                f"threshold={self.threshold}, "
                f"fingerprint={self.fingerprint[:12]})")
