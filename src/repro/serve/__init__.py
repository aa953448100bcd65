"""repro.serve — deployable model artifacts and the matching service.

The serving layer turns a trained AutoML-EM run into a production
artifact and back into predictions:

* :class:`ModelBundle` — versioned, checksummed serialization of the
  fitted pipeline + feature plan + schema + threshold + provenance
  (``AutoMLEM.export_bundle`` produces one);
* :class:`ModelRegistry` — a directory layout publishing bundles under
  ``<name>/<version>/`` with atomic writes;
* :class:`BatchMatcher` / :class:`StreamMatcher` — the blocking →
  micro-batched featurization → predict serving path, with
  :class:`ServeMetrics` counters and ``request`` records in a JSONL
  :class:`~repro.events.EventLog`;
* :class:`MatchService` — a one-thread front-end over one
  :class:`StreamMatcher` that serves a bounded request queue in
  submission order, with configurable backpressure (:class:`ServiceOverloaded` on overflow in reject mode).

The matchers expose ``monitor=`` / ``shadow=`` / ``resolver=`` taps
(the :class:`MonitorTap` / :class:`ShadowTap` / :class:`ResolverTap`
protocols) feeding the observation layer in :mod:`repro.monitor` and
the entity-resolution layer in :mod:`repro.resolve` — drift detection,
champion/challenger shadow evaluation and incremental clustering all
ride the scores the serving path already computes.
"""

from .bundle import (
    FORMAT_VERSION,
    BundleError,
    BundleIntegrityError,
    ModelBundle,
    SchemaMismatchError,
)
from .matcher import (
    BatchMatcher,
    MatchResult,
    MonitorTap,
    NoStandingIndexError,
    ResolverTap,
    ShadowTap,
    StreamMatcher,
)
from .registry import ModelRegistry
from .service import MatchService, ServiceOverloaded
from .telemetry import ServeMetrics

__all__ = [
    "FORMAT_VERSION",
    "BatchMatcher",
    "BundleError",
    "BundleIntegrityError",
    "MatchResult",
    "MatchService",
    "ModelBundle",
    "ModelRegistry",
    "MonitorTap",
    "NoStandingIndexError",
    "ResolverTap",
    "ShadowTap",
    "ServeMetrics",
    "SchemaMismatchError",
    "ServiceOverloaded",
    "StreamMatcher",
]
