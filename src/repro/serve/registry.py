"""ModelRegistry: a directory of published, versioned model bundles.

Experiments train models; serving needs to find them.  The registry is a
filesystem layout connecting the two::

    <root>/
      <name>/
        v0001/          # one ModelBundle directory per version
        v0002/
        LATEST          # text file naming the newest version

``register`` assigns the next version number and publishes the bundle
(:meth:`ModelBundle.save`), then repoints ``LATEST``, both through
:mod:`repro.persist`, so concurrent readers always see either the
previous latest version or the new one — never a partial bundle.
"""

from __future__ import annotations

import re
from pathlib import Path

from .. import persist
from .bundle import MANIFEST_NAME, BundleError, ModelBundle

_VERSION_RE = re.compile(r"v(\d{4,})")
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class ModelRegistry:
    """Publish and resolve :class:`ModelBundle` directories by name.

    >>> registry = ModelRegistry("models/")
    >>> version = registry.register(bundle, "fodors_zagats")
    >>> matcher_bundle = registry.get("fodors_zagats")   # latest
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- publishing -----------------------------------------------------

    def register(self, bundle: ModelBundle, name: str) -> str:
        """Store ``bundle`` as the next version of ``name``; returns it."""
        self._check_name(name)
        model_dir = self.root / name
        versions = persist.entries(model_dir, _VERSION_RE, _is_bundle)
        version = f"v{int(versions[-1][1:]) + 1 if versions else 1:04d}"
        bundle.save(model_dir / version)
        persist.write_pointer(model_dir, version)
        return version

    @staticmethod
    def _check_name(name: str) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(
                f"invalid model name {name!r}: use letters, digits, "
                f"'.', '_' or '-' (no path separators)")

    # -- resolution -----------------------------------------------------

    def list(self) -> dict[str, list[str]]:
        """All registered models: ``{name: [versions, oldest first]}``."""
        listed = ((entry.name, persist.entries(entry, _VERSION_RE, _is_bundle))
                  for entry in sorted(self.root.iterdir()))
        return {name: versions for name, versions in listed if versions}

    def versions(self, name: str) -> list[str]:
        """All published versions of ``name``, oldest first."""
        self._check_name(name)
        versions = persist.entries(self.root / name, _VERSION_RE,
                                   _is_bundle)
        if not versions:
            raise KeyError(f"no model named {name!r} in registry "
                           f"{self.root}")
        return versions

    def latest(self, name: str) -> str:
        """The version ``LATEST`` points at (the serving champion).

        A missing, stale or garbage pointer falls back to a directory
        scan — and ``LATEST`` is rewritten to the scan result, so one
        corrupted pointer heals itself instead of forcing every future
        reader down the slow path (:func:`repro.persist.read_pointer`).
        """
        version = persist.read_pointer(self.root / name, _VERSION_RE,
                                       _is_bundle)
        if version is None:
            raise KeyError(f"no model named {name!r} in registry "
                           f"{self.root}")
        return version

    def promote(self, name: str, version: str) -> str:
        """Atomically point ``LATEST`` at an existing ``version``.

        The shadow-evaluation path to a new champion: the challenger is
        already a registered version; promotion is one atomic pointer
        write, so concurrent readers see either the old champion or the
        new one, never a partial pointer.
        Returns the promoted version.
        """
        model_dir = self.root / name
        if not _is_bundle(model_dir / version):
            raise KeyError(f"no bundle for {name!r} version {version!r} "
                           f"in registry {self.root}")
        persist.write_pointer(model_dir, version)
        return version

    def path(self, name: str, version: str | None = None) -> Path:
        """Bundle directory for ``name`` at ``version`` (default latest)."""
        if version is None:
            version = self.latest(name)
        bundle_dir = self.root / name / version
        if not _is_bundle(bundle_dir):
            raise KeyError(f"no bundle for {name!r} version {version!r} "
                           f"in registry {self.root}")
        return bundle_dir

    def get(self, name: str, version: str | None = None) -> ModelBundle:
        """Load a registered bundle (latest version by default)."""
        return ModelBundle.load(self.path(name, version))

    def __contains__(self, name: str) -> bool:
        try:
            self.latest(name)
        except (KeyError, BundleError):
            return False
        return True

    def __repr__(self) -> str:
        models = self.list()
        return (f"ModelRegistry({str(self.root)!r}, {len(models)} models, "
                f"{sum(len(v) for v in models.values())} versions)")


def _is_bundle(entry: Path) -> bool:
    return (entry / MANIFEST_NAME).exists()
