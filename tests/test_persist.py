"""The persistence contract: atomic writes, checked pickles, LATEST
pointers, and the fault-injection matrix over every artifact kind.

Every case ends in "the previous version loads" or a
:class:`~repro.persist.CorruptArtifactError` subclass — never another
exception type, never a silently different object.
"""

import ast
import os
import pickle
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import persist
from repro.automl.metalearning import ConfigPortfolio, PortfolioEntry
from repro.automl.optimizer import OptimizationHistory, TrialResult
from repro.blocking import BlockIndex, BlockIndexError, QGramBlocker
from repro.data import Table
from repro.monitor.triggers import RetrainPlan
from repro.persist import CorruptArtifactError
from repro.resolve import (
    EntityStore,
    EntityStoreError,
    MatchDecision,
    node_key,
)
from repro.serve import BundleIntegrityError, ModelBundle, ModelRegistry

SRC = Path(persist.__file__).parent


def decision(left, right):
    return MatchDecision(node_key("a", left), node_key("b", right), 0.9, True)


def catalog(n):
    return Table("B", ["name"], [[f"place number {i}"] for i in range(n)])


def hidden(directory):
    """Staged leftovers: every hidden entry under ``directory``."""
    return list(Path(directory).rglob(".*"))


# -- the four artifact kinds -------------------------------------------
#
# Each kind saves two versions into ``root`` and loads "the current
# one" back as a comparable identity.  ``files`` names the payload files
# of version 2 (the ones corrupted), ``targets`` the paths (under
# ``root``) whose rename publishes version 2.

class IndexKind:
    name = "block index"

    def save(self, root, version):
        QGramBlocker("name").index(catalog(3 + version)).save(root / "b.idx")

    def load(self, root):
        index = BlockIndex.load(root / "b.idx")
        return index.num_records, index.fingerprint

    def identity(self, version):
        index = QGramBlocker("name").index(catalog(3 + version))
        return index.num_records, index.fingerprint

    def files(self, root):
        return [root / "b.idx"]

    targets = ("b.idx",)


def bundle_version(version):
    return ModelBundle({"weights": [version]}, plan=[("name", "jaccard")],
                       schema={"name": "STR_EQ_1W"},
                       metadata={"version": version})


class BundleKind:
    name = "bundle"

    def save(self, root, version):
        bundle_version(version).save(root / "bundle", overwrite=True)

    def load(self, root):
        return ModelBundle.load(root / "bundle").fingerprint

    def identity(self, version):
        return bundle_version(version).fingerprint

    def files(self, root):
        return [root / "bundle" / "pipeline.pkl",
                root / "bundle" / "MANIFEST.json"]

    targets = ("bundle",)


class RegistryKind(BundleKind):
    name = "registry"
    pointer_pattern = "v{:04d}"

    def save(self, root, version):
        ModelRegistry(root).register(bundle_version(version), "m")

    def load(self, root):
        return ModelRegistry(root).get("m").fingerprint

    def files(self, root):
        return [root / "m" / "v0002" / "pipeline.pkl",
                root / "m" / "v0002" / "MANIFEST.json"]

    targets = ("m/v0002", "m/LATEST")

    def pointer_dir(self, root):
        return root / "m"


class StoreKind:
    name = "entity store"
    pointer_pattern = "snapshot-v{:06d}.pkl"

    def store(self, version):
        store = EntityStore()
        for i in range(version):
            store.apply([decision(i, i)])
        return store

    def save(self, root, version):
        self.store(version).save(root)

    def load(self, root):
        store = EntityStore.load(root)
        return store.version, store.fingerprint

    def identity(self, version):
        store = self.store(version)
        return store.version, store.fingerprint

    def files(self, root):
        return [root / "snapshot-v000002.pkl"]

    targets = ("snapshot-v000002.pkl", "LATEST")

    def pointer_dir(self, root):
        return root


KINDS = [IndexKind(), BundleKind(), RegistryKind(), StoreKind()]
POINTER_KINDS = [RegistryKind(), StoreKind()]


def outcome(kind, root):
    """The identity a load returns, or ``"corrupt"`` for a typed error."""
    try:
        return kind.load(root)
    except CorruptArtifactError:
        return "corrupt"


@pytest.fixture(params=KINDS, ids=lambda kind: kind.name)
def kind(request):
    return request.param


@pytest.fixture(params=POINTER_KINDS, ids=lambda kind: kind.name)
def pointer_kind(request):
    return request.param


class TestFaultMatrix:
    @pytest.mark.parametrize("kind, target", [
        (kind, target) for kind in KINDS for target in kind.targets],
        ids=lambda value: getattr(value, "name", value))
    def test_replace_failure_keeps_previous_version(self, kind, target,
                                                    tmp_path, monkeypatch):
        kind.save(tmp_path, 1)
        target = tmp_path / target
        real_replace = os.replace
        failed = []

        def flaky_replace(src, dst):
            if Path(dst) == target and not failed:
                failed.append(src)
                raise OSError("injected: rename failed")
            real_replace(src, dst)

        monkeypatch.setattr(persist.os, "replace", flaky_replace)
        with pytest.raises(OSError, match="injected"):
            kind.save(tmp_path, 2)
        monkeypatch.undo()
        assert failed
        assert kind.load(tmp_path) == kind.identity(1)
        assert hidden(tmp_path) == []

    def test_truncated_payload(self, kind, tmp_path):
        """Truncation is caught, or (a manifest's trailing newline)
        leaves the loaded object unchanged."""
        kind.save(tmp_path, 1)
        kind.save(tmp_path, 2)
        for path in kind.files(tmp_path):
            data = path.read_bytes()
            for length in (0, 1, len(data) // 2):
                path.write_bytes(data[:length])
                assert outcome(kind, tmp_path) == "corrupt", (path, length)
            path.write_bytes(data[:-1])
            assert outcome(kind, tmp_path) in {"corrupt", kind.identity(2)}
            path.write_bytes(data)
        assert kind.load(tmp_path) == kind.identity(2)

    def test_every_flipped_byte(self, kind, tmp_path):
        """Every single-byte flip of every payload file is caught, or
        (JSON whitespace) leaves the loaded object unchanged."""
        kind.save(tmp_path, 1)
        kind.save(tmp_path, 2)
        allowed = {"corrupt", kind.identity(2)}
        for path in kind.files(tmp_path):
            data = path.read_bytes()
            for offset in range(len(data)):
                flipped = bytearray(data)
                flipped[offset] ^= 0x01
                path.write_bytes(bytes(flipped))
                assert outcome(kind, tmp_path) in allowed, (path, offset)
            path.write_bytes(data)

    def test_stale_pointer_loads_the_version_it_names(self, pointer_kind,
                                                      tmp_path):
        pointer_kind.save(tmp_path, 1)
        pointer_kind.save(tmp_path, 2)
        persist.write_pointer(pointer_kind.pointer_dir(tmp_path),
                              pointer_kind.pointer_pattern.format(1))
        assert pointer_kind.load(tmp_path) == pointer_kind.identity(1)

    @pytest.mark.parametrize("contents", [
        lambda pattern: pattern.format(3).encode() + b"\n",
        lambda pattern: b"\n",
        lambda pattern: pattern.format(2).encode()[:-3],
        lambda pattern: b"../../etc/passwd\n",
        lambda pattern: b"\xff\xfe\x00garbage",
        lambda pattern: None,
    ], ids=["dangling", "empty", "truncated", "escape", "binary", "missing"])
    def test_bad_pointer_heals_to_newest(self, pointer_kind, contents,
                                         tmp_path):
        pointer_kind.save(tmp_path, 1)
        pointer_kind.save(tmp_path, 2)
        pointer = pointer_kind.pointer_dir(tmp_path) / persist.LATEST
        contents = contents(pointer_kind.pointer_pattern)
        if contents is None:
            pointer.unlink()
        else:
            pointer.write_bytes(contents)
        assert pointer_kind.load(tmp_path) == pointer_kind.identity(2)
        assert pointer.read_text().strip() == \
            pointer_kind.pointer_pattern.format(2)

    def test_read_only_directory_still_loads(self, pointer_kind, tmp_path,
                                             monkeypatch):
        pointer_kind.save(tmp_path, 1)
        (pointer_kind.pointer_dir(tmp_path) / persist.LATEST).unlink()

        def read_only(path, data):
            raise PermissionError("injected: read-only directory")

        monkeypatch.setattr(persist, "atomic_write", read_only)
        assert pointer_kind.load(tmp_path) == pointer_kind.identity(1)

    def test_dangling_pointer_with_nothing_to_heal_to(self, tmp_path):
        persist.write_pointer(tmp_path, "snapshot-v000007.pkl")
        with pytest.raises(EntityStoreError, match=persist.LATEST):
            EntityStore.load(tmp_path)

    def test_typed_errors_share_one_base(self):
        for error in (BlockIndexError, EntityStoreError,
                      BundleIntegrityError):
            assert issubclass(error, CorruptArtifactError)
            assert issubclass(error, ValueError)


class TestCorruptIndexRebuilds:
    def test_build_or_load_rebuilds_a_corrupt_index(self, tmp_path):
        blocker = QGramBlocker("name")
        table = catalog(4)
        path = tmp_path / "b.idx"
        blocker.build_or_load(table, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        assert blocker.load_index_if_valid(path, table) is None
        rebuilt = blocker.build_or_load(table, path)
        assert BlockIndex.load(path).fingerprint == rebuilt.fingerprint

    def test_format_1_file_is_rebuilt(self, tmp_path):
        blocker = QGramBlocker("name")
        table = catalog(4)
        path = tmp_path / "b.idx"
        index = blocker.index(table)
        path.write_bytes(pickle.dumps({
            "format_version": 1,
            "blocker_fingerprint": blocker.fingerprint,
            "content_fingerprint": index.fingerprint, "index": index}))
        with pytest.raises(BlockIndexError, match="not a readable"):
            BlockIndex.load(path)
        assert blocker.build_or_load(table, path).fingerprint == \
            index.fingerprint
        assert BlockIndex.load(path).fingerprint == index.fingerprint


class TestConcurrentSaves:
    """Regression: both savers staged into one fixed ``<name>.tmp`` under
    the shared read lock, so concurrent saves could tear each other."""

    N_THREADS = 8
    ROUNDS = 5

    def hammer(self, save):
        errors = []

        def worker():
            try:
                for _ in range(self.ROUNDS):
                    save()
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=worker)
                   for _ in range(self.N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

    def test_block_index(self, tmp_path):
        index = QGramBlocker("name").index(catalog(200))
        path = tmp_path / "b.idx"
        self.hammer(lambda: index.save(path))
        assert BlockIndex.load(path).fingerprint == index.fingerprint
        assert sorted(tmp_path.iterdir()) == [path]

    def test_entity_store(self, tmp_path):
        store = StoreKind().store(50)
        self.hammer(lambda: store.save(tmp_path))
        loaded = EntityStore.load(tmp_path)
        assert loaded.fingerprint == store.fingerprint
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            [persist.LATEST, "snapshot-v000050.pkl"]


class TestAtomicWrite:
    def test_text_bytes_parents_and_mode(self, tmp_path):
        persist.atomic_write(tmp_path / "a" / "b.txt", "héllo")
        persist.atomic_write(tmp_path / "a" / "c.bin", b"\x00\x01")
        assert (tmp_path / "a" / "b.txt").read_text(encoding="utf-8") == \
            "héllo"
        assert (tmp_path / "a" / "c.bin").read_bytes() == b"\x00\x01"
        (tmp_path / "plain").write_bytes(b"")
        assert (tmp_path / "a" / "c.bin").stat().st_mode == \
            (tmp_path / "plain").stat().st_mode

    @pytest.mark.parametrize("artifact", [
        lambda path, n: OptimizationHistory(
            [TrialResult({"c": n}, 0.5, 1.0)]).save(path),
        lambda path, n: RetrainPlan("manual", f"plan {n}").save(path),
        lambda path, n: ConfigPortfolio([PortfolioEntry(
            "d", np.zeros(2), {"c": n}, 0.5)]).save(path),
    ], ids=["history", "retrain-plan", "portfolio"])
    def test_json_artifacts_keep_previous_file(self, artifact, tmp_path,
                                               monkeypatch):
        path = tmp_path / "artifact.json"
        artifact(path, 1)
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("injected: rename failed")

        monkeypatch.setattr(persist.os, "replace", failing_replace)
        with pytest.raises(OSError, match="injected"):
            artifact(path, 2)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert hidden(tmp_path) == []

    def test_failed_restore_keeps_old_directory_aside(self, tmp_path,
                                                      monkeypatch):
        target = tmp_path / "dir"
        persist.replace_directory(target, {"f": b"old"})
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst) == target:
                raise OSError("injected: rename failed")
            real_replace(src, dst)

        monkeypatch.setattr(persist.os, "replace", replace)
        with pytest.raises(OSError, match="injected"):
            persist.replace_directory(target, {"f": b"new"})
        monkeypatch.undo()
        assert not target.exists()
        kept = list(tmp_path.glob(".dir.*/old/f"))
        assert [path.read_bytes() for path in kept] == [b"old"]


class TestCheckedPickle:
    def test_one_kind_is_not_loaded_as_another(self, tmp_path):
        path = StoreKind().store(1).save(tmp_path)
        with pytest.raises(BlockIndexError,
                           match="not a readable block index"):
            BlockIndex.load(path)

    def test_checksum_is_verified_before_unpickling(self, tmp_path):
        """A swapped-in payload that would run code on unpickle is
        rejected by its checksum and never unpickled."""
        path = tmp_path / "x.pkl"
        data = persist.checked_pickle("thing", 1, [1])
        header = data[:data.index(b"\n", len(b"repro-artifact\n")) + 1]
        path.write_bytes(header + pickle.dumps(Hook()))
        with pytest.raises(CorruptArtifactError, match="checksum"):
            persist.load_checked(path, "thing", 1, list,
                                 CorruptArtifactError)
        assert HOOK_CALLS == []


HOOK_CALLS = []


def hook():
    HOOK_CALLS.append(1)


class Hook:
    def __reduce__(self):
        return hook, ()


# -- tooling: one module stages and renames ----------------------------

#: The staging calls allowed outside persist.py: the throwaway registry
#: root of ``experiments serving``.
ALLOWED = ["experiments/extra.py: tempfile.mkdtemp"]
FORBIDDEN = {("os", "replace"), ("tempfile", "mkstemp"),
             ("tempfile", "mkdtemp")}


def staging_calls(tree):
    """Every ``os.replace`` / ``tempfile.mkstemp`` / ``mkdtemp``
    reference in ``tree``, attribute or ``from``-import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                (node.value.id, node.attr) in FORBIDDEN:
            yield f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (node.module, alias.name) in FORBIDDEN:
                    yield f"{node.module}.{alias.name}"


def test_only_persist_stages_and_renames():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative != "persist.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found += [f"{relative}: {call}" for call in staging_calls(tree)]
    assert found == ALLOWED, (
        "stage and rename files through repro.persist, not directly")


def test_staging_scan_sees_each_form():
    tree = ast.parse("import os\nfrom tempfile import mkstemp\n"
                     "os.replace(a, b)\n")
    assert sorted(staging_calls(tree)) == ["os.replace", "tempfile.mkstemp"]
