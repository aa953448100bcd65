"""The one way :mod:`repro` puts an artifact on disk (DESIGN.md §9,
"Persistence"): a load returns the previous version or raises a
:class:`CorruptArtifactError`, never a silent half-state."""

from __future__ import annotations

import contextlib
import glob
import hashlib
import json
import os
import pickle
import re
import shutil
import tempfile
from collections.abc import Callable, Mapping
from pathlib import Path
from typing import TypeVar, Union

#: Name of the pointer file naming a directory's current entry.
LATEST = "LATEST"
_MAGIC = b"repro-artifact\n"
T = TypeVar("T")

# mkstemp stages files as 0600; a published file gets the mode a plain
# open() would give it under the process umask.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


class CorruptArtifactError(ValueError):
    """A persisted artifact is truncated, corrupted, or of the wrong kind
    or format; each artifact kind raises its own subclass."""


def _fsync(path: Union[str, Path]) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: Union[str, Path], data: Union[bytes, str]) -> None:
    """Replace ``path`` with ``data`` (``str`` as UTF-8): stage under a
    unique name beside it, fsync, rename, fsync the directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, staged = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~_UMASK)
            handle.write(data.encode() if isinstance(data, str) else data)
        _fsync(staged)
        os.replace(staged, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(staged)
        raise
    _fsync(path.parent)


def replace_directory(path: Path, files: Mapping[str, bytes]) -> None:
    """Publish a directory of ``files`` at ``path`` with one rename.  An
    existing ``path`` is moved aside and moved back if the rename fails;
    if even that fails, or the process dies between the two renames, it
    is kept in the hidden work directory (:func:`moved_aside`)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=path.parent, prefix=f".{path.name}."))
    staged, aside = work / "new", work / "old"
    try:
        staged.mkdir()
        for name, data in files.items():
            (staged / name).write_bytes(data)
            _fsync(staged / name)
        _fsync(staged)
        if path.exists():
            os.replace(path, aside)
        try:
            os.replace(staged, path)
        except BaseException:
            if aside.exists():
                os.replace(aside, path)
            raise
        _fsync(path.parent)
    finally:
        if path.exists() or not aside.exists():
            shutil.rmtree(work, ignore_errors=True)


def moved_aside(path: Path) -> list[Path]:
    """Previous versions of ``path`` that :func:`replace_directory` moved
    aside and never moved back."""
    return sorted(path.parent.glob(f".{glob.escape(path.name)}.*/old"))


def checked_pickle(kind: str, version: int, obj: object,
                   **meta: str) -> bytes:
    """``obj`` pickled behind one header line: ``kind``, format
    ``version``, the caller's ``meta`` and the payload's sha256."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps({"kind": kind, "format": version, "meta": meta,
                         "sha256": hashlib.sha256(payload).hexdigest()})
    return _MAGIC + header.encode() + b"\n" + payload


def load_checked(path: Union[str, Path], kind: str, version: int,
                 cls: type[T], error: type[CorruptArtifactError]
                 ) -> tuple[T, dict[str, str]]:
    """The ``cls`` and meta of a :func:`checked_pickle` file.  Kind,
    format and checksum are verified before anything is unpickled; every
    failure raises ``error``."""
    data = Path(path).read_bytes()
    end = data.find(b"\n", len(_MAGIC))
    try:
        header = json.loads(data[len(_MAGIC):end])
        if not data.startswith(_MAGIC) or end < 0 or header["kind"] != kind:
            raise ValueError(f"no {kind} header")
        if header["format"] != version:
            raise ValueError(f"unsupported format {header['format']!r} "
                             f"(expected {version})")
        if hashlib.sha256(data[end + 1:]).hexdigest() != header["sha256"]:
            raise ValueError("checksum mismatch (truncated or corrupted)")
        obj, meta = pickle.loads(data[end + 1:]), dict(header["meta"])
    except (ValueError, TypeError, KeyError, AttributeError, EOFError,
            ImportError, pickle.UnpicklingError) as exc:
        raise error(f"{path} is not a readable {kind}: {exc}") from exc
    if not isinstance(obj, cls):
        raise error(f"{path}: {kind} payload does not contain the expected "
                    f"{cls.__name__} (found {type(obj).__name__})")
    return obj, meta


def entries(directory: Path, pattern: re.Pattern[str],
            complete: Callable[[Path], bool]) -> list[str]:
    """Complete entries of ``directory`` whose names fully match
    ``pattern`` (group 1: the version number), oldest first."""
    found = [(int(match.group(1)), entry.name)
             for entry in (directory.iterdir() if directory.is_dir() else ())
             if (match := pattern.fullmatch(entry.name)) and complete(entry)]
    return [name for _, name in sorted(found)]


def write_pointer(directory: Path, name: str) -> None:
    """Atomically point ``directory``'s ``LATEST`` at entry ``name``."""
    atomic_write(directory / LATEST, name + "\n")


def read_pointer(directory: Path, pattern: re.Pattern[str],
                 complete: Callable[[Path], bool]) -> str | None:
    """The complete entry ``LATEST`` names; failing that the newest
    complete entry, with ``LATEST`` rewritten to it where the directory
    is writable; ``None`` if none."""
    try:
        named = (directory / LATEST).read_text(encoding="utf-8").strip()
    except (OSError, UnicodeDecodeError):
        named = ""
    if pattern.fullmatch(named) and complete(directory / named):
        return named
    found = entries(directory, pattern, complete)
    if not found:
        return None
    with contextlib.suppress(OSError):
        write_pointer(directory, found[-1])
    return found[-1]
