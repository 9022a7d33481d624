"""Crash-safe files: atomic replace, and a CRC-verified JSON entry store.

Every persisted file (spills, checkpoints, cache entries) is written by
:func:`atomic_write`.  Cache entries live one per key in
``<root>/<sanitised key>.json`` as ``{"crc32": "%08x", "key", "version",
"payload"}``, the CRC32 covering every byte after the fixed-width
``crc32`` field exactly as written: a read is one file read, one
``crc32`` and one ``json.loads``, and any single-byte change is caught.
A damaged entry is moved to ``*.corrupt``, logged and raised as
:class:`CorruptEntryError` (callers count a miss); an intact entry of
another key or version is a plain miss that the next write replaces.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import re
import threading
import zlib
from typing import IO, Any, Callable, NoReturn

logger = logging.getLogger("repro.util.durable")

StrPath = str | os.PathLike

_HEAD = b'{"crc32": "%08x", '
_HEAD_LEN = len(_HEAD % 0)
_UNSAFE = re.compile(r"[^\w-]")


class CorruptEntryError(ValueError):
    """A stored entry failed verification and was quarantined."""


def atomic_write(path: StrPath, write: Callable[[IO[bytes]], Any], *, fsync: bool = False) -> None:
    """Replace ``path`` all-or-nothing with what ``write(handle)`` writes.

    The temp file ``<path>.tmp.<pid>-<thread>.tmp`` sits beside ``path``
    and is removed on failure; ``fsync=True`` makes the bytes durable.
    """
    tmp = f"{os.fspath(path)}.tmp.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as handle:
            write(handle)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def entry_path(root: StrPath, key: str) -> str:
    """The file holding ``key``: ``<root>/<key minus unsafe chars>.json``."""
    return os.path.join(root, f"{_UNSAFE.sub('', key)}.json")


def write_verified(
    root: StrPath, key: str, payload: Any, *, version: int, fsync: bool = False
) -> None:
    """Atomically store JSON-serialisable ``payload`` under ``key``."""
    body = json.dumps({"key": key, "version": version, "payload": payload})[1:].encode()
    data = _HEAD % zlib.crc32(body) + body
    os.makedirs(root, exist_ok=True)
    atomic_write(entry_path(root, key), lambda handle: handle.write(data), fsync=fsync)


def read_verified(root: StrPath, key: str, *, version: int) -> Any:
    """The payload stored under ``key``, or ``None`` when there is none.

    Raises :class:`CorruptEntryError`, after quarantining the file, when
    the entry is unreadable or fails its checksum.
    """
    path = entry_path(root, key)
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        return None
    except OSError as exc:
        _quarantine(path, f"unreadable: {exc}")
    if raw[:_HEAD_LEN] != _HEAD % zlib.crc32(memoryview(raw)[_HEAD_LEN:]):
        _quarantine(path, "checksum mismatch")
    try:
        envelope = json.loads(raw)
    except ValueError as exc:
        _quarantine(path, f"not JSON: {exc}")
    if envelope.get("key") != key or envelope.get("version") != version:
        return None
    return envelope.get("payload")


def _quarantine(path: str, why: str) -> NoReturn:
    logger.warning("cache entry %s is corrupt (%s); quarantining", path, why)
    with contextlib.suppress(OSError):  # a racing quarantine already moved it
        os.replace(path, f"{path}.corrupt")
    raise CorruptEntryError(f"{path}: {why}")
