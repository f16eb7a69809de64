"""The cache directory of parsed tables and bound splits: where it is, how an
entry is named and found, and which entries are kept.

Each kind keeps beside its loader what its entry holds, its magic, version,
header fields and soundness checks: a parsed text table in ``embeddings``
(``.hptab``), a split bound to a table's vocabulary in ``dataset``
(``.hpsplit``). The command-line tool's directory is HYPERPROJ_CACHE, else
``$XDG_CACHE_HOME/hyperproj``, else ``~/.cache/hyperproj``, or none, so no
cache, without a home directory (``directory``); the library caches only in
a directory it is given. An entry is a container (see ``errors``) named
``<key>-<version><suffix>``: its key a SHA-256, its version that of its
kind's rules, also in its header, so that versions of the package sharing a
directory keep their own entries. An entry that is missing, damaged, of
another version or key, or unsound to its kind is a miss; a hit updates its
modification time. A write that fails is only logged, so an unwritable
directory means parsing every time. After writing an entry of either kind,
entries named by a digest alone, which no version reads, are deleted, then
the least recently used entries of both kinds while together they exceed
MAX_BYTES (``_evict``).
"""

from __future__ import annotations

import contextlib
import logging
import os
from collections.abc import Callable
from pathlib import Path
from typing import Any

import numpy as np

from .errors import InputError, read_container, write_container

log = logging.getLogger(__name__)

MAX_BYTES = 1 << 30  # entries a cache directory keeps, of both kinds, see _evict
SUFFIXES = (".hptab", ".hpsplit")  # a parsed table, a bound split


def directory() -> Path | None:
    """The command-line tool's cache directory, see the module docstring."""
    if os.environ.get("HYPERPROJ_CACHE"):
        return Path(os.environ["HYPERPROJ_CACHE"])
    if os.environ.get("XDG_CACHE_HOME"):
        return Path(os.environ["XDG_CACHE_HOME"]) / "hyperproj"
    try:
        return Path.home() / ".cache" / "hyperproj"
    except RuntimeError:  # neither HOME nor a password entry names one
        return None


def entry_path(cache: str | Path, key: str, version: int, suffix: str) -> Path:
    """Where the entry of ``key`` lives in ``cache``: ``<key>-<version><suffix>``."""
    return Path(cache) / f"{key}-{version}{suffix}"


def lookup(entry: Path, magic: bytes, version: int, key_field: str, key: str | list[str],
           read: Callable[[dict, np.ndarray], Any]) -> Any:
    """What ``read`` makes of the header and payload of ``entry``, a container of
    ``magic`` whose header holds ``version`` and ``key`` (as ``key_field``); None for
    a miss, where ``read`` returns None or fails on a field. A hit is refreshed."""
    try:
        header, payload = read_container(entry, magic)
        found = (read(header, payload) if header["version"] == version
                 and header[key_field] == key else None)
    except (OSError, InputError, TypeError, KeyError, AttributeError):
        return None
    if found is not None:
        with contextlib.suppress(OSError):
            os.utime(entry)
    return found


def store(entry: Path, magic: bytes, header: dict, *arrays: np.ndarray) -> None:
    """Write an entry, a container, then evict; failures are only logged."""
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        write_container(entry, magic, header, *arrays)
    except OSError as exc:
        log.info("cache entry not written: %s", exc)
        return
    _evict(entry)


def _evict(kept: Path) -> None:
    """Delete the entries beside ``kept`` named by a digest alone, then the least
    recently used ones, oldest modification time first, while all together hold
    more than MAX_BYTES; ``kept``, just written, stays. An entry that cannot be
    listed, read or deleted is passed over: another process may be using the
    directory. 1 GiB holds about 17 tables of 70k words at d=100 (57 MB each),
    or 1,350 of 7k words at d=10 with a 6,000-row split (0.15 MB) beside each.
    """
    aged = []
    # one listing, no Path built per entry: name[dot:] and name[:dot] are its suffix and stem
    with contextlib.suppress(OSError), os.scandir(kept.parent) as listing:
        for entry in listing:
            dot = entry.name.rfind(".")
            if dot < 1 or entry.name[dot:] not in SUFFIXES:
                continue
            with contextlib.suppress(OSError):
                if "-" not in entry.name[:dot]:
                    (kept.parent / entry.name).unlink()
                    continue
                st = entry.stat()
                aged.append((st.st_mtime_ns, entry.name, st.st_size))
    total = sum(size for *_, size in aged)
    for _, name, size in sorted(aged):  # the oldest first
        if total <= MAX_BYTES:
            break
        if name != kept.name:
            with contextlib.suppress(OSError):
                (kept.parent / name).unlink()
                total -= size
