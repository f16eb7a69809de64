"""Exception hierarchy shared across the package, and its one way each to
read a text file's lines, hash a file, replace a file and lay out a binary one.

The CLI maps InputError to exit code 2 (bad input or configuration) and
every other HyperprojError to exit code 1 (runtime failure). ``utf8_lines``
makes bytes that are not UTF-8 an InputError naming the file and line, and
drops one leading byte-order mark (U+FEFF). Text embedding files are parsed
through it as they are read, ``read_relations`` decodes a whole file, and
both read through it again only to name the line of an error.
``file_sha256`` is the package's one file hash, for the embedding loader and
the manifests' outputs; ``read_hashed`` gives the same digest of the bytes a
relations, model or cluster reader parses or, through the cache, looks up.
Every file the package writes goes through ``atomic_open``. Cache entries, of
tables and of bound splits, and models are containers: magic, a sorted JSON header padded so that the payload
is 8-byte aligned, NUL, a little-endian float64 payload, a CRC-32 of it all.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import zlib
from collections.abc import Iterator
from pathlib import Path
from typing import IO

import numpy as np


class HyperprojError(Exception):
    """Base class for all errors raised by hyperproj."""


class InputError(HyperprojError):
    """Malformed file, unresolvable word, or invalid configuration."""


class TrainingError(HyperprojError):
    """Optimization failure, e.g. a non-finite gradient."""


def utf8_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each line of a UTF-8 text file."""
    # undecodable bytes come through as lone surrogates, which cannot re-encode
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                if lineno == 1:  # by hand: utf-8-sig would also drop a cut mark, b"\xef"
                    line = line.removeprefix("\ufeff")
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise InputError(f"{path}:{lineno}: not valid UTF-8") from None
            yield lineno, line


def read_hashed(path: str | Path) -> tuple[bytes, str]:
    """A file's bytes and their hex SHA-256, from one read."""
    data = Path(path).read_bytes()
    return data, hashlib.sha256(data).hexdigest()


def file_sha256(path: str | Path) -> str:
    """Hex SHA-256 of a file's bytes, streamed through one 256 KiB buffer."""
    digest = hashlib.sha256()
    buf = bytearray(1 << 18)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            digest.update(view[:n])
    return digest.hexdigest()


@contextlib.contextmanager
def atomic_open(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """A new file beside ``path``, open in ``mode`` ("w" for UTF-8 text, or "wb"), renamed
    over ``path`` when the block ends, or deleted if it raises. ``open(..., "x")`` makes
    it under a random name, with a plain ``open``'s mode bits, never over another's file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, mode.replace("w", "x"), encoding=None if "b" in mode else "utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_container(path: str | Path, magic: bytes, header: dict, *arrays: np.ndarray) -> None:
    """Write ``header`` and the ``arrays``, flattened in order, as a container."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
    blob += b" " * (-(len(magic) + len(blob) + 1) % 8)  # the payload starts 8-byte aligned
    crc = 0
    with atomic_open(path, "wb") as fh:
        for part in (magic, blob, b"\x00", *(np.ascontiguousarray(a, "<f8").data for a in arrays)):
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(crc.to_bytes(4, "little"))


def read_container(path: str | Path, magic: bytes,
                   data: bytearray | None = None) -> tuple[dict, np.ndarray]:
    """Header and flat float64 payload (a writable view of the bytes, not a copy) of
    the container ``path``, whose bytes are ``data`` if the caller has read them."""
    if data is None:
        with open(path, "rb") as fh:
            data = bytearray(os.fstat(fh.fileno()).st_size)
            if fh.readinto(data) != len(data):
                raise InputError(f"{path}: short read")
    if not data.startswith(magic):
        raise InputError(f"{path}: bad magic, not a {magic.decode()} file")
    end = len(data) - 4  # the CRC-32 follows the payload
    if zlib.crc32(memoryview(data)[:end]) != int.from_bytes(data[end:], "little"):
        raise InputError(f"{path}: checksum mismatch, the file is damaged")
    nul = data.find(b"\x00", len(magic), end)
    if nul < 0:
        raise InputError(f"{path}: unterminated header")
    try:
        header = json.loads(data[len(magic):nul].decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise InputError(f"{path}: malformed header ({exc})") from None
    if (nul + 1) % 8 or (end - nul - 1) % 8:
        raise InputError(f"{path}: payload is not 8-byte aligned float64")
    payload = np.frombuffer(data, "<f8", (end - nul - 1) // 8, nul + 1)
    if not np.isfinite(payload).all():
        raise InputError(f"{path}: non-finite value in the payload")
    return header, payload  # a header that is not an object fails its reader's field checks
