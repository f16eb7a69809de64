"""Exception hierarchy shared across the package, the text line reader and
the file hasher.

The CLI maps InputError to exit code 2 (bad input or configuration) and
every other HyperprojError to exit code 1 (runtime failure). ``utf8_lines``
makes bytes that are not UTF-8 an InputError naming the file and line, and
drops one leading byte-order mark (U+FEFF). Text embedding files are parsed
through it as they are read; ``load_relations`` decodes a whole file and
reads through it only to name the line of an error. ``file_sha256`` is the
package's one file hash, for the embedding loader and the manifests alike.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from pathlib import Path


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


def file_sha256(path: str | Path) -> str:
    """Hex SHA-256 of a file's bytes, streamed through one 256 KiB buffer."""
    digest = hashlib.sha256()
    buf = bytearray(1 << 18)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            digest.update(view[:n])
    return digest.hexdigest()
