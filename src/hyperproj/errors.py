"""Exception hierarchy shared across the package, and the text line reader.

The CLI maps InputError to exit code 2 (bad input or configuration) and
every other HyperprojError to exit code 1 (runtime failure). Every text
loader reads through ``utf8_lines``, so a byte sequence that is not UTF-8
is an InputError naming the file and line.
"""

from __future__ import annotations

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
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise InputError(f"{path}:{lineno}: not valid UTF-8") from None
            yield lineno, line
