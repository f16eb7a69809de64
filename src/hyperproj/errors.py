"""Exception hierarchy shared across the package, and the text line reader.

The CLI maps InputError to exit code 2 (bad input or configuration) and
every other HyperprojError to exit code 1 (runtime failure). Every text
loader reads through ``utf8_lines``, so a byte sequence that is not UTF-8
is an InputError naming the file and line, and one leading byte-order mark
(U+FEFF) is dropped.
"""

from __future__ import annotations

import io
from collections.abc import Iterator
from pathlib import Path


class HyperprojError(Exception):
    """Base class for all errors raised by hyperproj."""


class InputError(HyperprojError):
    """Malformed file, unresolvable word, or invalid configuration."""


class TrainingError(HyperprojError):
    """Optimization failure, e.g. a non-finite gradient."""


def utf8_lines(path: str | Path, data: bytes | None = None) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each line of a UTF-8 text file.

    ``data``, when given, is read in place of the file's bytes, with the
    same decoding and line ends; ``path`` still names the file in errors.
    """
    # undecodable bytes come through as lone surrogates, which cannot re-encode
    with (open(path, encoding="utf-8", errors="surrogateescape") if data is None else
          io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                if lineno == 1:  # by hand: utf-8-sig would also drop a cut mark, b"\xef"
                    line = line.removeprefix("\ufeff")
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise InputError(f"{path}:{lineno}: not valid UTF-8") from None
            yield lineno, line
