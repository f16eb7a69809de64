import os
import stat
import zlib
from unittest import mock

import numpy as np
import pytest

from hyperproj.dataset import Relations, write_relations
from hyperproj.errors import InputError, atomic_open, read_container, write_container
from hyperproj.projection import save_model

from conftest import make_model

MAGIC = b"TEST1"


def checksummed(body: bytes) -> bytes:
    return body + zlib.crc32(body).to_bytes(4, "little")


class TestAtomicOpen:
    @pytest.mark.parametrize("writer", ["text", "binary", "relations"])
    def test_a_writer_that_raises_leaves_the_old_bytes_and_no_temporary_file(
            self, tmp_path, writer):
        path = tmp_path / "out"
        path.write_bytes(b"old bytes\n")
        error, match = ((UnicodeEncodeError, "surrogates not allowed") if writer == "relations"
                        else (RuntimeError, "mid-write"))
        with pytest.raises(error, match=match):
            if writer == "relations":  # a lone surrogate cannot be encoded: the write fails
                write_relations(Relations(["a", "b", "c\ud800"], np.array([[0, 1], [1, 2]]),
                                          np.zeros(2, np.int8)), path)
            else:
                with atomic_open(path, "w" if writer == "text" else "wb") as fh:
                    fh.write("new" if writer == "text" else b"new")
                    fh.flush()
                    raise RuntimeError("the writer fails mid-write")
        assert path.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_the_target_is_replaced_only_at_the_end(self, tmp_path):
        path = tmp_path / "out"
        path.write_text("old\n")
        with atomic_open(path) as fh:
            fh.write("new\n")
            fh.flush()
            assert path.read_text() == "old\n"
            [tmp] = [p for p in tmp_path.iterdir() if p != path]
            assert tmp.name.startswith(".out.") and tmp.read_text() == "new\n"
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("writer", ["text", "binary", "model"])
    def test_a_new_file_has_the_mode_a_plain_open_gives(self, tmp_path, writer):
        umask = os.umask(0o022)
        try:
            with open(tmp_path / "plain", "w"):
                pass
            if writer == "model":
                save_model(make_model(np.eye(2)), tmp_path / "out")
            else:
                with atomic_open(tmp_path / "out", "w" if writer == "text" else "wb"):
                    pass
        finally:
            os.umask(umask)
        modes = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("plain", "out")]
        assert modes == [0o644, 0o644]


class TestContainer:
    def test_roundtrip_is_aligned_and_writable(self, tmp_path):
        for n in range(8):  # headers of every length modulo 8
            header = {"name": "x" * n, "values": [1, 2]}
            write_container(tmp_path / "c", MAGIC, header, np.eye(2), np.arange(3.0))
            got, payload = read_container(tmp_path / "c", MAGIC)
            assert got == header
            assert payload.tolist() == [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 2.0]
            assert payload.flags.aligned and payload.flags.writeable

    def test_layout(self, tmp_path):
        write_container(tmp_path / "c", MAGIC, {"b": 1, "a": 2}, np.array([0.5]))
        data = (tmp_path / "c").read_bytes()
        # 5 + 13 + 5 + 1 bytes: the payload starts at offset 24
        body = MAGIC + b'{"a":2,"b":1}' + b" " * 5 + b"\x00" + np.array([0.5], "<f8").tobytes()
        assert data == checksummed(body)

    @pytest.mark.parametrize("body, expected", [
        (b"", "bad magic"),
        (b"TEST2{}\x00" + bytes(8), "bad magic"),
        (MAGIC + b"{}", "checksum mismatch"),
        (MAGIC + b"{} ", "unterminated header"),
        (MAGIC + b"[[\x00", "malformed header"),
        (MAGIC + b"{} \x00" + bytes(7), "not 8-byte aligned"),
        (MAGIC + b"{}\x00" + bytes(4), "not 8-byte aligned"),
        (MAGIC + b"{}\x00" + np.array([1.0, np.nan]).tobytes(), "non-finite value"),
    ], ids=["empty", "other-magic", "truncated", "no-nul", "json", "offset", "size", "nan"])
    def test_every_flaw_is_an_input_error(self, tmp_path, body, expected):
        path = tmp_path / "c"
        # past the magic, with a checksum that holds, so that the later checks are reached
        reaches_crc = body.startswith(MAGIC) and expected != "checksum mismatch"
        path.write_bytes(checksummed(body) if reaches_crc else body)
        with pytest.raises(InputError, match=expected):
            read_container(path, MAGIC)

    def test_short_read(self, tmp_path):
        path = tmp_path / "c"
        write_container(path, MAGIC, {}, np.zeros(1))
        real_fstat = os.fstat

        def one_byte_more(fd):
            st = real_fstat(fd)
            return os.stat_result((*st[:6], st.st_size + 1, *st[7:10]))

        with mock.patch("os.fstat", one_byte_more), pytest.raises(InputError, match="short read"):
            read_container(path, MAGIC)
