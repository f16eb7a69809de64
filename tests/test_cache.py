"""The cache directory of parsed tables and bound splits (``hyperproj.cache``).

The behaviour of each entry kind is tested beside its loader, in
test_embeddings.py and test_dataset.py; here, what both share: the bytes of
an entry, which every user's warm cache depends on, the refresh of a hit, and
that no other module names, reads, writes or evicts entries.
"""

import ast
import hashlib
import importlib
import os

import pytest

from hyperproj.dataset import read_split_dir
from hyperproj.embeddings import load_embeddings

# a table with a duplicate word, and a split with a duplicate row and a positive
# out of the table's vocabulary, so that both headers hold nonzero counts
PINNED_TABLE = "3 2\ncat 1 0.5\nanimal 0.25 -2\ncat 3 4\n"
PINNED_SPLIT = {
    "train": "cat\tanimal\thypernym\ncat\tanimal\thypernym\n",
    "validation": "",
    "test": "dog\tanimal\thypernym\n",
    "negatives": "animal\tcat\tcohyponym\n",
}
# the name and SHA-256 of each entry, as the entries of CACHE_VERSION 3 and
# SPLIT_CACHE_VERSION 1 were first written: a change here turns every warm cache cold
PINNED_ENTRIES = {
    "450c27291087a9dbde079a13adcedb5a4b29858f098237e27c0363c08ce9de99-3.hptab":
        "7a96ab02796d64c1999bb7d230af69729cdbbfdf7a6afa3e06ae1a025c64e0c7",
    "a3884548969a02ed0f627771333f546952b955d35ee86d87aa1cc5abec080a84-1.hpsplit":
        "ba8fd8a04e95734fbb03553a021bafc7b39d92f3d7564b7dcf13a8a2864794c0",
}


def pinned_inputs(tmp_path):
    emb = tmp_path / "embeddings.txt"
    emb.write_text(PINNED_TABLE, encoding="utf-8")
    split = tmp_path / "split"
    split.mkdir()
    for name, text in PINNED_SPLIT.items():
        (split / f"{name}.tsv").write_text(text, encoding="utf-8")
    return emb, split


def test_entry_names_and_bytes_are_pinned(tmp_path):
    emb, split = pinned_inputs(tmp_path)
    cache = tmp_path / "cache"
    table = load_embeddings(emb, cache=cache)
    bound = read_split_dir(split, table, cache=cache)
    assert (table.cache_status, bound.cache_status) == ("miss", "miss")
    assert {entry.name: hashlib.sha256(entry.read_bytes()).hexdigest()
            for entry in cache.iterdir()} == PINNED_ENTRIES


def test_a_split_hit_refreshes_its_entry(tmp_path, monkeypatch):
    emb, split = pinned_inputs(tmp_path)
    cache = tmp_path / "cache"
    table = load_embeddings(emb, cache=cache)
    read_split_dir(split, table, cache=cache)
    [table_entry], [split_entry] = cache.glob("*.hptab"), cache.glob("*.hpsplit")
    os.utime(split_entry, ns=(0, 10**9))  # used before the table's
    os.utime(table_entry, ns=(0, 2 * 10**9))
    assert read_split_dir(split, table, cache=cache).cache_status == "hit"
    # another table of the same words and shape: an entry of the same size
    other = tmp_path / "other.txt"
    other.write_text(PINNED_TABLE.replace("3 4", "3 5"), encoding="utf-8")
    # room for the split's entry and the new one, and not for all three
    monkeypatch.setattr("hyperproj.cache.MAX_BYTES",
                        split_entry.stat().st_size + table_entry.stat().st_size)
    assert load_embeddings(other, cache=cache).cache_status == "miss"
    assert split_entry.exists() and not table_entry.exists()
    assert len(list(cache.iterdir())) == 2


# what only hyperproj.cache may do with entries: read or write their
# containers, refresh or list them, and the names it replaced
ENTRY_CALLS = {"read_container", "write_container", "utime", "scandir"}
CACHE_NAMES = {"_entry_path", "_store", "_touch", "_evict", "_cache_dir"}


def cache_policy_uses(source: str) -> list[str]:
    """Each place in ``source`` that reads, writes, refreshes, lists or names cache
    entries past ``hyperproj.cache``, or imports a private name of ``embeddings``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ENTRY_CALLS:
                found.append(f"line {node.lineno}: calls {name}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in CACHE_NAMES:
                found.append(f"line {node.lineno}: defines {node.name}")
        elif isinstance(node, ast.ImportFrom):
            private = node.module == "embeddings" and node.level == 1
            found += [f"line {node.lineno}: imports {alias.name}" for alias in node.names
                      if alias.name in CACHE_NAMES or private and alias.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr in CACHE_NAMES:
            found.append(f"line {node.lineno}: names {node.attr}")
    return found


@pytest.mark.parametrize("module", ["embeddings", "dataset", "cli"])
def test_only_the_cache_module_handles_entries(module):
    path = importlib.import_module(f"hyperproj.{module}").__file__
    with open(path, encoding="utf-8") as fh:
        assert cache_policy_uses(fh.read()) == []


def test_the_policy_scan_sees_each_way_round_the_cache_module():
    source = """
from .embeddings import EmbeddingTable, _finish
from .cache import _evict
def _touch(entry): os.utime(entry)
def f(entry):
    read_container(entry, b"M")
    errors.write_container(entry, b"M", {})
    with os.scandir(entry.parent):
        embeddings._store(entry)
"""
    assert cache_policy_uses(source) == [
        "line 2: imports _finish", "line 3: imports _evict", "line 4: defines _touch",
        "line 4: calls utime", "line 6: calls read_container", "line 7: calls write_container",
        "line 8: calls scandir", "line 9: names _store"]
