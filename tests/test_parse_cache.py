"""read_bundle's parse cache: the columns of a large predictions.csv are
kept under the user's cache directory, keyed by content, and loaded on a
later read of the same bytes.  Each test lowers the size threshold to 0,
so that the small bundles here are cached too."""

import os
import pwd
from pathlib import Path

import pytest

from prediction_rows import predictions_of
from predscore import dataset
from predscore.dataset import (
    CUSTOM,
    ActionManifest,
    ExperimentBundle,
    read_bundle,
    write_bundle,
)
from predscore.errors import ParseError
from predscore.values import DecisionValues

ROWS = [(f"p{i}", "AB"[i % 2], d, "abc"[(i + j) % 3])
        for i in range(6) for j, d in enumerate(("d1", "d2"))]


def _bundle() -> ExperimentBundle:
    manifest = ActionManifest("e1", CUSTOM, (("a", "Alpha"), ("b", "Beta"), ("c", "Gamma")))
    decisions = tuple(DecisionValues(d, {"a": 1.0, "b": 0.5, "c": -2.0}, "a") for d in ("d1", "d2"))
    return ExperimentBundle(manifest, decisions, predictions_of(ROWS), ("A", "B"))


@pytest.fixture
def cache(monkeypatch) -> Path:
    """The cache directory, with every predictions.csv large enough to cache."""
    monkeypatch.setattr(dataset, "_CACHE_MIN_BYTES", 0)
    return Path(os.environ["XDG_CACHE_HOME"]) / "predscore"


@pytest.fixture
def parses(monkeypatch) -> list:
    """One item per call of parse_predictions_csv."""
    calls = []
    parse = dataset.parse_predictions_csv

    def counted(data):
        calls.append(data)
        return parse(data)

    monkeypatch.setattr(dataset, "parse_predictions_csv", counted)
    return calls


def _entries(cache: Path) -> list[Path]:
    return sorted(cache.glob("*.columns"))


def _leftovers(cache: Path) -> list[Path]:
    return [p for p in cache.iterdir() if p.suffix == ".tmp"] if cache.exists() else []


def test_a_miss_writes_one_entry_and_a_hit_loads_it(tmp_path, cache, parses):
    path = write_bundle(_bundle(), tmp_path / "b")
    first = read_bundle(path)
    assert len(parses) == 1 and len(_entries(cache)) == 1 and not _leftovers(cache)
    assert read_bundle(path) == first == _bundle()
    assert len(parses) == 1 and len(_entries(cache)) == 1


def test_the_directory_is_the_users_alone(tmp_path, cache):
    read_bundle(write_bundle(_bundle(), tmp_path / "b"))
    assert cache.stat().st_mode & 0o777 == 0o700


def test_a_small_file_is_parsed_as_it_was(tmp_path, monkeypatch, parses):
    """Below the threshold nothing is cached, and the cache directory is not made."""
    monkeypatch.setattr(dataset, "_CACHE_MIN_BYTES", 1 << 20)
    path = write_bundle(_bundle(), tmp_path / "b")
    read_bundle(path)
    read_bundle(path)
    assert len(parses) == 2
    assert not (Path(os.environ["XDG_CACHE_HOME"]) / "predscore").exists()


def _refusal(path) -> tuple:
    with pytest.raises(ParseError) as info:
        read_bundle(path)
    return str(info.value), info.value.row, info.value.column


def test_a_refused_bundle_is_refused_alike_and_leaves_no_entry(tmp_path, monkeypatch, cache):
    """A refusal on a miss writes nothing.  With an entry for the same
    predictions.csv, a bundle whose manifest no longer lists a treatment
    is refused with the message, row and column it gets uncached."""
    path = write_bundle(_bundle(), tmp_path / "b")
    unlisted = path / "manifest.json"
    good = unlisted.read_text(encoding="utf-8")
    unlisted.write_text(good.replace('"B"\n', '"C"\n'), encoding="utf-8")
    refused = _refusal(path)
    assert refused[1:] == (4, "treatment")
    assert not _entries(cache) and not _leftovers(cache)

    unlisted.write_text(good, encoding="utf-8")
    read_bundle(path)
    assert len(_entries(cache)) == 1
    unlisted.write_text(good.replace('"B"\n', '"C"\n'), encoding="utf-8")
    assert _refusal(path) == refused
    monkeypatch.setattr(dataset, "_CACHE_MIN_BYTES", 1 << 40)
    assert _refusal(path) == refused


@pytest.mark.parametrize("damage", [
    lambda blob: blob[:len(blob) // 2],
    lambda blob: blob[:-1],
    lambda blob: blob[:20] + bytes([blob[20] ^ 1]) + blob[21:],
    lambda blob: blob[:-32] + bytes(32),
    lambda blob: b"",
], ids=["truncated", "last-byte-gone", "flipped-byte", "wrong-digest", "empty"])
def test_a_damaged_entry_is_parsed_again_and_rewritten(tmp_path, cache, parses, damage):
    path = write_bundle(_bundle(), tmp_path / "b")
    read_bundle(path)
    [entry] = _entries(cache)
    good = entry.read_bytes()
    entry.write_bytes(damage(good))
    assert read_bundle(path) == _bundle()
    assert len(parses) == 2
    assert _entries(cache) == [entry] and entry.read_bytes() == good


def _read_only(cache: Path, monkeypatch) -> None:
    cache.mkdir(parents=True, mode=0o700)
    cache.chmod(0o500)
    if os.geteuid() == 0:  # root writes through the mode, so the refused write is made here
        def refused(file, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(file))
        monkeypatch.setattr(dataset, "open", refused, raising=False)


def _group_writable(cache: Path, monkeypatch) -> None:
    cache.mkdir(parents=True, mode=0o700)
    cache.chmod(0o770)


def _foreign(cache: Path, monkeypatch) -> None:
    cache.mkdir(parents=True, mode=0o700)
    monkeypatch.setattr(os, "geteuid", lambda: cache.stat().st_uid + 1)


def _no_home(cache: Path, monkeypatch) -> None:
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.delenv("HOME", raising=False)

    def no_user(uid):
        raise KeyError(uid)

    monkeypatch.setattr(pwd, "getpwuid", no_user)
    with pytest.raises(RuntimeError):
        Path.home()


@pytest.mark.parametrize("make", [_read_only, _group_writable, _foreign, _no_home],
                         ids=["read-only", "group-writable", "foreign-owned", "no-home"])
def test_an_unusable_directory_reads_as_uncached(tmp_path, cache, monkeypatch, capfd, make):
    path = write_bundle(_bundle(), tmp_path / "b")
    make(cache, monkeypatch)
    assert read_bundle(path) == read_bundle(path) == _bundle()
    assert capfd.readouterr() == ("", "")
    if cache.exists():
        cache.chmod(0o700)
        assert list(cache.iterdir()) == []


def test_an_edited_file_or_parser_misses(tmp_path, cache, monkeypatch, parses):
    path = write_bundle(_bundle(), tmp_path / "b")
    read_bundle(path)
    with open(path / "predictions.csv", "a", encoding="utf-8") as fh:
        fh.write("\n")  # a blank line: the same predictions from other bytes
    assert read_bundle(path) == _bundle()
    assert len(parses) == 2 and len(_entries(cache)) == 2

    edited = tmp_path / "dataset.py"
    edited.write_bytes(Path(dataset.__file__).read_bytes() + b"# edited\n")
    monkeypatch.setattr(dataset, "__file__", str(edited))
    read_bundle(path)
    assert len(parses) == 3 and len(_entries(cache)) == 3

    monkeypatch.setattr(dataset, "_CACHE_TAG", dataset._CACHE_TAG + b"+")
    read_bundle(path)
    assert len(parses) == 4 and len(_entries(cache)) == 4


def test_the_newest_entries_are_kept(tmp_path, cache, parses):
    """Each bundle here differs by its trailing blank lines, so each is
    one entry.  Entries are given mtimes a second apart, and a hit on the
    oldest one makes it the newest."""
    paths = []
    for i in range(dataset._CACHE_ENTRIES + 2):
        path = write_bundle(_bundle(), tmp_path / f"b{i}")
        with open(path / "predictions.csv", "a", encoding="utf-8") as fh:
            fh.write("\n" * i)
        paths.append(path)
    made = []
    for i, path in enumerate(paths):
        if i == dataset._CACHE_ENTRIES:
            read_bundle(paths[0])  # a hit
            assert len(parses) == i
        before = set(_entries(cache))
        read_bundle(path)
        [entry] = set(_entries(cache)) - before
        os.utime(entry, (1e9 + i, 1e9 + i))
        made.append(entry)
        assert len(_entries(cache)) == min(i + 1, dataset._CACHE_ENTRIES)
    assert len(parses) == len(paths)
    assert _entries(cache) == sorted([made[0]] + made[3:])
