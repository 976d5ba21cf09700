"""read_bundle's parse cache: the columns of a large predictions.csv, their
(participant, decision) order, their vote tally and each participant's
loss totals are kept under the user's cache directory, keyed by the
bundle's three files and the package's source, and loaded on a later read
of the same bytes without the bundle's per-prediction rules or walks.  Each
test lowers the size threshold to 0, so that the small bundles here are
cached too."""

import marshal
import os
import pwd
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from prediction_rows import predictions_of
from predscore import dataset, metrics, osutil, parsecache
from predscore.cli import main
from predscore.dataset import (
    CUSTOM,
    ActionManifest,
    ExperimentBundle,
    read_bundle,
    write_bundle,
)
from predscore.errors import ParseError, ValidationError
from predscore.metrics import score_table
from predscore.report import participant_loss_sums
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


def _refused(*args, **kwargs):
    raise AssertionError("called on a cache hit")


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


def test_a_miss_runs_every_rule_and_a_hit_none(tmp_path, cache, monkeypatch):
    """ExperimentBundle's rules run once, on the miss that writes the entry.
    A hit builds the bundle from the entry: with those rules and the
    (participant, decision) sort made to fail, it still reads, and the
    order it attaches is the one every walk takes."""
    expected = _bundle()
    path = write_bundle(expected, tmp_path / "b")
    checks = []
    check = ExperimentBundle.__new__

    def counted(cls, *args, **kwargs):
        checks.append(args)
        return check(cls, *args, **kwargs)

    monkeypatch.setattr(ExperimentBundle, "__new__", counted)
    missed = read_bundle(path)
    assert len(checks) == 1 and len(_entries(cache)) == 1
    monkeypatch.setattr(ExperimentBundle, "__new__", _refused)
    monkeypatch.setattr(metrics, "sorted", _refused, raising=False)
    hit = read_bundle(path)
    assert type(hit) is ExperimentBundle and hit == expected
    order = metrics.by_participant_and_decision(hit.predictions)
    assert order is hit.predictions._order
    assert order == missed.predictions._order


def test_a_miss_after_an_edit_runs_every_rule(tmp_path, cache, monkeypatch, parses):
    """values.csv edited under an entry for the old bundle: the read misses,
    and its refusal is the one an uncached read gives."""
    path = write_bundle(_bundle(), tmp_path / "b")
    read_bundle(path)
    values = path / "values.csv"
    values.write_text("".join(line for line in values.read_text(encoding="utf-8").splitlines(True)
                              if not line.startswith("d2,c,")), encoding="utf-8")
    refused = _refusal(path)
    assert refused == ("prediction by 'p1' references action 'c', which decision 'd2' does not "
                       "value (row 5, column 'predicted_action')", 5, "predicted_action")
    assert len(parses) == 2 and len(_entries(cache)) == 1
    monkeypatch.setattr(dataset, "_CACHE_MIN_BYTES", 1 << 40)
    assert _refusal(path) == refused


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
        monkeypatch.setattr(osutil, "open", refused, raising=False)


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


def _no_source(cache: Path, monkeypatch) -> None:
    """The package as a zip would hold it: no module is a file to hash."""
    monkeypatch.setattr(parsecache, "__file__",
                        str(cache.parent / "app.pyz" / "predscore" / "parsecache.py"))


def _no_blake2(cache: Path, monkeypatch) -> None:
    """An interpreter built without BLAKE2: importing _blake2 fails."""
    monkeypatch.setitem(sys.modules, "_blake2", None)


@pytest.mark.parametrize("make", [_read_only, _group_writable, _foreign, _no_home, _no_source,
                                  _no_blake2],
                         ids=["read-only", "group-writable", "foreign-owned", "no-home", "no-source",
                              "no-blake2"])
def test_an_unusable_directory_reads_as_uncached(tmp_path, cache, monkeypatch, capfd, make):
    path = write_bundle(_bundle(), tmp_path / "b")
    make(cache, monkeypatch)
    assert read_bundle(path) == read_bundle(path) == _bundle()
    assert capfd.readouterr() == ("", "")
    if cache.exists():
        cache.chmod(0o700)
        assert list(cache.iterdir()) == []


@pytest.mark.parametrize("name", ["manifest.json", "values.csv", "predictions.csv"])
def test_an_edited_file_misses(tmp_path, cache, parses, name):
    path = write_bundle(_bundle(), tmp_path / "b")
    read_bundle(path)
    with open(path / name, "a", encoding="utf-8") as fh:
        fh.write("\n")  # a blank line: the same bundle from other bytes
    assert read_bundle(path) == _bundle()
    assert len(parses) == 2 and len(_entries(cache)) == 2


MODULES = sorted(p.name for p in Path(parsecache.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_an_edited_module_misses(tmp_path, cache, monkeypatch, parses, module):
    """The key covers every module of the package: here the package is a
    copy, read through the path of its parsecache.py."""
    package = tmp_path / "predscore"
    package.mkdir()
    for name in MODULES:
        shutil.copyfile(Path(parsecache.__file__).parent / name, package / name)
    monkeypatch.setattr(parsecache, "__file__", str(package / "parsecache.py"))
    path = write_bundle(_bundle(), tmp_path / "b")
    read_bundle(path)
    read_bundle(path)
    assert len(parses) == 1
    with open(package / module, "a", encoding="utf-8") as fh:
        fh.write("# edited\n")
    read_bundle(path)
    assert len(parses) == 2 and len(_entries(cache)) == 2


def test_an_entry_in_the_old_format_is_read_again_and_rewritten(tmp_path, cache, parses):
    """The first format was four column records and their digest, the
    second added the order record.  At the key of this format, and with a
    digest that matches, neither loads, so the bundle is read in full and
    the entry rewritten."""
    path = write_bundle(_bundle(), tmp_path / "b")
    read_bundle(path)
    [entry] = _entries(cache)
    good = entry.read_bytes()
    columns = list(map(marshal.dumps, _bundle().predictions.columns))
    order = metrics.by_participant_and_decision(_bundle().predictions).tobytes()
    for old in (columns, columns + [order]):
        records = b"".join(len(record).to_bytes(8, "little") + record for record in old)
        entry.write_bytes(records + parsecache._content_hash(records).digest())
        parsed = len(parses)
        assert read_bundle(path) == _bundle()
        assert len(parses) == parsed + 1 and _entries(cache) == [entry]
        assert entry.read_bytes() == good


def test_the_newest_entries_are_kept(tmp_path, cache, parses):
    """Each bundle here differs by its trailing blank lines, so each is
    one entry.  Entries are given mtimes a second apart, and a hit on the
    oldest one makes it the newest."""
    paths = []
    for i in range(parsecache._CACHE_ENTRIES + 2):
        path = write_bundle(_bundle(), tmp_path / f"b{i}")
        with open(path / "predictions.csv", "a", encoding="utf-8") as fh:
            fh.write("\n" * i)
        paths.append(path)
    made = []
    for i, path in enumerate(paths):
        if i == parsecache._CACHE_ENTRIES:
            read_bundle(paths[0])  # a hit
            assert len(parses) == i
        before = set(_entries(cache))
        read_bundle(path)
        [entry] = set(_entries(cache)) - before
        os.utime(entry, (1e9 + i, 1e9 + i))
        made.append(entry)
        assert len(_entries(cache)) == min(i + 1, parsecache._CACHE_ENTRIES)
    assert len(parses) == len(paths)
    assert _entries(cache) == sorted([made[0]] + made[3:])


def _uncached(path) -> ExperimentBundle:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset, "_CACHE_MIN_BYTES", 1 << 40)
        return read_bundle(path)


def _hit(path) -> ExperimentBundle:
    read_bundle(path)
    bundle = read_bundle(path)
    assert bundle.predictions._totals is not None
    return bundle


def test_a_hit_counts_and_sums_with_no_walk(tmp_path, cache, monkeypatch):
    """On a hit, the vote counts and every space's loss sums come from the
    entry: with the tally's Counter and the walk's order made to fail, they
    equal an uncached read's."""
    path = write_bundle(_bundle(), tmp_path / "b")
    uncached = _uncached(path)
    scores = score_table(uncached.values_by_decision())
    all_spaces = (("value", "rank"), ("rank", "value"), ("value",), ("rank",), ())
    expected = [uncached.vote_counts()] + [participant_loss_sums(uncached, scores, spaces)
                                           for spaces in all_spaces]
    hit = _hit(path)
    monkeypatch.setattr(metrics, "Counter", _refused)
    monkeypatch.setattr(metrics, "by_participant_and_decision", _refused)
    assert [hit.vote_counts()] + [participant_loss_sums(hit, scores, spaces)
                                  for spaces in all_spaces] == expected


def _changed_value(bundle: ExperimentBundle) -> ExperimentBundle:
    """bundle with the value of d1's action b changed, so its LV changes."""
    first, *rest = bundle.decisions
    changed = first._replace(entries={**first.entries, "b": 0.25})
    return bundle._replace(decisions=(changed, *rest))


def _listed(bundle: ExperimentBundle) -> ExperimentBundle:
    return bundle._replace(treatments=(*bundle.treatments, "ALL"))


@pytest.mark.parametrize("change", [_changed_value, _listed], ids=["decisions", "treatments"])
def test_loss_sums_on_a_changed_hit_equal_an_uncached_read(tmp_path, cache, change):
    """A bundle read from a hit, then given other decisions or another
    listed treatment, sums as the same change to an uncached read."""
    path = write_bundle(_bundle(), tmp_path / "b")
    uncached, hit = change(_uncached(path)), change(_hit(path))
    scores = score_table(uncached.values_by_decision())
    for spaces in (("value", "rank"), ("value",), ("rank",)):
        assert (participant_loss_sums(hit, scores, spaces)
                == participant_loss_sums(uncached, scores, spaces))


@pytest.mark.parametrize("field", [0, 1], ids=["lv", "lr"])
def test_loss_sums_from_other_scores_equal_an_uncached_read(tmp_path, cache, field):
    """Totals summed from one score table are not used for another."""
    path = write_bundle(_bundle(), tmp_path / "b")
    uncached, hit = _uncached(path), _hit(path)
    scores = score_table(uncached.values_by_decision())
    row = list(scores["d1"]["b"])
    row[field] += 1
    scores["d1"]["b"] = tuple(row)
    for spaces in (("value", "rank"), ("value",), ("rank",)):
        assert (participant_loss_sums(hit, scores, spaces)
                == participant_loss_sums(uncached, scores, spaces))


def test_an_overflowing_large_bundle_gets_an_entry_and_a_hit_refuses_alike(
        tmp_path, cache, parses):
    """p2's value-space total overflows: the first read writes one entry
    like any other bundle's, and the second read hits it.  Each read
    refuses p2 with the uncached message, naming the participant, and still
    sums the rank space."""
    values = DecisionValues("P1", {"a": 1e308, "b": 0.0}, "a")
    bundle = ExperimentBundle(
        ActionManifest("big", CUSTOM, (("a", "a"), ("b", "b"))),
        (values, values._replace(decision_id="P2")),
        predictions_of([("p1", "T", "P1", "a"), ("p1", "T", "P2", "a"),
                        ("p2", "T", "P1", "b"), ("p2", "T", "P2", "b")]), ("T",))
    path = write_bundle(bundle, tmp_path / "b")
    message = "^the value-space loss sum of participant 'p2' in treatment 'T' overflows$"
    for _ in range(2):
        read = read_bundle(path)
        assert len(parses) == 1 and len(_entries(cache)) == 1
        assert read.predictions._totals is not None
        scores = score_table(read.values_by_decision())
        with pytest.raises(ValidationError, match=message):
            participant_loss_sums(read, scores)
        with pytest.raises(ValidationError, match=message):
            participant_loss_sums(read, scores, ("value",))
        assert participant_loss_sums(read, scores, ("rank",))["rank"][0].values == (0.0, 2.0)


def test_an_entry_does_not_depend_on_string_hashing(tmp_path):
    """One bundle over the size threshold, with eight treatments, read in
    two fresh interpreters whose string hashes differ: the two entries
    are byte for byte the same, so no part of one follows a set's order."""
    manifest = ActionManifest("e1", CUSTOM, (("a", "Alpha"), ("b", "Beta"), ("c", "Gamma")))
    decisions = tuple(DecisionValues(d, {"a": 1.0, "b": 0.5, "c": -2.0}, "a") for d in ("d1", "d2"))
    rows = [(f"participant-{i:06d}", "ABCDEFGH"[i % 8], d, "abc"[(i + j) % 3])
            for i in range(30000) for j, d in enumerate(("d1", "d2"))]
    bundle = ExperimentBundle(manifest, decisions, predictions_of(rows), tuple("ABCDEFGH"))
    path = write_bundle(bundle, tmp_path / "b")
    assert (path / "predictions.csv").stat().st_size >= dataset._CACHE_MIN_BYTES
    src = str(Path(dataset.__file__).resolve().parents[1])
    code = "import sys\nfrom predscore.dataset import read_bundle\nread_bundle(sys.argv[1])"
    blobs = []
    for seed in ("1", "2"):
        home = tmp_path / f"cache-{seed}"
        subprocess.run([sys.executable, "-c", code, str(path)], check=True, env={
            **os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed, "XDG_CACHE_HOME": str(home)})
        [entry] = _entries(home / "predscore")
        blobs.append((entry.name, entry.read_bytes()))
    assert blobs[0] == blobs[1]


def test_commands_that_hit_an_entry_a_votes_miss_wrote_write_what_they_write_uncached(
        tmp_path, cache, monkeypatch, parses, capsys):
    """votes misses and writes the entry; metrics and stats then hit it,
    and every file they write equals an uncached run's."""
    bundle = str(tmp_path / "bundle")
    assert main(["simulate", "--m", "3", "--n", "3", "--k", "3", "--participants", "12",
                 "--treatments", "A,B", "--seed", "1", "--out-dir", bundle]) == 0
    commands = [
        ["votes", "--decision", "P1", "--group-by", "treatment", "--format", "csv,svg"],
        ["metrics", "--format", "csv,markdown,svg"],
        ["stats", "--space", "value"],
        ["stats", "--space", "rank"],
    ]
    outputs = {}
    for run, threshold in (("cached", 0), ("uncached", 1 << 40)):
        monkeypatch.setattr(dataset, "_CACHE_MIN_BYTES", threshold)
        for i, command in enumerate(commands):
            out = tmp_path / run / str(i)
            assert main([command[0], "--bundle", bundle, "--out-dir", str(out), *command[1:]]) == 0
            outputs.setdefault(run, {}).update(
                {(i, p.name): p.read_bytes() for p in sorted(out.iterdir())})
            if run == "cached":  # the first command's miss parsed, and wrote the one entry
                assert len(parses) == 1 and len(_entries(cache)) == 1
    assert outputs["cached"] == outputs["uncached"]
    assert len(outputs["cached"]) == 4 + 7 + 2
