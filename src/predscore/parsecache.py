"""The parse cache of :func:`predscore.dataset.read_bundle`.

A predictions.csv of at least ``_CACHE_MIN_BYTES`` (1 MiB) is parsed and
checked once per content: read_bundle keeps its four columns as marshal
data, with their (participant, decision) order, their vote tally and each
participant's loss totals in both spaces, in the user's cache directory,
``$XDG_CACHE_HOME/predscore`` or else ``~/.cache/predscore``, and a later
read of the same bytes loads them instead of parsing, checking, sorting,
counting and summing.  An entry's name is a BLAKE2b-256 hash over
``sys.version``, the name and bytes of every module of this package, sorted
by name, and the bytes of manifest.json, values.csv and predictions.csv,
each part length-prefixed; the entry format is written in this module, so a
change to it misses too.  An entry is written only once ExperimentBundle has
accepted the bundle, so a hit shows that this code accepted these bytes,
and the bundle is built from the entry without ExperimentBundle's rules, as
Python trusts a hash-checked ``.pyc`` (PEP 552): every read of bytes that
this code has not accepted runs the full check, and an edit to any of the
three files or to any module misses.  The vouch covers whatever this code
computes from those bytes alone, so the order, the tally and the totals,
which the miss made from the accepted columns and values, are stored too;
the Predictions read_bundle returns carries them, and each is used only
while it holds (see :mod:`predscore.metrics`).  The miss sums the totals
with the same function as an uncached read, and stores them as that
function returns them, a total that overflows included: that function
refuses such a total when a space that holds it is asked for, on a hit as
without a cache.
ExperimentBundle reads no environment variable, locale or file; a rule
that comes to read one must add it to the key.  A hit still decodes
manifest.json and parses values.csv, which are small, with their own
refusals.  The vouch reaches as far as the directory rule below: an entry
forged by the same user is trusted, as a forged ``.pyc`` would be.  An
entry holds each column, the tally and the totals as one marshal record
each, the order and each treatment's totals as ``array`` bytes, and ends
with a hash of those records by the same function as its name, checked on
every load; an entry that will not load is read in full again and
rewritten.  Entries are read only from that directory, never from a bundle
or beside one, and only while the directory is the effective user's and
writable by no one else; any ``OSError`` there, no home directory, no
source file to hash (a zip or a sourceless install), or an interpreter
built without ``_blake2`` means the bundle is read as it is below the
threshold, with no message.  An entry is written after the file's bytes
are released, through ``osutil.write_files``, and the newest
``_CACHE_ENTRIES`` entries by mtime are kept; a hit refreshes its entry's
mtime.

read_bundle calls :func:`entry`, :func:`load` and :func:`store`, and knows
nothing of what an entry holds; ``_CACHE_MIN_BYTES`` and the choice of
when to use the cache stay in :mod:`predscore.dataset`.
"""

import marshal
import os
import sys
from array import array
from collections import Counter
from pathlib import Path

from .errors import ValidationError
from .metrics import (Predictions, by_participant_and_decision, participant_totals, score_table,
                      vote_tally)
from .osutil import write_files

_CACHE_ENTRIES = 8
_CACHE_SUFFIX = ".columns"
_DIGEST_BYTES = 32


def _content_hash(data=b""):
    """A BLAKE2b-256 hash object from the interpreter's own _blake2 module,
    which hashes a large predictions.csv about three times as fast as
    SHA-256 and, unlike hashlib, loads no OpenSSL.  It raises ImportError
    where the interpreter has no _blake2, and then entry returns None, so
    load and store are never reached."""
    from _blake2 import blake2b
    return blake2b(data, digest_size=_DIGEST_BYTES)


def entry(files) -> Path | None:
    """The path of the cache entry for a bundle whose manifest.json,
    values.csv and predictions.csv hold the bytes ``files``, or None where
    no cache directory can be used: there is no home directory, the
    directory cannot be made, or it is not the effective user's alone, or
    the interpreter has no _blake2."""
    try:
        key = _content_hash()
        base = os.environ.get("XDG_CACHE_HOME")
        directory = (Path(base) if base and os.path.isabs(base)
                     else Path.home() / ".cache") / "predscore"
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = directory.stat()
        # the code a hit vouches for: every module of the package, by name
        modules = sorted(Path(__file__).parent.glob("*.py"))
        if Path(__file__) not in modules:  # no source to hash: a zip or a sourceless install
            return None
        sources = [part for module in modules
                   for part in (module.name.encode(), module.read_bytes())]
    except (ImportError, OSError, RuntimeError):  # Path.home() raises RuntimeError with no home
        return None
    # anyone else who could write here could hand us marshal data
    if info.st_uid != os.geteuid() or info.st_mode & 0o022:
        return None
    for part in (sys.version.encode(), *sources, *files):
        key.update(len(part).to_bytes(8, "little"))
        key.update(part)
    return directory / f"{key.hexdigest()}{_CACHE_SUFFIX}"


def load(entry: Path, decisions) -> Predictions | None:
    """The Predictions that store wrote to entry, with its order, vote
    tally and loss totals attached as ``_order``, ``_votes`` and
    ``_totals``, the totals with the score table of decisions, refreshing
    the entry's mtime; or None if the entry is missing, unreadable or fails
    its digest, or if its records are not of the shapes store writes: four
    columns of one length, an order of that length, a vote tally that sums
    to it, and for each treatment that the tally names, value and rank
    totals of one length, one per participant, so at least one and at most
    its predictions."""
    try:
        blob = entry.read_bytes()
        os.utime(entry)
    except OSError:
        return None
    body = memoryview(blob)[:-_DIGEST_BYTES]
    if _content_hash(body).digest() != blob[-_DIGEST_BYTES:]:
        return None
    records, offset = [], 0
    while offset < len(body):
        size = int.from_bytes(body[offset:offset + 8], "little")
        records.append(body[offset + 8:offset + 8 + size])
        offset += 8 + size
    if len(records) != 7:
        return None
    order, predicted = array("I"), Counter()  # treatment -> its predictions
    try:
        predictions = Predictions(map(marshal.loads, records[:4]))
        order.frombytes(records[4])
        votes, totals = map(marshal.loads, records[5:])
        for (treatment, _, _), count in votes.items():
            predicted[treatment] += count
        # the totals are read in place, as doubles, from the bytes marshal made
        totals = {t: tuple(memoryview(b).cast("d") for b in pair) for t, pair in totals.items()}
    except (EOFError, ValueError, TypeError, AttributeError, ValidationError):
        return None
    if not (len(order) == len(predictions) == predicted.total()
            and predicted.keys() == totals.keys() and all(
                0 < len(v) == len(r) <= predicted[t] for t, (v, r) in totals.items())):
        return None
    predictions._order, predictions._votes = order, votes
    predictions._totals = score_table({dv.decision_id: dv for dv in decisions}), totals
    return predictions


def store(entry: Path, bundle) -> None:
    """Attach the order, the vote tally and both spaces' loss totals, with
    the score table they were summed from, to the predictions of bundle,
    which ExperimentBundle has accepted, and write them with the columns to
    entry, then keep the newest _CACHE_ENTRIES entries.  Each column is one
    length-prefixed marshal record, made only as the writer reaches it, the
    order one record of its array bytes, the tally one marshal record of
    (treatment, decision, action) -> votes, and the totals one marshal
    record of treatment -> (value totals, rank totals) as array bytes.  A
    hash of the records by _content_hash ends the entry."""
    predictions, scores = bundle.predictions, score_table(bundle.values_by_decision())
    order = predictions._order = by_participant_and_decision(predictions)
    votes = predictions._votes = vote_tally(predictions)
    totals = participant_totals(predictions, scores, ())  # no space asked for: none refused
    predictions._totals = scores, totals

    def records():
        yield from map(marshal.dumps, predictions.columns)
        yield order.tobytes()
        yield marshal.dumps(dict(votes))
        yield marshal.dumps({t: tuple(a.tobytes() for a in pair) for t, pair in totals.items()})

    def pieces():
        digest = _content_hash()
        for record in records():
            for piece in (len(record).to_bytes(8, "little"), record):
                digest.update(piece)
                yield piece
        yield digest.digest()

    try:
        write_files(entry.parent, {entry.name: pieces()})
        entries = sorted(entry.parent.glob(f"*{_CACHE_SUFFIX}"),
                         key=lambda p: p.stat().st_mtime_ns, reverse=True)
        for stale in entries[_CACHE_ENTRIES:]:
            stale.unlink(missing_ok=True)
    except OSError:
        pass
