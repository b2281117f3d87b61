"""Append-only JSONL journals: the run directory's one durability policy.

Every run-directory journal (``jobs``, ``grants``, ``recovery``,
``events``, ``metrics`` and ``cex_suite``) holds one sorted-keys JSON
record per line and is written only through this module, by a
:class:`Writer`. Each append is one ``write`` on an unbuffered handle,
so a record is in the file, and visible to a follower, the moment the
call returns. Durability against power loss comes at commit points:

* a killed process loses nothing, since every returned append is in
  the operating system's page cache;
* a power loss loses at most the records appended since the journal's
  last commit, and their jobs re-run to the same payload;
* a decision (a grant or a recovery record) is committed before any
  result it admits exists, so no surviving result outlives its
  decision;
* a file replaced whole (a manifest, an emptied or healed journal) is
  renamed into place and its directory fsynced before the call
  returns, so the replacement, not the old file, survives.

A campaign sweep's writer (one per run directory) commits when a wave
is admitted, when a kernel finalizes and when the sweep ends; a writer
outside a sweep commits after each append. Either way the only damage
a crash can inflict is a torn *final* line: readers drop it (that
record's work re-runs), and :func:`resume` heals it away before the
next append. A torn line anywhere else means the file was edited by
hand and is an error. Record versions and key dedup stay with each
journal's owner, because their keys and policies differ.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator

from repro.errors import EngineError

Json = dict[str, Any]


def encode(record: Json) -> str:
    """One journal line: sorted-keys JSON and its newline."""
    return json.dumps(record, sort_keys=True) + "\n"


def append(path: Path, *records: Json) -> None:
    """Append ``records`` and commit them: one write and one fsync."""
    with open(path, "ab", buffering=0) as journal:
        _write(journal, records)
        os.fsync(journal.fileno())


def _write(journal: BinaryIO, records: tuple[Json, ...]) -> None:
    """One ``write`` of the encoded records (looping on a short one)."""
    data = memoryview("".join(map(encode, records)).encode())
    while data:
        data = data[journal.write(data):]


class Writer:
    """The journals of one run directory, group-committed.

    Each journal is opened once, on its first append, as an unbuffered
    binary handle: an append is one ``write``, with no user-space
    buffer to lose or to hold memory. :meth:`commit` fsyncs every
    journal appended to since the last commit, and :meth:`close`
    commits and closes them all. A journal is released (committed and
    closed) before :meth:`resume` or :meth:`replace` may swap its
    inode, so no handle ever appends into a replaced file.

    ``commit_each`` gives the writer of a journal outside a sweep: it
    holds no handle, and every append is committed before it returns.
    """

    def __init__(self, *, commit_each: bool = False) -> None:
        self.commit_each = commit_each
        self._handles: dict[Path, BinaryIO] = {}
        self._dirty: set[Path] = set()

    def append(self, path: Path, *records: Json) -> None:
        """Append ``records`` as one write; durable at the next commit."""
        if self.commit_each:
            append(path, *records)
            return
        handle = self._handles.get(path)
        if handle is None:
            handle = self._handles[path] = open(path, "ab", buffering=0)
        _write(handle, records)
        self._dirty.add(path)

    def resume(self, path: Path, what: str) -> Iterator[Json]:
        """:func:`resume`, after releasing the journal's handle."""
        self._release(path)
        return resume(path, what)

    def replace(self, path: Path, lines: Iterable[str]) -> None:
        """:func:`replace_atomically`, after releasing the handle."""
        self._release(path)
        replace_atomically(path, lines)

    def commit(self) -> None:
        """Make every append so far durable: one fsync per journal
        appended to since the last commit."""
        for path in self._dirty:
            os.fsync(self._handles[path].fileno())
        self._dirty.clear()

    def close(self) -> None:
        """Commit, then close every handle."""
        try:
            self.commit()
        finally:
            handles, self._handles = self._handles, {}
            for handle in handles.values():
                handle.close()

    def _release(self, path: Path) -> None:
        handle = self._handles.pop(path, None)
        if handle is not None:
            with handle:
                if path in self._dirty:
                    self._dirty.discard(path)
                    os.fsync(handle.fileno())


def replace_atomically(path: Path, lines: Iterable[str]) -> None:
    """Replace the contents of ``path`` with ``lines``, durably.

    The lines are streamed and fsynced into a sibling ``.tmp`` file
    that is then renamed over ``path``, so a crash leaves either the
    old file or the new one, never a half-written one. The directory
    is fsynced after the rename, so the new file, not the old one, is
    what survives a power loss.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w") as handle:
        handle.writelines(lines)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def resume(path: Path, what: str) -> Iterator[Json]:
    """Stream the records of a journal about to be appended to.

    Once the records are exhausted, a torn tail is healed: when the
    final line was dropped or the file lacks a final newline, the
    surviving records are streamed into an atomic rewrite, since the
    next append would otherwise fuse its record onto the fragment and
    corrupt the journal for every later read. A caller that stops
    early, or raises on a record it refuses, leaves the file as it was.
    """
    path = Path(path)
    if not path.exists():
        return
    torn = yield from _scan(path, what)
    if torn:
        replace_atomically(path, map(encode, iter_jsonl(path, what)))


def iter_jsonl(path: Path, what: str) -> Iterator[Json]:
    """Stream-decode a journal; a torn trailing line is dropped.

    Blank lines are skipped. The file is read line by line with one
    line of lookahead (a line is only "the tail" once nothing follows
    it), so arbitrarily large journals stream in O(1) memory — the
    property ``engine report`` and the event follower rely on.
    """
    path = Path(path)
    if path.exists():
        yield from _scan(path, what)


def _scan(path: Path, what: str):
    """Yield the records of ``path``; return whether its tail is torn.

    Torn means the final line failed to decode or the file does not end
    in a newline: either way, an append would fuse onto it.
    """
    pending: tuple[int, str] | None = None
    last = "\n"                      # an empty file needs no heal
    with path.open() as stream:
        for number, line in enumerate(stream, 1):
            last = line
            if not line.strip():
                continue
            if pending is not None:
                yield _decode(pending, path, what)
            pending = (number, line)
    if pending is not None:
        try:
            record = json.loads(pending[1])
        except json.JSONDecodeError:
            return True              # interrupted mid-append
        yield record
    return not last.endswith("\n")


def _decode(numbered: tuple[int, str], path: Path, what: str) -> Json:
    number, line = numbered
    try:
        return json.loads(line)
    except json.JSONDecodeError:
        raise EngineError(
            f"corrupt {what} line {number} in {path}") from None
