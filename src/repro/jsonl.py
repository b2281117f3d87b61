"""Append-only JSONL journals: the run directory's one durability policy.

Every run-directory journal (``jobs``, ``grants``, ``recovery``,
``events``, ``metrics`` and ``cex_suite``) holds one sorted-keys JSON
record per line and is written only through this module. Each append
is fsynced before the caller moves on, so the only damage an interrupt
can inflict is a torn *final* line: readers drop it (that record's
work re-runs), and :func:`resume` heals it away before the next
append. A torn line anywhere else means the file was edited by hand
and is an error. Record versions and key dedup stay with each
journal's owner, because their keys and policies differ.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.errors import EngineError

Json = dict[str, Any]


def encode(record: Json) -> str:
    """One journal line: sorted-keys JSON and its newline."""
    return json.dumps(record, sort_keys=True) + "\n"


def append(path: Path, *records: Json) -> None:
    """Append ``records`` durably, as one write and one fsync."""
    with open(path, "a") as journal:
        journal.write("".join(map(encode, records)))
        journal.flush()
        os.fsync(journal.fileno())


def replace_atomically(path: Path, lines: Iterable[str]) -> None:
    """Replace the contents of ``path`` with ``lines``, durably.

    The lines are streamed and fsynced into a sibling ``.tmp`` file
    that is then renamed over ``path``, so a crash leaves either the
    old file or the new one, never a half-written one.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w") as handle:
        handle.writelines(lines)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


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
