"""The journal primitive (:mod:`repro.jsonl`) cut at every byte boundary.

Every run-directory journal appends, heals and reads through
``repro.jsonl``; the per-writer torn-tail tests check each owner's
policy on top of it, and this harness checks the primitive itself. The
final record is cut at every sampled byte boundary, with and without a
newline after the fragment; opening the journal for append and
appending one record must then leave exactly the surviving records
plus the new one, newline-terminated. The journal is rewritten only
when its tail was actually torn, and a rewrite fsyncs its directory.

The group-committed :class:`~repro.jsonl.Writer` is checked here too:
an append is readable before any commit, a heal under an open handle
loses no later append, and a sweep fsyncs per commit, not per append.

Set ``REPRO_FAULT_RUNS`` to keep the damaged journals on disk.
"""

import os
import stat

import pytest

from repro import jsonl
from repro.engine.campaign import Campaign, EngineOptions
from repro.engine.checkpoint import CheckpointStore
from repro.engine.events import (CAMPAIGN_STARTED, ProgressEvent,
                                 event_to_json, follow_events)
from repro.engine.sweep import run_campaigns
from repro.search.config import SearchConfig
from repro.suite.registry import benchmark
from repro.verifier.validator import Validator
from test_truncation import _boundaries, _work_dir

RECORDS = [{"job_id": "opt-c000-s000", "cost": 3},
           {"job_id": "opt-c001-s000", "cost": 7,
            "program": ["movq rdi, rax", "addq rsi, rax", None]}]
NEW = {"job_id": "opt-c002-s000", "cost": 1}


@pytest.mark.parametrize("newline", [False, True],
                         ids=["fragment", "fragment-newline"])
def test_resume_then_append_after_every_cut(newline, tmp_path):
    content = "".join(map(jsonl.encode, RECORDS)).encode()
    head = content[:content.rstrip(b"\n").rfind(b"\n") + 1]
    record = content[len(head):]
    for cut in _boundaries(record):
        fragment = record[:cut]
        if newline:
            fragment += b"\n"
        path = _work_dir(tmp_path, f"jsonl-{cut}-{newline}") / "j.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(head + fragment)
        # the cut just before "\n" is a whole record without its
        # newline: it survives, but must still be healed
        kept = RECORDS if cut >= len(record) - 1 else RECORDS[:-1]
        torn = not (head + fragment).endswith(b"\n") or (
            fragment.strip() and cut < len(record) - 1)
        inode = path.stat().st_ino
        assert list(jsonl.resume(path, "journal")) == kept, cut
        assert (path.stat().st_ino != inode) == bool(torn), cut
        jsonl.append(path, NEW)
        assert list(jsonl.iter_jsonl(path, "journal")) == kept + [NEW]
        assert path.read_bytes().endswith(b"\n")


def test_records_encode_as_sorted_keys_lines(tmp_path):
    path = tmp_path / "j.jsonl"
    jsonl.append(path, {"b": 1, "a": [2]}, {"c": None})
    assert path.read_text() == '{"a": [2], "b": 1}\n{"c": null}\n'
    jsonl.replace_atomically(path, [])
    assert path.read_text() == ""


def test_a_refused_journal_is_left_as_it_was(tmp_path):
    """The heal runs only once the caller has taken every record: a
    caller that refuses a record mid-stream rewrites nothing."""
    path = tmp_path / "j.jsonl"
    damaged = "".join(map(jsonl.encode, RECORDS)) + '{"job_id": "opt-'
    path.write_text(damaged)
    records = jsonl.resume(path, "journal")
    assert next(records) == RECORDS[0]
    records.close()
    assert path.read_text() == damaged


def test_a_replacement_fsyncs_its_directory_after_the_rename(
        tmp_path, monkeypatch):
    """The rename itself is made durable: the directory holding the
    replaced file is fsynced once the new file is in place."""
    path = tmp_path / "j.jsonl"
    path.write_text(jsonl.encode(RECORDS[0]))
    fsync = os.fsync
    synced = []

    def spy(fd):
        fsync(fd)
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            synced.append((os.fstat(fd).st_ino, path.read_text()))
        else:
            synced.append(None)

    monkeypatch.setattr(os, "fsync", spy)
    jsonl.replace_atomically(path, [jsonl.encode(NEW)])
    assert synced == [None, (tmp_path.stat().st_ino, jsonl.encode(NEW))]
    assert not path.with_name(path.name + ".tmp").exists()


def test_an_append_is_readable_before_any_commit(tmp_path, monkeypatch):
    """A writer's append is one unbuffered write: readers and a live
    follower see the record before any commit fsyncs it."""
    fsyncs = []
    monkeypatch.setattr(os, "fsync", fsyncs.append)
    journal, stream = tmp_path / "j.jsonl", tmp_path / "events.jsonl"
    event = event_to_json(ProgressEvent(CAMPAIGN_STARTED, "p01", 0))
    writer = jsonl.Writer()
    try:
        writer.append(journal, RECORDS[0])
        writer.append(stream, event)
        assert list(jsonl.iter_jsonl(journal, "journal")) == RECORDS[:1]
        followed = follow_events(stream, poll=lambda: False, interval=0)
        assert [event_to_json(seen) for seen in followed] == [event]
        assert fsyncs == []
        writer.commit()
        assert len(fsyncs) == 2
        writer.append(journal, NEW)
    finally:
        writer.close()
    assert len(fsyncs) == 3
    assert list(jsonl.iter_jsonl(journal, "journal")) == RECORDS[:1] + [NEW]


def test_a_heal_under_an_open_writer_loses_no_append(tmp_path):
    """Healing a journal the writer holds open swaps its inode; the
    writer must append to the healed file, not the replaced one."""
    path = tmp_path / "j.jsonl"
    store = CheckpointStore(tmp_path)
    writer = store.journals
    try:
        writer.append(path, RECORDS[0])
        with open(path, "ab") as crashed:     # another writer's torn tail
            crashed.write(b'{"job_id": "opt-')
        inode = path.stat().st_ino
        assert list(writer.resume(path, "journal")) == RECORDS[:1]
        assert path.stat().st_ino != inode
        writer.append(path, NEW)
        # the same through an owner: the store's jobs journal
        store.record(RECORDS[1])
        with open(store.journal_path, "ab") as crashed:
            crashed.write(b'{"job_id"')
        assert list(store.completed()) == [RECORDS[1]["job_id"]]
        store.record(NEW)
    finally:
        writer.close()
    assert list(jsonl.iter_jsonl(path, "journal")) == [RECORDS[0], NEW]
    assert list(store.completed()) == [RECORDS[1]["job_id"],
                                       NEW["job_id"]]


def test_a_fixed_budget_sweep_fsyncs_once_per_journal_per_commit(
        tmp_path, monkeypatch):
    """Group commit: an interleaved p01+p03 sweep under a fixed budget
    fsyncs each journal at most once per commit point (two admitted
    waves, the finish and the exit per kernel), far fewer times than
    it appends, besides ``start_fresh``'s atomic replacements."""
    counts = {"fsync": 0, "commit": 0, "append": 0, "replace": 0}
    fsync, commit = os.fsync, jsonl.Writer.commit
    append, replace = jsonl.Writer.append, jsonl.replace_atomically

    def counted(name, method):
        def call(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return call

    monkeypatch.setattr(os, "fsync", counted("fsync", fsync))
    monkeypatch.setattr(jsonl.Writer, "commit", counted("commit", commit))
    monkeypatch.setattr(jsonl.Writer, "append", counted("append", append))
    monkeypatch.setattr(jsonl, "replace_atomically",
                        counted("replace", replace))
    kernels = ("p01", "p03")
    campaigns = []
    for index, name in enumerate(kernels):
        bench = benchmark(name)
        config = SearchConfig(ell=12, beta=1.0, seed=5 + index,
                              synthesis_proposals=60,
                              optimization_proposals=120,
                              optimization_restarts=2,
                              synthesis_chains=2, optimization_chains=2,
                              testcase_count=4)
        campaigns.append(Campaign(
            bench.o0, bench.spec, bench.annotations, config=config,
            validator=Validator(), name=name,
            options=EngineOptions(run_dir=tmp_path / name,
                                  interleave=True)))
    run_campaigns(campaigns)
    journals = len(("jobs", "grants", "recovery", "events", "metrics"))
    assert counts["commit"] <= 4 * len(kernels)
    assert counts["fsync"] <= (counts["commit"] * journals
                               + counts["replace"])
    assert counts["fsync"] - counts["replace"] < counts["append"] / 2
