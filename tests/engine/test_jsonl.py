"""The journal primitive (:mod:`repro.jsonl`) cut at every byte boundary.

Every run-directory journal appends, heals and reads through
``repro.jsonl``; the per-writer torn-tail tests check each owner's
policy on top of it, and this harness checks the primitive itself. The
final record is cut at every sampled byte boundary, with and without a
newline after the fragment; opening the journal for append and
appending one record must then leave exactly the surviving records
plus the new one, newline-terminated. The journal is rewritten only
when its tail was actually torn.

Set ``REPRO_FAULT_RUNS`` to keep the damaged journals on disk.
"""

import pytest

from repro import jsonl
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

