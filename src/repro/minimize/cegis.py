"""The persistent counterexample suite: the cross-run CEGIS flywheel.

Every verifier-found counterexample is a distinguishing input some
candidate needed to be refuted on — the hardest kind of testcase to
find by sampling. This module persists them per kernel, in the kernel's
run directory::

    <run_dir>/cex_suite.jsonl    {"v": 1, "testcase": {...}} per line

so later searches on the same kernel start harder to fool: a fresh
campaign with ``EngineOptions(harden=True)`` merges the persisted suite
into its base testcases before the manifest freezes them (resume then
replays the merged suite like any other manifest state), and every
counterexample its chains or minimizations discover is appended back.
Crucially, :meth:`CheckpointStore.start_fresh` truncates only the
manifest and journals — the counterexample suite *survives* fresh
restarts, which is what makes it a flywheel rather than per-run state.

The file is written through a :class:`repro.jsonl.Writer`, like every
run-directory journal: append-only JSONL, one write per append (a kill
loses nothing), and a torn trailing line healed away on load, so the
next append cannot fuse onto it. On its own (``repro minimize``) the
suite commits after each append; inside a sweep it shares the run
directory's writer, so a power loss loses at most the counterexamples
since the last commit, and the chains that found them re-run. Records
are deduplicated by testcase input key, and records of an unknown
version are skipped.
"""

from __future__ import annotations

from pathlib import Path

from repro import jsonl
from repro.engine.serialize import testcase_from_json, testcase_to_json
from repro.testgen.suite import InputKey, input_key
from repro.testgen.testcase import Testcase

SUITE_VERSION = 1
SUITE_FILENAME = "cex_suite.jsonl"


def suite_path(run_dir: str | Path) -> Path:
    return Path(run_dir) / SUITE_FILENAME


class CounterexampleSuite:
    """One kernel's persistent counterexample file, with dedup state."""

    def __init__(self, path: str | Path, *,
                 journals: jsonl.Writer | None = None) -> None:
        self.path = Path(path)
        self.journals = journals or jsonl.Writer(commit_each=True)
        self._seen: set[InputKey] = set()
        self._loaded = self._load()

    @classmethod
    def for_run_dir(cls, run_dir: str | Path, *,
                    journals: jsonl.Writer | None = None) \
            -> "CounterexampleSuite":
        return cls(suite_path(run_dir), journals=journals)

    def _load(self) -> list[Testcase]:
        testcases: list[Testcase] = []
        for record in self.journals.resume(self.path,
                                           "counterexample suite"):
            if record.get("v") != SUITE_VERSION:
                continue            # future format: skip, don't crash
            testcase = testcase_from_json(record["testcase"])
            key = input_key(testcase)
            if key in self._seen:
                continue
            self._seen.add(key)
            testcases.append(testcase)
        return testcases

    def testcases(self) -> list[Testcase]:
        """The persisted suite, deduplicated, in append order."""
        return list(self._loaded)

    def note(self, testcases: list[Testcase]) -> None:
        """Mark testcases as already covered without persisting them
        (e.g. a campaign's sampled base suite)."""
        for testcase in testcases:
            self._seen.add(input_key(testcase))

    def append(self, testcases: list[Testcase]) -> int:
        """Persist novel testcases; returns how many were written."""
        novel = []
        for testcase in testcases:
            key = input_key(testcase)
            if key in self._seen:
                continue
            self._seen.add(key)
            novel.append(testcase)
        if not novel:
            return 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.journals.append(self.path, *(
            {"v": SUITE_VERSION, "testcase": testcase_to_json(testcase)}
            for testcase in novel))
        self._loaded.extend(novel)
        return len(novel)
