"""Execute the documented examples so they cannot rot.

Every fenced ``python`` block written in doctest style (lines starting
with ``>>>``) in README.md and docs/*.md runs here, each in a fresh
namespace. Plain (non-doctest) python fences are narrative and are
only syntax-checked; console fences are not executed.
"""

from __future__ import annotations

import doctest
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
DOCUMENTS = ("README.md", "docs/ARCHITECTURE.md",
             "docs/DISTRIBUTED.md", "docs/FAULTS.md",
             "docs/MINIMIZE.md", "docs/SPEC_GRAMMAR.md",
             "docs/TELEMETRY.md")


def _slug(heading: str) -> str:
    """A heading's words, code spans left out (flag names change)."""
    heading = heading.lower()
    words = re.findall(r"[a-z0-9]+", re.sub(r"`[^`]*`", "", heading))
    return "-".join(words or re.findall(r"[a-z0-9]+", heading))


def _python_blocks(document: str) -> list[tuple[str, str]]:
    """(id, source) for every python fence in one document.

    An id is ``<document>:<section slug>:<ordinal>``: the slug of the
    nearest heading above the block and the block's position among the
    python blocks of that section. Adding or removing an example then
    renames only the later examples of its own section.
    """
    blocks = []
    section, ordinal = "top", 0
    fence, source = None, []
    for line in (REPO / document).read_text().splitlines(keepends=True):
        if fence is None:
            if line.startswith("```"):
                fence, source = line[3:].strip(), []
            elif line.startswith("#"):
                section, ordinal = _slug(line), 0
        elif line.startswith("```"):
            if fence == "python":
                blocks.append((f"{document}:{section}:{ordinal}",
                               "".join(source)))
                ordinal += 1
            fence = None
        else:
            source.append(line)
    return blocks


ALL_BLOCKS = [block for document in DOCUMENTS
              for block in _python_blocks(document)]
DOCTEST_BLOCKS = [block for block in ALL_BLOCKS if ">>>" in block[1]]
NARRATIVE_BLOCKS = [block for block in ALL_BLOCKS
                    if ">>>" not in block[1]]


def test_the_docs_actually_contain_examples():
    """Guard the harness itself: an empty scan must fail loudly."""
    assert len(DOCTEST_BLOCKS) >= 7
    assert any(block_id.startswith("docs/SPEC_GRAMMAR.md:")
               for block_id, _ in DOCTEST_BLOCKS)


def test_example_ids_are_unique():
    ids = [block_id for block_id, _ in ALL_BLOCKS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("block_id,source", DOCTEST_BLOCKS,
                         ids=[block_id for block_id, _ in DOCTEST_BLOCKS])
def test_doctest_block(block_id, source):
    document = block_id.split(":")[0]
    parser = doctest.DocTestParser()
    test = parser.get_doctest(source, {}, block_id, document, 0)
    runner = doctest.DocTestRunner(
        optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE)
    results = runner.run(test)
    assert results.failed == 0, \
        f"{block_id}: {results.failed} example(s) failed"


@pytest.mark.parametrize("block_id,source", NARRATIVE_BLOCKS,
                         ids=[block_id for block_id, _ in NARRATIVE_BLOCKS])
def test_narrative_block_is_valid_python(block_id, source):
    compile(source, block_id, "exec")
