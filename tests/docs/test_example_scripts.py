"""Import every script under ``examples/`` so a renamed API breaks CI.

Each example keeps its work behind ``if __name__ == "__main__"``, so
importing one only runs its imports and definitions: cheap, and enough
to catch an example that still imports a name the package dropped.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples")
                  .glob("*.py"))


def test_there_are_examples_to_import():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_imports(path):
    assert 'if __name__ == "__main__":' in path.read_text(), \
        f"{path.name} must guard its work behind __main__"
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None))
