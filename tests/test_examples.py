"""Every example script imports cleanly.

The examples do their work only under ``if __name__ == "__main__"``, so
importing one runs its imports and module-level constants and nothing
else.  That is exactly what catches an example still importing a module
or name the library no longer has, which a per-file lint cannot see.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
