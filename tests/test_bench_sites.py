"""The traced benchmark run wraps library functions by attribute name.

``perfbench/tracing.py`` lists each ``(owner, attr)`` it replaces; a
rename in the library must fail here rather than break ``--trace 1``.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("name", sorted(tracing.SITES), ids=str)
def test_traced_attributes_exist(name):
    for owner, attr in tracing.SITES[name]:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
