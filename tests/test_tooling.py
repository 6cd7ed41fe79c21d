"""The benchmark's trace mode wraps clfgsim functions by name; each must exist."""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _traced() -> tuple:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("pair", _traced(), ids=".".join)
def test_traced_function_exists(pair):
    module, name = pair
    assert callable(getattr(importlib.import_module(f"clfgsim.{module}"), name, None))
