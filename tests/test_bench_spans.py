"""The bench tracer's wrapped names stay bound in the modules that call them."""

import importlib.util
import os

import pytest

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("entry", load_spans().WRAPPED, ids=lambda e: f"{e[0].__name__}.{e[1]}")
def test_wrapped_names_are_bound(entry):
    owner, attr, _span = entry
    assert callable(getattr(owner, attr))
