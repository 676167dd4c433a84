"""The benchmark's tracer wraps clef functions by name (``perfbench/spans.py``):
every name it lists must exist where it looks, or a traced run crashes."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("table", ["SPANNED", "COUNTED"])
def test_every_wrapped_name_resolves(table):
    """``Tracer._patch`` reads ``vars(owner)[attr]``: the attribute must be
    defined on the module or class itself, and be callable."""
    entries = getattr(_spans(), table)
    assert entries
    for mod, cls, attr, _name in entries:
        owner = importlib.import_module(f"clef.{mod}")
        if cls is not None:
            owner = vars(owner).get(cls)
            assert isinstance(owner, type), f"clef.{mod}.{cls} is not a class"
        assert callable(vars(owner).get(attr)), \
            f"clef.{mod}.{'' if cls is None else cls + '.'}{attr} is missing"


def test_tracer_installs_and_restores():
    spans = _spans()
    layers = {mod for table in (spans.SPANNED, spans.COUNTED)
              for mod, *_ in table}
    modules = {m: importlib.import_module(f"clef.{m}") for m in layers}
    grad = modules["grad"]
    original = grad.matmul
    tracer = spans.Tracer("contract")
    tracer.install(modules)
    try:
        assert grad.matmul is not original
    finally:
        tracer.restore()
    assert grad.matmul is original
