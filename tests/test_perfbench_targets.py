"""Every lifsim name that the benchmark in perfbench/ wraps still exists.

perfbench/tracer.py counts and times lifsim by replacing callables at their
module paths. A name that lifsim renames or deletes makes the benchmark
fail at install time, so a change to lifsim must keep them until the
benchmark is retargeted. The tracer is imported from its file and never
installed; nothing under perfbench/ is written.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def resolves(module, path):
    """Whether `module.path` names a callable the way tracer.Patch finds it:
    a module attribute, or an attribute in a class's own namespace."""
    mod = importlib.import_module(module)
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(mod, cls_name, None)
        return cls is not None and callable(vars(cls).get(attr))
    return callable(getattr(mod, path, None))


def test_every_traced_name_resolves(tracer):
    missing = [f"{module}.{path}" for module, path, _, _ in tracer.TARGETS
               if not resolves(module, path)]
    assert missing == []


def test_item_mark_hooks_resolve(tracer, monkeypatch):
    class RecordingPatch:
        def __init__(self):
            self.names = []

        def replace(self, module, path, make_wrapper):
            self.names.append((module, path))

    monkeypatch.setattr(tracer, "Patch", RecordingPatch)
    hooks = tracer.ItemMarks().install().names
    assert {("lifsim.stimulus", "generate"), ("lifsim.neuron", "run"),
            ("lifsim.neuron", "reference_run")} <= set(hooks)
    assert [f"{m}.{p}" for m, p in hooks if not resolves(m, p)] == []
