"""Every lifsim name and command line that the benchmark in perfbench/
uses still exists.

perfbench/tracer.py counts and times lifsim by replacing callables at their
module paths, and perfbench/workloads.py drives `lifsim sweep` and `lifsim
verify` through cli.main. A name that lifsim renames or deletes, or a flag
that it drops, makes the benchmark fail, so a change to lifsim must keep
them until the benchmark is retargeted. The modules are imported from their
files with bytecode writing off, and the tracer is never installed; nothing
under perfbench/ is written.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from lifsim import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_file(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def tracer():
    return load_file("perfbench_tracer", PERFBENCH / "tracer.py")


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling tracer.py as a top-level module, the
    # way perfbench/run.py and scripts/bench_train_layer.py run it
    had_tracer = "tracer" in sys.modules
    sys.path.insert(0, str(PERFBENCH))
    try:
        return load_file("perfbench_workloads", PERFBENCH / "workloads.py")
    finally:
        sys.path.remove(str(PERFBENCH))
        if not had_tracer:
            sys.modules.pop("tracer", None)


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


def test_benchmark_command_lines_parse(workloads, tmp_path, monkeypatch):
    parser = cli.build_parser()
    sweep = parser.parse_args(workloads.SweepGrid().argv(0, 2, "x.csv"))
    assert (sweep.func, sweep.trials, sweep.out) == (cli.cmd_sweep, 2, "x.csv")

    # VerifyOracle builds its argv inside run_pass: parse it in place of
    # running it
    seen = []

    def parse_only(argv):
        seen.append(parser.parse_args(argv))
        return 0

    monkeypatch.setattr(cli, "main", parse_only)
    workloads.VerifyOracle().run_pass({"seed": 3}, str(tmp_path))
    assert [(a.func, a.trials, a.seed) for a in seen] == [
        (cli.cmd_verify, 200, 3)]
