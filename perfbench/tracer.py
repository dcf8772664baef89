"""In-memory span tracer and the wrappers that install it around lifsim.

The benchmark never edits lifsim. It replaces public callables with thin
wrappers for the duration of one pass and restores them afterwards. A
wrapper is installed at every name under which a lifsim module binds the
callable (for example `decay_mult` is bound both in `lifsim.fxp` and, by
`from .fxp import ...`, in `lifsim.neuron`), so calls are seen whichever
module makes them.

Three kinds of wrapper exist:

- span: push a frame, record (name, start, end, parent) and self time;
- timed: like span but keep no span record, for callables entered once
  per simulated step (their self time is still exact);
- count: increment a counter only; their time stays in the caller's self
  time.
"""

import functools
import importlib
import os
import time

LIFSIM_MODULES = ("lifsim", "lifsim.fxp", "lifsim.neuron", "lifsim.stimulus",
                  "lifsim.cost", "lifsim.cli")

SPAN, TIMED, COUNT = "span", "timed", "count"


# (module, attribute path, kind, extra counters)
# extra counters: name suffix -> fn(args, kwargs, result) -> int
TARGETS = (
    ("lifsim.stimulus", "generate", SPAN,
     {"events": lambda a, k, r: len(r.events)}),
    ("lifsim.stimulus", "measure_density", SPAN, {}),
    ("lifsim.stimulus", "SpikeTrain.steps_with_events", SPAN, {}),
    ("lifsim.stimulus", "encode_serial", SPAN, {}),
    ("lifsim.stimulus", "decode_serial", SPAN, {}),
    ("lifsim.stimulus", "encode_aer", SPAN, {}),
    ("lifsim.stimulus", "decode_aer", SPAN, {}),
    ("lifsim.stimulus", "save", SPAN,
     {"bytes": lambda a, k, r: os.path.getsize(a[1])}),
    ("lifsim.stimulus", "load", SPAN,
     {"bytes": lambda a, k, r: os.path.getsize(a[0])}),
    ("lifsim.neuron", "run", SPAN, {
        "sim_steps": lambda a, k, r: a[1].n_steps,
        "updates": lambda a, k, r: len(r.records),
    }),
    ("lifsim.neuron", "reference_run", SPAN,
     {"sim_steps": lambda a, k, r: a[1].n_steps}),
    ("lifsim.neuron", "NeuronConfig.__init__", SPAN, {}),
    ("lifsim.neuron", "clock_step", COUNT, {}),
    ("lifsim.neuron", "event_step", COUNT, {}),
    ("lifsim.cost", "ActivityCounters.add", TIMED, {}),
    ("lifsim.cost", "latency", SPAN, {}),
    ("lifsim.cost", "metrics_from_trace", SPAN, {}),
    ("lifsim.fxp", "build_decay_lut", SPAN, {}),
    ("lifsim.fxp", "decay_mult", COUNT, {}),
    ("lifsim.fxp", "decay_shift", COUNT, {}),
    ("lifsim.fxp", "apply_lut_decay", COUNT, {}),
    ("lifsim.cli", "sweep_rows", SPAN, {}),
    ("lifsim.cli", "fnum", COUNT, {}),
    ("lifsim.cli", "derive_seed", SPAN, {}),
    ("lifsim.cli", "check_real_equivalence", SPAN, {}),
    ("lifsim.cli", "check_quantized_divergence", SPAN, {}),
    ("lifsim.cli", "check_io_stability", SPAN, {}),
    ("lifsim.cli", "check_round_trips", SPAN, {}),
    ("lifsim.cli", "check_fire_boundary", SPAN, {}),
)


def metric_prefix(module, path):
    """'lifsim.neuron', 'NeuronConfig.__init__' -> 'neuron.NeuronConfig'."""
    name = module.split(".", 1)[1] + "." + path
    return name[:-len(".__init__")] if name.endswith(".__init__") else name


class Tracer:
    """Spans, self times and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # (name id, start, end, parent span index or -1)
        self.counts = {}   # "<name>.calls" and extra counters: exact
        self.seconds = {}  # "<name>.self_s": host time, varies run to run
        self._stack = []   # [start, child seconds, span index or None]

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add_count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def add_seconds(self, name, seconds):
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    def enter(self, name, keep_span=True):
        span = None
        if keep_span:
            parent = -1
            for frame in reversed(self._stack):
                if frame[2] is not None:
                    parent = frame[2]
                    break
            span = len(self.spans)
            self.spans.append((self._name_id(name), 0.0, 0.0, parent))
        self._stack.append([time.perf_counter(), 0.0, span])

    def exit(self, name):
        end = time.perf_counter()
        start, child, span = self._stack.pop()
        duration = end - start
        self_time = duration - child
        if self._stack:
            self._stack[-1][1] += duration
        if span is not None:
            nid, _, _, parent = self.spans[span]
            self.spans[span] = (nid, start, end, parent)
        self.add_count(name + ".calls")
        self.add_seconds(name + ".self_s", self_time)
        return self_time

    def span_table(self):
        """The spans as a JSON-ready table; times are seconds from the first
        span's start, `name` indexes `names`, `parent` indexes `spans`."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [[n, s - t0, e - t0, p] for n, s, e, p in self.spans],
        }


def _span_wrapper(tracer, name, fn, keep_span, extra):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name, keep_span)
        try:
            result = fn(*args, **kwargs)
        finally:
            self_time = tracer.exit(name)
        if name == "neuron.run":
            tracer.add_seconds("neuron.run.self_s." + args[0].name, self_time)
        for suffix, measure in extra.items():
            tracer.add_count(f"{name}.{suffix}", measure(args, kwargs, result))
        return result
    return wrapper


def _count_wrapper(tracer, name, fn):
    key = name + ".calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.add_count(key)
        return fn(*args, **kwargs)
    return wrapper


class Patch:
    """Replace callables in lifsim modules; undo() restores every one."""

    def __init__(self):
        self._saved = []  # (owner, attribute, original)

    def replace(self, module, path, make_wrapper):
        """Wrap `module.path` wherever lifsim binds it."""
        mod = importlib.import_module(module)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(mod, cls_name)
            self._set(owner, attr, make_wrapper(owner.__dict__[attr]))
            return
        original = getattr(mod, path)
        wrapper = make_wrapper(original)
        for mod_name in LIFSIM_MODULES:
            other = importlib.import_module(mod_name)
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._set(other, attr, wrapper)

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def install_tracer(tracer):
    """Wrap every TARGETS callable so it reports into `tracer`."""
    patch = Patch()
    for module, path, kind, extra in TARGETS:
        name = metric_prefix(module, path)
        if kind == COUNT:
            patch.replace(module, path,
                          lambda fn, name=name: _count_wrapper(tracer, name, fn))
        else:
            patch.replace(module, path,
                          lambda fn, name=name, kind=kind, extra=extra:
                          _span_wrapper(tracer, name, fn, kind == SPAN, extra))
    return patch


class ItemMarks:
    """The only hooks of an untraced pass.

    Every sweep item and every verify trial starts by generating its train,
    so the timestamps taken on entry to stimulus.generate delimit items.
    The train of every neuron.run and neuron.reference_run call adds its
    n_steps to `sim_steps`, the pass's simulated neuron-timesteps. The hooks
    cost one clock read per item and one addition per engine call.
    """

    def __init__(self):
        self.times = []
        self.sim_steps = 0

    def install(self):
        def mark(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.times.append(time.perf_counter())
                return fn(*args, **kwargs)
            return wrapper

        def count_steps(fn):
            @functools.wraps(fn)
            def wrapper(config, train, *args, **kwargs):
                self.sim_steps += train.n_steps
                return fn(config, train, *args, **kwargs)
            return wrapper

        patch = Patch()
        patch.replace("lifsim.stimulus", "generate", mark)
        patch.replace("lifsim.neuron", "run", count_steps)
        patch.replace("lifsim.neuron", "reference_run", count_steps)
        return patch
