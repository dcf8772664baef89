"""The six LIF neuron engine variants plus a real-arithmetic reference.

Variants are the cross product of processing mode (clock-driven updates
every timestep; event-driven catches up decay over the elapsed interval),
decay implementation (quantized multiplier vs shifter / power-of-two
table), and input handling (dense serial bit-vectors vs address-event
packets). Clock-driven with address-event input is not a buildable
combination.

Update order within a step is decay, then input accumulation, then the
threshold check with zero-or-subtract reset applied in the same step. The
firing comparison is >=, so an exact-threshold hit fires.

All six engines share one raw-integer kernel (_scan), which owns the update
loop: run() hands it every update of a run at once and returns its columns
as a Trace. The membrane is a plain int; QValue appears only in the step API
(clock_step, event_step), which runs the same kernel for a single update.
Each update's ordered saturating accumulation is one clamp followed by one
add, whose sum and bounds are the update's row in the total, low and high
columns that _entry_columns builds once per train, so _entry_columns and
_scan hold the only copy of the accumulate, saturate, fire and reset rules.
"""

from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import islice, repeat
from operator import sub

import numpy as np

from .fxp import (
    LUT_EXACT,
    LUT_POW2,
    BetaSpec,
    QFormat,
    QValue,
    build_decay_lut,
)

MODE_CLOCK = "clock"
MODE_EVENT = "event"
DECAY_MULT = "mult"
DECAY_SHIFT = "shift"
IO_SERIAL = "serial"
IO_AER = "aer"
RESET_ZERO = "zero"
RESET_SUBTRACT = "subtract"

# the fixed datapath widths: 6-bit weights and bias, Q1.8 decay factors and
# a 7-bit interval counter
WEIGHT_FMT = QFormat(6, 0)
BETA_FMT = QFormat(9, 8)
COUNTER_BITS = 7
MAX_DT = (1 << COUNTER_BITS) - 1

TraceRecord = namedtuple("TraceRecord", ["time", "u", "fired"])


@cache
def _membrane_format(bits):
    """The one membrane format of each width, so that its cached bounds
    are computed once, not per config."""
    return QFormat(bits, 0)


@dataclass
class NeuronConfig:
    """One of the six neuron architectures plus its static parameters.

    weights, threshold, bias and u_init are raw integers in the membrane /
    weight fixed-point formats, both with 0 fractional bits. Only the
    membrane width varies; the other widths are the module constants.
    n_inputs, the number of input channels, is len(weights).
    """

    weights: tuple
    threshold: int
    beta: BetaSpec
    mode: str = MODE_CLOCK
    decay_impl: str = DECAY_MULT
    io_mode: str = IO_SERIAL
    reset_mode: str = RESET_ZERO
    membrane_bits: int = 9
    bias: int = None
    u_init: int = 0
    n_inputs: int = field(init=False)

    def __post_init__(self):
        if self.mode not in (MODE_CLOCK, MODE_EVENT):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.decay_impl not in (DECAY_MULT, DECAY_SHIFT):
            raise ValueError(f"unknown decay_impl {self.decay_impl!r}")
        if self.io_mode not in (IO_SERIAL, IO_AER):
            raise ValueError(f"unknown io_mode {self.io_mode!r}")
        if self.reset_mode not in (RESET_ZERO, RESET_SUBTRACT):
            raise ValueError(f"unknown reset_mode {self.reset_mode!r}")
        if self.mode == MODE_CLOCK and self.io_mode == IO_AER:
            raise ValueError(
                "clock-driven with address-event input is not a buildable "
                "architecture; only the six documented variants exist"
            )
        if self.mode == MODE_CLOCK and self.decay_impl == DECAY_SHIFT \
                and self.beta.shift is None:
            raise ValueError(
                "clock-driven shifter decay needs a 1 - 2**-n decay factor "
                "(BetaSpec.one_minus_pow2)"
            )
        if self.mode == MODE_CLOCK and self.decay_impl == DECAY_SHIFT \
                and self.beta.shift >= self.membrane_bits:
            raise ValueError(
                f"clock-driven shifter decay needs a beta shift below "
                f"membrane_bits {self.membrane_bits}, got {self.beta.shift}"
            )
        self.weights = tuple(int(w) for w in self.weights)
        self.n_inputs = len(self.weights)
        if self.n_inputs < 1:
            raise ValueError(f"n_inputs must be >= 1, got {self.n_inputs}")

        self.membrane_fmt = _membrane_format(self.membrane_bits)

        lo, hi = WEIGHT_FMT.raw_min, WEIGHT_FMT.raw_max
        bits = WEIGHT_FMT.total_bits
        for w in self.weights:
            if not lo <= w <= hi:
                raise ValueError(f"weight raw {w} outside {bits}-bit range")
        if self.bias is not None and not lo <= self.bias <= hi:
            raise ValueError(f"bias raw {self.bias} outside {bits}-bit range")
        if not 0 < self.threshold <= self.membrane_fmt.raw_max:
            raise ValueError(f"threshold raw {self.threshold} must be positive "
                             f"and fit the membrane format")
        if not self.membrane_fmt.raw_min <= self.u_init <= self.membrane_fmt.raw_max:
            raise ValueError(f"u_init raw {self.u_init} outside membrane range")

        lut_mode = LUT_EXACT if self.decay_impl == DECAY_MULT else LUT_POW2
        self.lut = build_decay_lut(self.beta, MAX_DT, lut_mode, BETA_FMT,
                                   max_shift=self.membrane_bits - 1)

    def check_channels(self, train):
        """Reject a spike train whose channel count is not n_inputs."""
        if train.n_channels != self.n_inputs:
            raise ValueError(f"train has {train.n_channels} channels, "
                             f"config expects {self.n_inputs}")

    @property
    def name(self):
        return f"{self.mode}_{self.decay_impl}_{self.io_mode}"

    def u(self, raw):
        return QValue(raw, self.membrane_fmt)


@dataclass
class NeuronState:
    """Mutable per-run state: membrane and interval origin."""

    u_mem: QValue
    last_event_time: int = 0


@dataclass
class StepOutcome:
    fired: bool
    u_after: QValue


@dataclass(eq=False)
class Trace:
    """One run as columns, plus the step, active-step and event counts that
    cost.metrics_from_trace prices.

    `times` holds the timestep of each update (a range for clock-driven
    engines, a tuple shared by the runs over one train for event-driven
    ones), `u` the membrane after it, and `fires` the index in `u` of
    each update that fired. u is a raw integer from run() and a real number
    in raw units from reference_run(). `records` builds a TraceRecord per
    update from the columns on first access.
    """

    times: Sequence = ()
    u: list = field(default_factory=list)
    fires: list = field(default_factory=list)
    n_steps: int = 0
    n_active_steps: int = 0
    n_events: int = 0

    @cached_property
    def records(self):
        fired = [False] * len(self.u)
        for i in self.fires:
            fired[i] = True
        # tuple.__new__ builds a TraceRecord without its Python-level __new__
        return list(map(tuple.__new__, repeat(TraceRecord),
                        zip(self.times, self.u, fired)))

    def fire_times(self):
        return [self.times[i] for i in self.fires]

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.u == other.u and self.fires == other.fires
                and (self.n_steps, self.n_active_steps, self.n_events)
                == (other.n_steps, other.n_active_steps, other.n_events)
                and list(self.times) == list(other.times))


def new_state(config):
    return NeuronState(u_mem=config.u(config.u_init))


def _entry_columns(weights, bias, lo, hi, ch, starts, steps, n):
    """The input entry of each of n timesteps. Timestep steps[i] adds the
    weights of channels ch[starts[i]:starts[i + 1]] (the last one's run to
    the end of `ch`), in order, and every timestep then adds the bias (if
    not None), to a membrane of range [lo, hi], saturating after each add.
    A channel outside [0, len(weights)) is rejected here, where it indexes
    the weights.

    Returns an int64 array of the rows (totals, lows, highs), such that
    timestep j's entry takes u to clamp(u, lows[j], highs[j]) + totals[j],
    which equals its ordered saturating adds: the total is the sum of the
    addends, and [low, high] is the membrane range from which no partial
    sum leaves [lo, hi]. When the partial sums span more than [lo, hi],
    every start ends at one value c, folded here per addend, and the entry
    becomes low = high = c - total. The only copy of this rule.
    """
    columns = np.zeros((3, n), dtype=np.int64)
    totals, low, high = columns
    ch = np.asarray(ch)
    w = np.asarray(weights, dtype=np.int64)
    if ch.size:
        if np.minimum.reduce(ch) < 0 or np.maximum.reduce(ch) >= len(w):
            bad = ch[(ch < 0) | (ch >= len(w))]
            raise ValueError(f"input address {bad[0]} outside "
                             f"[0, {len(w)})")
        w = w[ch]
        sums = np.add.accumulate(w)
        # the partial sums from each step's start: less the sum of every
        # addend before it
        base = (sums - w)[starts]
        totals[steps] = np.add.reduceat(w, starts)
        low[steps] = np.minimum.reduceat(sums, starts) - base
        high[steps] = np.maximum.reduceat(sums, starts) - base
    if bias is not None:
        totals += bias
        np.minimum(low, totals, out=low)
        np.maximum(high, totals, out=high)
    # the partial sum before the first addend is 0
    np.subtract(lo, np.minimum(low, 0, out=low), out=low)
    np.subtract(hi, np.maximum(high, 0, out=high), out=high)
    collapsed = (low > high).nonzero()[0]
    if collapsed.size:
        # the run of `ch` of each active timestep; an idle one has none
        bounds = [*np.asarray(starts).tolist(), ch.size]
        runs = dict(zip(np.asarray(steps).tolist(), zip(bounds, bounds[1:])))
        for j in collapsed.tolist():
            addends = w[slice(*runs.get(j, (0, 0)))].tolist()
            if bias is not None:
                addends.append(bias)
            c = 0
            for x in addends:
                c = min(max(c + x, lo), hi)
            low[j] = high[j] = c - totals[j]
    return columns


def _event_rows(steps, table, n, fmt):
    """One row per active step, then the flush row if the last active step
    is not the last timestep; gaps count from 0."""
    times = steps.tolist()
    totals, lows, highs = table.take(steps, axis=1).tolist()
    flush = n > 0 and (not times or times[-1] < n - 1)
    if flush:
        times.append(n - 1)
        # clamp(u, lo, hi) + 0 leaves the decayed membrane as it is
        totals.append(0)
        lows.append(fmt.raw_min)
        highs.append(fmt.raw_max)
    gaps = list(map(sub, times, [0, *times]))
    return tuple(times), gaps, totals, lows, highs, flush


def _schedule(config, train):
    """(times, gaps, totals, lows, highs, flush), the rows of the updates of
    one run over `train`.

    Clock-driven engines update at every timestep with gap 1. Event-driven
    engines update at the active steps, each with its gap to the previous
    one (from 0), then, when `flush`, at the last timestep with a last row
    that decays and never fires (the cost-free flush), so that all engines
    report the membrane at the same instant. The serial and address-event
    interfaces share event-driven dynamics, so both visit the active steps
    directly. A row's total, low and high are the update's input entry,
    read from the train's per-timestep entry table (see _entry_columns).

    The table is built once per train and (weights, bias, membrane range),
    and the rows once per those and mode; both are kept in train.memo, so
    configs that share those share them. The clock rows are the table's
    columns.
    """
    fmt = config.membrane_fmt
    key = (config.weights, config.bias, fmt.raw_min, fmt.raw_max)
    memo = train.memo
    found = memo.get((config.mode, key))
    if found is None:
        n = train.n_steps
        steps = train.t[train._step_starts]
        table = memo.get(key)
        if table is None:
            table = memo[key] = _entry_columns(*key, train.ch,
                                               train._step_starts, steps, n)
        if config.mode == MODE_CLOCK:
            found = (range(n), [1] * n, *table.tolist(), False)
        else:
            found = _event_rows(steps, table, n, fmt)
        memo[(config.mode, key)] = found
    return found


def _scan(config, u, gaps, totals, lows, highs, us, fires, flush=False):
    """The one update rule of all six engines, on raw membrane integers.

    Hoists what is constant per config, then applies one update per row of
    (gaps, totals, lows, highs), starting from membrane `u`: decay over the
    row's gap, the timesteps since the previous update (none when 0;
    clock-driven engines always pass 1), the row's saturating accumulation
    as one clamp-then-add (see _entry_columns), then the threshold check
    (>=) with same-step reset. When `flush`, the last row is the cost-free
    flush, which never fires. Every decay form moves the membrane toward 0,
    so none leaves the format. Callers validate the inputs.

    Appends the membrane after each update to `us`, and the index in `us`
    of each update that fired to `fires`; returns the last membrane.
    """
    threshold = config.threshold
    subtract = config.reset_mode == RESET_SUBTRACT
    frac = config.lut.frac_bits
    # exactly one decay form is set: raw factors (u * f >> frac, f below
    # 1 << frac), arithmetic shifts (u >> s), both read from the decay table
    # by dt, or the clock shifter's u - (u >> n). A clock multiplier reads
    # entry 1, the quantized beta
    factors = shifts = sub_shift = None
    if config.mode == MODE_CLOCK and config.decay_impl == DECAY_SHIFT:
        sub_shift = config.beta.shift
    elif config.lut.mode == LUT_EXACT:
        factors = config.lut.entries
    else:
        shifts = config.lut.entries
    flush_at = len(totals) - 1 if flush else -1
    append = us.append

    for dt, total, a, b in zip(gaps, totals, lows, highs):
        if dt:
            if factors is not None:
                u = (u * factors[dt]) >> frac
            elif shifts is not None:
                u >>= shifts[dt]
            else:
                u -= u >> sub_shift
        if u < a:
            u = a
        elif u > b:
            u = b
        u += total
        if u >= threshold:
            if len(us) != flush_at:
                fires.append(len(us))
                # u >= threshold > 0 keeps u - threshold inside the format
                u = u - threshold if subtract else 0
        append(u)
    return u


def _step(state, config, now, dt, active):
    """One update of the kernel through the step API, stored in `state`."""
    fmt = config.membrane_fmt
    # the step's entry is the one row of a one-timestep table
    starts = [0] if active else []
    columns = _entry_columns(config.weights, config.bias, fmt.raw_min,
                             fmt.raw_max, active, starts, starts, 1)
    fires = []
    u = config.u(_scan(config, state.u_mem.raw, (dt,), *columns.tolist(),
                       [], fires))
    state.u_mem = u
    state.last_event_time = now
    return StepOutcome(fired=bool(fires), u_after=u)


def clock_step(state, config, input_bits):
    """One clock-driven timestep: decay, serial accumulation, fire check.

    All-zero steps without bias skip the input scan (decay and threshold
    check only).
    """
    if config.mode != MODE_CLOCK:
        raise ValueError("clock_step requires a clock-driven config")
    if len(input_bits) != config.n_inputs:
        raise ValueError(
            f"input vector width {len(input_bits)} != n_inputs {config.n_inputs}"
        )
    active = [ch for ch, bit in enumerate(input_bits) if bit]
    return _step(state, config, state.last_event_time + 1, 1, active)


def event_step(state, config, now, active):
    """One event-driven update at timestep `now` for the active channels.

    Catches up decay over the interval since the last update via the decay
    table, then accumulates the active weights in the given order.
    """
    if config.mode != MODE_EVENT:
        raise ValueError("event_step requires an event-driven config")
    active = list(active)
    if not active:
        raise ValueError("event_step needs at least one active channel")
    for ch in active:
        # a bool would index the weights as a mask, a float not at all
        if isinstance(ch, bool) or not isinstance(ch, (int, np.integer)):
            raise ValueError(f"input address {ch!r} is not an integer")
    dt = now - state.last_event_time
    if dt < 0:
        raise ValueError(f"time moved backwards: now {now} < last "
                         f"{state.last_event_time}")
    if dt > MAX_DT:
        raise ValueError(f"interval {dt} overflows the {COUNTER_BITS}-bit counter")
    return _step(state, config, now, dt, active)


def run(config, train):
    """Drive one neuron over a full spike train; returns the Trace.

    Clock-driven engines record every timestep; event-driven engines record
    each update instant plus a final cost-free flush at the last timestep
    (see _schedule). The membrane stays a raw integer throughout.

    The train's entry table is built once per train and shared by every
    run over it (see _schedule); its build rejects an input address
    outside the config's channels.
    """
    config.check_channels(train)
    # this also keeps every gap, and so every decay-table index, <= MAX_DT
    if train.n_steps > (1 << COUNTER_BITS):
        raise ValueError(
            f"train length {train.n_steps} exceeds the {COUNTER_BITS}-bit "
            f"time counter"
        )
    times, gaps, totals, lows, highs, flush = _schedule(config, train)
    us, fires = [], []
    _scan(config, config.u_init, gaps, totals, lows, highs, us, fires, flush)
    return Trace(times, us, fires, train.n_steps, train.n_active_steps,
                 train.n_events)


def reference_run(config, train):
    """Same event semantics as run(), with exact real arithmetic.

    Works in raw LSB units but with the exact real decay factor, no
    quantization and no saturation; the oracle against which quantization
    error is measured.
    """
    config.check_channels(train)
    beta = config.beta.value
    thr = float(config.threshold)
    bias = config.bias
    subtract = config.reset_mode == RESET_SUBTRACT
    times, gaps, totals, _, _, flush = _schedule(config, train)
    if config.mode == MODE_CLOCK:
        # the clock-driven decay is beta itself, not beta ** 1
        decays = repeat(beta)
        # an idle clock step without bias adds nothing, not even 0, which
        # would turn a -0.0 membrane into 0.0
        if bias is None:
            adds = np.zeros(train.n_steps, dtype=bool)
            adds[train.t] = True
            adds = adds.tolist()
        else:
            adds = repeat(True)
    else:
        decays = [beta ** dt for dt in gaps]
        adds = repeat(True)
    us, fires = [], []
    u = float(config.u_init)
    for decay, total, add in zip(decays, islice(totals, len(totals) - flush),
                                 adds):
        u *= decay
        if add:
            u += total
        if u >= thr:
            fires.append(len(us))
            u = u - thr if subtract else 0.0
        us.append(u)
    if flush:
        # the cost-free flush only decays
        u *= decays[-1]
        us.append(u)
    return Trace(times, us, fires, train.n_steps, train.n_active_steps,
                 train.n_events)
