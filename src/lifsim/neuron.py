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
add, whose bounds and sum the update's input entry (_entry) holds, so
_entry and _scan hold the only copy of the accumulate, saturate, fire and
reset rules.
"""

from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
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

        self.membrane_fmt = QFormat(self.membrane_bits, 0)

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
    engines), `u` the membrane after it, and `fires` the index in `u` of
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


def _entry(weights, bias, lo, hi, chans):
    """The input entry of one update that adds the weights of `chans`, in
    order, then the bias (if not None), to a membrane of range [lo, hi],
    saturating after each add.

    Returns (total, a, b, chans) such that the update takes u to
    clamp(u, a, b) + total, which equals the ordered saturating adds:
    `total` is the sum of the addends, and [a, b] is the membrane range
    from which no partial sum leaves [lo, hi]. When the partial sums span
    more than [lo, hi], every start ends at one value c, folded once here,
    and the entry becomes a = b = c - total.
    """
    addends = [weights[ch] for ch in chans]
    if bias is not None:
        addends.append(bias)
    total = low = high = 0
    for w in addends:
        total += w
        if total < low:
            low = total
        elif total > high:
            high = total
    a, b = lo - low, hi - high
    if a > b:
        c = 0
        for w in addends:
            c = min(max(c + w, lo), hi)
        a = b = c - total
    return total, a, b, chans


def _entries(config, train):
    """(idle entry, map timestep -> entry of each active step) of `config`
    on `train`.

    Built once per train and (weights, bias, membrane range), and kept in
    train.memo, so configs that share those share the entries.
    """
    fmt = config.membrane_fmt
    key = (config.weights, config.bias, fmt.raw_min, fmt.raw_max)
    found = train.memo.get(key)
    if found is None:
        found = train.memo[key] = (_entry(*key, ()), {
            t: _entry(*key, chans) for t, chans in train.active_steps.items()})
    return found


def _scan(config, u, gaps, inputs, us, fires):
    """The one update rule of all six engines, on raw membrane integers.

    Hoists what is constant per config, then applies one update per entry
    of `inputs`, starting from membrane `u`: decay over the matching entry
    of `gaps`, the timesteps since the previous update (none when 0;
    clock-driven engines always pass 1), the entry's saturating
    accumulation as one clamp-then-add (see _entry), then the threshold
    check (>=) with same-step reset. An entry of None stops after the decay
    and never fires (the cost-free flush). Every decay form moves the
    membrane toward 0, so none leaves the format. Callers validate the
    inputs.

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
    append = us.append

    for dt, entry in zip(gaps, inputs):
        if dt:
            if factors is not None:
                u = (u * factors[dt]) >> frac
            elif shifts is not None:
                u >>= shifts[dt]
            else:
                u -= u >> sub_shift
        if entry is not None:
            total, a, b, _ = entry
            if u < a:
                u = a
            elif u > b:
                u = b
            u += total
            if u >= threshold:
                fires.append(len(us))
                # u >= threshold > 0 keeps u - threshold inside the format
                u = u - threshold if subtract else 0
        append(u)
    return u


def _schedule(config, train):
    """(times, gaps, inputs) of the updates of one run over `train`.

    Clock-driven engines update at every timestep with gap 1. Event-driven
    engines update at the active steps, each with its gap to the previous
    one (from 0), then flush (input None) to the last timestep, so that all
    engines report the membrane at the same instant. The serial and
    address-event interfaces share event-driven dynamics, so both visit the
    active steps directly. An input is the update's entry (see _entry).
    """
    idle, steps = _entries(config, train)
    n = train.n_steps
    if config.mode == MODE_CLOCK:
        return range(n), repeat(1, n), map(steps.get, range(n), repeat(idle))
    times = list(steps)
    inputs = list(steps.values())
    if n and (not times or times[-1] < n - 1):
        times.append(n - 1)
        inputs.append(None)
    return times, list(map(sub, times, chain((0,), times))), inputs


def _check_addresses(channels, n_inputs):
    """Reject the first input address outside [0, n_inputs)."""
    ch = np.asarray(channels)
    bad = np.flatnonzero((ch < 0) | (ch >= n_inputs))
    if bad.size:
        raise ValueError(f"input address {ch[bad[0]]} outside [0, {n_inputs})")


def _step(state, config, now, dt, active):
    """One update of the kernel through the step API, stored in `state`."""
    fmt = config.membrane_fmt
    entry = _entry(config.weights, config.bias, fmt.raw_min, fmt.raw_max,
                   active)
    fires = []
    u = config.u(_scan(config, state.u_mem.raw, (dt,), (entry,), [], fires))
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
    dt = now - state.last_event_time
    if dt < 0:
        raise ValueError(f"time moved backwards: now {now} < last "
                         f"{state.last_event_time}")
    if dt > MAX_DT:
        raise ValueError(f"interval {dt} overflows the {COUNTER_BITS}-bit counter")
    _check_addresses(active, config.n_inputs)
    return _step(state, config, now, dt, active)


def run(config, train):
    """Drive one neuron over a full spike train; returns the Trace.

    Clock-driven engines record every timestep; event-driven engines record
    each update instant plus a final cost-free flush at the last timestep
    (see _schedule). The membrane stays a raw integer throughout.

    The train's active-step map, channel range and step entries are built
    once per train and shared by every run over it.
    """
    config.check_channels(train)
    # this also keeps every gap, and so every decay-table index, <= MAX_DT
    if train.n_steps > (1 << COUNTER_BITS):
        raise ValueError(
            f"train length {train.n_steps} exceeds the {COUNTER_BITS}-bit "
            f"time counter"
        )
    bounds = train.channel_bounds
    if bounds is not None and (bounds[0] < 0 or bounds[1] >= config.n_inputs):
        _check_addresses(train.ch, config.n_inputs)
    times, gaps, inputs = _schedule(config, train)
    us, fires = [], []
    _scan(config, config.u_init, gaps, inputs, us, fires)
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
    times, gaps, inputs = _schedule(config, train)
    # the clock-driven decay is beta itself, not beta ** 1
    decays = (repeat(beta) if config.mode == MODE_CLOCK
              else [beta ** dt for dt in gaps])
    us, fires = [], []
    u = float(config.u_init)
    for decay, entry in zip(decays, inputs):
        u *= decay
        if entry is not None:
            total, _, _, chans = entry
            # an idle clock step without bias adds nothing, not even 0,
            # which would turn a -0.0 membrane into 0.0
            if chans or bias is not None:
                u += total
            if u >= thr:
                fires.append(len(us))
                u = u - thr if subtract else 0.0
        us.append(u)
    return Trace(times, us, fires, train.n_steps, train.n_active_steps,
                 train.n_events)
