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

All six engines share one raw-integer kernel (_kernel). run() keeps the
membrane a plain int; QValue appears only in the step API (clock_step,
event_step, fire_and_reset), which wraps the same kernel.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .fxp import (
    LUT_EXACT,
    LUT_POW2,
    BetaSpec,
    QFormat,
    QValue,
    build_decay_lut,
    quantize,
)

MODE_CLOCK = "clock"
MODE_EVENT = "event"
DECAY_MULT = "mult"
DECAY_SHIFT = "shift"
IO_SERIAL = "serial"
IO_AER = "aer"
RESET_ZERO = "zero"
RESET_SUBTRACT = "subtract"

TraceRecord = namedtuple("TraceRecord", ["time", "u", "fired"])


@dataclass
class NeuronConfig:
    """One of the six neuron architectures plus its static parameters.

    weights, threshold, bias and u_init are raw integers in the membrane /
    weight fixed-point formats, both with 0 fractional bits.
    """

    n_inputs: int
    weights: tuple
    threshold: int
    beta: BetaSpec
    mode: str = MODE_CLOCK
    decay_impl: str = DECAY_MULT
    io_mode: str = IO_SERIAL
    reset_mode: str = RESET_ZERO
    weight_bits: int = 6
    membrane_bits: int = 9
    counter_bits: int = 7
    addr_bits: int = None
    beta_total_bits: int = 9
    beta_frac_bits: int = 8
    bias: int = None
    u_init: int = 0
    wrap: bool = False

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
        if self.n_inputs < 1:
            raise ValueError(f"n_inputs must be >= 1, got {self.n_inputs}")
        if self.addr_bits is None:
            self.addr_bits = max(1, math.ceil(math.log2(self.n_inputs)))
        if self.n_inputs > (1 << self.addr_bits):
            raise ValueError(
                f"n_inputs {self.n_inputs} does not fit {self.addr_bits} address bits"
            )

        self.membrane_fmt = QFormat(self.membrane_bits, 0, wrap=self.wrap)
        self.weight_fmt = QFormat(self.weight_bits, 0)
        self.beta_fmt = QFormat(self.beta_total_bits, self.beta_frac_bits)

        self.weights = tuple(int(w) for w in self.weights)
        if len(self.weights) != self.n_inputs:
            raise ValueError(
                f"got {len(self.weights)} weights for {self.n_inputs} inputs"
            )
        for w in self.weights:
            if not self.weight_fmt.raw_min <= w <= self.weight_fmt.raw_max:
                raise ValueError(f"weight raw {w} outside {self.weight_bits}-bit range")
        if self.bias is not None and not (
            self.weight_fmt.raw_min <= self.bias <= self.weight_fmt.raw_max
        ):
            raise ValueError(f"bias raw {self.bias} outside {self.weight_bits}-bit range")
        if not 0 < self.threshold <= self.membrane_fmt.raw_max:
            raise ValueError(f"threshold raw {self.threshold} must be positive "
                             f"and fit the membrane format")
        if not self.membrane_fmt.raw_min <= self.u_init <= self.membrane_fmt.raw_max:
            raise ValueError(f"u_init raw {self.u_init} outside membrane range")

        self.beta_q = quantize(self.beta.value, self.beta_fmt)
        self.max_dt = (1 << self.counter_bits) - 1
        lut_mode = LUT_EXACT if self.decay_impl == DECAY_MULT else LUT_POW2
        self.lut = build_decay_lut(self.beta, self.max_dt, lut_mode,
                                   self.beta_fmt,
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


@dataclass
class Trace:
    """Per-update records plus the step, active-step and event counts that
    cost.metrics_from_trace prices.

    u is a raw integer from run() and a real number in raw units from
    reference_run().
    """

    records: list = field(default_factory=list)
    n_steps: int = 0
    n_active_steps: int = 0
    n_events: int = 0

    def fire_times(self):
        return [r.time for r in self.records if r.fired]


def new_state(config):
    return NeuronState(u_mem=config.u(config.u_init))


def _fire_reset(u, threshold, subtract):
    """Threshold check (>=) and same-step reset of a raw membrane.

    Returns (fired, u_after). A subtract reset cannot leave the format:
    u >= threshold > 0 puts u - threshold in [0, raw_max - threshold].
    """
    if u >= threshold:
        return True, (u - threshold if subtract else 0)
    return False, u


def _kernel(config):
    """The one update rule of all six engines, on raw membrane integers.

    Hoists what is constant per run and returns step(u, dt, chans) ->
    (fired, u_after): decay over the dt timesteps since the last update
    (none when dt is 0; clock-driven engines always pass 1), saturating
    accumulation of the weights of `chans` in the given order, the bias,
    then _fire_reset. chans=None stops after the decay and never fires (the
    cost-free flush). Saturation or wrap goes through the membrane format's
    clamp only when a value leaves its range. Callers validate the inputs.
    """
    fmt = config.membrane_fmt
    lo, hi, clamp = fmt.raw_min, fmt.raw_max, fmt.clamp
    weights, bias, threshold = config.weights, config.bias, config.threshold
    subtract = config.reset_mode == RESET_SUBTRACT
    frac = config.beta_fmt.frac_bits
    # exactly one decay form is set: raw factors (u * f >> frac), arithmetic
    # shifts (u >> s), both read from the decay table by dt, or the clock
    # shifter's u - (u >> n). A clock multiplier reads entry 1, beta_q
    factors = shifts = sub_shift = None
    if config.mode == MODE_CLOCK and config.decay_impl == DECAY_SHIFT:
        sub_shift = config.beta.shift
    elif config.lut.mode == LUT_EXACT:
        factors = config.lut.raw_entries
    else:
        shifts = config.lut.raw_entries

    def step(u, dt, chans):
        if dt:
            if factors is not None:
                u = (u * factors[dt]) >> frac
            elif shifts is not None:
                u >>= shifts[dt]
            else:
                u -= u >> sub_shift
            if not lo <= u <= hi:
                u = clamp(u)
        if chans is None:
            return False, u
        for ch in chans:
            u += weights[ch]
            if not lo <= u <= hi:
                u = clamp(u)
        if bias is not None:
            u += bias
            if not lo <= u <= hi:
                u = clamp(u)
        return _fire_reset(u, threshold, subtract)

    return step


def _check_addresses(channels, n_inputs):
    """Reject the first input address outside [0, n_inputs)."""
    ch = np.asarray(channels)
    bad = np.flatnonzero((ch < 0) | (ch >= n_inputs))
    if bad.size:
        raise ValueError(f"input address {ch[bad[0]]} outside [0, {n_inputs})")


def _commit(state, config, now, fired, raw):
    """Store one step API update in `state` and report it."""
    u = config.u(raw)
    state.u_mem = u
    state.last_event_time = now
    return StepOutcome(fired=fired, u_after=u)


def fire_and_reset(u, config):
    """Threshold check (>=) and same-step reset; returns (fired, u_after)."""
    fired, raw = _fire_reset(u.raw, config.threshold,
                             config.reset_mode == RESET_SUBTRACT)
    return fired, (config.u(raw) if fired else u)


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
    fired, raw = _kernel(config)(state.u_mem.raw, 1, active)
    return _commit(state, config, state.last_event_time + 1, fired, raw)


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
    if dt > config.max_dt:
        raise ValueError(
            f"interval {dt} overflows the {config.counter_bits}-bit counter"
        )
    _check_addresses(active, config.n_inputs)
    fired, raw = _kernel(config)(state.u_mem.raw, dt, active)
    return _commit(state, config, now, fired, raw)


def run(config, train):
    """Drive one neuron over a full spike train; returns the Trace.

    Clock-driven engines record every timestep; event-driven engines record
    each update instant plus a final cost-free flush at the last timestep so
    all engines report the membrane at the same instant. The serial and
    address-event interfaces share event-driven dynamics, so both visit the
    active steps directly. The membrane stays a raw integer throughout.

    The train's active-step map and channel range are built once per train
    and shared by every run over it.
    """
    config.check_channels(train)
    if train.n_steps > (1 << config.counter_bits):
        raise ValueError(
            f"train length {train.n_steps} exceeds the {config.counter_bits}-bit "
            f"time counter"
        )
    bounds = train.channel_bounds
    if bounds is not None and (bounds[0] < 0 or bounds[1] >= config.n_inputs):
        _check_addresses(train.ch, config.n_inputs)
    step = _kernel(config)
    steps = train.active_steps
    records = []
    append = records.append
    new = tuple.__new__  # builds a TraceRecord without its Python-level __new__
    u = config.u_init

    if config.mode == MODE_CLOCK:
        get = steps.get
        for t in range(train.n_steps):
            fired, u = step(u, 1, get(t, ()))
            append(new(TraceRecord, (t, u, fired)))
    else:
        last = 0
        # the n_steps check above keeps every t, so every dt and the flush
        # gap, <= max_dt
        for t, chans in steps.items():
            fired, u = step(u, t - last, chans)
            append(new(TraceRecord, (t, u, fired)))
            last = t
        if train.n_steps > 0:
            t_end = train.n_steps - 1
            if last < t_end or not records:
                append(TraceRecord(t_end, step(u, t_end - last, None)[1],
                                   False))
    return Trace(records=records, n_steps=train.n_steps,
                 n_active_steps=train.n_active_steps, n_events=train.n_events)


def reference_run(config, train):
    """Same event semantics as run(), with exact real arithmetic.

    Works in raw LSB units but with the exact real decay factor, no
    quantization and no saturation; the oracle against which quantization
    error is measured.
    """
    config.check_channels(train)
    beta = config.beta.value
    thr = float(config.threshold)
    by_step = train.active_steps
    trace = Trace(n_steps=train.n_steps, n_active_steps=train.n_active_steps,
                  n_events=train.n_events)
    u = float(config.u_init)

    def settle(u_val):
        total = sum(config.weights[ch] for ch in chans)
        if config.bias is not None:
            total += config.bias
        u_val += total
        if u_val >= thr:
            return True, (0.0 if config.reset_mode == RESET_ZERO else u_val - thr)
        return False, u_val

    if config.mode == MODE_CLOCK:
        for t in range(train.n_steps):
            u *= beta
            chans = by_step.get(t, ())
            if chans or config.bias is not None:
                fired, u = settle(u)
            else:
                fired = u >= thr
                if fired:
                    u = 0.0 if config.reset_mode == RESET_ZERO else u - thr
            trace.records.append(TraceRecord(t, u, fired))
        return trace

    last = 0
    for t, chans in by_step.items():
        u *= beta ** (t - last)
        fired, u = settle(u)
        trace.records.append(TraceRecord(t, u, fired))
        last = t
    if train.n_steps > 0:
        t_end = train.n_steps - 1
        if last < t_end or not trace.records:
            u *= beta ** (t_end - last)
            trace.records.append(TraceRecord(t_end, u, False))
    return trace
