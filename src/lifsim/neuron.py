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
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter

from .fxp import (
    LUT_EXACT,
    LUT_POW2,
    BetaSpec,
    QFormat,
    QValue,
    apply_lut_decay,
    build_decay_lut,
    decay_mult,
    decay_shift,
    quantize,
    sat_sub,
)
from .stimulus import encode_aer, encode_serial

MODE_CLOCK = "clock"
MODE_EVENT = "event"
DECAY_MULT = "mult"
DECAY_SHIFT = "shift"
IO_SERIAL = "serial"
IO_AER = "aer"
RESET_ZERO = "zero"
RESET_SUBTRACT = "subtract"

# Empirically measured ceilings on |u_event - u_clock| (raw LSBs) at event
# instants, per (effective beta, decay implementation). Produced by
# scripts/measure_divergence_bound.py: exhaustive 2-channel short-pattern
# search plus large randomized 8-channel/100-step sweeps. Regenerate with
# that script whenever formats or engine semantics change.
QUANT_DIVERGENCE_BOUND = {
    (0.5, DECAY_MULT): 1,
    (0.5, DECAY_SHIFT): 99,
    (0.9375, DECAY_MULT): 99,
    (0.9375, DECAY_SHIFT): 237,
}

TraceRecord = namedtuple("TraceRecord", ["time", "u", "fired"])


@dataclass
class NeuronConfig:
    """One of the six neuron architectures plus its static parameters.

    weights, threshold, bias and u_init are raw integers in the membrane /
    weight fixed-point formats (weights share the membrane's binary point).
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
    membrane_frac: int = 0
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
        if self.n_inputs < 1:
            raise ValueError(f"n_inputs must be >= 1, got {self.n_inputs}")
        if self.addr_bits is None:
            self.addr_bits = max(1, math.ceil(math.log2(self.n_inputs)))
        if self.n_inputs > (1 << self.addr_bits):
            raise ValueError(
                f"n_inputs {self.n_inputs} does not fit {self.addr_bits} address bits"
            )

        self.membrane_fmt = QFormat(self.membrane_bits, self.membrane_frac,
                                    wrap=self.wrap)
        self.weight_fmt = QFormat(self.weight_bits, self.membrane_frac)
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

    @property
    def threshold_q(self):
        return QValue(self.threshold, self.membrane_fmt)

    @property
    def name(self):
        return f"{self.mode}_{self.decay_impl}_{self.io_mode}"

    def u(self, raw):
        return QValue(raw, self.membrane_fmt)


@dataclass
class NeuronState:
    """Mutable per-run state: membrane, interval origin, last fire flag."""

    u_mem: QValue
    last_event_time: int = 0
    fired_last: bool = False


@dataclass
class StepOutcome:
    fired: bool
    u_after: QValue


@dataclass
class Trace:
    """Per-update records plus the step, active-step and event counts that
    cost.metrics_from_trace prices."""

    records: list = field(default_factory=list)
    n_steps: int = 0
    n_active_steps: int = 0
    n_events: int = 0

    def fire_times(self):
        return [r.time for r in self.records if r.fired]

    def final_u(self):
        return self.records[-1].u if self.records else None


@dataclass
class RealTrace:
    """reference_run counterpart of Trace; u is a real number in raw units."""

    records: list = field(default_factory=list)
    n_steps: int = 0

    def fire_times(self):
        return [r.time for r in self.records if r.fired]

    def final_u(self):
        return self.records[-1].u if self.records else None


def new_state(config):
    return NeuronState(u_mem=config.u(config.u_init))


def fire_and_reset(u, config):
    """Threshold check (>=) and same-step reset; returns (fired, u_after)."""
    if u.raw >= config.threshold:
        if config.reset_mode == RESET_ZERO:
            return True, config.u(0)
        return True, sat_sub(u, config.threshold_q)
    return False, u


def _clock_decay(u, config):
    if config.decay_impl == DECAY_MULT:
        return decay_mult(u, config.beta_q)
    return decay_shift(u, config.beta.shift)


def _accumulate(u, config, channels):
    """Serially add the weights of the active channels, saturating."""
    mfmt = u.fmt
    raw = u.raw
    for ch in channels:
        if not 0 <= ch < config.n_inputs:
            raise ValueError(f"input address {ch} outside [0, {config.n_inputs})")
        raw = mfmt.clamp(raw + config.weights[ch])
    if config.bias is not None:
        raw = mfmt.clamp(raw + config.bias)
    return QValue(raw, mfmt)


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
    u = _clock_decay(state.u_mem, config)
    active = [ch for ch, bit in enumerate(input_bits) if bit]
    if active or config.bias is not None:
        u = _accumulate(u, config, active)
    fired, u = fire_and_reset(u, config)

    state.u_mem = u
    state.fired_last = fired
    state.last_event_time += 1
    return StepOutcome(fired=fired, u_after=u)


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
    u = apply_lut_decay(state.u_mem, config.lut, dt)
    u = _accumulate(u, config, active)
    fired, u = fire_and_reset(u, config)

    state.u_mem = u
    state.fired_last = fired
    state.last_event_time = now
    return StepOutcome(fired=fired, u_after=u)


def _flush_decay(state, config, t_end):
    """Align an event-driven state to the final instant, cost-free.

    Pure decay cannot cross the (positive) threshold, so no firing check is
    needed; the catch-up is chunked if it ever exceeds the counter range.
    """
    gap = t_end - state.last_event_time
    while gap > config.max_dt:
        state.u_mem = apply_lut_decay(state.u_mem, config.lut, config.max_dt)
        state.last_event_time += config.max_dt
        gap -= config.max_dt
    if gap > 0:
        state.u_mem = apply_lut_decay(state.u_mem, config.lut, gap)
        state.last_event_time = t_end


def run(config, train):
    """Drive one neuron over a full spike train; returns the Trace.

    Clock-driven engines record every timestep; event-driven engines record
    each update instant plus a final cost-free flush at the last timestep so
    all engines report the membrane at the same instant. The serial and
    address-event interfaces differ only in how the active steps are read.
    """
    if train.n_channels != config.n_inputs:
        raise ValueError(
            f"train has {train.n_channels} channels, config expects {config.n_inputs}"
        )
    if train.n_steps > (1 << config.counter_bits):
        raise ValueError(
            f"train length {train.n_steps} exceeds the {config.counter_bits}-bit "
            f"time counter"
        )
    state = new_state(config)
    trace = Trace(n_steps=train.n_steps, n_active_steps=train.n_active_steps,
                  n_events=train.n_events)

    if config.mode == MODE_CLOCK:
        for t, bits in enumerate(encode_serial(train)):
            out = clock_step(state, config, bits)
            trace.records.append(TraceRecord(t, out.u_after.raw, out.fired))
        return trace

    if config.io_mode == IO_SERIAL:
        active_steps = train.steps_with_events().items()
    else:
        active_steps = (
            (t, [p.address for p in packets])
            for t, packets in groupby(encode_aer(train), attrgetter("timestamp"))
        )
    for t, chans in active_steps:
        out = event_step(state, config, t, chans)
        trace.records.append(TraceRecord(t, out.u_after.raw, out.fired))

    if train.n_steps > 0:
        t_end = train.n_steps - 1
        if state.last_event_time < t_end or not trace.records:
            _flush_decay(state, config, t_end)
            trace.records.append(TraceRecord(t_end, state.u_mem.raw, False))
    return trace


def reference_run(config, train):
    """Same event semantics as run(), with exact real arithmetic.

    Works in raw LSB units but with the exact real decay factor, no
    quantization and no saturation; the oracle against which quantization
    error is measured.
    """
    if train.n_channels != config.n_inputs:
        raise ValueError(
            f"train has {train.n_channels} channels, config expects {config.n_inputs}"
        )
    beta = config.beta.value
    thr = float(config.threshold)
    by_step = train.steps_with_events()
    trace = RealTrace(n_steps=train.n_steps)
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
            chans = by_step.get(t, [])
            if chans or config.bias is not None:
                fired, u = settle(u)
            else:
                fired = u >= thr
                if fired:
                    u = 0.0 if config.reset_mode == RESET_ZERO else u - thr
            trace.records.append(TraceRecord(t, u, fired))
        return trace

    last = 0
    for t in sorted(by_step):
        chans = by_step[t]
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
