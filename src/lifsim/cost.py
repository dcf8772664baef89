"""Cycle, activity, energy and average-power models.

Cycle constants and energy weights are model parameters, not measured
hardware numbers. The defaults are calibrated so the qualitative trends of
interest hold: address-event input wins latency when activity is sparse,
serial latency is flat in input density, shifter decay is cheaper than
multiplier decay, and address-event average power rises as input density
falls. Static power is excluded; energy is activity-proportional only.
"""

import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class CycleCosts:
    """Per-architecture cycle constants.

    clock_full_scan charges the clock-driven engine the full input-scan cost
    on idle timesteps too (the pessimistic reading of a design with no
    zero-input shortcut).
    """

    clk_idle_step: int = 2
    clk_active_step_base: int = 2
    clk_per_input_scan: int = 1
    evt_idle_step: int = 1
    evt_active_step_base: int = 2
    evt_per_input_scan: int = 1
    aer_per_active_step_base: int = 2
    aer_per_packet: int = 2
    clock_full_scan: bool = False

    def __post_init__(self):
        for f in fields(self):
            if f.type is int and getattr(self, f.name) < 0:
                raise ValueError(f"cycle constant {f.name} must be >= 0")


@dataclass
class ActivityCounters:
    """Datapath/control operation counts accumulated over a run.

    step_bursts counts the per-active-timestep control bursts of an
    address-event configuration (0 for the serial ones).
    """

    multiplies: int = 0
    shifts: int = 0
    adds: int = 0
    lut_reads: int = 0
    threshold_checks: int = 0
    reg_writes: int = 0
    cu_transitions: int = 0
    mem_reads: int = 0
    step_bursts: int = 0

    def add(self, other):
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self


@dataclass(frozen=True)
class EnergyWeights:
    """Energy units charged per counted operation.

    e_step_fixed is charged per ActivityCounters.step_bursts: the
    per-active-timestep control burst of an address-event configuration
    (packet detection, address decode, memory handshake).
    """

    e_mult: float = 8.0
    e_shift: float = 1.0
    e_add: float = 2.0
    e_lut: float = 2.0
    e_cmp: float = 1.0
    e_reg: float = 1.0
    e_cu: float = 4.0
    e_mem: float = 3.0
    e_step_fixed: float = 12.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"energy weight {f.name} must be finite and "
                                 f">= 0, got {value!r}")


@dataclass(frozen=True)
class RunMetrics:
    """Latency, energy and derived average power for one run."""

    latency_cycles: int
    energy_units: float
    avg_power_units: float  # energy / cycles; 0 when the run took 0 cycles


DEFAULT_CYCLE_COSTS = CycleCosts()
DEFAULT_ENERGY_WEIGHTS = EnergyWeights()


def run_cost(config, costs, n_steps, n_active_steps, n_events):
    """Closed-form (cycles, ActivityCounters) of one run through `config`.

    A run is summarised by its timesteps T, its active (non-empty) steps A
    and its input events E; the spike dynamics play no part. Serial engines
    pay per timestep (active steps scan every input channel), the
    address-event engine pays per packet and nothing on idle steps, plus one
    control burst per active step. The event-driven serial engine still
    writes its interval counter on every timestep.

    The counts may be numpy arrays of Python ints (dtype object), one entry
    per run, to price many runs in one call. The cycles and counters are
    then such arrays too, each entry worked out with the same Python int
    arithmetic as a scalar call, so exact at any size.
    """
    T, A, E = n_steps, n_active_steps, n_events
    act = ActivityCounters()
    if config.mode == "clock":
        updates = T
        act.reg_writes = act.cu_transitions = T
        active_cost = costs.clk_active_step_base + config.n_inputs * costs.clk_per_input_scan
        if costs.clock_full_scan:
            cycles = T * active_cost
        else:
            cycles = (T - A) * costs.clk_idle_step + A * active_cost
    else:
        updates = A
        act.lut_reads = A
        if config.io_mode == "serial":
            act.reg_writes = T
            act.cu_transitions = A
            active_cost = costs.evt_active_step_base + config.n_inputs * costs.evt_per_input_scan
            cycles = (T - A) * costs.evt_idle_step + A * active_cost
        else:
            act.reg_writes = A
            act.cu_transitions = E  # one control burst per packet
            act.step_bursts = A
            cycles = A * costs.aer_per_active_step_base + E * costs.aer_per_packet
    if config.decay_impl == "mult":
        act.multiplies = updates
    else:
        act.shifts = updates
    act.threshold_checks = updates
    act.adds = act.mem_reads = E + (updates if config.bias is not None else 0)
    return cycles, act


def latency(config, train, costs=DEFAULT_CYCLE_COSTS):
    """Closed-form cycle count for running `train` through `config`."""
    config.check_channels(train)
    return run_cost(config, costs, train.n_steps, train.n_active_steps,
                    train.n_events)[0]


def energy(activity, weights=DEFAULT_ENERGY_WEIGHTS):
    """Dot product of activity counters with energy weights, elementwise
    when the counters are arrays."""
    return (
        activity.multiplies * weights.e_mult
        + activity.shifts * weights.e_shift
        + activity.adds * weights.e_add
        + activity.lut_reads * weights.e_lut
        + activity.threshold_checks * weights.e_cmp
        + activity.reg_writes * weights.e_reg
        + activity.cu_transitions * weights.e_cu
        + activity.mem_reads * weights.e_mem
        + activity.step_bursts * weights.e_step_fixed
    )


def metrics_from_trace(trace, config, weights=DEFAULT_ENERGY_WEIGHTS,
                       costs=DEFAULT_CYCLE_COSTS):
    """Assemble RunMetrics from the step, active-step and event counts of an
    engine trace."""
    cycles, activity = run_cost(config, costs, trace.n_steps,
                                trace.n_active_steps, trace.n_events)
    e = energy(activity, weights)
    return RunMetrics(
        latency_cycles=cycles,
        energy_units=e,
        avg_power_units=avg_power(e, cycles),
    )


def avg_power(e, cycles):
    """Average power of a run: energy e over its cycles, 0 if it took 0."""
    return e / cycles if cycles > 0 else 0.0


_INT_KEYS = {
    f.name for f in fields(CycleCosts) if f.name != "clock_full_scan"
}
_FLOAT_KEYS = {f.name for f in fields(EnergyWeights)}


def load_model_config(path):
    """Parse a `key = number` config file into (CycleCosts, EnergyWeights).

    '#' starts a comment, blank lines are ignored, unknown keys are errors,
    and so are negative or non-finite values, named with their line. Keys
    not present keep their defaults.
    """
    cycle_kw = {}
    energy_kw = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                if key == "clock_full_scan":
                    if value.lower() not in ("true", "false", "0", "1"):
                        raise ValueError
                    cycle_kw[key] = value.lower() in ("true", "1")
                elif key in _INT_KEYS:
                    # a one-field instance applies the class's own check
                    cycle_kw[key] = int(value)
                    CycleCosts(**{key: cycle_kw[key]})
                elif key in _FLOAT_KEYS:
                    energy_kw[key] = float(value)
                    EnergyWeights(**{key: energy_kw[key]})
                else:
                    raise KeyError
            except KeyError:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}") from None
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: bad value {value!r} for {key!r}"
                ) from None
    return CycleCosts(**cycle_kw), EnergyWeights(**energy_kw)
