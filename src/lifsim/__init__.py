"""Bit-accurate simulation of six digital LIF neuron hardware variants,
with a sparsity-controlled stimulus harness and cycle/energy cost models."""

from .fxp import (
    LUT_EXACT,
    LUT_POW2,
    BetaSpec,
    DecayLUT,
    QFormat,
    QValue,
    apply_lut_decay,
    build_decay_lut,
    decay_mult,
    decay_shift,
    quantize,
)
from .neuron import (
    NeuronConfig,
    NeuronState,
    StepOutcome,
    Trace,
    clock_step,
    event_step,
    new_state,
    reference_run,
    run,
)
from .stimulus import (
    DensityProfile,
    SpikeTrain,
    SpikeTrainParseError,
    decode_aer,
    decode_serial,
    encode_aer,
    encode_serial,
    generate,
    load,
    measure_density,
    save,
)
from .cost import (
    ActivityCounters,
    CycleCosts,
    EnergyWeights,
    RunMetrics,
    energy,
    latency,
    load_model_config,
    metrics_from_trace,
)

__version__ = "0.1.0"
