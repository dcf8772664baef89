"""Saturating fixed-point arithmetic and exponential-decay kernels.

Raw values are plain Python ints in LSB units. Every arithmetic result is
saturated to the declared format range. Hardware shifts floor, so the
runtime decay paths floor as well; only offline table construction rounds
to nearest.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
import math

LUT_EXACT = "exact"  # table of quantized decay factors, one multiply per use
LUT_POW2 = "pow2"    # table of shift amounts (nearest power of two)


@dataclass(frozen=True)
class QFormat:
    """Signed fixed-point format: total width and binary point."""

    total_bits: int
    frac_bits: int

    def __post_init__(self):
        if not 2 <= self.total_bits <= 32:
            raise ValueError(f"total_bits must be in [2, 32], got {self.total_bits}")
        if not 0 <= self.frac_bits < self.total_bits:
            raise ValueError(
                f"frac_bits must be in [0, total_bits), got {self.frac_bits}"
            )

    # cached: clamp reads both on every saturating operation
    @cached_property
    def raw_min(self):
        return -(1 << (self.total_bits - 1))

    @cached_property
    def raw_max(self):
        return (1 << (self.total_bits - 1)) - 1

    def clamp(self, raw):
        """Saturate a raw integer into this format's range."""
        if self.raw_min <= raw <= self.raw_max:
            return raw
        return self.raw_max if raw > self.raw_max else self.raw_min


@dataclass(frozen=True)
class QValue:
    """A raw integer bound to its fixed-point format."""

    raw: int
    fmt: QFormat

    def __post_init__(self):
        if not self.fmt.raw_min <= self.raw <= self.fmt.raw_max:
            raise ValueError(
                f"raw {self.raw} outside format range "
                f"[{self.fmt.raw_min}, {self.fmt.raw_max}]"
            )


@dataclass(frozen=True)
class BetaSpec:
    """Per-timestep decay factor, either arbitrary or shifter-friendly.

    ``shift`` is None for an arbitrary real factor; when set to n the factor
    is 1 - 2**-n, realizable in hardware as one shift and one subtract.
    """

    value: float
    shift: int = None

    def __post_init__(self):
        # a shift below 1 gives a factor outside (0, 1); name the shift
        if self.shift is not None and self.shift < 1:
            raise ValueError(f"shift amount must be >= 1, got {self.shift}")
        if not 0.0 < self.value < 1.0:
            raise ValueError(f"decay factor must be in (0, 1), got {self.value}")

    @classmethod
    def exact(cls, beta):
        return cls(value=float(beta))

    @classmethod
    def one_minus_pow2(cls, n):
        return cls(value=1.0 - 2.0 ** -n, shift=int(n))


@dataclass(frozen=True)
class DecayLUT:
    """Precomputed decay-by-interval table, indexed by elapsed timesteps.

    entries[k] is an int: a raw factor with frac_bits fractional bits
    (LUT_EXACT) or a non-negative shift amount (LUT_POW2). entries[0]
    always acts as the identity.
    """

    mode: str
    entries: tuple
    frac_bits: int


def quantize(x, fmt):
    """Round-to-nearest (ties away from zero) of x into fmt, saturating."""
    if not math.isfinite(x):
        raise ValueError(f"cannot quantize non-finite value {x!r}")
    scaled = x * (1 << fmt.frac_bits)
    if scaled >= 0:
        raw = math.floor(scaled + 0.5)
    else:
        raw = math.ceil(scaled - 0.5)
    return QValue(fmt.clamp(raw), fmt)


def decay_mult(u, beta_q):
    """Multiply u by a quantized decay factor, flooring the product.

    The product is shifted right by the factor's fractional width with floor
    semantics (arithmetic shift), matching a hardware multiplier whose low
    bits are discarded.
    """
    raw = (u.raw * beta_q.raw) >> beta_q.fmt.frac_bits
    return QValue(u.fmt.clamp(raw), u.fmt)


def decay_shift(u, n):
    """One shifter-friendly decay step: u - (u >> n), arithmetic shift."""
    if not 1 <= n < u.fmt.total_bits:
        raise ValueError(f"shift amount {n} out of range for {u.fmt.total_bits} bits")
    return QValue(u.fmt.clamp(u.raw - (u.raw >> n)), u.fmt)


@lru_cache(maxsize=128)
def build_decay_lut(beta, max_dt, mode, beta_fmt, max_shift=8):
    """Tabulate decay over intervals 0..max_dt.

    LUT_EXACT stores quantize(beta**k, beta_fmt).raw; LUT_POW2 stores
    round(-k*log2(beta)) clamped to [0, max_shift] (max_shift is one less
    than the membrane width, the largest useful arithmetic shift). Tables
    are frozen, so equal arguments share one memoized table.
    """
    if max_dt < 1:
        raise ValueError(f"max_dt must be >= 1, got {max_dt}")
    if mode == LUT_EXACT:
        entries = tuple(quantize(beta.value ** k, beta_fmt).raw
                        for k in range(max_dt + 1))
    elif mode == LUT_POW2:
        log2b = math.log2(beta.value)
        entries = tuple(
            min(max_shift, max(0, int(math.floor(-k * log2b + 0.5))))
            for k in range(max_dt + 1)
        )
    else:
        raise ValueError(f"unknown LUT mode {mode!r}")
    return DecayLUT(mode=mode, entries=entries, frac_bits=beta_fmt.frac_bits)


def apply_lut_decay(u, lut, dt):
    """Decay u by dt timesteps in one table access.

    dt == 0 is the identity regardless of table contents. dt beyond the
    table means the hardware interval counter could never have produced it.
    """
    if not 0 <= dt < len(lut.entries):
        raise ValueError(
            f"dt {dt} outside LUT range [0, {len(lut.entries) - 1}]")
    if dt == 0:
        return u
    if lut.mode == LUT_EXACT:
        raw = (u.raw * lut.entries[dt]) >> lut.frac_bits
    else:
        raw = u.raw >> lut.entries[dt]
    return QValue(u.fmt.clamp(raw), u.fmt)
