import math

import numpy as np
import pytest

from lifsim import (
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
)

MEM = QFormat(9, 0)
MEM6 = QFormat(9, 6)
BETA = QFormat(9, 8)


def test_format_validation():
    with pytest.raises(ValueError):
        QFormat(1, 0)
    with pytest.raises(ValueError):
        QFormat(33, 0)
    with pytest.raises(ValueError):
        QFormat(8, 8)
    assert QFormat(9, 0).raw_min == -256
    assert QFormat(9, 0).raw_max == 255


def test_qvalue_range_checked():
    with pytest.raises(ValueError):
        QValue(256, MEM)
    with pytest.raises(ValueError):
        QValue(-257, MEM)


def test_quantize_examples():
    assert quantize(0.5, MEM6).raw == 32
    assert quantize(1e9, MEM6).raw == 255
    assert quantize(0.9325, BETA).raw == 239


def test_quantize_ties_away_from_zero():
    assert quantize(0.5, MEM).raw == 1
    assert quantize(-0.5, MEM).raw == -1
    assert quantize(1.5, MEM).raw == 2


def test_clamp_examples():
    assert MEM.clamp(100 + 27) == 127
    assert MEM.clamp(255 + 10) == 255
    assert MEM.clamp(-256 - 10) == -256


def test_decay_mult_examples():
    half = quantize(0.5, BETA)
    assert half.raw == 128
    assert decay_mult(QValue(64, MEM), half).raw == 32
    assert decay_mult(QValue(1, MEM), half).raw == 0
    assert decay_mult(QValue(-64, MEM), half).raw == -32


def test_decay_mult_floor_semantics_exhaustive():
    # brute-force floor check over every 9-bit raw against real arithmetic
    half = QValue(128, BETA)
    for raw in range(-256, 256):
        got = decay_mult(QValue(raw, MEM), half).raw
        assert got == math.floor(raw * 128 / 256)


def test_decay_shift_examples():
    assert decay_shift(QValue(64, MEM), 4).raw == 60
    assert decay_shift(QValue(64, MEM), 1).raw == 32
    assert decay_shift(QValue(15, MEM), 4).raw == 15  # sub-LSB decay lost


def test_decay_shift_bad_amount():
    with pytest.raises(ValueError):
        decay_shift(QValue(64, MEM), 0)
    with pytest.raises(ValueError):
        decay_shift(QValue(64, MEM), 9)


def test_beta_spec_validation():
    with pytest.raises(ValueError):
        BetaSpec.exact(1.0)
    with pytest.raises(ValueError):
        BetaSpec.exact(0.0)
    with pytest.raises(ValueError):
        BetaSpec(0.5, shift=0)
    assert BetaSpec.one_minus_pow2(4).value == 0.9375
    assert BetaSpec.one_minus_pow2(1).value == 0.5


def test_build_lut_exact_half():
    lut = build_decay_lut(BetaSpec.exact(0.5), 127, LUT_EXACT, BETA)
    assert lut.entries[3] == 32
    assert lut.frac_bits == 8
    # identity entry saturates when 1.0 is not representable
    assert lut.entries[0] == 255
    assert all(isinstance(e, int) for e in lut.entries)
    assert all(a >= b for a, b in zip(lut.entries, lut.entries[1:]))


def test_build_lut_pow2_half():
    lut = build_decay_lut(BetaSpec.exact(0.5), 20, LUT_POW2, BETA, max_shift=8)
    assert lut.entries[0] == 0
    for k in range(1, 21):
        assert lut.entries[k] == min(8, k)


def test_build_lut_pow2_near_one():
    lut = build_decay_lut(BetaSpec.one_minus_pow2(4), 127, LUT_POW2, BETA,
                          max_shift=8)
    assert list(lut.entries[1:6]) == [0, 0, 0, 0, 0]
    assert lut.entries[6] == 1
    assert all(a <= b for a, b in zip(lut.entries, lut.entries[1:]))


def test_apply_lut_decay_examples():
    exact = build_decay_lut(BetaSpec.exact(0.5), 127, LUT_EXACT, BETA)
    pow2 = build_decay_lut(BetaSpec.one_minus_pow2(4), 127, LUT_POW2, BETA)
    assert apply_lut_decay(QValue(80, MEM), exact, 3).raw == 10
    assert apply_lut_decay(QValue(80, MEM), exact, 0).raw == 80
    assert apply_lut_decay(QValue(80, MEM), pow2, 0).raw == 80
    assert apply_lut_decay(QValue(100, MEM), pow2, 6).raw == 50


def test_apply_lut_decay_range_check():
    lut = build_decay_lut(BetaSpec.exact(0.5), 7, LUT_EXACT, BETA)
    with pytest.raises(ValueError):
        apply_lut_decay(QValue(80, MEM), lut, 8)
    with pytest.raises(ValueError):
        apply_lut_decay(QValue(80, MEM), lut, -1)


def test_saturation_closure_random():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        a = int(rng.integers(-256, 256))
        b = int(rng.integers(-256, 256))
        for raw in (a + b, a - b):
            assert MEM.clamp(raw) == min(255, max(-256, raw))


@pytest.mark.parametrize("beta", [0.5, 0.75, 0.9325, 0.9375, 0.99])
def test_monotone_decay(beta):
    spec = BetaSpec.exact(beta)
    beta_q = quantize(beta, BETA)
    exact = build_decay_lut(spec, 20, LUT_EXACT, BETA)
    pow2 = build_decay_lut(spec, 20, LUT_POW2, BETA)
    for raw in range(0, 256, 7):
        u = QValue(raw, MEM)
        assert decay_mult(u, beta_q).raw <= raw
        assert decay_shift(u, 2).raw <= raw
        for dt in range(21):
            assert apply_lut_decay(u, exact, dt).raw <= raw
            assert apply_lut_decay(u, pow2, dt).raw <= raw
    zero = QValue(0, MEM)
    assert decay_mult(zero, beta_q).raw == 0
    assert decay_shift(zero, 3).raw == 0
    assert apply_lut_decay(zero, exact, 5).raw == 0


def test_half_beta_exact_equals_pow2_exhaustive():
    # with beta = 0.5 and 8 fractional bits, the multiplier table and the
    # shift table agree bit-exactly for every 9-bit raw and dt <= 8
    spec = BetaSpec.one_minus_pow2(1)
    exact = build_decay_lut(spec, 127, LUT_EXACT, BETA)
    pow2 = build_decay_lut(spec, 127, LUT_POW2, BETA, max_shift=8)
    for raw in range(-256, 256):
        u = QValue(raw, MEM)
        for dt in range(9):
            assert apply_lut_decay(u, exact, dt).raw == \
                apply_lut_decay(u, pow2, dt).raw


@pytest.mark.parametrize("beta", [0.5, 0.9325, 0.9375])
def test_real_decay_factorization(beta):
    # beta**k applied once equals beta applied k times, on real numbers
    for k in range(1, 128):
        once = beta ** k
        iterated = 1.0
        for _ in range(k):
            iterated *= beta
        assert abs(once - iterated) <= 1e-12 * max(once, iterated)


@pytest.mark.parametrize("beta", [0.5, 0.9325, 0.9375, 0.8])
def test_single_step_lut_consistency(beta):
    spec = BetaSpec.exact(beta)
    lut = build_decay_lut(spec, 10, LUT_EXACT, BETA)
    beta_q = quantize(beta, BETA)
    for raw in range(-256, 256, 3):
        u = QValue(raw, MEM)
        assert apply_lut_decay(u, lut, 1).raw == decay_mult(u, beta_q).raw
