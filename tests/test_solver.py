"""The input-density solve: stimulus._effective_channel_prob and its Brent
root finder, against scipy.optimize.brentq as the oracle."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

import lifsim
from lifsim import stimulus
from lifsim.stimulus import DensityProfile, generate, measure_density

solve = stimulus._effective_channel_prob


def scipy_prob(target, n_channels):
    """The parent solve: scipy's brentq on the same bias function, or None
    where scipy finds no sign change on the bracket."""
    def bias(p):
        return p / (1.0 - (1.0 - p) ** n_channels) - target

    try:
        return brentq(bias, 1e-12, target)
    except ValueError as exc:
        assert "different signs" in str(exc)
        return None


@st.composite
def targets(draw):
    c = draw(st.integers(2, 300))
    kind = draw(st.sampled_from(["any", "near_inv_c", "near_one"]))
    if kind == "any":
        t = draw(st.floats(1.0 / c, 1.0, exclude_min=True, exclude_max=True))
    elif kind == "near_inv_c":  # the band where the bracket overshoots
        t = (1.0 / c) * (1.0 + draw(st.floats(1e-9, 1e-4)))
    else:  # (1 - t)^C underflows and the bracket's high end is the root
        t = 1.0 - 10.0 ** -draw(st.floats(1.0, 16.0))
    return t, c


@settings(max_examples=1500, deadline=None)
@given(targets())
@example((0.125001, 8))
@example((1.0 - 1e-15, 2))
# targets close above 1/C where the short-step bound 3|sbis| - delta decides
@example((float.fromhex("0x1.00017ffe38c85p-4"), 16))
@example((float.fromhex("0x1.b7d94340a81fcp-8"), 149))
def test_solve_matches_scipy_brentq(case):
    target, c = case
    if target * c <= 1.0 or target >= 1.0:
        return
    got = solve(target, c)
    want = scipy_prob(target, c)
    if want is None:
        assert got is None
    else:
        assert got is not None and got.hex() == want.hex()


# p found by scipy's brentq, before the in-tree solver, for the targets of
# the default sweep (C = 8), the stimulus_long benchmark grid (C = 40) and
# the three presets
PARENT_PROBS = {
    (0.25, 8): "0x1.b4e87d86e3a2cp-3",
    (0.5, 8): "0x1.fdef3db7e7829p-2",
    (0.75, 8): "0x1.7ffe7fdbfae0ep-1",
    (0.05, 40): "0x1.4add16696f523p-5",
    (0.5, 40): "0x1.0000000000000p-1",
    (0.95, 40): "0x1.e666666666666p-1",
    (0.132, 8): "0x1.001803bfcdf20p-6",
    (0.132, 40): "0x1.0d605f11c61c6p-3",
    (0.016, 100): "0x1.52ea617c2e88fp-7",
    (0.748, 8): "0x1.7ef842cb5f6efp-1",
    (0.748, 40): "0x1.7ef9db22d0e56p-1",
}


@pytest.mark.parametrize("case", sorted(PARENT_PROBS))
def test_solve_keeps_parent_values(case):
    assert solve(*case).hex() == PARENT_PROBS[case]


def test_solve_unreachable_and_full_targets():
    assert solve(0.016, 8) is None  # below 1/C
    assert solve(0.125, 8) is None  # exactly 1/C
    assert solve(1.0, 8) == 1.0


@pytest.mark.parametrize("c", [2, 8, 40])
def test_targets_just_above_inv_c_use_single_channel(c):
    """Within about 2.2e-5 x (1/C) above 1/C, p = 1e-12 already overshoots
    the target in floating point, so there is no bracket; those targets
    use single-channel mode, and the realized input density is 1/C."""
    inside = (1.0 / c) * (1.0 + 1e-5)
    assert scipy_prob(inside, c) is None
    assert solve(inside, c) is None
    train = generate(DensityProfile(0.5, inside), c, 200, 3)
    assert train.n_events == train.n_active_steps > 0
    assert measure_density(train).input_density == 1.0 / c
    # past the band the solve runs again
    outside = (1.0 / c) * (1.0 + 3e-5)
    assert solve(outside, c) == scipy_prob(outside, c) > 0.0


def test_import_does_not_load_scipy():
    src = str(Path(lifsim.__file__).resolve().parents[1])
    code = ("import sys; import lifsim, lifsim.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=src,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
