"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Target runtime for the whole module is well under two minutes.
"""

import hashlib
import time

import numpy as np
import pytest

from lifsim import BetaSpec, cli, cost, neuron, stimulus
from lifsim.cli import (
    QUANT_DIVERGENCE_BOUND,
    check_quantized_divergence,
    check_real_equivalence,
    check_round_trips,
    derive_seed,
)
from lifsim.neuron import NeuronConfig
from lifsim.stimulus import DensityProfile, SpikeTrain


def report(num, desc, ok):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num}: {desc}"


@pytest.fixture(scope="module")
def default_sweep(tmp_path_factory):
    """Two full default sweeps via the CLI, as written to disk."""
    d = tmp_path_factory.mktemp("sweep")
    a, b = d / "a.csv", d / "b.csv"
    assert cli.main(["sweep", "--seed", "0", "--out", str(a)]) == 0
    assert cli.main(["sweep", "--seed", "0", "--out", str(b)]) == 0
    return a.read_bytes(), b.read_bytes()


def test_criterion_1_real_oracle_equivalence():
    t0 = time.time()
    ok, cex, max_err = check_real_equivalence(1000, seed=0)
    elapsed = time.time() - t0
    report(1, f"real clock/event equivalence over 1000 trains "
              f"(max rel err {max_err:.2e}, {elapsed:.1f}s)",
           ok and max_err <= 1e-9 and elapsed < 10.0)


def test_criterion_2_quantized_divergence_bound():
    ok, cex, max_div = check_quantized_divergence(1000, seed=0)
    report(2, f"quantized divergence <= recorded ceilings "
              f"{dict(sorted(QUANT_DIVERGENCE_BOUND.items()))} "
              f"(max observed {max_div})", ok)


def test_criterion_3_half_beta_exactness():
    # event shifter == event multiplier for every 9-bit membrane value and
    # every interval up to the decay factor's fractional width
    ok = True
    base = dict(n_inputs=1, weights=(7,), threshold=200,
                beta=BetaSpec.one_minus_pow2(1), mode="event")
    c_mult = NeuronConfig(decay_impl="mult", **base)
    c_shift = NeuronConfig(decay_impl="shift", **base)
    for raw in range(-256, 256):
        for dt in range(0, 9):
            sm = neuron.NeuronState(u_mem=c_mult.u(raw))
            ss = neuron.NeuronState(u_mem=c_shift.u(raw))
            om = neuron.event_step(sm, c_mult, dt, [0])
            os_ = neuron.event_step(ss, c_shift, dt, [0])
            if (om.fired, om.u_after.raw) != (os_.fired, os_.u_after.raw):
                ok = False
                break
        if not ok:
            break
    report(3, "beta=0.5 shifter/multiplier bit-exact over all 9-bit "
              "membranes, dt <= 8", ok)


def test_criterion_4_serial_latency_invariance():
    rng = np.random.default_rng(40)
    c_clock = cli.make_config("clock", "mult", "serial")
    c_event = cli.make_config("event", "mult", "serial")
    ok = True
    for _ in range(500):
        train = stimulus.generate(
            DensityProfile(float(rng.uniform(0.1, 1)), float(rng.uniform(0.2, 1))),
            8, 100, int(rng.integers(1 << 32)))
        # same active-step set, re-drawn channel activity
        events = []
        for t in train.steps_with_events():
            k = int(rng.integers(1, 9))
            for ch in rng.choice(8, size=k, replace=False):
                events.append((t, int(ch)))
        permuted = SpikeTrain(8, 100, events)
        if cost.latency(c_clock, train) != cost.latency(c_clock, permuted):
            ok = False
            break
        if cost.latency(c_event, train) != cost.latency(c_event, permuted):
            ok = False
            break
    report(4, "serial latencies invariant to within-step channel patterns "
              "(500 cases)", ok)


def test_criterion_5_latency_trend():
    c_clock = cli.make_config("clock", "mult", "serial")
    c_aer = cli.make_config("event", "mult", "aer")
    sparse = stimulus.generate(DensityProfile(0.166, 0.748), 8, 100, 0)
    r_sparse = cost.latency(c_aer, sparse) / cost.latency(c_clock, sparse)
    full = SpikeTrain(8, 100, [(t, c) for t in range(100) for c in range(8)])
    r_full = cost.latency(c_aer, full) / cost.latency(c_clock, full)
    report(5, f"AER/clock latency ratio {r_sparse:.3f} < 1 at temporal "
              f"density 0.166 and {r_full} > 1 at full density",
           r_sparse < 1.0 and r_full == 1.8)


def test_criterion_6_aer_power_inversion():
    c_aer = cli.make_config("event", "mult", "aer")
    powers = {}
    for inp in (0.25, 1.0):
        train = stimulus.generate(DensityProfile(0.5, inp), 8, 100, 60)
        m = cost.metrics_from_trace(neuron.run(c_aer, train), c_aer)
        powers[inp] = m.avg_power_units
    report(6, f"AER avg power {powers[0.25]:.3f} at input density 0.25 > "
              f"{powers[1.0]:.3f} at 1.0", powers[0.25] > powers[1.0])


def _per_trial_rows(sweep_bytes):
    rows = []
    for line in sweep_bytes.decode().strip().splitlines()[1:]:
        f = line.split(",")
        if f[6] not in ("mean", "std"):
            rows.append(f)
    return rows


def test_criterion_7_shifter_energy_ordering(default_sweep):
    rows = _per_trial_rows(default_sweep[0])
    energy_at = {
        (f[0], f[4], f[5], f[6]): float(f[9]) for f in rows
    }
    ok = True
    for mode, io in (("clock", "serial"), ("event", "serial"), ("event", "aer")):
        for (config, t, i, trial), e_mult in energy_at.items():
            if config != f"{mode}_mult_{io}":
                continue
            e_shift = energy_at[(f"{mode}_shift_{io}", t, i, trial)]
            if e_shift > e_mult:
                ok = False
    report(7, "shifter energy <= multiplier energy on identical traces, "
              "all three pairs, full default grid", ok)


def test_criterion_8_energy_power_latency_identity(default_sweep):
    ok = True
    for f in _per_trial_rows(default_sweep[0]):
        lat, en, pw = int(f[8]), float(f[9]), float(f[10])
        if abs(en - pw * lat) > 1e-12 * max(1.0, abs(en)):
            ok = False
            break
    report(8, "E = P x L holds for every emitted CSV row (1e-12 relative)", ok)


def test_criterion_9_generator_statistics():
    ok = True
    targets = (0.05, 0.5, 0.95)
    n_channels = 40  # input densities down to 1/40 stay reachable
    for temporal in targets:
        for inp in targets:
            for seed in range(50):
                train = stimulus.generate(DensityProfile(temporal, inp),
                                          n_channels, 10_000, seed)
                d = stimulus.measure_density(train)
                if abs(d.temporal_density - temporal) > 0.02:
                    ok = False
                if abs(d.input_density - inp) > 0.02:
                    ok = False
    report(9, "10^4-step trains within +/-2pp of targets in [0.05, 0.95], "
              "50 seeds", ok)


def test_criterion_10_round_trips():
    ok, cex = check_round_trips(1000, seed=0)
    report(10, "serial/AER/file encodings are exact identities over 1000 "
               "random trains", ok)


# `lifsim sweep --seed 0`, the regression anchor in ROADMAP.md
SWEEP_ANCHOR_SHA256 = (
    "81e0512f48e636100e623b213f92dd9321f1e8729773778c4c08051ba6266266")


def test_default_sweep_matches_anchor(default_sweep):
    assert hashlib.sha256(default_sweep[0]).hexdigest() == SWEEP_ANCHOR_SHA256


def test_criterion_11_golden_sweep_determinism(default_sweep):
    a, b = default_sweep
    report(11, f"default sweep with seed 0 is byte-identical across runs "
               f"({len(a)} bytes)", a == b and len(a) > 0)
