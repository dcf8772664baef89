"""scripts/measure_divergence_bound.py measures through the engines and the
trial population that lifsim verify checks."""

import importlib.util
from pathlib import Path

import pytest

from lifsim import cli

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / \
    "measure_divergence_bound.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("measure_divergence_bound",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def empty_maxima(script):
    return {script.row_key(row): 0 for row in cli.QUANT_DIVERGENCE}


def test_suite_stage_matches_verify_check(script):
    maxima = empty_maxima(script)
    script.randomized_suite(200, 0, maxima)
    ok, _, max_div = cli.check_quantized_divergence(200, 0)
    assert ok
    assert max(maxima.values()) == max_div == 215
    # per key, so a change to the trial population shows even where it
    # leaves the global maximum alone
    assert maxima == {(0.5, "mult"): 1, (0.5, "shift"): 1,
                      (0.9375, "mult"): 14, (0.9375, "shift"): 215}


def test_short_exhaustive_stage_stays_within_table(script):
    maxima = empty_maxima(script)
    script.exhaustive_2ch(3, script.all_patterns(3),
                          [(12, -7), (31, 31), (20, 15)], maxima)
    assert all(0 <= maxima[script.row_key(row)] <= row[2]
               for row in cli.QUANT_DIVERGENCE)
    # the maxima that the script's former raw-integer simulator reported
    assert maxima == {(0.5, "mult"): 0, (0.5, "shift"): 1,
                      (0.9375, "mult"): 1, (0.9375, "shift"): 99}
