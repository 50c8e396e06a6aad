"""Smoke test of the stage-table script (tools/stage_table.py)."""

import pytest

from tools.stage_table import LARGE_SIZES, SIZES, STAGES, growth_exponent, sizes, stage_times


def test_stage_times_names_every_stage():
    times = stage_times(20, repeats=1)
    assert tuple(times) == STAGES == ("find", "focus", "fsets", "extract", "hasse", "synth",
                                      "emit", "doc", "verify", "lc", "pivot")
    assert all(t > 0 for t in times.values())


def test_growth_exponent_recovers_a_power_law():
    sizes = (80, 160, 320)
    assert abs(growth_exponent(sizes, [2e-7 * n ** 3 for n in sizes]) - 3) < 1e-9


def test_large_flag_adds_the_large_sizes():
    assert sizes([]) == SIZES == (80, 160, 320)
    assert sizes(["--large"]) == SIZES + LARGE_SIZES == (80, 160, 320, 640, 1280)
    with pytest.raises(SystemExit):
        sizes(["--huge"])
