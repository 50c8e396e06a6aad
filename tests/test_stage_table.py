"""Smoke test of the stage-table script (tools/stage_table.py)."""

from tools.stage_table import STAGES, growth_exponent, stage_times


def test_stage_times_names_every_stage():
    times = stage_times(20, repeats=1)
    assert tuple(times) == STAGES == ("find", "focus", "fsets", "extract", "hasse", "synth",
                                      "verify", "lc")
    assert all(t > 0 for t in times.values())


def test_growth_exponent_recovers_a_power_law():
    sizes = (80, 160, 320)
    assert abs(growth_exponent(sizes, [2e-7 * n ** 3 for n in sizes]) - 3) < 1e-9
