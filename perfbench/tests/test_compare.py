"""Regression verdicts of the comparison tool."""

from perfbench.compare import verdict

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]


def test_worse_beyond_bound_is_a_regression():
    slower = [v * 1.3 for v in STEADY]
    assert verdict(STEADY, slower, "lower", 0.1) == "REGRESSION"
    assert verdict(slower, STEADY, "higher", 0.1) == "REGRESSION"


def test_small_change_is_unchanged():
    assert verdict(STEADY, [v * 1.02 for v in STEADY], "lower", 0.1) == "unchanged"


def test_wide_spread_is_unresolved_not_unchanged():
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert verdict(STEADY, noisy, "lower", 0.1) == "unresolved"


def test_wide_spread_but_every_run_better_is_better():
    noisy_fast = [10.0, 30.0, 50.0, 20.0, 40.0]
    assert verdict(STEADY, noisy_fast, "lower", 0.1) == "better"


def test_clear_gain_is_better():
    assert verdict(STEADY, [v * 0.7 for v in STEADY], "lower", 0.1) == "better"
