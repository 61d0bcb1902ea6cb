"""The summary rule of ``tools/bench_pairs.py``, loaded from its file."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
summarize = bench_pairs.summarize

BASE = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]


def test_quartiles_are_inclusive_and_per_side():
    s = summarize(BASE, [b - 1.0 for b in BASE], "lower")
    assert s["base"] == pytest.approx([1.225, 1.45, 1.675])
    assert s["change"] == pytest.approx([0.225, 0.45, 0.675])
    assert (s["wins"], s["pairs"]) == (10, 10)


def test_gain_needs_nine_tenths_of_pairs_and_a_gap_past_the_base_iqr():
    far = [b - 1.0 for b in BASE]
    assert summarize(BASE, far, "lower")["gain"]
    one_loss = far[:9] + [BASE[9] + 1.0]
    assert summarize(BASE, one_loss, "lower")["wins"] == 9
    assert summarize(BASE, one_loss, "lower")["gain"]
    two_losses = far[:8] + [BASE[8] + 1.0, BASE[9] + 1.0]
    assert not summarize(BASE, two_losses, "lower")["gain"]
    near = [b - 0.01 for b in BASE]  # wins every pair, but inside the base's spread
    assert summarize(BASE, near, "lower")["wins"] == 10
    assert not summarize(BASE, near, "lower")["gain"]


def test_ties_count_for_neither_side():
    s = summarize(BASE, list(BASE), "lower")
    assert s["wins"] == 0 and not s["gain"]


def test_higher_is_better_reverses_the_win():
    up = [b + 1.0 for b in BASE]
    assert summarize(BASE, up, "lower")["wins"] == 0
    s = summarize(BASE, up, "higher")
    assert s["wins"] == 10 and s["gain"]


@pytest.mark.parametrize("base,change", [([1.0], [1.0]), ([1.0, 2.0], [1.0])])
def test_fewer_than_two_pairs_or_unpaired_readings_refused(base, change):
    with pytest.raises(ValueError, match="need two or more pairs"):
        summarize(base, change, "lower")
