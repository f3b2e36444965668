"""tools/bench_pairs: summarize on synthetic runs, and the extraction of
both sides' trees from a scratch git repository; no benchmark runs here.

A run is (scaled metrics, raw metrics, failed requests), as run_once
returns it, and runs holds one (base, change) pair of them per pair.
"""

import importlib.util
import pathlib
import shutil
import subprocess

import pytest

BENCH_PAIRS = (pathlib.Path(__file__).resolve().parent.parent / "tools"
               / "bench_pairs.py")

RPS = {"name": "requests_per_s", "unit": "1/s", "better": "higher",
       "bound": 0.24}
P50 = {"name": "latency_p50_s", "unit": "s", "better": "lower",
       "bound": 0.24}


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load()
summarize = bench_pairs.summarize


def _runs(metric, base, change):
    """Pairs whose raw value is twice the scaled one."""
    return [(({metric: b}, {metric: 2 * b}, 0), ({metric: h}, {metric: 2 * h}, 0))
            for b, h in zip(base, change)]


def _lines(metric, spec, base, change):
    lines = summarize(metric, spec, _runs(metric, base, change))
    assert len(lines) == 7
    assert lines[1] == "    base   " + " ".join("%.4f" % v for v in base)
    assert lines[2] == "    change " + " ".join("%.4f" % v for v in change)
    return lines


def _last(metric, spec, base, change):
    """The median line, which carries the flags."""
    return _lines(metric, spec, base, change)[3]


def _gain(metric, spec, base, change):
    return _lines(metric, spec, base, change)[4]


def test_higher_is_better_gain_beyond_bound():
    base = [28.0, 29.0, 30.0, 31.0, 32.0, 28.5, 29.5, 30.5, 31.5, 30.0]
    change = [v * 1.3 for v in base]
    change[3] = 30.0  # one pair lost
    line = _last("requests_per_s", RPS, base, change)
    assert "median 30.0000 -> 38.6750 (+28.9%; raw 60.0000 -> 77.3500)" in line
    assert "change better in 9 of 10 pairs" in line
    assert line.endswith("  BEYOND BOUND")


def test_higher_is_better_loss_past_bound_and_noise():
    base = [30.0] * 10
    line = _last("requests_per_s", RPS, base, [20.0] * 10)
    assert "(-33.3%" in line and "better in 0 of 10 pairs" in line
    assert line.endswith("  WORSE THAN BOUND")
    line = _last("requests_per_s", RPS, base, [33.0] * 10)
    assert "(+10.0%" in line and "better in 10 of 10 pairs" in line
    assert line.endswith("pairs")


def test_lower_is_better_directions():
    base = [0.030, 0.032, 0.034, 0.036, 0.034]
    line = _last("latency_p50_s", P50, base, [v * 0.7 for v in base])
    assert "better in 5 of 5 pairs" in line
    assert line.endswith("  BEYOND BOUND")
    line = _last("latency_p50_s", P50, base, [v * 1.3 for v in base])
    assert "better in 0 of 5 pairs" in line
    assert line.endswith("  WORSE THAN BOUND")
    # a tie counts for neither side
    line = _last("latency_p50_s", P50, base, base)
    assert "(+0.0%" in line and "better in 0 of 5 pairs" in line
    assert line.endswith("pairs")


def test_header_names_direction_and_bound():
    lines = summarize("latency_p50_s", P50, _runs("latency_p50_s", [1.0], [1.0]))
    assert lines[0] == "  latency_p50_s (s, lower is better, bound 0.24)"
    assert "base quartiles 1.0000-1.0000" in lines[3]


WIDE = [20.0, 22.0, 25.0, 28.0, 30.0, 32.0, 35.0, 38.0, 40.0, 42.0]


def test_wide_base_spread_is_unresolved():
    # quartiles 24.25-38.5: a spread of 14.25 against 0.24 * 31 = 7.44
    line = _last("requests_per_s", RPS, WIDE, WIDE)
    assert "base quartiles 24.2500-38.5000" in line
    assert line.endswith("pairs  UNRESOLVED")
    # a move past the bound keeps its flag and stays unresolved
    line = _last("requests_per_s", RPS, WIDE, [v * 0.6 for v in WIDE])
    assert line.endswith("  WORSE THAN BOUND  UNRESOLVED")
    # unless every change run beats every base run
    line = _last("requests_per_s", RPS, WIDE, [43.0 + v for v in WIDE])
    assert line.endswith("  BEYOND BOUND")
    lower = [v / 1000 for v in WIDE]
    line = _last("latency_p50_s", P50, lower, [v - 0.001 for v in lower])
    assert line.endswith("pairs  UNRESOLVED")
    line = _last("latency_p50_s", P50, lower, [0.019] * 10)
    assert line.endswith("pairs  BEYOND BOUND")
    # the spread is read off the base runs only
    line = _last("requests_per_s", RPS, [30.0] * 10, WIDE)
    assert not line.endswith("UNRESOLVED")


def test_gain_rule_needs_nine_in_ten_and_the_base_spread():
    base = [28.0, 29.0, 30.0, 31.0, 32.0, 28.5, 29.5, 30.5, 31.5, 30.0]
    change = [v * 1.3 for v in base]
    change[3] = 30.0
    assert _gain("requests_per_s", RPS, base, change) == (
        "    gain rule holds: better in 9 of 10 pairs (need 9), median moved "
        "8.6750 in the better direction (need more than 2.2500)")
    change[4] = 31.0  # a second pair lost
    assert _gain("requests_per_s", RPS, base, change).startswith(
        "    gain rule not met: better in 8 of 10 pairs (need 9)")
    # every pair won, but by less than the base quartile spread
    line = _gain("requests_per_s", RPS, WIDE, [v + 1 for v in WIDE])
    assert line == (
        "    gain rule not met: better in 10 of 10 pairs (need 9), median "
        "moved 1.0000 in the better direction (need more than 14.2500)")
    # lower is better: a faster change moves the median down
    base = [0.030, 0.032, 0.034, 0.036, 0.034, 0.031, 0.033, 0.035, 0.032,
            0.034]
    assert _gain("latency_p50_s", P50, base, [v - 0.01 for v in base]
                 ).startswith("    gain rule holds: better in 10 of 10")
    assert _gain("latency_p50_s", P50, base, [v + 0.01 for v in base]
                 ).startswith("    gain rule not met: better in 0 of 10")
    # ties count for neither side
    assert _gain("latency_p50_s", P50, base, base).startswith(
        "    gain rule not met: better in 0 of 10")


def test_ratios_split_by_which_side_ran_first():
    # even pairs ran the base first, odd pairs the change
    base = [30.0, 33.0] * 5
    change = [27.0, 30.0] * 5
    lines = _lines("requests_per_s", RPS, base, change)
    assert lines[5] == (
        "    change/base, base first: 0.9000 0.9000 0.9000 0.9000 0.9000 "
        "(median 0.9000, range 0.9000-0.9000)")
    assert lines[6].startswith("    change/base, change first: 0.9091 ")
    assert lines[6].endswith("(median 0.9091, range 0.9091-0.9091)")
    lines = _lines("requests_per_s", RPS, [1.0, 2.0, 4.0], [1.5, 1.0, 2.0])
    assert lines[5].startswith("    change/base, base first: 1.5000 0.5000 ")
    assert lines[6].startswith("    change/base, change first: 0.5000 ")
    # one pair: nothing ran change first
    lines = summarize("latency_p50_s", P50, _runs("latency_p50_s", [2.0], [3.0]))
    assert lines[5] == ("    change/base, base first: 1.5000 "
                        "(median 1.5000, range 1.5000-1.5000)")
    assert lines[6] == "    change/base, change first: (no pairs)"


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_both_sides_are_extracted_trees(tmp_path):
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    (repo / ".gitignore").write_text(".bench_build/\n")
    (repo / "pkg" / "mod.py").write_text("old\n")
    (repo / "gone.txt").write_text("tracked\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "pkg" / "mod.py").write_text("new\n")
    (repo / "pkg" / "added.py").write_text("untracked\n")
    (repo / "gone.txt").unlink()
    (repo / ".bench_build").mkdir()
    (repo / ".bench_build" / "out.txt").write_text("scratch\n")

    base, change = tmp_path / "base", tmp_path / "change"
    bench_pairs.extract_ref("HEAD", base, root=repo)
    bench_pairs.extract_worktree(change, root=repo)
    assert (base / "pkg" / "mod.py").read_text() == "old\n"
    assert (base / "gone.txt").exists()
    assert not (base / "pkg" / "added.py").exists()
    assert (change / "pkg" / "mod.py").read_text() == "new\n"
    assert (change / "pkg" / "added.py").read_text() == "untracked\n"
    assert not (change / "gone.txt").exists()
    assert not (change / ".bench_build").exists()
    assert (change / ".gitignore").exists()
