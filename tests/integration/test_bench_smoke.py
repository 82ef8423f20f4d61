"""Benchmark smoke check, part of the default (tier-1) test run.

Runs the *quick* benchmark profile in-process and feeds its count and
byte metrics through the same regression guard the CLI exposes, against
the committed ``BENCH_hotpaths.json``.  A guarded count/byte ratio
regressing more than 20% (or a correctness gate — spilled-replay
equivalence, COW restore — breaking) fails the default run.  Wall-clock
ratios are deliberately *not* asserted here: tier-1 must be
deterministic, so they are checked by ``make bench-smoke``
(``run_bench.py --quick --check``) and the wall numbers proper live in
``BENCHMARK.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from run_bench import (  # noqa: E402
    COUNT_GUARDS,
    DEFAULT_BASELINE,
    GUARDED_METRICS,
    check_against,
    load_baseline,
    run_profile,
)


@pytest.fixture(scope="module")
def quick_results():
    return run_profile("quick")


def test_quick_profile_within_20pct_of_committed_baseline(quick_results):
    baseline = load_baseline(DEFAULT_BASELINE)
    assert "quick" in baseline, "BENCH_hotpaths.json must carry a quick profile"
    failures = check_against(baseline["quick"], quick_results, guards=COUNT_GUARDS)
    assert not failures, "\n".join(failures)


def test_quick_profile_meets_absolute_acceptance_gates(quick_results):
    """Floors from the issues' acceptance criteria.

    Only deterministic quantities: ``memory_reduction`` is byte
    accounting and gets the real 5x gate.  The wall-clock floors
    (``replay_slowdown``, the index ``speedup``) run at full size in the
    slow-marked ``benchmarks/test_perf_hotpaths.py`` and, as regression
    guards, in ``make bench-smoke``.
    """
    spill = quick_results["scroll_spill_replay"]
    assert spill["replay_equivalent"]
    assert spill["memory_reduction"] >= 5.0
    assert quick_results["cow_capture_dirty_pages"]["restore_ok"]


def test_check_against_flags_regressions():
    """The guard itself must fire: regressions and broken gates are failures."""
    baseline: dict = {}
    for section, metric, direction, _zone in GUARDED_METRICS:
        baseline.setdefault(section, {})[metric] = 100.0 if direction == "higher" else 1.0
    regressed = {
        "scroll_per_pid_queries": {"speedup": 10.0},          # >20% below 100, under green zone
        "scheduler_drain_cancellations": {"speedup": 50.0},   # under green zone 100
        "cow_capture_dirty_pages": {"hash_reduction": 5.0, "restore_ok": False},
        "scroll_spill_replay": {
            "memory_reduction": 2.0,
            "replay_slowdown": 3.0,                            # above green zone and +20%
            "replay_equivalent": False,
        },
    }
    failures = check_against(baseline, regressed)
    assert len(failures) >= 6
    healthy: dict = {}
    for section, metric, direction, _zone in GUARDED_METRICS:
        healthy.setdefault(section, {})[metric] = 10_000.0 if direction == "higher" else 1.2
    # count metrics are absolute, not ratios: healthy means exactly zero
    healthy["net_transport"]["messages_pickled_batched"] = 0.0
    assert check_against(baseline, healthy) == []
