"""Fuzzing-layer throughput: generation, fingerprinting, end-to-end execs.

Reports how fast the fuzz subsystem's three hot stages run — sampling
candidate scenarios from a learned vocabulary, fingerprinting finished
runs into coverage keys, and the full generate→execute→dedup loop.
These are reported (and floor-checked very loosely, to stay robust
across machines) rather than baseline-guarded: fuzzing throughput is a
capacity number, not a regression-gated hot path.
"""

from __future__ import annotations

from repro.api import FaultSchedule, Scenario, run_scenario
from repro.api import Duplicate
from repro.fuzz import Budget, coverage_key, fuzz, generate_scenario, vocabulary_for

GENERATE_BATCH = 100


def test_generation_throughput(benchmark, report_rows):
    vocabulary = vocabulary_for("kvstore")

    def generate_batch():
        return [
            generate_scenario("kvstore", seed, vocabulary=vocabulary)
            for seed in range(GENERATE_BATCH)
        ]

    scenarios = benchmark(generate_batch)
    assert len(scenarios) == GENERATE_BATCH
    # each candidate is a valid, serializable artefact
    sample = scenarios[0]
    assert Scenario.from_json(sample.to_json()) == sample
    report_rows.append(f"generated {GENERATE_BATCH} candidate scenarios per round")


def test_coverage_fingerprint_throughput(benchmark, report_rows):
    outcome = run_scenario(
        Scenario(
            app="kvstore",
            name="bench-coverage",
            faults=FaultSchedule.of(Duplicate(match_kind="REPLICATE", count=1)),
        )
    )
    key = benchmark(coverage_key, outcome)
    assert len(key) == 16
    report_rows.append(
        f"fingerprinted a {outcome.scroll['entries']}-entry run into {key}"
    )


def test_fuzz_loop_execs_per_sec(report_rows):
    report = fuzz("token_ring", seed=9, budget=Budget(max_execs=30), shrink=False)
    report_rows.append(
        f"{report.execs} execs in {report.elapsed_s:.2f}s "
        f"({report.execs_per_sec:.1f}/s), {report.new_coverage} coverage points"
    )
    assert report.execs == 30
    # very loose capacity floor: the sim backend fuzzes way faster than
    # 5 scenarios/second on any machine this repo targets
    assert report.execs_per_sec > 5
