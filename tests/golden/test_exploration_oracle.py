"""The exploration oracle: BFS explores the same states and finds the same trails.

``exploration_oracle.json`` was recorded by ``record_exploration_oracle.py``
(see its docstring); every case is recomputed here and compared whole.
"""

from __future__ import annotations

import json

import pytest

import record_exploration_oracle as oracle

RECORDED = json.loads(oracle.FIXTURE.read_text())
CASES = oracle.cases()


def test_every_case_is_recorded():
    assert sorted(CASES) == sorted(RECORDED)


@pytest.mark.parametrize("name", sorted(CASES))
def test_exploration_matches_the_oracle(name):
    assert CASES[name]() == RECORDED[name]
