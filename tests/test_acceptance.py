"""Acceptance gate: every release-blocking criterion must pass.

Each test delegates to the corresponding criterion function and prints one
line of detail on failure.
"""

import random

import pytest

from kdiameter.acceptance import CRITERIA, criterion_3, random_regular_graph


@pytest.mark.parametrize("number", sorted(CRITERIA),
                         ids=[f"{n:02d}_{CRITERIA[n][0].replace(' ', '_')}"
                              for n in sorted(CRITERIA)])
def test_acceptance_criterion(number):
    name, fn = CRITERIA[number]
    result = fn(seed=0)
    assert result["ok"], f"criterion {number} ({name}) failed: {result}"


def test_criterion_3_every_seed():
    for seed in range(20):
        assert criterion_3(seed=seed)["ok"], f"seed {seed}"


def test_random_regular_graph_feasible_and_infeasible():
    rng = random.Random(0)
    for n in range(1, 13):
        for d in range(n):
            if n * d % 2:
                with pytest.raises(ValueError):
                    random_regular_graph(n, d, rng)
                continue
            g = random_regular_graph(n, d, rng)
            assert g.n == n and g.is_regular(d)
    with pytest.raises(ValueError):
        random_regular_graph(4, 4, rng)
