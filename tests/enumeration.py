"""Brute-force reference for the outcome planner: every one of the 2^H
target outcome sequences scored by `outcome_value`, independent of the
backward induction behind `best_outcome_plan` and forced `dp_policy`."""

import itertools

from bidlab.planning import outcome_value


def enumerated_best_plan(params):
    """The lexicographically smallest maximizer of `outcome_value` over all
    2^H plans (lose before win), with its value."""
    best_plan, best = None, -float("inf")
    for plan in itertools.product((False, True), repeat=params.H):
        v = outcome_value(plan, params)
        if v > best:
            best_plan, best = plan, v
    return best_plan, best
