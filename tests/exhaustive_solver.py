"""Frozen exhaustive consistent-set search: the oracle for association.solve_consistent_set.

This is a copy of the search that association.py ran before its density
bound: every exclusion-feasible subset in increasing index order, each
vertex's gain summed over the subset in order, and the same deterministic
ordering (density within _DENSITY_TIE, then size, then lexicographic
indices).  It shares no code with the pruned search, so a test can ask for
the same index lists.  Do not edit it to follow src.
"""

from __future__ import annotations

from textloop.association import _DENSITY_TIE, ConsistencyGraph


def better(density_a: float, set_a: list[int], density_b: float, set_b: list[int]) -> bool:
    """Deterministic ordering: density, then size, then lexicographic indices."""
    if density_a > density_b + _DENSITY_TIE:
        return True
    if density_a < density_b - _DENSITY_TIE:
        return False
    if len(set_a) != len(set_b):
        return len(set_a) > len(set_b)
    return sorted(set_a) < sorted(set_b)


def solve_exhaustive(graph: ConsistencyGraph) -> list[int]:
    """Exhaustive search over exclusion-feasible subsets."""
    n = len(graph)
    affinity = graph.affinity
    exclusion = graph.exclusion
    best_set: list[int] = []
    best_density = 0.0

    def recurse(start: int, subset: list[int], pair_sum: float):
        nonlocal best_set, best_density
        if subset:
            density = (len(subset) + 2.0 * pair_sum) / len(subset)
            if better(density, subset, best_density, best_set):
                best_density = density
                best_set = list(subset)
        for v in range(start, n):
            if any(exclusion[v, u] for u in subset):
                continue
            gain = sum(affinity[v, u] for u in subset)
            subset.append(v)
            recurse(v + 1, subset, pair_sum + gain)
            subset.pop()

    recurse(0, [], 0.0)
    return sorted(best_set)
