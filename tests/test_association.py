"""Tests for local text maps and consistency-based candidate verification."""

from __future__ import annotations

import time

import numpy as np
import pytest

from exhaustive_solver import solve_exhaustive
from helpers import (
    brute_force_densest_subset,
    random_consistency_instance,
    set_density,
    straight_line_poses,
)
from textloop.association import (
    Association,
    AssociationParams,
    ConsistencyGraph,
    build_consistency_graph,
    build_ltem,
    putative_associations,
    solve_consistent_set,
    verify_candidate,
)
from textloop.database import ObservationDatabase
from textloop.entities import TextCategory, TextEntity
from textloop.geometry import Pose


def _entity(content, frame, offset, conf=0.95, category=TextCategory.GENERIC) -> TextEntity:
    return TextEntity(
        content=content,
        category=category,
        pose_in_anchor=Pose(np.eye(3), offset),
        anchor_frame=frame,
        confidence=conf,
    )


def _insert(db, frame, content, offset):
    entity = _entity(content, frame, offset)
    assert db.insert(frame, entity)
    return entity


def test_build_ltem_past_window():
    poses = straight_line_poses(30)
    db = ObservationDatabase()
    _insert(db, 2, "FAR", [0.0, 1.0, 0.0])
    _insert(db, 12, "NEAR", [0.0, 1.0, 0.0])
    _insert(db, 25, "AHEAD", [0.0, 1.0, 0.0])
    ltem = build_ltem(db, poses, 20, direction="past", d_ltem=10.0)
    assert ltem.window == (10, 20)
    assert [e.content for e in ltem.entities] == ["NEAR"]
    np.testing.assert_allclose(ltem.entities[0].position, [12.0, 1.0, 0.0], atol=1e-12)


def test_build_ltem_two_sided_window():
    poses = straight_line_poses(30)
    db = ObservationDatabase()
    _insert(db, 12, "BEHIND", [0.0, 1.0, 0.0])
    _insert(db, 25, "AHEAD", [0.0, 1.0, 0.0])
    ltem = build_ltem(db, poses, 20, direction="two_sided", d_ltem=10.0)
    assert ltem.window == (10, 29)
    assert {e.content for e in ltem.entities} == {"BEHIND", "AHEAD"}


def test_build_ltem_merges_same_content_nearby():
    poses = straight_line_poses(10)
    db = ObservationDatabase()
    _insert(db, 3, "EXIT", [0.0, 1.0, 0.0])   # world [3.0, 1, 0]
    _insert(db, 3, "EXIT", [0.3, 1.0, 0.0])   # world [3.3, 1, 0], 0.3 m away
    _insert(db, 3, "STOP", [0.1, 1.0, 0.0])   # different content, never merged
    ltem = build_ltem(db, poses, 5, direction="past", d_ltem=10.0, r_merge=1.0)
    exits = [e for e in ltem.entities if e.content == "EXIT"]
    assert len(exits) == 1
    np.testing.assert_allclose(exits[0].position, [3.15, 1.0, 0.0], atol=1e-12)
    assert len(exits[0].members) == 2
    assert len([e for e in ltem.entities if e.content == "STOP"]) == 1


def test_build_ltem_keeps_distant_same_content_apart():
    poses = straight_line_poses(10)
    db = ObservationDatabase()
    _insert(db, 1, "EXIT", [0.0, 1.0, 0.0])
    _insert(db, 6, "EXIT", [0.0, 1.0, 0.0])
    ltem = build_ltem(db, poses, 8, direction="past", d_ltem=10.0, r_merge=1.0)
    exits = [e for e in ltem.entities if e.content == "EXIT"]
    assert len(exits) == 2
    gap = np.linalg.norm(exits[0].position - exits[1].position)
    assert gap > 1.0


def test_build_ltem_merged_entities_separated_by_r_merge():
    rng = np.random.default_rng(19)
    poses = straight_line_poses(40)
    db = ObservationDatabase()
    for frame in range(40):
        for _ in range(int(rng.integers(0, 3))):
            offset = np.array([rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0), 0.0])
            db.insert(frame, _entity("EXIT", frame, offset))
    ltem = build_ltem(db, poses, 39, direction="past", d_ltem=50.0, r_merge=1.0)
    exits = [e for e in ltem.entities if e.content == "EXIT"]
    for i in range(len(exits)):
        for j in range(i + 1, len(exits)):
            assert np.linalg.norm(exits[i].position - exits[j].position) > 1.0


def test_putative_associations_pair_equal_content():
    poses = straight_line_poses(30)
    db = ObservationDatabase()
    _insert(db, 2, "EXIT", [0.0, 1.0, 0.0])
    _insert(db, 3, "STOP", [0.0, 1.0, 0.0])
    _insert(db, 20, "EXIT", [0.0, 1.0, 0.0])
    _insert(db, 21, "EXIT", [0.0, -1.0, 0.0])
    _insert(db, 22, "FIRE", [0.0, 1.0, 0.0])
    map_p = build_ltem(db, poses, 2, direction="two_sided", d_ltem=3.0)
    map_c = build_ltem(db, poses, 21, direction="past", d_ltem=3.0)
    pairs = putative_associations(map_c, map_p)
    assert [a.content for a in pairs] == ["EXIT", "EXIT"]
    assert len({a.index_c for a in pairs}) == 2  # two live EXITs against one candidate


def test_consistency_score_values():
    from textloop.association import Ltem, LtemEntity

    def pair_affinity(gap_p, epsilon=0.5):
        members = ((0, (0.0, 0.0, 0.0)),)

        def ltem(center, gap):
            entities = tuple(
                LtemEntity(c, [x, 0.0, 0.0], members) for c, x in (("A", 0.0), ("B", gap))
            )
            return Ltem(center, (center, center), entities)

        pairs = [Association(0, 0, "A"), Association(1, 1, "B")]
        return build_consistency_graph(pairs, ltem(0, 2.0), ltem(9, gap_p), epsilon).affinity[0, 1]

    # candidate-side gap differs by 0.25 m -> halfway down the hat at epsilon 0.5
    assert pair_affinity(2.25) == pytest.approx(0.5)
    assert pair_affinity(2.0) == pytest.approx(1.0)
    assert pair_affinity(2.5) == 0.0
    assert pair_affinity(3.1) == 0.0
    with pytest.raises(ValueError):
        pair_affinity(3.1, epsilon=0.0)


def test_support_shrinks_with_epsilon():
    rng = np.random.default_rng(23)
    for _ in range(20):
        graph_wide = random_consistency_instance(rng)
        # rebuild the same instance at a smaller epsilon via the affinity definition
        n = len(graph_wide)
        support_wide = graph_wide.affinity > 0
        tightened = np.clip(1.0 - (1.0 - graph_wide.affinity) * 2.0, 0.0, None)
        tightened[graph_wide.exclusion] = 0.0
        support_tight = tightened > 0
        assert not (support_tight & ~support_wide).any()
        assert n == len(support_tight)


def test_graph_diag_and_exclusion():
    poses = straight_line_poses(40)
    db = ObservationDatabase()
    _insert(db, 2, "EXIT", [0.0, 1.0, 0.0])
    _insert(db, 30, "EXIT", [0.0, 1.0, 0.0])
    _insert(db, 32, "EXIT", [0.0, -1.0, 0.0])
    map_p = build_ltem(db, poses, 2, direction="two_sided", d_ltem=3.0)
    map_c = build_ltem(db, poses, 32, direction="past", d_ltem=5.0)
    pairs = putative_associations(map_c, map_p)
    graph = build_consistency_graph(pairs, map_c, map_p)
    assert len(graph) == 2
    np.testing.assert_allclose(np.diag(graph.affinity), 1.0)
    # both associations claim the same candidate entity
    assert graph.exclusion[0, 1] and graph.exclusion[1, 0]
    assert graph.affinity[0, 1] == 0.0
    solution = solve_consistent_set(graph)
    assert len(solution) == 1


def test_solver_all_consistent_returns_everything():
    from textloop.association import Ltem, LtemEntity

    entities_c = tuple(
        LtemEntity("E%d" % i, np.array([float(i), 0.0, 0.0]), ((0, (0.0, 0.0, 0.0)),))
        for i in range(4)
    )
    entities_p = tuple(
        LtemEntity("E%d" % i, np.array([10.0 + i, 0.0, 0.0]), ((9, (0.0, 0.0, 0.0)),))
        for i in range(4)
    )
    map_c = Ltem(0, (0, 0), entities_c)
    map_p = Ltem(9, (9, 9), entities_p)
    pairs = putative_associations(map_c, map_p)
    graph = build_consistency_graph(pairs, map_c, map_p)
    assert solve_consistent_set(graph) == [0, 1, 2, 3]
    assert set_density(graph, [0, 1, 2, 3]) == pytest.approx(4.0)


def test_solver_rejects_geometric_outlier():
    from textloop.association import Ltem, LtemEntity

    # three associations agree pairwise, the fourth disagrees with all of them
    pos_c = [0.0, 2.0, 4.0, 6.0]
    pos_p = [0.0, 2.0, 4.0, 9.0]
    entities_c = tuple(
        LtemEntity("E%d" % i, np.array([x, 0.0, 0.0]), ((0, (0.0, 0.0, 0.0)),))
        for i, x in enumerate(pos_c)
    )
    entities_p = tuple(
        LtemEntity("E%d" % i, np.array([x, 0.0, 0.0]), ((9, (0.0, 0.0, 0.0)),))
        for i, x in enumerate(pos_p)
    )
    map_c = Ltem(0, (0, 0), entities_c)
    map_p = Ltem(9, (9, 9), entities_p)
    pairs = putative_associations(map_c, map_p)
    graph = build_consistency_graph(pairs, map_c, map_p)
    assert solve_consistent_set(graph) == [0, 1, 2]


def test_exact_solver_matches_brute_force():
    rng = np.random.default_rng(29)
    for _ in range(40):
        graph = random_consistency_instance(rng)
        assert solve_consistent_set(graph) == brute_force_densest_subset(graph)


def _signdense_graph(rng: np.random.Generator, ties: bool):
    """A consistency graph like the signdense scene's: 12 to 24 pairings.

    Three contents are each seen 2 to 5 times in each window, at positions
    drawn from five signs per content.  With ties, every position is a whole
    metre on one axis and epsilon is 2, so each affinity is 0, 1/2 or 1 and
    many subsets have exactly equal densities.
    """
    from textloop.association import Ltem, LtemEntity

    while True:
        counts = rng.integers(2, 6, size=(3, 2))
        if 12 <= int((counts[:, 0] * counts[:, 1]).sum()) <= 24:
            break
    signs = rng.integers(0, 12, size=(3, 5)).astype(float)
    maps = []
    for side, shift in enumerate((0.0, 100.0)):
        entities = []
        for content in range(3):
            for x in rng.permutation(signs[content])[: counts[content, side]]:
                position = np.array([x + shift, 0.0, 0.0])
                if not ties:
                    position += rng.normal(0.0, 0.3, size=3)
                entities.append(LtemEntity(f"C{content}", position, ((side, (0.0, 0.0, 0.0)),)))
        maps.append(Ltem(side, (side, side), tuple(entities)))
    epsilon = 2.0 if ties else float(rng.uniform(0.5, 2.0))
    return build_consistency_graph(putative_associations(*maps), *maps, epsilon)


def test_solver_matches_frozen_exhaustive_search():
    # the density bound skips only subtrees that cannot replace the incumbent,
    # so the index lists are those of the search without it, ties included
    rng = np.random.default_rng(37)
    sizes = set()
    for trial in range(200):
        graph = _signdense_graph(rng, ties=trial % 2 == 0)
        sizes.add(len(graph))
        assert solve_consistent_set(graph) == solve_exhaustive(graph)
    assert min(sizes) <= 14 and max(sizes) >= 22
    # every subset ties at density 1, so each larger one replaces the
    # incumbent, and a bound equal to the incumbent must not prune
    n = 8
    isolated = ConsistencyGraph(
        [Association(k, k, "E%d" % k) for k in range(n)], np.eye(n), np.zeros((n, n), bool)
    )
    assert solve_consistent_set(isolated) == solve_exhaustive(isolated) == list(range(n))


def test_solver_prunes_a_fully_consistent_graph():
    # the search without the bound would walk all 2**32 subsets
    n = 32
    graph = ConsistencyGraph(
        [Association(k, k, "E%d" % k) for k in range(n)], np.ones((n, n)), np.zeros((n, n), bool)
    )
    start = time.perf_counter()
    assert solve_consistent_set(graph) == list(range(n))
    assert time.perf_counter() - start < 5.0


def test_solver_empty_and_singleton():
    empty = ConsistencyGraph([], np.empty((0, 0)), np.empty((0, 0), dtype=bool))
    assert solve_consistent_set(empty) == []
    single = ConsistencyGraph(
        [Association(0, 0, "EXIT")], np.eye(1), np.zeros((1, 1), dtype=bool)
    )
    assert solve_consistent_set(single) == [0]


def _revisit_scene(contents_first, contents_second, shift=None):
    """Two visits along a straight path; text offsets repeat unless shifted."""
    poses = straight_line_poses(31)
    db = ObservationDatabase()
    query = None
    for k, content in enumerate(contents_first):
        _insert(db, 3 + k, content, [0.5, 1.0, 0.0])
    for k, content in enumerate(contents_second):
        offset = np.array([0.5, 1.0, 0.0])
        if shift is not None and k == len(contents_second) - 1:
            offset = offset + shift
        entity = _entity(content, 23 + k, offset)
        db.insert(23 + k, entity)
        query = entity
    return db, poses, query


def test_verify_candidate_needs_three_consistent():
    params = AssociationParams()
    # two shared contents: putative set too small, candidate rejected
    db, poses, query = _revisit_scene(["T1", "T2"], ["T1", "T2"])
    assert verify_candidate(db, poses, query, 24, 4, params) is None
    # third consistent content flips the decision
    db, poses, query = _revisit_scene(["T1", "T2", "T3"], ["T1", "T2", "T3"])
    match = verify_candidate(db, poses, query, 25, 5, params)
    assert match is not None
    assert len(match.consistent) == 3
    assert match.map_c.entities[match.index_c].content == "T3"


def test_verify_candidate_rejects_inconsistent_arrangement():
    # the queried text sits 3 m away from where the first visit saw it
    db, poses, query = _revisit_scene(
        ["T1", "T2", "T3"], ["T1", "T2", "T3"], shift=np.array([3.0, 0.0, 0.0])
    )
    assert verify_candidate(db, poses, query, 25, 5, AssociationParams()) is None


def test_verify_candidate_query_must_be_inserted():
    db, poses, query = _revisit_scene(["T1", "T2", "T3"], ["T1", "T2", "T3"])
    orphan = _entity("T9", 25, [0.0, 0.0, 0.0])
    assert verify_candidate(db, poses, orphan, 25, 5, AssociationParams()) is None
