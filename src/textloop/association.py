"""Verification of loop candidates by spatially consistent text association.

Both the live pose and the revisit candidate get a local window of text
entities expressed in odometry coordinates.  Length-preserving association
between the two windows is scored pairwise, and a densest consistent subset
decides whether the candidate is a genuine revisit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .database import ObservationDatabase
from .entities import TextEntity
from .geometry import cumulative_path_length

DEFAULT_EPSILON = 0.5
DEFAULT_WINDOW_RADIUS = 10.0
DEFAULT_MERGE_RADIUS = 1.0
MIN_CONSISTENT_SET = 3
EXACT_SOLVER_CUTOFF = 20

_DENSITY_TIE = 1e-12


@dataclass(frozen=True)
class LtemEntity:
    """A merged text entity inside a local window.

    members holds the (frame, position) observations averaged into this entity.
    """

    content: str
    position: np.ndarray
    members: tuple

    def __post_init__(self):
        pos = np.array(self.position, dtype=float).reshape(3)
        pos.flags.writeable = False
        object.__setattr__(self, "position", pos)


@dataclass(frozen=True)
class Ltem:
    """Local text entity map around a center frame."""

    center_frame: int
    window: tuple[int, int]
    entities: tuple[LtemEntity, ...]

    def positions(self) -> np.ndarray:
        if not self.entities:
            return np.empty((0, 3))
        return np.stack([e.position for e in self.entities])


@dataclass(frozen=True)
class Association:
    """Pairing of entity index_c in the live map with index_p in the candidate map."""

    index_c: int
    index_p: int
    content: str


@dataclass
class ConsistencyGraph:
    associations: list[Association]
    affinity: np.ndarray
    exclusion: np.ndarray

    def __len__(self) -> int:
        return len(self.associations)


@dataclass(frozen=True)
class AssociationParams:
    epsilon: float = DEFAULT_EPSILON
    d_ltem: float = DEFAULT_WINDOW_RADIUS
    r_merge: float = DEFAULT_MERGE_RADIUS
    min_consistent: int = MIN_CONSISTENT_SET


@dataclass(frozen=True)
class VerifiedMatch:
    """Accepted candidate: the live/candidate entity pair and its support."""

    index_c: int
    index_p: int
    map_c: Ltem
    map_p: Ltem
    consistent: tuple[Association, ...]


def build_ltem(
    db: ObservationDatabase,
    poses,
    center_frame: int,
    direction: str = "past",
    d_ltem: float = DEFAULT_WINDOW_RADIUS,
    r_merge: float = DEFAULT_MERGE_RADIUS,
    cum_path=None,
) -> Ltem:
    """Local text entity map around center_frame.

    direction "past" walks only backward along the path (the live pose), while
    "two_sided" also walks forward (revisit candidates).  Entities observed by
    frames within path distance d_ltem are expressed in odometry coordinates
    and same-content entities closer than r_merge are averaged together.
    """
    if direction not in ("past", "two_sided"):
        raise ValueError(f"unknown direction {direction!r}")
    if cum_path is None:
        cum_path = cumulative_path_length([p.translation for p in poses])
    center_s = cum_path[min(center_frame, len(cum_path) - 1)]
    start = int(np.searchsorted(cum_path, center_s - d_ltem, side="left"))
    if direction == "past":
        end = center_frame
    else:
        end = int(np.searchsorted(cum_path, center_s + d_ltem, side="right")) - 1
        end = min(end, len(poses) - 1)
    clusters: list[dict] = []
    for frame in range(start, end + 1):
        for obs in db.entities_in_frame(frame):
            position = poses[frame].apply(obs.pose.translation)
            placed = False
            for cluster in clusters:
                if cluster["content"] != obs.content:
                    continue
                mean = cluster["sum"] / len(cluster["members"])
                if np.linalg.norm(mean - position) <= r_merge:
                    cluster["sum"] += position
                    cluster["members"].append((frame, tuple(position)))
                    placed = True
                    break
            if not placed:
                clusters.append(
                    {"content": obs.content, "sum": position.copy(), "members": [(frame, tuple(position))]}
                )
    _merge_until_separated(clusters, r_merge)
    entities = tuple(
        LtemEntity(
            content=c["content"],
            position=c["sum"] / len(c["members"]),
            members=tuple(c["members"]),
        )
        for c in clusters
    )
    return Ltem(center_frame=center_frame, window=(start, end), entities=entities)


def _merge_until_separated(clusters: list[dict], r_merge: float) -> None:
    """Collapse same-content clusters until all pairs are more than r_merge apart."""
    changed = True
    while changed:
        changed = False
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                a, b = clusters[i], clusters[j]
                if a["content"] != b["content"]:
                    continue
                mean_a = a["sum"] / len(a["members"])
                mean_b = b["sum"] / len(b["members"])
                if np.linalg.norm(mean_a - mean_b) <= r_merge:
                    a["sum"] += b["sum"]
                    a["members"].extend(b["members"])
                    del clusters[j]
                    changed = True
                    break
            if changed:
                break


def putative_associations(map_c: Ltem, map_p: Ltem) -> list[Association]:
    """Every cross pairing with equal content, in index order."""
    out = []
    for ic, ec in enumerate(map_c.entities):
        for ip, ep in enumerate(map_p.entities):
            if ec.content == ep.content:
                out.append(Association(index_c=ic, index_p=ip, content=ec.content))
    return out


def build_consistency_graph(
    associations: list[Association],
    map_c: Ltem,
    map_p: Ltem,
    epsilon: float = DEFAULT_EPSILON,
) -> ConsistencyGraph:
    """Pairwise affinity with an exclusion mask for associations sharing an entity."""
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    n = len(associations)
    pc = map_c.positions()
    pp = map_p.positions()
    idx_c = np.array([a.index_c for a in associations], dtype=int)
    idx_p = np.array([a.index_p for a in associations], dtype=int)
    exclusion = (idx_c[:, None] == idx_c[None, :]) | (idx_p[:, None] == idx_p[None, :])
    np.fill_diagonal(exclusion, False)
    if n:
        dc = np.linalg.norm(pc[idx_c][:, None, :] - pc[idx_c][None, :, :], axis=2)
        dp = np.linalg.norm(pp[idx_p][:, None, :] - pp[idx_p][None, :, :], axis=2)
        affinity = np.clip(1.0 - np.abs(dc - dp) / epsilon, 0.0, None)
        affinity[exclusion] = 0.0
        np.fill_diagonal(affinity, 1.0)
    else:
        affinity = np.empty((0, 0))
    return ConsistencyGraph(associations=list(associations), affinity=affinity, exclusion=exclusion)


def _better(density_a: float, set_a: list[int], density_b: float, set_b: list[int]) -> bool:
    """Deterministic ordering: density, then size, then lexicographic indices."""
    if density_a > density_b + _DENSITY_TIE:
        return True
    if density_a < density_b - _DENSITY_TIE:
        return False
    if len(set_a) != len(set_b):
        return len(set_a) > len(set_b)
    return sorted(set_a) < sorted(set_b)


def _solve_exact(graph: ConsistencyGraph) -> list[int]:
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
            if _better(density, subset, best_density, best_set):
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


def _solve_relaxed(graph: ConsistencyGraph, max_phases: int = 12, max_steps: int = 500) -> list[int]:
    """Projected-gradient ascent on the sphere with an escalating exclusion penalty."""
    n = len(graph)
    affinity = graph.affinity
    penalty_mask = graph.exclusion.astype(float)
    u = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(50):
        v = affinity @ u
        norm = np.linalg.norm(v)
        if norm < 1e-15:
            break
        u = v / norm
    u = np.clip(u, 0.0, None)
    norm = np.linalg.norm(u)
    u = u / norm if norm > 1e-15 else np.full(n, 1.0 / np.sqrt(n))
    penalty = 0.0
    for _ in range(max_phases):
        m_eff = affinity - penalty * penalty_mask
        step = 1.0 / (np.linalg.norm(m_eff, 2) + 1e-9)
        for _ in range(max_steps):
            grad = m_eff @ u
            candidate = np.clip(u + step * grad, 0.0, None)
            norm = np.linalg.norm(candidate)
            if norm < 1e-15:
                break
            candidate /= norm
            if np.linalg.norm(candidate - u) < 1e-10:
                u = candidate
                break
            u = candidate
        if float(u @ penalty_mask @ u) < 1e-9:
            if penalty > 0.0:
                break
        penalty = max(1.0, 2.0 * penalty)
    order = np.argsort(-u, kind="stable")
    chosen: list[int] = []
    chosen_density = 0.0
    pair_sum = 0.0
    for v in order:
        if any(graph.exclusion[v, w] for w in chosen):
            continue
        gain = sum(affinity[v, w] for w in chosen)
        density = (len(chosen) + 1 + 2.0 * (pair_sum + gain)) / (len(chosen) + 1)
        if not chosen or density >= chosen_density - _DENSITY_TIE:
            chosen.append(int(v))
            pair_sum += gain
            chosen_density = density
    return sorted(chosen)


def solve_consistent_set(graph: ConsistencyGraph, mode: str = "exact") -> list[int]:
    """Indices of the consistent association subset maximizing u^T A u / |S|.

    mode "exact" enumerates subsets (bounded instance sizes); "relaxed" runs
    the continuous relaxation with rounding.  Both respect the exclusion mask.
    """
    if len(graph) == 0:
        return []
    if mode == "exact":
        return _solve_exact(graph)
    if mode == "relaxed":
        return _solve_relaxed(graph)
    raise ValueError(f"unknown solver mode {mode!r}")


def verify_candidate(
    db: ObservationDatabase,
    poses,
    query: TextEntity,
    current_frame: int,
    candidate_frame: int,
    params: AssociationParams = AssociationParams(),
    map_c: Ltem | None = None,
    cum_path=None,
) -> VerifiedMatch | None:
    """Accept or reject a revisit candidate for `query` anchored at current_frame.

    Returns the matched entity pair and its consistent support, or None.  The
    query must already be inserted in the database so it appears in its own
    local map.
    """
    if map_c is None:
        map_c = build_ltem(
            db, poses, current_frame, "past", params.d_ltem, params.r_merge, cum_path
        )
    map_p = build_ltem(
        db, poses, candidate_frame, "two_sided", params.d_ltem, params.r_merge, cum_path
    )
    associations = putative_associations(map_c, map_p)
    if len(associations) < params.min_consistent:
        return None
    graph = build_consistency_graph(associations, map_c, map_p, params.epsilon)
    mode = "exact" if len(graph) <= EXACT_SOLVER_CUTOFF else "relaxed"
    consistent = solve_consistent_set(graph, mode)
    if len(consistent) < params.min_consistent:
        return None
    query_position = poses[current_frame].apply(query.pose_in_anchor.translation)
    index_c = _locate_member(map_c, query.content, current_frame, query_position)
    if index_c is None:
        return None
    chosen = [graph.associations[k] for k in consistent]
    for assoc in chosen:
        if assoc.index_c != index_c:
            continue
        if any(frame == candidate_frame for frame, _ in map_p.entities[assoc.index_p].members):
            return VerifiedMatch(
                index_c=index_c,
                index_p=assoc.index_p,
                map_c=map_c,
                map_p=map_p,
                consistent=tuple(chosen),
            )
    return None


def _locate_member(ltem: Ltem, content: str, frame: int, position, tol: float = 1e-6):
    for idx, entity in enumerate(ltem.entities):
        if entity.content != content:
            continue
        for member_frame, member_pos in entity.members:
            if member_frame == frame and np.linalg.norm(np.subtract(member_pos, position)) <= tol:
                return idx
    return None
