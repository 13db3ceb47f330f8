"""Loop constraint generation from re-observed text entities.

ID texts shortcut the association stage: equal content is already a strong
cue, so candidates go straight to a point cloud check.  Generic texts run the
consistency verification first.  Accepted pairs become relative-pose
constraints between the two anchor frames.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right, insort
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.spatial import cKDTree

from .association import AssociationParams, Ltem, build_ltem, verify_candidate
from .database import Observation, ObservationDatabase
from .entities import TextCategory, TextEntity, TooFewPoints
from .geometry import Pose, kabsch

MIN_TRAVEL_DISTANCE = 10.0
MAX_LOOP_OFFSET = 1.5
COOLDOWN_FRAMES = 10
LOOP_SIGMA_T = 0.1
LOOP_SIGMA_R = 0.05
UNREFINED_SIGMA_SCALE = 2.0


class LoopSource(Enum):
    ID_TEXT = "id"
    GENERIC_TEXT = "generic"


@dataclass(frozen=True)
class LocalCloud:
    """Per-frame LiDAR returns in that frame's own coordinates."""

    frame: int
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class IcpParams:
    max_iterations: int = 50
    tolerance: float = 1e-6
    max_correspondence: float = 0.5
    min_fitness: float = 0.6
    max_rms: float = 0.15
    min_points: int = 50


@dataclass(frozen=True)
class IcpResult:
    pose: Pose
    fitness: float
    rms: float
    converged: bool
    accepted: bool


@dataclass(frozen=True)
class LoopConstraint:
    """Relative pose mapping frame_j coordinates into frame_i (frame_j earlier)."""

    frame_i: int
    frame_j: int
    relative_pose: Pose
    information: np.ndarray
    source: LoopSource

    def __post_init__(self):
        if self.frame_j >= self.frame_i:
            raise ValueError(f"constraint must point backward: {self.frame_i} <= {self.frame_j}")
        # the detector's matrices are shared, read-only, and kept as they are
        info = np.asarray(self.information, dtype=float)
        if info.shape != (6, 6):
            info = info.reshape(6, 6)
        object.__setattr__(self, "information", info)

    def to_json(self) -> dict:
        return {
            "i": self.frame_i,
            "j": self.frame_j,
            "pose": self.relative_pose.to_json(),
            "info_diag": [float(x) for x in np.diag(self.information)],
            "source": self.source.value,
        }


def relative_pose_from_entities(text_in_i: Pose, text_in_j: Pose) -> Pose:
    """Motion from frame j into frame i given one text seen from both."""
    return text_in_i @ text_in_j.inverse()


def icp_verify(
    target: cKDTree, source: np.ndarray, init: Pose, params: IcpParams = IcpParams()
) -> IcpResult:
    """Point-to-point ICP aligning the source points onto the target tree's points.

    Seeded at the source-to-target pose `init`; returns the refined pose with
    fitness (inlier fraction at the correspondence cutoff) and inlier RMS.
    Raises TooFewPoints when either cloud is below params.min_points.

    A pass re-queries the tree only for the source points whose nearest
    target can have changed.  A point is queried with k=2 at the cutoff c.
    While it moves less than half the gap between its two neighbours (the
    gap to c when it has one neighbour), less a rounding guard of 16 machine
    epsilons times the largest target coordinate plus c, its first neighbour
    stays nearer than every other target point and within c.  A point with
    no neighbour within c has no such radius and is queried on every pass.
    Every pass recomputes each point's distance to its nearest target the
    way scipy's cKDTree computes it: s = (dx*dx + dy*dy) + dz*dz with
    d = target - point, a match when s < c*c, and sqrt(s) as the distance.
    When the two neighbours tie, the point takes its index from a k=1 query,
    as k=1 and k=2 order ties differently; a tie leaves no gap, so that point
    is queried again on the next pass.  The distances and indices are thus
    bit for bit those a full query would return, and the result equals that
    of querying every point on every pass.

    ICP stops at its fixed point: when a pass finds the correspondences that
    produced its pose, kabsch would return that pose again, bit for bit, and
    the next pass would repeat this fitness and rms and stop as converged.
    That pass is skipped, so the result is the same.  The exit is taken only
    where the next pass would run and stop: another iteration remains, and
    abs(rms - rms) < tolerance, that is, tolerance > 0 and rms is finite.
    """
    points = target.data
    if len(points) < params.min_points or len(source) < params.min_points:
        raise TooFewPoints(f"clouds have {len(points)} and {len(source)} points")
    n = len(points)
    cutoff = params.max_correspondence
    cutoff_sq = cutoff * cutoff
    # row n, at infinity, stands for "no target within the cutoff"
    padded = np.vstack([points, np.full((1, 3), np.inf)])
    guard = 16.0 * np.finfo(float).eps * (float(np.abs(points).max()) + cutoff)
    # per source point: its nearest target (index n and a point at infinity
    # when none is within the cutoff), where it was last queried, and the
    # squared distance it may move from there (negative: query it again)
    nearest = np.full(len(source), n)
    nearest_point = np.zeros_like(source, dtype=float)
    anchor = np.zeros_like(source, dtype=float)
    reach_sq = np.full(len(source), -1.0)
    pose = init
    last_rms = np.inf
    fitness = 0.0
    rms = np.inf
    converged = False
    # the correspondences kabsch turned into `pose`, as the index array a full
    # query gives
    fitted = None
    for it in range(params.max_iterations):
        moved = pose.apply(source)
        shift = moved - anchor
        shift *= shift
        stale = np.flatnonzero(~(shift[:, 0] + shift[:, 1] + shift[:, 2] < reach_sq))
        if len(stale):
            at = moved[stale]
            dist, ids = target.query(at, k=2, distance_upper_bound=cutoff)
            first = ids[:, 0]
            tie = np.isfinite(dist[:, 1]) & (dist[:, 0] == dist[:, 1])
            if tie.any():
                first[tie] = target.query(at[tie], distance_upper_bound=cutoff)[1]
            half_gap = 0.5 * (np.minimum(dist[:, 1], cutoff) - dist[:, 0]) - guard
            nearest[stale] = first
            nearest_point[stale] = padded[first]
            anchor[stale] = at
            reach_sq[stale] = np.where(half_gap > 0.0, half_gap * half_gap, -1.0)
        diff = nearest_point - moved
        diff *= diff
        sq_dist = diff[:, 0] + diff[:, 1] + diff[:, 2]
        matched = sq_dist < cutoff_sq
        count = int(np.count_nonzero(matched))
        fitness = float(count) / len(source)
        if count < 3:
            break
        rms = float(np.sqrt(np.mean(np.sqrt(sq_dist[matched]) ** 2)))
        index = np.where(matched, nearest, n)
        # at a fixed point the next pass would repeat this rms, and stop only
        # on the test below, abs(rms - rms) < tolerance
        fixed_point = (
            np.array_equal(index, fitted)
            and it + 1 < params.max_iterations
            and abs(rms - rms) < params.tolerance
        )
        if fixed_point or abs(last_rms - rms) < params.tolerance:
            converged = True
            break
        last_rms = rms
        fitted = index
        pose = kabsch(source[matched], nearest_point[matched])
    accepted = converged and fitness >= params.min_fitness and rms <= params.max_rms
    return IcpResult(pose=pose, fitness=fitness, rms=rms, converged=converged, accepted=accepted)


@dataclass(frozen=True)
class DetectorParams:
    s_min: float = MIN_TRAVEL_DISTANCE
    max_offset: float = MAX_LOOP_OFFSET
    cooldown_frames: int = COOLDOWN_FRAMES
    loop_sigma_t: float = LOOP_SIGMA_T
    loop_sigma_r: float = LOOP_SIGMA_R
    unrefined_scale: float = UNREFINED_SIGMA_SCALE
    association: AssociationParams = field(default_factory=AssociationParams)
    icp: IcpParams = field(default_factory=IcpParams)


class DetectorState:
    """Streaming state: odometry, per-frame clouds, the text database, cooldowns."""

    def __init__(self, params: DetectorParams = DetectorParams()):
        self.params = params
        self.db = ObservationDatabase()
        self.stamps: list[float] = []
        self.poses: list[Pose] = []
        # the clouds a later extraction or ICP can still read (see cli.DetectorRun)
        self.clouds: dict[int, LocalCloud] = {}
        # cumulative path length per frame; a doubling buffer, the first len(poses) entries used
        self._cum: np.ndarray = np.zeros(64)
        # accepted (frame_i, frame_j) pairs, kept sorted
        self._accepted: list[tuple[int, int]] = []
        # the information matrix of a constraint, by whether ICP refined it;
        # every constraint of the run holds one of these two
        self.information = {
            refined: _information_matrix(params, refined) for refined in (False, True)
        }

    def add_odometry(self, stamp: float, pose: Pose) -> int:
        frame = len(self.poses)
        if frame == len(self._cum):
            self._cum = np.concatenate([self._cum, np.zeros(frame)])
        if frame:
            step = float(np.linalg.norm(pose.translation - self.poses[-1].translation))
            self._cum[frame] = self._cum[frame - 1] + step
        self.stamps.append(stamp)
        self.poses.append(pose)
        return frame

    def add_cloud(self, frame: int, points: np.ndarray) -> None:
        self.clouds[frame] = LocalCloud(frame=frame, points=points)

    def travel_between(self, frame_j: int, frame_i: int) -> float:
        return float(self._cum[frame_i] - self._cum[frame_j])

    @property
    def cum_path(self) -> np.ndarray:
        return self._cum[: len(self.poses)]

    def in_cooldown(self, frame_i: int, frame_j: int) -> bool:
        """Whether an accepted pair lies within cooldown_frames in both indices."""
        window = self.params.cooldown_frames
        # the pairs with frame_i - window < i < frame_i + window
        lo = bisect_right(self._accepted, (frame_i - window, np.inf))
        hi = bisect_left(self._accepted, (frame_i + window, -np.inf))
        return any(abs(frame_j - j) < window for _, j in self._accepted[lo:hi])

    def record_accepted(self, frame_i: int, frame_j: int) -> None:
        insort(self._accepted, (frame_i, frame_j))


def _information_matrix(params: DetectorParams, refined: bool) -> np.ndarray:
    sigma_t = params.loop_sigma_t
    sigma_r = params.loop_sigma_r
    if not refined:
        sigma_t *= params.unrefined_scale
        sigma_r *= params.unrefined_scale
    diag = [1.0 / sigma_t**2] * 3 + [1.0 / sigma_r**2] * 3
    matrix = np.diag(diag)
    matrix.flags.writeable = False
    return matrix


def _cloud_tree(state: DetectorState, frame: int) -> cKDTree | None:
    cloud = state.clouds.get(frame)
    return None if cloud is None else cKDTree(cloud.points, balanced_tree=False)


def _icp_between(state: DetectorState, target: cKDTree | None, frame_j: int, init: Pose):
    cloud_j = state.clouds.get(frame_j)
    if target is None or cloud_j is None:
        return None
    try:
        return icp_verify(target, cloud_j.points, init, state.params.icp)
    except TooFewPoints:
        return None


def _candidate_observations(state: DetectorState, entity: TextEntity, frame: int):
    """Prior sightings of the same content far enough back along the path."""
    out = []
    for obs in state.db.frames_observing(entity.content):
        if obs.frame >= frame:
            continue
        if state.travel_between(obs.frame, frame) <= state.params.s_min:
            continue
        out.append(obs)
    return out


def _close_loop(
    state: DetectorState,
    frame: int,
    obs: Observation,
    prior: Pose,
    source: LoopSource,
    target: Callable[[], cKDTree | None],
) -> LoopConstraint | None:
    """Verify one candidate pair with ICP seeded at the entity-derived `prior`.

    target() is the tree over the frame's cloud, None when it has no cloud.
    A pair ICP rejects is dropped.  When ICP cannot run (a missing or sparse
    cloud) an ID pair is dropped too, while a generic pair, already verified
    by association, keeps the prior with inflated uncertainty.  Otherwise the
    constraint carries the ICP pose.  Either way its translation must stay
    within max_offset.
    """
    icp = _icp_between(state, target(), obs.frame, prior)
    if icp is not None and not icp.accepted:
        return None
    # content alone cannot distinguish repeated installations of one sign,
    # so the cloud check is mandatory for ID texts
    if icp is None and source is LoopSource.ID_TEXT:
        return None
    pose = prior if icp is None else icp.pose
    # the relative translation measures how far apart the two poses really
    # are; a large value means "same sign seen from elsewhere", not a revisit
    if float(np.linalg.norm(pose.translation)) > state.params.max_offset:
        return None
    return LoopConstraint(
        frame_i=frame,
        frame_j=obs.frame,
        relative_pose=pose,
        information=state.information[icp is not None],
        source=source,
    )


def process_frame(
    state: DetectorState, frame: int, entities: list[TextEntity]
) -> list[LoopConstraint]:
    """Ingest one frame's text entities and emit any resulting loop constraints.

    Entities are inserted into the database here; candidate retrieval happens
    first so an observation never matches itself.  At most one constraint per
    (frame, candidate frame) pair is produced, and accepted pairs suppress
    nearby pairs for cooldown_frames in both indices.  A candidate whose
    entity-derived relative translation exceeds max_offset + icp.max_correspondence
    is dropped before association and ICP: it is the same content seen from
    elsewhere, which the max_offset check would reject after ICP anyway.
    The slack keeps the priors that ICP can still pull within max_offset.
    """
    candidates: list[tuple[TextEntity, Observation]] = []
    for entity in entities:
        for obs in _candidate_observations(state, entity, frame):
            candidates.append((entity, obs))
    for entity in entities:
        state.db.insert(frame, entity)
    if not candidates:
        return []
    # ordered by candidate frame, then db insertion order
    candidates.sort(key=lambda pair: pair[1].frame)
    params = state.params
    max_prior_offset = params.max_offset + params.icp.max_correspondence
    map_c: Ltem | None = None
    # every candidate's ICP targets this frame's cloud: one tree, built at the
    # first ICP and dropped on return
    target = functools.cache(lambda: _cloud_tree(state, frame))
    constraints: list[LoopConstraint] = []
    done_pairs: set[tuple[int, int]] = set()
    for entity, obs in candidates:
        pair = (frame, obs.frame)
        if pair in done_pairs or state.in_cooldown(*pair):
            continue
        prior = relative_pose_from_entities(entity.pose_in_anchor, obs.pose)
        if float(np.linalg.norm(prior.translation)) > max_prior_offset:
            continue
        if entity.category is TextCategory.ID:
            constraint = _close_loop(state, frame, obs, prior, LoopSource.ID_TEXT, target)
        else:
            if map_c is None:
                map_c = build_ltem(
                    state.db,
                    state.poses,
                    frame,
                    "past",
                    params.association.d_ltem,
                    params.association.r_merge,
                    state.cum_path,
                )
            match = verify_candidate(
                state.db,
                state.poses,
                entity,
                frame,
                obs.frame,
                params.association,
                map_c=map_c,
                cum_path=state.cum_path,
            )
            if match is None:
                continue
            constraint = _close_loop(state, frame, obs, prior, LoopSource.GENERIC_TEXT, target)
        if constraint is None:
            continue
        constraints.append(constraint)
        done_pairs.add(pair)
        state.record_accepted(*pair)
    return constraints
