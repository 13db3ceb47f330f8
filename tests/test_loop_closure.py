"""Tests for ICP verification and the streaming loop constraint detector."""

import json

import numpy as np
import pytest
from scipy.spatial import cKDTree

import every_pass_icp
from helpers import ACCEPT_NOISE, default_rig, poses_close
from textloop import loop_closure
from textloop.entities import TextCategory, TextEntity, TooFewPoints
from textloop.geometry import Pose, exp_map, kabsch
from textloop.logio import parse_loop
from textloop.loop_closure import (
    DetectorParams,
    DetectorState,
    IcpParams,
    IcpResult,
    LoopConstraint,
    LoopSource,
    icp_verify,
    process_frame,
    relative_pose_from_entities,
)
from textloop.simulator import build_world, default_route, simulate


def _yaw_pose(yaw, t):
    c, s = np.cos(yaw), np.sin(yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return Pose(rot, np.asarray(t, dtype=float))


def _grid_cloud():
    """Two perpendicular walls plus a floor; 1 m spacing keeps matches unambiguous."""
    pts = []
    for x in range(9):
        for z in range(4):
            pts.append([float(x), 0.0, float(z)])
    for y in range(1, 9):
        for z in range(4):
            pts.append([0.0, float(y), float(z)])
    for x in range(1, 9):
        for y in range(1, 9):
            pts.append([float(x), float(y), 0.0])
    return np.array(pts)


def _square_poses(laps=2, side=8):
    """1 m steps around a square ring; frame k + 4*side repeats frame k exactly."""
    ring = []
    for k in range(side):
        ring.append((float(k), 0.0))
    for k in range(side):
        ring.append((float(side), float(k)))
    for k in range(side):
        ring.append((float(side - k), float(side)))
    for k in range(side):
        ring.append((0.0, float(side - k)))
    poses = []
    for _ in range(laps):
        for k, (x, y) in enumerate(ring):
            nx, ny = ring[(k + 1) % len(ring)]
            yaw = np.arctan2(ny - y, nx - x)
            poses.append(_yaw_pose(yaw, [x, y, 0.0]))
    return poses


def _entity(content, category, world_pose, frame_pose, anchor):
    return TextEntity(
        content=content,
        category=category,
        pose_in_anchor=frame_pose.inverse() @ world_pose,
        anchor_frame=anchor,
        confidence=0.95,
    )


def _run_square(events, with_clouds=True, params=None, laps=2, corrupt_frames=()):
    """Drive the detector around the ring; events maps frame -> [(content, cat, world_pose)]."""
    state = DetectorState(params or DetectorParams())
    poses = _square_poses(laps=laps)
    world = _grid_cloud()
    constraints = []
    for frame, pose in enumerate(poses):
        state.add_odometry(0.1 * frame, pose)
        if with_clouds:
            cloud = pose.inverse().apply(world)
            if frame in corrupt_frames:
                cloud = cloud + 50.0
            state.add_cloud(frame, cloud)
        entities = [
            _entity(content, category, world_pose, pose, frame)
            for content, category, world_pose in events.get(frame, [])
        ]
        constraints.extend(process_frame(state, frame, entities))
    return state, constraints


def test_icp_identical_clouds():
    cloud = _grid_cloud()
    result = icp_verify(cKDTree(cloud), cloud, Pose.identity())
    assert result.converged
    assert result.accepted
    assert result.fitness == 1.0
    assert result.rms < 1e-12
    assert poses_close(result.pose, Pose.identity(), tol=1e-9)


def test_icp_recovers_known_transform():
    world = _grid_cloud()
    pose_j = _yaw_pose(0.5, [2.0, 1.0, 0.3])
    target = cKDTree(world)
    source = pose_j.inverse().apply(world)
    # perturb the seed well inside the 0.5 m correspondence radius
    delta = exp_map(np.array([0.08, -0.05, 0.02, 0.0, 0.0, 0.03]))
    result = icp_verify(target, source, delta @ pose_j)
    assert result.accepted
    assert result.fitness == 1.0
    assert result.rms < 1e-9
    assert poses_close(result.pose, pose_j, tol=1e-9)


def test_icp_rejects_disjoint_clouds():
    world = _grid_cloud()
    result = icp_verify(cKDTree(world), world + np.array([50.0, 0.0, 0.0]), Pose.identity())
    assert not result.accepted
    assert result.fitness == 0.0


def test_icp_fitness_gate():
    world = _grid_cloud()
    source = np.vstack([world, world + np.array([100.0, 0.0, 0.0])])
    result = icp_verify(cKDTree(world), source, Pose.identity())
    assert result.converged
    assert abs(result.fitness - 0.5) < 1e-12
    assert result.rms < 1e-12
    assert not result.accepted


def test_icp_too_few_points():
    small = _grid_cloud()[:10]
    with pytest.raises(TooFewPoints):
        icp_verify(cKDTree(small), small, Pose.identity())


class _CountingTree:
    """A cKDTree that counts the points it is queried for."""

    def __init__(self, points):
        self._tree = cKDTree(points, balanced_tree=False)
        self.data = self._tree.data
        self.points = 0

    def query(self, x, *args, **kwargs):
        self.points += len(x)
        return self._tree.query(x, *args, **kwargs)


@pytest.fixture(scope="module")
def revisit_cases():
    """(target cloud, source cloud, jittered prior) for real revisits of a 2-lap corridor.

    Every 40th second-lap frame is paired with the first-lap frame nearest
    to it, and the true relative pose is perturbed twice.
    """
    result = simulate(
        build_world("corridor", seed=1),
        default_route("corridor", laps=2),
        default_rig(),
        ACCEPT_NOISE,
        seed=1,
    )
    gt = result.gt_poses
    positions = np.array([p.translation for p in gt])
    half = len(gt) // 2
    rng = np.random.default_rng(7)
    cases = []
    for i in range(half + 10, len(gt), 40):
        j = int(np.argmin(np.linalg.norm(positions[:half] - positions[i], axis=1)))
        prior = gt[i].inverse() @ gt[j]
        for _ in range(2):
            twist = np.concatenate([rng.uniform(-0.2, 0.2, 3), rng.uniform(-0.03, 0.03, 3)])
            cases.append((result.clouds[i], result.clouds[j], exp_map(twist) @ prior))
    return cases


def _same_result(a: IcpResult, b: IcpResult) -> bool:
    return (
        a.pose.rotation.tobytes() == b.pose.rotation.tobytes()
        and a.pose.translation.tobytes() == b.pose.translation.tobytes()
        and (a.fitness, a.rms, a.converged, a.accepted)
        == (b.fitness, b.rms, b.converged, b.accepted)
    )


def _both(target, source, prior, params):
    """(icp_verify, oracle) results and the points each queried the tree for."""
    fast, slow = _CountingTree(target), _CountingTree(target)
    ours = icp_verify(fast, source, prior, params)
    theirs = every_pass_icp.icp_verify(slow, source, prior, params)
    return ours, theirs, fast.points, slow.points


@pytest.mark.parametrize(
    "params",
    [
        IcpParams(),
        IcpParams(max_iterations=1),
        IcpParams(max_iterations=2),
        IcpParams(tolerance=5e-324),
        IcpParams(tolerance=0.0, max_iterations=12),
        IcpParams(max_correspondence=0.2),
    ],
    ids=["default", "one-pass", "two-pass", "tiny-tolerance", "zero-tolerance", "tight-radius"],
)
def test_icp_matches_every_pass_oracle_on_revisits(revisit_cases, params):
    ours_total = theirs_total = 0
    for target, source, prior in revisit_cases:
        ours, theirs, n_ours, n_theirs = _both(target, source, prior, params)
        assert _same_result(ours, theirs)
        ours_total += n_ours
        theirs_total += n_theirs
    assert ours_total <= theirs_total
    if params == IcpParams():
        assert ours_total < theirs_total


def _translated_case(target, source, prior, offset):
    """The same alignment problem with both clouds moved by `offset`."""
    offset = np.asarray(offset, dtype=float)
    moved_prior = Pose(prior.rotation, prior.translation + offset - prior.rotation @ offset)
    return target + offset, source + offset, moved_prior


def _midway_case():
    """Source points exactly midway between two target points, under the identity."""
    target = _grid_cloud()
    source = target[target[:, 0] < 8.0] + np.array([0.5, 0.0, 0.0])
    return target, source, Pose.identity()


def _duplicate_case():
    """Every third target point twice, and a seed off by a small twist."""
    target = np.vstack([_grid_cloud(), _grid_cloud()[::3]])
    return target, _grid_cloud(), exp_map(np.array([0.05, -0.03, 0.02, 0.01, 0.0, -0.02]))


@pytest.mark.parametrize(
    "case, params",
    [
        ("midway", IcpParams(max_correspondence=0.75)),
        ("midway", IcpParams(max_correspondence=0.5 + 2**-52)),
        ("duplicates", IcpParams()),
        ("revisits", IcpParams(max_correspondence=0.3)),
        ("translated", IcpParams()),
        ("translated", IcpParams(max_correspondence=0.3)),
    ],
    ids=["midway", "midway-at-cutoff", "duplicates", "cutoff-0.3", "translated", "translated-0.3"],
)
def test_icp_matches_every_pass_oracle_on_ties_and_scales(revisit_cases, case, params):
    if case == "midway":
        cases = [_midway_case()]
    elif case == "duplicates":
        cases = [_duplicate_case()]
    elif case == "revisits":
        cases = revisit_cases
    else:
        cases = [_translated_case(*c, [1e5, -1e5, 1e5]) for c in revisit_cases[::3]]
    for target, source, prior in cases:
        ours, theirs, n_ours, n_theirs = _both(target, source, prior, params)
        assert _same_result(ours, theirs)
        assert n_ours <= n_theirs


def test_icp_fixed_point_on_the_last_allowed_pass(revisit_cases, monkeypatch):
    # q passes reach the fixed point; with max_iterations = q no pass remains
    # to repeat it, so ICP stops unconverged, as the oracle does
    fits = []

    def counting_kabsch(source, target):
        fits.append(len(source))
        return kabsch(source, target)

    monkeypatch.setattr(loop_closure, "kabsch", counting_kabsch)
    last_pass = 0
    for target, source, prior in revisit_cases[:8]:
        fits.clear()
        ours, theirs, _, n_theirs = _both(target, source, prior, IcpParams())
        # a converged run fits after every pass but its last
        passes, oracle_passes = len(fits) + 1, n_theirs // len(source)
        if passes == oracle_passes:
            continue
        assert passes == oracle_passes - 1
        for max_iterations in (passes - 1, passes, passes + 1):
            params = IcpParams(max_iterations=max_iterations)
            ours, theirs, _, _ = _both(target, source, prior, params)
            assert _same_result(ours, theirs)
            last_pass += max_iterations == passes and not theirs.converged
    assert last_pass > 0


def test_ckdtree_arithmetic_that_icp_verify_mirrors():
    """The scipy behaviour icp_verify recomputes instead of querying."""
    rng = np.random.default_rng(5)
    cutoff = 0.3
    target = rng.uniform(-2.0, 2.0, size=(1500, 3))
    # random points, and points about one cutoff from a target point, along
    # random directions and along an axis, to sit on both sides of the bound
    directions = rng.normal(size=(500, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    along_x = np.zeros((500, 3))
    along_x[:, 0] = cutoff
    queries = np.vstack(
        [
            rng.uniform(-2.0, 2.0, size=(1000, 3)),
            target[:500] + cutoff * directions,
            target[500:1000] + along_x,
        ]
    )
    tree = cKDTree(target, balanced_tree=False)
    dist, index = tree.query(queries, distance_upper_bound=cutoff)
    found = index < len(target)
    diff = target[index[found]] - queries[found]
    diff *= diff
    assert np.array_equal(dist[found], np.sqrt(diff[:, 0] + diff[:, 1] + diff[:, 2])), (
        "cKDTree no longer computes a distance as sqrt((dx*dx + dy*dy) + dz*dz)"
    )
    sq = np.empty(len(queries))
    nearest = np.empty(len(queries), dtype=int)
    for lo in range(0, len(queries), 250):
        diff = target[None, :, :] - queries[lo : lo + 250, None, :]
        diff *= diff
        block = diff[..., 0] + diff[..., 1] + diff[..., 2]
        nearest[lo : lo + 250] = np.argmin(block, axis=1)
        sq[lo : lo + 250] = block[np.arange(len(block)), nearest[lo : lo + 250]]
    near_bound = np.abs(sq - cutoff * cutoff) < 1e-12
    assert near_bound.sum() > 100 and found[near_bound].any() and not found[near_bound].all()
    assert np.array_equal(found, sq < cutoff * cutoff), (
        "cKDTree no longer matches a point exactly when its squared distance is below cutoff*cutoff"
    )
    assert np.array_equal(index[found], nearest[found])
    # a query midway between two target points, far from the rest
    pair = np.vstack([target, [[10.0, 0.0, 0.0], [11.0, 0.0, 0.0]]])
    tree = cKDTree(pair, balanced_tree=False)
    _, one = tree.query([[10.5, 0.0, 0.0]], distance_upper_bound=cutoff * 2)
    _, two = tree.query([[10.5, 0.0, 0.0]], k=2, distance_upper_bound=cutoff * 2)
    assert sorted(two[0]) == [1500, 1501]
    assert one[0] != two[0, 0], "cKDTree's k=1 and k=2 queries no longer order a tie differently"


def test_constraints_share_read_only_information():
    sign = _yaw_pose(1.0, [1.0, 2.0, 1.0])
    events = {f: [("A1-R01", TextCategory.ID, sign)] for f in (0, 32, 64)}
    state, constraints = _run_square(events, laps=3)
    assert len(constraints) == 3
    first, second = constraints[:2]
    assert first.information is second.information is state.information[True]
    assert not first.information.flags.writeable
    with pytest.raises(ValueError):
        first.information[0, 0] = 1.0
    assert np.allclose(np.diag(first.information), [100.0] * 3 + [400.0] * 3, rtol=1e-12)


def test_frame_candidates_share_one_target_tree(monkeypatch):
    built, targets = [], []

    def counting_tree(points, **kwargs):
        built.append(len(points))
        return cKDTree(points, **kwargs)

    def recording_icp(target, source, init, icp_params):
        targets.append(target)
        return icp_verify(target, source, init, icp_params)

    monkeypatch.setattr(loop_closure, "cKDTree", counting_tree)
    monkeypatch.setattr(loop_closure, "icp_verify", recording_icp)
    sign = _yaw_pose(1.0, [1.0, 2.0, 1.0])
    events = {f: [("A1-R01", TextCategory.ID, sign)] for f in (1, 2, 34)}
    # frame 1's cloud is off by 50 m, so ICP rejects (34, 1) and (34, 2) runs too
    _, constraints = _run_square(events, corrupt_frames=(1,))
    assert [(c.frame_i, c.frame_j) for c in constraints] == [(34, 2)]
    assert len(targets) == 2 and targets[0] is targets[1]
    assert built == [len(_grid_cloud())]


def test_relative_pose_from_entities():
    world_text = _yaw_pose(1.0, [1.0, 2.0, 1.0])
    pose_a = _yaw_pose(0.3, [5.0, 0.0, 0.0])
    pose_b = _yaw_pose(-0.7, [0.0, 4.0, 0.5])
    text_in_a = pose_a.inverse() @ world_text
    text_in_b = pose_b.inverse() @ world_text
    rel = relative_pose_from_entities(text_in_a, text_in_b)
    assert poses_close(rel, pose_a.inverse() @ pose_b, tol=1e-12)
    assert np.allclose(rel.apply(text_in_b.translation), text_in_a.translation, atol=1e-12)


def test_constraint_must_point_backward():
    with pytest.raises(ValueError):
        LoopConstraint(
            frame_i=5,
            frame_j=9,
            relative_pose=Pose.identity(),
            information=np.eye(6),
            source=LoopSource.ID_TEXT,
        )


def test_constraint_json_round_trip():
    constraint = LoopConstraint(
        frame_i=40,
        frame_j=3,
        relative_pose=_yaw_pose(0.4, [1.0, -2.0, 0.1]),
        information=np.diag([25.0, 25.0, 25.0, 100.0, 100.0, 100.0]),
        source=LoopSource.GENERIC_TEXT,
    )
    back = parse_loop(json.dumps(constraint.to_json()), line=1)
    assert back.frame_i == 40 and back.frame_j == 3
    assert back.source is LoopSource.GENERIC_TEXT
    assert poses_close(back.relative_pose, constraint.relative_pose, tol=1e-12)
    assert np.allclose(back.information, constraint.information)


def test_id_revisit_emits_constraint():
    sign = _yaw_pose(1.0, [1.0, 2.0, 1.0])
    events = {
        0: [("A1-R01", TextCategory.ID, sign)],
        32: [("A1-R01", TextCategory.ID, sign)],
    }
    state, constraints = _run_square(events)
    assert len(constraints) == 1
    c = constraints[0]
    assert c.frame_i == 32 and c.frame_j == 0
    assert c.source is LoopSource.ID_TEXT
    # frames 0 and 32 share a world pose, so the loop transform is the identity
    assert poses_close(c.relative_pose, Pose.identity(), tol=1e-9)
    assert np.allclose(np.diag(c.information), [100.0] * 3 + [400.0] * 3, rtol=1e-12)


def test_travel_gate_blocks_nearby_revisit():
    sign = _yaw_pose(0.0, [2.0, 1.0, 1.0])
    events = {
        0: [("A1-R01", TextCategory.ID, sign)],
        5: [("A1-R01", TextCategory.ID, sign)],
    }
    _, constraints = _run_square(events, laps=1)
    assert constraints == []


def test_id_path_requires_clouds():
    sign = _yaw_pose(1.0, [1.0, 2.0, 1.0])
    events = {
        0: [("A1-R01", TextCategory.ID, sign)],
        32: [("A1-R01", TextCategory.ID, sign)],
    }
    _, constraints = _run_square(events, with_clouds=False)
    assert constraints == []


def test_cooldown_suppresses_adjacent_pairs():
    sign = _yaw_pose(1.0, [1.0, 2.0, 1.0])
    events = {
        0: [("A1-R01", TextCategory.ID, sign)],
        5: [("A1-R01", TextCategory.ID, sign)],
        32: [("A1-R01", TextCategory.ID, sign)],
        33: [("A1-R01", TextCategory.ID, sign)],
    }
    _, constraints = _run_square(events)
    assert len(constraints) == 1
    assert (constraints[0].frame_i, constraints[0].frame_j) == (32, 0)


def _generic_events(contents, category=TextCategory.GENERIC):
    spots = [
        _yaw_pose(0.2, [1.0, 1.0, 1.0]),
        _yaw_pose(-0.4, [3.0, 1.0, 1.0]),
        _yaw_pose(0.9, [5.0, 1.0, 0.5]),
    ]
    batch = [(content, category, spot) for content, spot in zip(contents, spots)]
    return {2: batch, 34: batch}


def test_generic_needs_three_supporting_entities():
    _, constraints = _run_square(_generic_events(["EXIT", "FIRE"]))
    assert constraints == []


def test_generic_revisit_emits_single_constraint():
    _, constraints = _run_square(_generic_events(["EXIT", "FIRE", "PULL"]))
    assert len(constraints) == 1
    c = constraints[0]
    assert c.frame_i == 34 and c.frame_j == 2
    assert c.source is LoopSource.GENERIC_TEXT
    assert poses_close(c.relative_pose, Pose.identity(), tol=1e-9)
    assert np.allclose(np.diag(c.information), [100.0] * 3 + [400.0] * 3, rtol=1e-12)


def test_generic_without_clouds_keeps_inflated_information():
    _, constraints = _run_square(_generic_events(["EXIT", "FIRE", "PULL"]), with_clouds=False)
    assert len(constraints) == 1
    c = constraints[0]
    assert poses_close(c.relative_pose, Pose.identity(), tol=1e-9)
    assert np.allclose(np.diag(c.information), [25.0] * 3 + [100.0] * 3, rtol=1e-12)


def test_generic_icp_gate_rejects_bad_geometry():
    events = _generic_events(["EXIT", "FIRE", "PULL"])
    _, constraints = _run_square(events, corrupt_frames=(2,))
    assert constraints == []


def test_cooldown_matches_brute_force_for_any_insertion_order():
    rng = np.random.default_rng(11)
    for window in (0, 1, 3, 10, 10_000):
        state = DetectorState(DetectorParams(cooldown_frames=window))
        accepted = []
        # pairs arrive out of order, and some frame_i repeat
        for _ in range(60):
            frame_i = int(rng.integers(0, 80))
            frame_j = int(rng.integers(0, 80))
            state.record_accepted(frame_i, frame_j)
            accepted.append((frame_i, frame_j))
            for query_i, query_j in rng.integers(-5, 85, size=(20, 2)):
                expected = any(
                    abs(int(query_i) - i) < window and abs(int(query_j) - j) < window
                    for i, j in accepted
                )
                assert state.in_cooldown(int(query_i), int(query_j)) == expected


def _fail(*args, **kwargs):
    raise AssertionError("a far candidate must not reach association or ICP")


def _shifted(pose, offset):
    return Pose(pose.rotation, pose.translation + np.asarray(offset, dtype=float))


def test_far_id_candidate_skips_icp(monkeypatch):
    monkeypatch.setattr(loop_closure, "icp_verify", _fail)
    monkeypatch.setattr(loop_closure, "verify_candidate", _fail)
    sign = _yaw_pose(1.0, [1.0, 2.0, 1.0])
    # frame 35 stands 3 m along the ring from frame 0 (and frame 32)
    events = {
        0: [("A1-R01", TextCategory.ID, sign)],
        35: [("A1-R01", TextCategory.ID, sign)],
    }
    _, constraints = _run_square(events)
    assert constraints == []


def test_far_generic_candidate_skips_association_and_icp(monkeypatch):
    monkeypatch.setattr(loop_closure, "icp_verify", _fail)
    monkeypatch.setattr(loop_closure, "verify_candidate", _fail)
    monkeypatch.setattr(loop_closure, "build_ltem", _fail)
    events = _generic_events(["EXIT", "FIRE", "PULL"])
    events = {2: events[2], 37: events[34]}
    _, constraints = _run_square(events)
    assert constraints == []


@pytest.mark.parametrize(
    "contents, category",
    [(["A1-R01"], TextCategory.ID), (["EXIT", "FIRE", "PULL"], TextCategory.GENERIC)],
)
def test_candidate_within_icp_slack_reaches_icp(monkeypatch, contents, category):
    params = DetectorParams()
    refined = _yaw_pose(0.0, [1.0, 0.0, 0.0])
    priors = []

    def accepting_icp(target, source, init, icp_params):
        priors.append(float(np.linalg.norm(init.translation)))
        return IcpResult(pose=refined, fitness=1.0, rms=0.0, converged=True, accepted=True)

    monkeypatch.setattr(loop_closure, "icp_verify", accepting_icp)
    # the second sighting lands 1.8 m from the first, so the prior lies between
    # max_offset (1.5 m) and max_offset + icp.max_correspondence (2.0 m)
    events = _generic_events(contents, category)
    shift = [1.8, 0.0, 0.0]
    events[34] = [(content, cat, _shifted(spot, shift)) for content, cat, spot in events[2]]
    _, constraints = _run_square(events, params=params)
    slack = params.icp.max_correspondence
    assert priors and all(params.max_offset < p <= params.max_offset + slack for p in priors)
    assert len(constraints) == 1
    assert (constraints[0].frame_i, constraints[0].frame_j) == (34, 2)
    assert poses_close(constraints[0].relative_pose, refined, tol=1e-12)


def test_cum_path_bit_equal_to_append_sequence():
    rng = np.random.default_rng(8)
    state = DetectorState()
    reference = np.zeros(0)
    position = np.zeros(3)
    for frame in range(1000):
        position = position + rng.normal(scale=0.3, size=3)
        pose = Pose(np.eye(3), position)
        if frame == 0:
            reference = np.zeros(1)
        else:
            step = float(np.linalg.norm(pose.translation - state.poses[-1].translation))
            reference = np.append(reference, reference[-1] + step)
        assert state.add_odometry(0.1 * frame, pose) == frame
        assert isinstance(state.cum_path, np.ndarray)
        assert state.cum_path.tobytes() == reference.tobytes()
    for j, i in rng.integers(0, 1000, size=(200, 2)):
        assert state.travel_between(j, i) == float(reference[i] - reference[j])
