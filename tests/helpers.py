"""Shared test helpers: independent oracles and instance generators."""

from __future__ import annotations

import hashlib
import itertools
import json
import platform
from pathlib import Path

import numpy as np
import scipy

import one_row_lie
from textloop.association import (
    Association,
    ConsistencyGraph,
    Ltem,
    LtemEntity,
    build_consistency_graph,
    putative_associations,
)
from textloop.cli import main, optimize_trajectory, run_detector
from textloop.config import load_config
from textloop.entities import CalibratedRig
from textloop.evaluation import LoopGroundTruth
from textloop.geometry import Pose, stack_poses
from textloop.pose_graph import PoseGraph
from textloop.simulator import NoiseModel, Placement, World, build_world, default_route, simulate

GOLDEN_PATH = Path(__file__).with_name("golden.json")
PIPELINE_ARTIFACTS = ("log.jsonl", "gt.jsonl", "loops.jsonl", "traj.jsonl", "report.json")

ACCEPT_NOISE = NoiseModel(
    odom_sigma=np.array([0.005] * 3 + [0.0] * 3),
    misread_prob=0.05,
    detect_prob=0.8,
)


def default_rig() -> CalibratedRig:
    """The rig of the default config, as the CLI builds it."""
    return load_config(None, environ={}).rig()


def random_pose(rng: np.random.Generator, max_angle: float = 3.0, max_radius: float = 10.0) -> Pose:
    """Pose with a uniformly random axis, angle up to max_angle and translation box."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, max_angle)
    return Pose(one_row_lie.so3_exp(angle * axis), rng.uniform(-max_radius, max_radius, size=3))


def add_edge(graph: PoseGraph, i: int, j: int, measured: Pose, information) -> None:
    """One edge, as a one-row stack through PoseGraph.add_edges."""
    graph.add_edges([i], [j], stack_poses([measured]), information)


def poses_close(a: Pose, b: Pose, tol: float) -> bool:
    """Rotations and translations each np.allclose with absolute tolerance tol."""
    return bool(
        np.allclose(a.rotation, b.rotation, atol=tol)
        and np.allclose(a.translation, b.translation, atol=tol)
    )


def placement_entity_pose(world: World, p: Placement) -> Pose:
    """Reference text pose of a sign: left-edge midpoint, x along the wall, z facing out."""
    wall = world.walls[p.wall_index]
    origin = wall.point(p.offset - p.width / 2, p.height)
    d = wall.direction
    x_axis = np.array([d[0], d[1], 0.0])
    normal = wall.normal3()
    rotation = np.column_stack([x_axis, np.cross(normal, x_axis), normal])
    return Pose(rotation, origin)


def loop_pose_indices(gtl: LoopGroundTruth) -> list[int]:
    """Poses with at least one ground-truth revisit partner."""
    return [k for k, n_k in enumerate(gtl.partners) if n_k]


def set_density(graph: ConsistencyGraph, subset) -> float:
    """u^T A u for the normalized indicator of the subset; 0 for the empty set."""
    subset = list(subset)
    if not subset:
        return 0.0
    sub = graph.affinity[np.ix_(subset, subset)]
    return float(sub.sum() / len(subset))


def brute_force_densest_subset(graph: ConsistencyGraph) -> list[int]:
    """Reference solver: try every exclusion-feasible subset.

    Keeps the spirit of an oracle by using a completely separate code path:
    itertools over explicit index tuples, density via the normalized indicator
    vector, same deterministic tie-break (density, then size, then lexicographic).
    """
    n = len(graph)
    best: list[int] = []
    best_density = 0.0
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            if any(graph.exclusion[i, j] for i, j in itertools.combinations(subset, 2)):
                continue
            u = np.zeros(n)
            u[list(subset)] = 1.0 / np.sqrt(size)
            density = float(u @ graph.affinity @ u)
            if density > best_density + 1e-12:
                best, best_density = list(subset), density
            elif abs(density - best_density) <= 1e-12 and best:
                if size > len(best) or (size == len(best) and list(subset) < sorted(best)):
                    best, best_density = list(subset), density
    return sorted(best)


def _random_ltem(rng: np.random.Generator, center: int, contents: list[str]) -> Ltem:
    entities = []
    for content in contents:
        entities.append(
            LtemEntity(
                content=content,
                position=rng.uniform(-8.0, 8.0, size=3),
                members=((center, (0.0, 0.0, 0.0)),),
            )
        )
    return Ltem(center_frame=center, window=(center, center), entities=tuple(entities))


def random_consistency_instance(
    rng: np.random.Generator, max_associations: int = 12
) -> ConsistencyGraph:
    """A consistency graph built from two random entity windows.

    Contents repeat so the putative set includes exclusion structure; entity
    positions are drawn independently per side so affinities span [0, 1].
    """
    vocabulary = ["EXIT", "STOP", "FIRE", "A1-R01", "A1-R02", "B2-R03"]
    while True:
        k_c = int(rng.integers(2, 5))
        k_p = int(rng.integers(2, 5))
        contents_c = [vocabulary[int(rng.integers(0, len(vocabulary)))] for _ in range(k_c)]
        contents_p = [vocabulary[int(rng.integers(0, len(vocabulary)))] for _ in range(k_p)]
        map_c = _random_ltem(rng, 0, contents_c)
        map_p = _random_ltem(rng, 100, contents_p)
        associations = putative_associations(map_c, map_p)
        if 1 <= len(associations) <= max_associations:
            epsilon = float(rng.uniform(0.5, 4.0))
            return build_consistency_graph(associations, map_c, map_p, epsilon)


def straight_line_poses(n: int, spacing: float = 1.0):
    return [Pose(np.eye(3), [i * spacing, 0.0, 0.0]) for i in range(n)]


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def simulate_and_detect(out_dir, scenario: str, seed: int) -> None:
    """The CLI's simulate then detect, writing log/gt/loops into out_dir."""
    d = str(out_dir)
    assert main(["simulate", "--scenario", scenario, "--seed", str(seed), "--out", d]) == 0
    assert main(["detect", "--log", f"{d}/log.jsonl", "--out", f"{d}/loops.jsonl"]) == 0


def cli_pipeline(out_dir) -> dict[str, str]:
    """The README pipeline on corridor seed 5; sha256 of each artifact."""
    d = str(out_dir)
    simulate_and_detect(d, "corridor", 5)
    assert (
        main(
            ["optimize", "--log", f"{d}/log.jsonl", "--loops", f"{d}/loops.jsonl",
             "--out", f"{d}/traj.jsonl"]
        )
        == 0
    )
    assert (
        main(
            ["evaluate", "--traj", f"{d}/traj.jsonl", "--gt", f"{d}/gt.jsonl",
             "--loops", f"{d}/loops.jsonl", "--out", f"{d}/report.json"]
        )
        == 0
    )
    return {name: sha256_of(f"{d}/{name}") for name in PIPELINE_ARTIFACTS}


def library_versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def assert_golden(group: str, digests: dict[str, str]) -> None:
    """Compare digests with tests/golden.json; a mismatch names the artifact and versions."""
    golden = json.loads(GOLDEN_PATH.read_text())
    expected = golden[group]
    moved = [name for name in expected if digests.get(name) != expected[name]]
    assert sorted(digests) == sorted(expected) and not moved, (
        f"{group}: {', '.join(moved) or 'artifact set'} differ from tests/golden.json, "
        f"made with {golden['versions']}; this run uses {library_versions()}"
    )


def simulate_detect_optimize_multifloor():
    """Twenty seeded multifloor runs: simulate, detect, optimize.

    Returns (result, constraints, nodes, report) for seeds 0-19, in seed order.
    """
    config = load_config(None, environ={})
    rig = default_rig()
    route = default_route("multifloor")
    runs = []
    for seed in range(20):
        world = build_world("multifloor", seed=seed)
        result = simulate(world, route, rig, noise=ACCEPT_NOISE, seed=seed)
        constraints = run_detector(result, config).constraints
        nodes, report = optimize_trajectory(result.odom_poses, constraints, config)
        runs.append((result, constraints, nodes, report))
    return runs


def run_digests(runs) -> dict[str, str]:
    """sha256 per run of its constraint lines and of its optimized poses.

    The constraint lines are the bytes the CLI's detect writes to loops.jsonl;
    the poses digest hashes every node's rotation and translation as float64,
    so a single changed bit shows.
    """
    digests = {}
    for seed, (_, constraints, nodes, _) in enumerate(runs):
        lines = "".join(json.dumps(c.to_json(), separators=(",", ":")) + "\n" for c in constraints)
        poses = hashlib.sha256()
        for pose in nodes:
            poses.update(pose.rotation.tobytes())
            poses.update(pose.translation.tobytes())
        digests[f"seed{seed}/loops"] = hashlib.sha256(lines.encode("utf-8")).hexdigest()
        digests[f"seed{seed}/poses"] = poses.hexdigest()
    return digests
