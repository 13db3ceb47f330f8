"""Synthetic indoor worlds for exercising the full loop-closure pipeline.

Worlds are vertical wall rectangles carrying text signs.  A scripted route is
sampled at the LiDAR rate; clouds are deterministic grids on the walls so that
revisits observe literally the same world points, and camera detections are
projected sign quads with optional misreads and jitter.  Everything is a pure
function of (world, route, noise, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .entities import CalibratedRig, TextCategory, TextDetection
from .geometry import (
    OutOfRangeFactor,
    Pose,
    _norm_stacked,
    compose_stacked,
    exp_map_stacked,
    inverse_stacked,
    log_map_stacked,
    relative_stacked,
    stack_poses,
)

SPEED = 2.0
SENSOR_HEIGHT = 1.2
TEXT_WIDTH = 0.4
TEXT_HEIGHT = 0.15
CORRIDOR_WIDTH = 2.5
WALL_HEIGHT = 3.0
BACKGROUND_SPACING = 0.3
PATCH_SPACING = 0.045
PATCH_MARGIN = 0.08
LIDAR_RANGE = 9.0
SLAB_WINDOW = 2.5
CAMERA_OFFSET = 0.05
FLOOR_SPACING = 4.0
# a detection needs every quad corner this far in front of the camera
MIN_CORNER_DEPTH = 0.2

# images per stacked detection-gate call: smaller chunks pay more call
# overhead; all images at once fragments the heap around the kept clouds,
# which raises peak RSS
GATE_CHUNK = 32

SCENARIOS = ("corridor", "semi_outdoor", "multifloor")

# single-substitution OCR confusions; letters swap with digits only, so a
# misread room code can never turn into a different valid room code
CONFUSABLE = {
    "O": "0", "0": "O",
    "I": "1", "1": "I",
    "Z": "2", "2": "Z",
    "E": "3", "3": "E",
    "A": "4", "4": "A",
    "S": "5", "5": "S",
    "G": "6", "6": "G",
    "T": "7", "7": "T",
    "B": "8", "8": "B",
    "Q": "9", "9": "Q",
}

GENERIC_POOL = ("EXIT", "STOP", "FIRE", "PUSH", "PULL", "HOSE")


class SimulationError(ValueError):
    pass


class WaypointOutsideWorld(SimulationError):
    pass


@dataclass(frozen=True)
class Wall:
    """Vertical rectangle from start to end (xy) spanning [z_min, z_max]."""

    start: np.ndarray
    end: np.ndarray
    z_min: float
    z_max: float

    def __post_init__(self):
        start = np.array(self.start, dtype=float).reshape(2)
        end = np.array(self.end, dtype=float).reshape(2)
        start.flags.writeable = False
        end.flags.writeable = False
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        if self.length < 1e-9:
            raise ValueError("wall has zero length")
        if self.z_max <= self.z_min:
            raise ValueError("wall z_max must exceed z_min")

    # cached: the simulator reads these tens of thousands of times per run
    @cached_property
    def length(self) -> float:
        return float(np.linalg.norm(self.end - self.start))

    @cached_property
    def direction(self) -> np.ndarray:
        direction = (self.end - self.start) / self.length
        direction.flags.writeable = False
        return direction

    @cached_property
    def normal(self) -> np.ndarray:
        d = self.direction
        normal = np.array([-d[1], d[0]])
        normal.flags.writeable = False
        return normal

    def normal3(self) -> np.ndarray:
        n = self.normal
        return np.array([n[0], n[1], 0.0])

    def point(self, offset: float, z: float) -> np.ndarray:
        xy = self.start + offset * self.direction
        return np.array([xy[0], xy[1], z])


@dataclass(frozen=True)
class Placement:
    """A text sign mounted on a wall, centered at (offset, height)."""

    content: str
    category: TextCategory
    wall_index: int
    offset: float
    height: float
    width: float = TEXT_WIDTH
    text_height: float = TEXT_HEIGHT


@dataclass(frozen=True)
class NoiseModel:
    odom_sigma: np.ndarray = field(default_factory=lambda: np.zeros(6))
    detect_prob: float = 1.0
    max_range: float = 8.0
    max_incidence: float = 1.3
    misread_prob: float = 0.0
    bbox_jitter: float = 0.0
    cloud_sigma: float = 0.0

    def __post_init__(self):
        sigma = np.array(self.odom_sigma, dtype=float).reshape(6)
        sigma.flags.writeable = False
        object.__setattr__(self, "odom_sigma", sigma)
        # `not` also rejects NaN: a NaN sigma makes its noise NaN, and a NaN
        # bound turns its detection gate off
        if not (np.all(sigma >= 0) and self.bbox_jitter >= 0 and self.cloud_sigma >= 0):
            raise ValueError("noise sigmas must be non-negative")
        for name in ("max_range", "max_incidence"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        for name in ("detect_prob", "misread_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")


@dataclass(frozen=True)
class World:
    walls: tuple[Wall, ...]
    placements: tuple[Placement, ...]
    floors: int = 1
    floor_spacing: float = 0.0

    def __post_init__(self):
        for p in self.placements:
            wall = self.walls[p.wall_index]
            if p.offset - p.width / 2 < 0 or p.offset + p.width / 2 > wall.length:
                raise ValueError(f"placement {p.content!r} overflows its wall horizontally")
            if p.height - p.text_height / 2 < wall.z_min or p.height + p.text_height / 2 > wall.z_max:
                raise ValueError(f"placement {p.content!r} overflows its wall vertically")

    def placement_corners(self, p: Placement) -> np.ndarray:
        """World quad corners TL, TR, BR, BL as read from the wall's front side."""
        wall = self.walls[p.wall_index]
        left = p.offset - p.width / 2
        right = p.offset + p.width / 2
        top = p.height + p.text_height / 2
        bottom = p.height - p.text_height / 2
        return np.stack(
            [
                wall.point(left, top),
                wall.point(right, top),
                wall.point(right, bottom),
                wall.point(left, bottom),
            ]
        )

    def placement_center(self, p: Placement) -> np.ndarray:
        return self.walls[p.wall_index].point(p.offset, p.height)

    def bounds(self, margin: float = 6.0):
        xy = np.concatenate([[w.start, w.end] for w in self.walls])
        lo = xy.min(axis=0) - margin
        hi = xy.max(axis=0) + margin
        z_hi = max(w.z_max for w in self.walls) + 2.0
        return lo, hi, -1.0, z_hi


def wall_point_grid(world: World) -> tuple[np.ndarray, np.ndarray]:
    """All LiDAR-visible surface points with their outward normals.

    Coarse grid over every wall plus a dense patch around each sign so plane
    fits inside a text quad always have support.  World-anchored and free of
    randomness: a revisit sees exactly the same points.
    """
    points = []
    normals = []
    for index, wall in enumerate(world.walls):
        s = np.arange(BACKGROUND_SPACING / 2, wall.length, BACKGROUND_SPACING)
        z = np.arange(wall.z_min + BACKGROUND_SPACING / 2, wall.z_max, BACKGROUND_SPACING)
        grids = [(s, z)]
        for p in world.placements:
            if p.wall_index != index:
                continue
            s0 = max(0.0, p.offset - p.width / 2 - PATCH_MARGIN)
            s1 = min(wall.length, p.offset + p.width / 2 + PATCH_MARGIN)
            z0 = max(wall.z_min, p.height - p.text_height / 2 - PATCH_MARGIN)
            z1 = min(wall.z_max, p.height + p.text_height / 2 + PATCH_MARGIN)
            grids.append(
                (np.arange(s0, s1 + 1e-9, PATCH_SPACING), np.arange(z0, z1 + 1e-9, PATCH_SPACING))
            )
        start3 = np.array([wall.start[0], wall.start[1], 0.0])
        d3 = np.array([wall.direction[0], wall.direction[1], 0.0])
        for s_vals, z_vals in grids:
            ss, zz = np.meshgrid(s_vals, z_vals, indexing="ij")
            pts = start3 + ss.reshape(-1, 1) * d3
            pts[:, 2] = zz.reshape(-1)
            points.append(pts)
            normals.append(np.tile(wall.normal3(), (len(pts), 1)))
    return np.concatenate(points), np.concatenate(normals)


def _rect_walls(xmin, ymin, xmax, ymax, z0, z1, inward=True):
    """Four walls of a rectangle; counterclockwise order puts normals inside."""
    corners = [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]
    if not inward:
        corners = corners[::-1]
    return [
        Wall(np.array(corners[k]), np.array(corners[(k + 1) % 4]), z0, z1) for k in range(4)
    ]


def _u_walls(xmin, ymin, xmax, ymax, z0, z1):
    """Three walls (bottom, right, top) with normals facing the interior."""
    return [
        Wall(np.array([xmin, ymin]), np.array([xmax, ymin]), z0, z1),
        Wall(np.array([xmax, ymin]), np.array([xmax, ymax]), z0, z1),
        Wall(np.array([xmax, ymax]), np.array([xmin, ymax]), z0, z1),
    ]


def _locate_on_chain(walls, chain, s):
    lengths = [walls[i].length for i in chain]
    s = s % sum(lengths)
    for index, length in zip(chain, lengths):
        if s <= length:
            return index, s
        s -= length
    return chain[-1], lengths[-1]


def _clip_offset(walls, wall_index, offset, width):
    length = walls[wall_index].length
    return float(np.clip(offset, width / 2 + 0.2, length - width / 2 - 0.2))


def _place_signs(walls, chain, positions, contents, category, heights, wall_offset=0):
    placements = []
    for s, content, height in zip(positions, contents, heights):
        wall_index, offset = _locate_on_chain(walls, chain, s)
        offset = _clip_offset(walls, wall_index, offset, TEXT_WIDTH)
        placements.append(
            Placement(
                content=content,
                category=category,
                wall_index=wall_index + wall_offset,
                offset=offset,
                height=float(height),
            )
        )
    return placements


def _ring_floor(
    rng, outer, inner, z0, id_prefix, id_count, generic_contents, generic_gap, wall_offset=0
):
    """One rectangular ring corridor floor: walls plus ID and generic signs.

    Sign wall indices count from wall_offset, where the floor's walls start.
    """
    walls = _rect_walls(*outer, z0, z0 + WALL_HEIGHT, inward=True)
    walls += _rect_walls(*inner, z0, z0 + WALL_HEIGHT, inward=False)
    outer_chain = [0, 1, 2, 3]
    inner_chain = [4, 5, 6, 7]
    outer_perimeter = sum(walls[i].length for i in outer_chain)
    id_spacing = outer_perimeter / id_count
    id_positions = [
        2.0 + k * id_spacing + rng.uniform(-0.6, 0.6) for k in range(id_count)
    ]
    id_heights = z0 + 1.4 + rng.uniform(-0.1, 0.1, size=id_count)
    ids = _place_signs(
        walls,
        outer_chain,
        id_positions,
        [f"{id_prefix}-R{k + 1:02d}" for k in range(id_count)],
        TextCategory.ID,
        id_heights,
        wall_offset,
    )
    generic_positions = [4.0 + k * generic_gap + rng.uniform(-0.5, 0.5) for k in range(len(generic_contents))]
    generic_heights = z0 + 1.4 + rng.uniform(-0.1, 0.1, size=len(generic_contents))
    generics = _place_signs(
        walls,
        inner_chain,
        generic_positions,
        generic_contents,
        TextCategory.GENERIC,
        generic_heights,
        wall_offset,
    )
    return walls, ids + generics


def build_world(scenario: str, seed: int = 0) -> World:
    """Deterministic world for a named scenario; seed jitters sign layout."""
    if scenario not in SCENARIOS:
        raise SimulationError(f"unknown scenario {scenario!r}")
    rng = np.random.default_rng([seed, SCENARIOS.index(scenario)])
    if scenario == "corridor":
        walls, placements = _ring_floor(
            rng,
            outer=(0.0, 0.0, 30.0, 14.0),
            inner=(2.5, 2.5, 27.5, 11.5),
            z0=0.0,
            id_prefix="A1",
            id_count=12,
            generic_contents=list(rng.permutation(GENERIC_POOL))[:4],
            generic_gap=17.0,
        )
        return World(walls=tuple(walls), placements=tuple(placements))
    if scenario == "semi_outdoor":
        walls = _u_walls(0.0, 0.0, 40.0, 20.0, 0.0, WALL_HEIGHT + 1.0)
        kiosk = _rect_walls(15.0, 8.0, 25.0, 12.0, 0.0, WALL_HEIGHT, inward=False)
        walls = walls + kiosk
        ids = _place_signs(
            walls,
            [0, 1, 2],
            [5.0 + 15.0 * k + rng.uniform(-0.8, 0.8) for k in range(6)],
            [f"B1-R{k + 1:02d}" for k in range(6)],
            TextCategory.ID,
            1.4 + rng.uniform(-0.1, 0.1, size=6),
        )
        generic_contents = list(rng.permutation(GENERIC_POOL))[:3]
        generics = _place_signs(
            walls,
            [3, 4, 5, 6],
            [2.0 + 9.0 * k + rng.uniform(-0.5, 0.5) for k in range(3)],
            generic_contents,
            TextCategory.GENERIC,
            1.4 + rng.uniform(-0.1, 0.1, size=3),
        )
        return World(walls=tuple(walls), placements=tuple(ids + generics))
    # multifloor: identical geometry and generic signage per floor; only the
    # room-code prefix distinguishes floors
    generic_contents = list(rng.permutation(GENERIC_POOL))[:3]
    floor_rng_state = rng.bit_generator.state
    walls, placements = [], []
    for floor in range(2):
        rng.bit_generator.state = floor_rng_state
        floor_walls, floor_placements = _ring_floor(
            rng,
            outer=(0.0, 0.0, 22.0, 12.0),
            inner=(2.5, 2.5, 19.5, 9.5),
            z0=floor * FLOOR_SPACING,
            id_prefix=f"F{floor + 1}",
            id_count=10,
            generic_contents=generic_contents,
            generic_gap=16.0,
            wall_offset=len(walls),
        )
        walls += floor_walls
        placements += floor_placements
    return World(
        walls=tuple(walls),
        placements=tuple(placements),
        floors=2,
        floor_spacing=FLOOR_SPACING,
    )


def default_route(scenario: str, laps: int = 2) -> np.ndarray:
    """Waypoints matching build_world's layouts, at sensor height."""
    if scenario == "corridor":
        ring = [(1.25, 1.25), (28.75, 1.25), (28.75, 12.75), (1.25, 12.75)]
        z = SENSOR_HEIGHT
        points = [(x, y, z) for _ in range(laps) for x, y in ring]
        points.append((ring[0][0], ring[0][1], z))
        return np.array(points)
    if scenario == "semi_outdoor":
        ring = [(10.0, 4.0), (30.0, 4.0), (30.0, 16.0), (10.0, 16.0)]
        z = SENSOR_HEIGHT
        points = [(x, y, z) for _ in range(laps) for x, y in ring]
        points.append((ring[0][0], ring[0][1], z))
        return np.array(points)
    if scenario == "multifloor":
        ring = [(1.25, 1.25), (20.75, 1.25), (20.75, 10.75), (1.25, 10.75)]
        z1 = SENSOR_HEIGHT
        z2 = SENSOR_HEIGHT + FLOOR_SPACING
        lap1 = [(x, y, z1) for x, y in ring]
        lap2 = [(x, y, z2) for x, y in ring]
        points = lap1 + [(1.25, 1.25, z1)]
        points += [(-3.0, 1.25, z1), (-3.0, 6.0, z2)]  # ramp up
        points += [(1.25, 1.25, z2)] + lap2[1:] + [(1.25, 1.25, z2)] + lap2[1:]
        points += [(1.25, 1.25, z2)]
        points += [(-3.0, 6.0, z2), (-3.0, 1.25, z1)]  # ramp down
        points += [(1.25, 1.25, z1)] + lap1[1:] + [(1.25, 1.25, z1)]
        return np.array(points)
    raise SimulationError(f"unknown scenario {scenario!r}")


def route_poses(route: np.ndarray, speed: float = SPEED, rate: float = 10.0):
    """Sample the waypoint polyline at the sensor rate.

    Returns (stamps, poses); the heading is the yaw of the active segment and
    carries over through purely vertical motion.
    """
    route = np.asarray(route, dtype=float).reshape(-1, 3)
    if len(route) < 2:
        raise ValueError("route needs at least two waypoints")
    if rate <= 0:
        raise ValueError("rate must be positive")
    deltas = np.diff(route, axis=0)
    seg_len = np.linalg.norm(deltas, axis=1)
    if np.any(seg_len < 1e-9):
        raise ValueError("route contains a zero-length segment")
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    step = speed / rate
    count = int(cum[-1] / step) + 1
    stamps = np.arange(count) / rate
    poses = []
    yaw = 0.0
    for k in range(count):
        s = min(k * step, cum[-1])
        seg = min(int(np.searchsorted(cum, s, side="right")) - 1, len(seg_len) - 1)
        frac = (s - cum[seg]) / seg_len[seg]
        position = route[seg] + frac * deltas[seg]
        horizontal = np.hypot(deltas[seg][0], deltas[seg][1])
        if horizontal > 1e-9:
            yaw = float(np.arctan2(deltas[seg][1], deltas[seg][0]))
        c, si = np.cos(yaw), np.sin(yaw)
        rotation = np.array([[c, -si, 0.0], [si, c, 0.0], [0.0, 0.0, 1.0]])
        poses.append(Pose(rotation, position))
    return stamps, poses


@dataclass
class SimulationResult:
    stamps: np.ndarray
    gt_poses: list
    odom_poses: list
    clouds: list
    camera: list
    rig: CalibratedRig
    world: World


def _misread(content: str, rng) -> str:
    slots = [k for k, ch in enumerate(content) if ch in CONFUSABLE]
    if not slots:
        return content
    k = slots[int(rng.integers(len(slots)))]
    return content[:k] + CONFUSABLE[content[k]] + content[k + 1 :]


def _camera_poses(stamps, poses, steps, camera_in_lidar):
    """Image stamps CAMERA_OFFSET after each frame but the last, and the camera poses there.

    poses are the LiDAR frames and steps each frame's motion to the next,
    both stacked; so are the camera poses returned.  The LiDAR pose at an
    image stamp interpolates its frame's step along the geodesic.  A stamp
    outside its frame interval raises OutOfRangeFactor before any pose is
    made.
    """
    t_images = stamps[:-1] + CAMERA_OFFSET
    factors = (t_images - stamps[:-1]) / (stamps[1:] - stamps[:-1])
    outside = ~((0.0 <= factors) & (factors <= 1.0))
    if outside.any():
        raise OutOfRangeFactor(f"interpolation factor {factors[outside][0]} outside [0, 1]")
    motions = exp_map_stacked(factors[:, None] * log_map_stacked(*steps))
    rotations, translations = poses
    lidar = compose_stacked(rotations[:-1], translations[:-1], *motions)
    camera = compose_stacked(*lidar, camera_in_lidar.rotation, camera_in_lidar.translation)
    return t_images.tolist(), camera


def _sightings(rotations, translations, centers, normals, corners, intrinsics, noise):
    """(distance, cos_incidence, quads, seen) of each (image, placement) pair.

    Camera poses come stacked, placements as (P, 3) centers and normals and
    (P, 4, 3) corners.  seen is True where the pair passes the range,
    incidence, slab, corner-depth and image-border gates.  Each value has
    the bits of the one-pair arithmetic: distance and normal . to_cam are
    the 1-D dot products of np.linalg.norm and @, taken through matmul; the
    corners go through Pose.inverse().apply's products, with its layouts;
    and pixels are elementwise.  The gates compare as the one-pair model
    did, so a NaN, which compares False, passes them, and a NaN pixel
    passes the border through min and max.
    """
    to_cam = translations[:, None, :] - centers
    distance = _norm_stacked(to_cam)
    rot_inv, trans_inv = inverse_stacked(rotations, translations)
    cam = corners @ np.swapaxes(rot_inv, -1, -2)[:, None] + trans_inv[:, None, None, :]
    depth = cam[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_incidence = (normals[:, None, :] @ to_cam[..., None])[..., 0, 0] / distance
        incidence = np.arccos(np.minimum(cos_incidence, 1.0))
        quads = np.stack(
            [
                intrinsics.fx * cam[..., 0] / depth + intrinsics.cx,
                intrinsics.fy * cam[..., 1] / depth + intrinsics.cy,
            ],
            axis=-1,
        )
    lo, hi = quads.min(axis=-2), quads.max(axis=-2)
    out = (
        (distance > noise.max_range)
        | (distance < 1e-6)
        | (cos_incidence <= 0.0)
        | (incidence > noise.max_incidence)
        | (np.abs(centers[:, 2] - translations[:, None, 2]) > SLAB_WINDOW)
        | (depth < MIN_CORNER_DEPTH).any(axis=-1)
        | (lo < 0.0).any(axis=-1)
        | (hi[..., 0] > 2.0 * intrinsics.cx)
        | (hi[..., 1] > 2.0 * intrinsics.cy)
    )
    return distance, cos_incidence, quads, ~out


def _detections(world, t_images, cam_poses, intrinsics, noise, rng):
    """(t_image, detections) per image, from stacked camera poses.

    The geometric gates run stacked, GATE_CHUNK images at a time (see
    _sightings); only the draws go pair by pair, in image order, then
    placement order, and only for pairs that passed every gate: detect,
    misread, jitter.
    """
    placements = world.placements
    centers = np.array([world.placement_center(p) for p in placements]).reshape(-1, 3)
    normals = np.array([world.walls[p.wall_index].normal3() for p in placements]).reshape(-1, 3)
    corners = np.array([world.placement_corners(p) for p in placements]).reshape(-1, 4, 3)
    rotations, translations = cam_poses
    camera = []
    for start in range(0, len(t_images), GATE_CHUNK):
        chunk = slice(start, start + GATE_CHUNK)
        distance, cos_incidence, quads, seen = _sightings(
            rotations[chunk], translations[chunk], centers, normals, corners, intrinsics, noise
        )
        for row, t_image in enumerate(t_images[chunk]):
            detections = []
            for index in np.flatnonzero(seen[row]):
                d, cos = float(distance[row, index]), float(cos_incidence[row, index])
                p = noise.detect_prob * max(0.0, 1.0 - d / noise.max_range) * cos
                if rng.random() >= p:
                    continue
                content = placements[index].content
                if noise.misread_prob > 0.0 and rng.random() < noise.misread_prob:
                    content = _misread(content, rng)
                quad = quads[row, index].copy()
                if noise.bbox_jitter > 0.0:
                    quad = quad + noise.bbox_jitter * rng.standard_normal((4, 2))
                confidence = 1.0 - 0.15 * min(1.0, d / noise.max_range)
                detections.append(
                    TextDetection(
                        content=content, confidence=confidence, quad=quad, timestamp=t_image
                    )
                )
            camera.append((t_image, detections))
    return camera


def _lidar_mask(x, y, z, nx, ny, position):
    rx, ry, rz = x - position[0], y - position[1], z - position[2]
    dist = np.sqrt((rx * rx + ry * ry) + rz * rz)
    facing = nx * rx + ny * ry < 0.0
    return (dist <= LIDAR_RANGE) & facing & (np.abs(rz) <= SLAB_WINDOW)


def _clouds(world, gt, noise, rng):
    """Per pose, the wall grid points within LIDAR_RANGE that face it inside its slab, in its frame.

    The masks work on contiguous x/y/z columns of the grid, with the bits
    of the (N, 3) arithmetic: the distance sums its squares left to right,
    as norm(axis=1) does; and the grid normals are horizontal, so
    normals . -rel is -(nx rx + ny ry) plus an exact zero, whatever order
    einsum would sum it in.  _lidar_mask frees its temporaries before the
    cloud is made, so no freed block sits below a kept cloud in the heap,
    which keeps peak RSS at the level of the (N, 3) loop.
    """
    points, normals = wall_point_grid(world)
    x, y, z = (np.ascontiguousarray(points[:, k]) for k in range(3))
    nx, ny = (np.ascontiguousarray(normals[:, k]) for k in range(2))
    clouds = []
    for pose in gt:
        mask = _lidar_mask(x, y, z, nx, ny, pose.translation)
        local = pose.inverse().apply(points[mask]) if mask.any() else np.empty((0, 3))
        if noise.cloud_sigma > 0.0 and len(local):
            local = local + noise.cloud_sigma * rng.standard_normal(local.shape)
        clouds.append(local)
    return clouds


def simulate(
    world: World,
    route: np.ndarray,
    rig: CalibratedRig,
    noise: NoiseModel = NoiseModel(),
    rate: float = 10.0,
    seed: int = 0,
) -> SimulationResult:
    """Generate ground truth, drifting odometry, wall clouds, and detections.

    The sensor loops are stacked, with the bits of running them one pose
    and one (image, placement) pair at a time (tests/one_row_sim.py):
      - each LiDAR mask keeps the rounding of the (N, 3) arithmetic, see
        _clouds;
      - _detections is the one detection model.  It computes every pair's
        geometric gates stacked, with the one-pair arithmetic and
        comparisons, so no pair is kept or dropped by rounding.  It draws
        from rng_detect only for the pairs that pass every gate, in image
        order, then placement order, as the one-pair loop did.
    """
    lo, hi, z_lo, z_hi = world.bounds()
    for waypoint in np.asarray(route, dtype=float).reshape(-1, 3):
        if not (
            lo[0] <= waypoint[0] <= hi[0]
            and lo[1] <= waypoint[1] <= hi[1]
            and z_lo <= waypoint[2] <= z_hi
        ):
            raise WaypointOutsideWorld(f"waypoint {waypoint.tolist()} outside world bounds")
    stamps, gt = route_poses(route, rate=rate)
    rng_odom = np.random.default_rng([seed, 11])
    rng_cloud = np.random.default_rng([seed, 13])
    rng_detect = np.random.default_rng([seed, 17])

    poses = stack_poses(gt)
    k = np.arange(len(gt) - 1)
    steps = relative_stacked(*poses, k, k + 1)
    t_images, cam_poses = _camera_poses(stamps, poses, steps, rig.camera_in_lidar)
    if np.any(noise.odom_sigma > 0.0):
        twists = rng_odom.standard_normal((len(gt) - 1, 6)) * noise.odom_sigma
        odom = [gt[0]]
        for step_r, step_t, r, t in zip(*steps, *exp_map_stacked(twists)):
            odom.append(odom[-1] @ Pose(step_r, step_t) @ Pose(r, t))
    else:
        odom = list(gt)

    clouds = _clouds(world, gt, noise, rng_cloud)
    camera = _detections(world, t_images, cam_poses, rig.intrinsics, noise, rng_detect)
    return SimulationResult(
        stamps=stamps,
        gt_poses=gt,
        odom_poses=odom,
        clouds=clouds,
        camera=camera,
        rig=rig,
        world=world,
    )
