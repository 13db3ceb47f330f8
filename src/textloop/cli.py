"""Command line front end: simulate | detect | optimize | evaluate.

Every command is deterministic for a fixed config and seed, and every error
path exits with status 2 after printing a single ``error: ...`` line to
stderr, so shells and harnesses can grep for failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .config import ConfigError, PipelineConfig, load_config
from .entities import ExtractionError, extract_entities
from .evaluation import LengthMismatch, PathLengthOverflow, label_loop_poses, make_report
from .geometry import GeometryError, OutOfRangeFactor, stack_poses
from .logio import (
    LogFormatError,
    json_finite,
    json_int,
    odom_record,
    parse_calib,
    parse_cloud,
    parse_detections,
    parse_field,
    parse_loop,
    parse_pose,
    read_log,
    read_trajectory,
    simulation_to_records,
    text_lines,
    write_log,
)
from .loop_closure import DetectorState, LoopConstraint, process_frame
from .pose_graph import PoseGraph, SingularNormalEquations
from .simulator import (
    SCENARIOS,
    SimulationError,
    build_world,
    default_route,
    simulate,
)

# a sensor-frame point coordinate, in metres, far beyond any LiDAR's range;
# detect rejects a cloud with a larger one (1e300 would overflow ICP's sums)
MAX_POINT_COORDINATE = 1e5


@dataclass
class StageTimings:
    extraction_s: float = 0.0
    closure_s: float = 0.0
    frames: int = 0
    images: int = 0

    def per_frame_ms(self) -> float:
        if self.frames == 0:
            return 0.0
        return 1000.0 * (self.extraction_s + self.closure_s) / self.frames


@dataclass
class DetectorRun:
    """Streaming detect stage: feed records in log order, collect constraints.

    Text events are buffered until odometry brackets their timestamp; events
    still unbracketed when the stream ends are dropped.

    A cloud is kept only while a later step can read it.  Extraction reads the
    frames stamped in [t_image - window, anchor], and ICP only frames that
    anchor an observation.  Once odometry frame k has arrived, every image
    still to come has t_image >= stamps[k - 1], so a frame stamped before the
    horizon stamps[k - 1] - window that anchors nothing is dropped.  Odometry
    stamps must not decrease, and an image with t_image - window below the
    horizon is an error: its window has been released.  A cloud must be of
    the latest odometry frame.
    """

    rig: object
    extraction: object
    state: DetectorState
    constraints: list = field(default_factory=list)
    timings: StageTimings = field(default_factory=StageTimings)

    def __post_init__(self):
        self._raw_clouds: dict[int, np.ndarray] = {}
        self._pending: list[tuple[float, list]] = []
        # the frames below _released are stamped before _horizon
        self._horizon = -math.inf
        self._released = 0

    def on_odom(self, stamp: float, frame: int, pose) -> None:
        stamps = self.state.stamps
        if stamps and stamp < stamps[-1]:
            raise ValueError(f"odom t = {stamp} precedes the previous frame's t = {stamps[-1]}")
        assigned = self.state.add_odometry(stamp, pose)
        if assigned != frame:
            raise ValueError(f"odom frame {frame} arrived out of order (expected {assigned})")
        self.timings.frames += 1
        self._drain()
        if len(stamps) > 1:
            self._release(stamps[-2] - self.extraction.window)

    def on_cloud(self, frame: int, points: np.ndarray) -> None:
        # the latest frame is stamped at or after every horizon, so never released
        latest = len(self.state.stamps) - 1
        if frame != latest:
            raise ValueError(f"cloud frame {frame} arrived out of order (expected {latest})")
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        self._raw_clouds[frame] = pts
        self.state.add_cloud(frame, pts)

    def on_texts(self, t_image: float, detections) -> None:
        if t_image - self.extraction.window < self._horizon:
            raise ValueError(
                f"texts at t = {t_image} trail the odometry, now at t = {self.state.stamps[-1]}, "
                "by more than one frame"
            )
        self._pending.append((t_image, list(detections)))
        self._drain()

    def _release(self, horizon: float) -> None:
        """Drop the clouds of the frames stamped before horizon that anchor nothing."""
        self._horizon = horizon
        stamps = self.state.stamps
        while self._released < len(stamps) and stamps[self._released] < horizon:
            frame = self._released
            if not self.state.db.anchors(frame):
                self._raw_clouds.pop(frame, None)
                self.state.clouds.pop(frame, None)
            self._released += 1

    def _drain(self) -> None:
        stamps = self.state.stamps
        if not stamps:
            return
        still_pending = []
        for t_image, detections in self._pending:
            if t_image > stamps[-1]:
                still_pending.append((t_image, detections))
                continue
            if t_image < stamps[0]:
                continue
            self._process(t_image, detections)
        self._pending = still_pending

    def _process(self, t_image: float, detections) -> None:
        tic = time.perf_counter()
        try:
            entities = extract_entities(
                detections,
                t_image,
                self.rig,
                self.state.stamps,
                self.state.poses,
                self._raw_clouds,
                self.extraction,
            )
        except (ExtractionError, GeometryError):
            entities = []
        toc = time.perf_counter()
        self.timings.extraction_s += toc - tic
        self.timings.images += 1
        if not entities:
            return
        frame = entities[0].anchor_frame
        tic = time.perf_counter()
        self.constraints.extend(process_frame(self.state, frame, entities))
        self.timings.closure_s += time.perf_counter() - tic

    def finish(self) -> list[LoopConstraint]:
        self._pending = []
        return self.constraints


def run_detector(result, config: PipelineConfig) -> DetectorRun:
    """Drive the detect stage over an in-memory simulation result."""
    run = DetectorRun(
        rig=result.rig,
        extraction=config.extraction_params(),
        state=DetectorState(config.detector_params()),
    )
    camera = sorted(result.camera, key=lambda item: item[0])
    next_image = 0
    for frame, (stamp, pose) in enumerate(zip(result.stamps, result.odom_poses)):
        run.on_odom(float(stamp), frame, pose)
        run.on_cloud(frame, result.clouds[frame])
        while next_image < len(camera) and camera[next_image][0] <= stamp:
            t_image, detections = camera[next_image]
            if detections:
                run.on_texts(float(t_image), detections)
            next_image += 1
    run.finish()
    return run


def optimize_trajectory(odom_poses, constraints, config: PipelineConfig):
    """Pose graph over the odometry chain plus loop edges; returns (nodes, report)."""
    edges = config["edges"]
    graph = PoseGraph.from_odometry(
        odom_poses, sigma_t=edges["odom_sigma_t"], sigma_r=edges["odom_sigma_r"]
    )
    graph.add_edges(
        [c.frame_i for c in constraints],
        [c.frame_j for c in constraints],
        stack_poses([c.relative_pose for c in constraints]),
        [c.information for c in constraints],
    )
    g = config["graph"]
    report = graph.optimize(
        max_iterations=g["max_iterations"],
        lambda_init=g["lambda_init"],
        huber_delta=g["huber_delta"],
        tolerance=g["tolerance"],
    )
    return graph.nodes, report


def _load_loops(path, n_poses: int) -> list[LoopConstraint]:
    """Loop records (see parse_loop) whose frames satisfy 0 <= j < i < n_poses."""
    constraints = []
    for number, raw in text_lines(path):
        if not raw.strip():
            continue
        constraint = parse_loop(raw, number)
        i, j = constraint.frame_i, constraint.frame_j
        if not 0 <= j < i < n_poses:
            raise LogFormatError(
                f"line {number}: loop ({i}, {j}) outside the {n_poses} poses of the trajectory"
            )
        constraints.append(constraint)
    return constraints


def _write_loops(path, constraints) -> None:
    write_log(path, (c.to_json() for c in constraints))


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    # the options override their [sim] keys and meet the same bounds
    options = {"scenario": args.scenario, "seed": args.seed, "laps": args.laps}
    sim = {**config["sim"], **{k: v for k, v in options.items() if v is not None}}
    config = PipelineConfig({**config.values, "sim": sim})
    sim = config["sim"]
    scenario, seed, laps = sim["scenario"], sim["seed"], sim["laps"]
    world = build_world(scenario, seed=seed)
    route = default_route(scenario, laps=laps)
    try:
        result = simulate(
            world, route, config.rig(), noise=config.noise_model(), rate=sim["rate"], seed=seed
        )
    except OutOfRangeFactor as exc:  # stamp rounding grows with the run: no exact config bound
        raise ConfigError(f"[sim] rate {sim['rate']} puts an image past its next frame: {exc}")
    os.makedirs(args.out, exist_ok=True)
    log, gt = simulation_to_records(result)
    log_path = os.path.join(args.out, "log.jsonl")
    gt_path = os.path.join(args.out, "gt.jsonl")
    write_log(log_path, log)
    write_log(gt_path, gt)
    text_events = sum(1 for _, dets in result.camera if dets)
    print(
        f"scenario {scenario} seed {seed}: {len(result.stamps)} frames, "
        f"{len(world.walls)} walls, {len(world.placements)} signs, "
        f"{text_events} text events -> {log_path}, {gt_path}"
    )
    return 0


def cmd_detect(args) -> int:
    config = load_config(args.config)
    run: DetectorRun | None = None
    for record in read_log(args.log):
        payload = record.payload
        if record.kind == "calib":
            run = DetectorRun(
                rig=parse_calib(payload, record.line),
                extraction=config.extraction_params(),
                state=DetectorState(config.detector_params()),
            )
        elif run is None:
            raise LogFormatError(f"line {record.line}: first record must be calib")
        elif record.kind == "odom":
            t = parse_field(payload, "t", json_finite, record.line)
            frame = parse_field(payload, "frame", json_int, record.line)
            pose = parse_pose(payload["pose"], record.line)
            try:
                run.on_odom(t, frame, pose)
            except ValueError as exc:
                raise LogFormatError(f"line {record.line}: {exc}") from exc
        elif record.kind == "cloud":
            points = parse_cloud(payload, record.line)
            if not np.isfinite(points).all():
                raise LogFormatError(
                    f"line {record.line}: bad points value (a coordinate is NaN or infinite)"
                )
            if np.abs(points).max(initial=0.0) > MAX_POINT_COORDINATE:
                raise LogFormatError(
                    f"line {record.line}: bad points value (a coordinate is beyond "
                    f"{MAX_POINT_COORDINATE:g} m)"
                )
            frame = parse_field(payload, "frame", json_int, record.line)
            try:
                run.on_cloud(frame, points)
            except ValueError as exc:
                raise LogFormatError(f"line {record.line}: {exc}") from exc
        elif record.kind == "texts":
            t = parse_field(payload, "t", json_finite, record.line)
            detections = parse_detections(payload, record.line)
            try:
                run.on_texts(t, detections)
            except ValueError as exc:
                raise LogFormatError(f"line {record.line}: {exc}") from exc
        elif record.kind == "gt":
            raise LogFormatError(f"line {record.line}: gt records do not belong in a sensor log")
    if run is None:
        raise LogFormatError("empty log: no calib record")
    constraints = run.finish()
    _write_loops(args.out, constraints)
    t = run.timings
    print(
        f"frames {t.frames}  text events {t.images}  constraints {len(constraints)}\n"
        f"entity extraction {t.extraction_s:.3f} s "
        f"({1000.0 * t.extraction_s / max(t.frames, 1):.2f} ms/frame)\n"
        f"loop closure      {t.closure_s:.3f} s "
        f"({1000.0 * t.closure_s / max(t.frames, 1):.2f} ms/frame)\n"
        f"detect stage      {t.extraction_s + t.closure_s:.3f} s "
        f"({t.per_frame_ms():.2f} ms/frame)"
    )
    return 0


def cmd_optimize(args) -> int:
    config = load_config(args.config)
    stamps, odom_poses = read_trajectory(args.log)
    constraints = _load_loops(args.loops, len(odom_poses))
    nodes, report = optimize_trajectory(odom_poses, constraints, config)
    records = []
    for frame, pose in enumerate(nodes):
        t = stamps[frame] if stamps[frame] is not None else float(frame)
        records.append(odom_record(t, frame, pose))
    write_log(args.out, records)
    state = "converged" if report.converged else "stopped"
    print(
        f"{len(nodes)} nodes, {len(constraints)} loop edges: cost "
        f"{report.initial_cost:.6g} -> {report.final_cost:.6g} "
        f"in {report.iterations} iterations ({state})"
    )
    return 0


def cmd_evaluate(args) -> int:
    config = load_config(args.config)
    _, est = read_trajectory(args.traj)
    _, gt = read_trajectory(args.gt)
    constraints = _load_loops(args.loops, len(gt))
    ev = config["eval"]
    if len(gt) < 2:
        raise LogFormatError("ground truth must contain at least two poses")
    try:
        gtl = label_loop_poses(gt, tau=ev["tau"], min_travel=ev["min_travel"])
    except PathLengthOverflow as exc:
        raise LogFormatError(f"cannot label loops in {args.gt}: {exc}") from exc
    predictions = [(c.frame_i, c.frame_j) for c in constraints]
    try:
        report = make_report(
            predictions, gtl, est, gt, params={"tau": ev["tau"], "min_travel": ev["min_travel"]}
        )
    except GeometryError as exc:
        raise LogFormatError(f"cannot align {args.traj} to {args.gt}: {exc}") from exc
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    recall = "n/a" if report["recall"] is None else f"{report['recall']:.3f}"
    precision = "n/a" if report["precision"] is None else f"{report['precision']:.3f}"
    print(
        f"recall {recall}  precision {precision}  "
        f"tp {report['tp']} fp {report['fp']} fn {report['fn']}  "
        f"ate {report['ate_mean']:.4f} m -> {args.out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="textloop",
        description="Text-cue loop closure pipeline: simulate, detect, optimize, evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic sensor log + ground truth")
    p_sim.add_argument("--scenario", choices=SCENARIOS, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--laps", type=int, default=None)
    p_sim.add_argument("--config", default=None, help="INI config file")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_det = sub.add_parser("detect", help="run text entity extraction + loop closure on a log")
    p_det.add_argument("--log", required=True, help="sensor log (log.jsonl)")
    p_det.add_argument("--config", default=None)
    p_det.add_argument("--out", required=True, help="output loops.jsonl")
    p_det.set_defaults(func=cmd_detect)

    p_opt = sub.add_parser("optimize", help="pose graph over odometry + loop constraints")
    p_opt.add_argument("--log", required=True, help="sensor log providing odometry")
    p_opt.add_argument("--loops", required=True, help="loops.jsonl from detect")
    p_opt.add_argument("--config", default=None)
    p_opt.add_argument("--out", required=True, help="output traj.jsonl")
    p_opt.set_defaults(func=cmd_optimize)

    p_eval = sub.add_parser("evaluate", help="score loops and trajectory against ground truth")
    p_eval.add_argument("--traj", required=True, help="estimated trajectory (traj.jsonl)")
    p_eval.add_argument("--gt", required=True, help="ground truth (gt.jsonl)")
    p_eval.add_argument("--loops", required=True, help="loops.jsonl from detect")
    p_eval.add_argument("--config", default=None)
    p_eval.add_argument("--out", required=True, help="output report.json")
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


_EXPECTED_ERRORS = (
    ConfigError,
    LogFormatError,
    SimulationError,
    LengthMismatch,
    SingularNormalEquations,
    FileNotFoundError,
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _EXPECTED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
