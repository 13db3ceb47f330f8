"""Run one benchmark stage in a process of its own and report what it measured.

    python3 perfbench/stage.py '<json spec>'

``run.py`` starts one process per stage, so each stage's peak RSS is its own:
on multifloor-cli, simulate alone peaks far above detect.  Every process
first times the set-up a user pays (import the package, load the config,
build the detector), then runs its stage, then writes a JSON result to
``spec["out"]``.  With ``spec["trace"]`` the stage runs under the tracer and
its spans go to ``spec["spans"]``.  Times are reported rescaled to the
reference speed of ``speed.py``, with the raw wall times beside them.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

from speed import Speedometer  # noqa: E402

_SPEED = Speedometer().start()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _setup(config_path: str):
    import textloop.cli as cli
    from textloop.config import load_config
    from textloop.loop_closure import DetectorState

    config = load_config(config_path, environ={})
    cli.DetectorRun(
        rig=config.rig(),
        extraction=config.extraction_params(),
        state=DetectorState(config.detector_params()),
    )
    return config


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class Stage:
    """Times named regions, under a tracer span when tracing is on.

    A frame runs from one odometry record to the next: reading and decoding
    its records plus the extraction of the image its odometry bracketed.
    ``marks`` holds (start time, text events processed so far) per frame.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.regions: list[tuple[str, float, float]] = []
        self.marks: list[tuple[float, int]] = []

    def timed(self, name: str, fn):
        tic = time.perf_counter()
        if self.tracer is None:
            result = fn()
        else:
            result = self.tracer.span("stage." + name, fn)
        self.regions.append((name, tic, time.perf_counter()))
        return result

    def mark_frame(self, images: int) -> None:
        self.marks.append((time.perf_counter(), images))
        if self.tracer is not None:
            self.tracer.frame = len(self.marks)

    def report(self, speed: Speedometer, out: dict) -> None:
        out["seconds"], out["wall_seconds"] = {}, {}
        for name, t0, t1 in self.regions:
            out["seconds"][name] = out["seconds"].get(name, 0.0) + speed.rescale(t0, t1)
            out["wall_seconds"][name] = out["wall_seconds"].get(name, 0.0) + t1 - t0
        if self.marks:
            out["latencies"] = speed.rescale_frames([t for t, _ in self.marks])
            images = [n for _, n in self.marks]
            out["text_frames"] = [b > a for a, b in zip(images, images[1:])]


def _detector_counts(run) -> dict:
    return {
        "database.observations": len(run.state.db),
        "loop_closure.cloud_points": sum(len(c.points) for c in run.state.clouds.values()),
    }


def cli_stage(spec, stage: Stage, out: dict) -> None:
    import textloop.cli as cli

    work, ini = spec["work"], spec["config"]
    log, gt = os.path.join(work, "log.jsonl"), os.path.join(work, "gt.jsonl")
    loops, traj = os.path.join(work, "loops.jsonl"), os.path.join(work, "traj.jsonl")
    name = spec["stage"]
    if name == "simulate":
        argv = ["simulate", "--scenario", spec["scenario"], "--seed", str(spec["seed"])]
        if spec["laps"] is not None:
            argv += ["--laps", str(spec["laps"])]
        argv += ["--config", ini, "--out", work]
        _check_exit(stage.timed("simulate", lambda: cli.main(argv)))
        out["peak_rss_mb"] = _peak_rss_mb()
    elif name == "detect":
        runs = []
        on_odom = cli.DetectorRun.on_odom

        def marked_on_odom(run, stamp, frame, pose):
            if not runs:
                runs.append(run)
            stage.mark_frame(run.timings.images)
            return on_odom(run, stamp, frame, pose)

        cli.DetectorRun.on_odom = marked_on_odom
        argv = ["detect", "--log", log, "--config", ini, "--out", loops]
        _check_exit(stage.timed("detect", lambda: cli.main(argv)))
        out["peak_rss_mb"] = _peak_rss_mb()
        cli.DetectorRun.on_odom = on_odom
        run = runs[0]
        stage.mark_frame(run.timings.images)
        out["counts"] = _detector_counts(run)
        out["loops_digest"] = _file_digest(loops)
        with open(loops, "r", encoding="utf-8") as handle:
            out["constraints"] = sum(1 for line in handle if line.strip())
    elif name == "optimize":
        argv = ["optimize", "--log", log, "--loops", loops, "--config", ini, "--out", traj]
        _check_exit(stage.timed("optimize", lambda: cli.main(argv)))
        out["traj_digest"] = _file_digest(traj)
        with open(traj, "r", encoding="utf-8") as handle:
            out["nodes"] = sum(1 for line in handle if line.strip())
    elif name == "evaluate":
        reports = {}
        for label, path in (("odom", log), ("opt", traj)):
            report_path = os.path.join(work, f"report_{label}.json")
            argv = ["evaluate", "--traj", path, "--gt", gt, "--loops", loops]
            argv += ["--config", ini, "--out", report_path]
            _check_exit(stage.timed("evaluate", lambda: cli.main(argv)))
            with open(report_path, "r", encoding="utf-8") as handle:
                reports[label] = json.load(handle)
        out["report"] = _quality(reports["odom"], reports["opt"])
    else:
        raise ValueError(f"unknown cli stage {name!r}")


def _check_exit(code) -> None:
    if code != 0:
        raise RuntimeError(f"textloop command exited with status {code}")


def _quality(report_odom: dict, report_opt: dict | None) -> dict:
    quality = {key: report_odom[key] for key in ("precision", "recall", "tp", "fp", "fn")}
    quality["ate_odom_m"] = report_odom["ate_mean"]
    if report_opt is not None:
        quality["ate_opt_m"] = report_opt["ate_mean"]
        quality["ate_reduction"] = 1.0 - report_opt["ate_mean"] / report_odom["ate_mean"]
    return quality


def memory_stage(spec, stage: Stage, config, out: dict) -> None:
    from textloop import simulator

    pickled = os.path.join(spec["work"], "simulation.pkl")
    if spec["stage"] == "simulate":
        from workloads import build_inputs

        def generate():
            world, route = build_inputs(spec["workload"], spec["seed"], spec["quick"])
            sim = config["sim"]
            return simulator.simulate(
                world, route, config.rig(), noise=config.noise_model(), rate=sim["rate"],
                seed=spec["seed"],
            )

        result = stage.timed("simulate", generate)
        out["peak_rss_mb"] = _peak_rss_mb()
        out["frames"] = len(result.stamps)
        with open(pickled, "wb") as handle:
            pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
        return
    if spec["stage"] != "detect":
        raise ValueError(f"unknown in-memory stage {spec['stage']!r}")
    import textloop.cli as cli
    from textloop import evaluation
    from textloop.loop_closure import DetectorState

    # the benchmark's own pickle, written by the simulate process of this pass
    with open(pickled, "rb") as handle:
        result = pickle.load(handle)
    run = cli.DetectorRun(
        rig=result.rig,
        extraction=config.extraction_params(),
        state=DetectorState(config.detector_params()),
    )
    def replay():
        # the record order of cli.run_detector, one frame at a time
        camera = sorted(result.camera, key=lambda item: item[0])
        next_image = 0
        for frame, (stamp, pose) in enumerate(zip(result.stamps, result.odom_poses)):
            stage.mark_frame(run.timings.images)
            run.on_odom(float(stamp), frame, pose)
            run.on_cloud(frame, result.clouds[frame])
            while next_image < len(camera) and camera[next_image][0] <= stamp:
                t_image, detections = camera[next_image]
                if detections:
                    run.on_texts(float(t_image), detections)
                next_image += 1
        constraints = run.finish()
        stage.mark_frame(run.timings.images)
        return constraints

    constraints = stage.timed("detect", replay)
    out["peak_rss_mb"] = _peak_rss_mb()
    out["counts"] = _detector_counts(run)
    out["constraints"] = len(constraints)
    out["loops_digest"] = _digest(
        json.dumps(c.to_json(), separators=(",", ":")) for c in constraints
    )
    nodes = None
    if spec["optimize"]:
        nodes, _ = stage.timed(
            "optimize", lambda: cli.optimize_trajectory(result.odom_poses, constraints, config)
        )
        out["traj_digest"] = _digest(
            json.dumps(pose.to_json(), separators=(",", ":")) for pose in nodes
        )
        out["nodes"] = len(nodes)
    ev = config["eval"]

    def score():
        gtl = evaluation.label_loop_poses(result.gt_poses, tau=ev["tau"], min_travel=ev["min_travel"])
        predictions = [(c.frame_i, c.frame_j) for c in constraints]
        params = {"tau": ev["tau"], "min_travel": ev["min_travel"]}
        report_odom = evaluation.make_report(predictions, gtl, result.odom_poses, result.gt_poses, params)
        report_opt = None
        if nodes is not None:
            report_opt = evaluation.make_report(predictions, gtl, nodes, result.gt_poses, params)
        return _quality(report_odom, report_opt)

    out["report"] = stage.timed("evaluate", score)


def main(argv) -> int:
    spec = json.loads(argv[1])
    config = _setup(spec["config"])
    setup_end = time.perf_counter()
    out: dict = {}
    tracer = None
    if spec.get("trace"):
        from spans import Tracer

        tracer = Tracer().install()
    stage = Stage(tracer)
    if spec["stage"] != "setup":
        if spec["kind"] == "cli":
            cli_stage(spec, stage, out)
        else:
            memory_stage(spec, stage, config, out)
    _SPEED.stop()
    out["setup_s"] = _SPEED.rescale(_START, setup_end)
    out["wall_setup_s"] = setup_end - _START
    out["speed"] = _SPEED.scale(_START, time.perf_counter())
    stage.report(_SPEED, out)
    if tracer is not None:
        from spans import summarize

        tracer.uninstall()
        counts = dict(tracer.counts)
        counts.update(out.get("counts", {}))
        out["layers"] = summarize(tracer.spans, counts, tracer.maxima, _SPEED.rescale)
        with open(spec["spans"], "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
